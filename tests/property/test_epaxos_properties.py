"""Property tests for EPaxos: agreement on execution order."""

from hypothesis import given, settings, strategies as st

from repro.epaxos import EPaxosReplica
from repro.epaxos.instance import COMMITTED
from repro.epaxos.messages import Commit, PreAccept, initial_ballot


class Bus:
    def __init__(self, members):
        self.replicas = {}
        self.queue = []
        self.executed = {m: [] for m in members}
        for m in members:
            self.replicas[m] = EPaxosReplica(
                m, list(members),
                keys_of=lambda c: c["keys"],
                on_execute=(lambda mm: (lambda c, i:
                                        self.executed[mm].append(c["id"])))(m),
                send=(lambda src: (lambda dst, msg:
                                   self.queue.append((src, dst, msg))))(m))

    def pump(self):
        for _ in range(300):
            if not self.queue:
                return
            batch, self.queue = self.queue, []
            for src, dst, msg in batch:
                self.replicas[dst].handle(msg, src)


MEMBERS = ["a", "b", "c"]

proposal_st = st.lists(
    st.tuples(st.sampled_from(MEMBERS),
              st.lists(st.sampled_from(["x", "y", "z"]), min_size=1,
                       max_size=2, unique=True)),
    min_size=1, max_size=10)


@settings(max_examples=30, deadline=None)
@given(proposals=proposal_st, pump_between=st.booleans())
def test_all_commands_executed_everywhere(proposals, pump_between):
    bus = Bus(MEMBERS)
    for index, (leader, keys) in enumerate(proposals):
        bus.replicas[leader].propose({"id": index, "keys": keys})
        if pump_between:
            bus.pump()
    bus.pump()
    expected = set(range(len(proposals)))
    for member in MEMBERS:
        assert set(bus.executed[member]) == expected


@settings(max_examples=30, deadline=None)
@given(proposals=proposal_st)
def test_interfering_pairs_ordered_identically(proposals):
    """For every pair of interfering commands, all replicas agree on
    their relative execution order (the SI property Colony needs)."""
    bus = Bus(MEMBERS)
    commands = {}
    for index, (leader, keys) in enumerate(proposals):
        commands[index] = set(keys)
        bus.replicas[leader].propose({"id": index, "keys": keys})
    bus.pump()
    positions = {m: {cid: i for i, cid in enumerate(bus.executed[m])}
                 for m in MEMBERS}
    for i in commands:
        for j in commands:
            if i >= j or not (commands[i] & commands[j]):
                continue
            orders = {positions[m][i] < positions[m][j] for m in MEMBERS}
            assert len(orders) == 1, (i, j, bus.executed)


@settings(max_examples=20, deadline=None)
@given(proposals=proposal_st)
def test_execution_idempotent_under_commit_replay(proposals):
    bus = Bus(MEMBERS)
    for index, (leader, keys) in enumerate(proposals):
        bus.replicas[leader].propose({"id": index, "keys": keys})
    bus.pump()
    before = {m: list(bus.executed[m]) for m in MEMBERS}
    # Replay every committed instance's Commit broadcast.
    for m in MEMBERS:
        for iid, cmd, seq, deps in bus.replicas[m].committed_instances():
            bus.replicas[m].resend(iid)
    bus.pump()
    assert {m: list(bus.executed[m]) for m in MEMBERS} == before


# ----------------------------------------------------------------------
# execution from the unexecuted set == execution from the full scan
# ----------------------------------------------------------------------
class FullScanReplica(EPaxosReplica):
    """The oracle: execution and liveness scans as they were before the
    replica kept the set of unexecuted instances — every call walks
    every instance ever created (kept verbatim)."""

    def _try_execute(self):
        progress = True
        while progress:
            progress = False
            for instance_id in list(self.instances):
                inst = self.instances[instance_id]
                if inst.status != COMMITTED:
                    continue
                closure = self._committed_closure(instance_id)
                if closure is None:
                    continue
                self._execute_closure(closure)
                progress = True

    def _committed_closure(self, root):
        closure = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            inst = self.instances.get(node)
            if inst is None or not inst.is_committed:
                return None
            if inst.is_executed:
                continue
            closure[node] = (inst.seq, inst.deps)
            stack.extend(inst.deps)
        return closure

    def unexecuted(self):
        return [i for i, inst in self.instances.items()
                if not inst.is_executed]

    def uncommitted_dependencies(self):
        blocked = set()
        for inst in self.instances.values():
            if inst.status != COMMITTED:
                continue
            for dep in inst.deps:
                dep_inst = self.instances.get(dep)
                if dep_inst is None or not dep_inst.is_committed:
                    blocked.add(dep)
        return blocked


INSTANCE_IDS = [(leader, slot) for leader in ("b", "c")
                for slot in range(3)]

arrival_st = st.lists(
    st.tuples(st.sampled_from(INSTANCE_IDS),
              st.sampled_from(["preaccept", "commit", "commit", "seed",
                               "seed_executed"])),
    min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(deps=st.lists(st.frozensets(st.sampled_from(INSTANCE_IDS),
                                   max_size=2),
                     min_size=len(INSTANCE_IDS),
                     max_size=len(INSTANCE_IDS)),
       seqs=st.lists(st.integers(1, 4), min_size=len(INSTANCE_IDS),
                     max_size=len(INSTANCE_IDS)),
       arrivals=arrival_st)
def test_unexecuted_set_executes_in_full_scan_order(deps, seqs, arrivals):
    """Random dependency graphs (cycles included) whose instances are
    first heard of and committed in random orders, by message or by
    ``seed_committed``: ``on_execute`` fires in exactly the full scan's
    order, and the liveness scans report the same instances in the
    same order."""
    attrs = {iid: (seq, dep - {iid})
             for iid, seq, dep in zip(INSTANCE_IDS, seqs, deps)}
    executed = {"indexed": [], "oracle": []}
    replicas = {
        name: cls("a", ["a", "b", "c"], keys_of=lambda c: c["keys"],
                  on_execute=(lambda c, i, log=executed[name]:
                              log.append(i)),
                  send=lambda dst, msg: None)
        for name, cls in (("indexed", EPaxosReplica),
                          ("oracle", FullScanReplica))}
    for iid, how in arrivals:
        seq, dep = attrs[iid]
        command = {"keys": [f"k{iid[1]}"]}
        for replica in replicas.values():
            if how == "preaccept":
                replica.handle(PreAccept(iid, initial_ballot(iid[0]),
                                         command, seq, dep), iid[0])
            elif how == "commit":
                replica.handle(Commit(iid, command, seq, dep), iid[0])
            else:
                replica.seed_committed(iid, command, seq, dep,
                                       executed=how == "seed_executed")
        indexed, oracle = replicas["indexed"], replicas["oracle"]
        assert executed["indexed"] == executed["oracle"]
        assert list(indexed._unexecuted) == oracle.unexecuted()
        assert list(indexed.uncommitted_dependencies()) \
            == list(oracle.uncommitted_dependencies())
