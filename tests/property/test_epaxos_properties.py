"""Property tests for EPaxos: agreement on execution order."""

from hypothesis import example, given, settings, strategies as st

from repro.epaxos import EPaxosReplica
from repro.epaxos.replica import NOOP
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
    """The oracle: execution and liveness scans over every instance ever
    created, as before the replica kept the set of unexecuted instances.
    A dependency ``(r, s)`` is expanded by walking ``r``'s slots
    ``0..s`` in ``instances``."""

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

    def _scan(self, inst, blocked=None):
        """(edges, blocked) of a committed instance by a full scan."""
        latest = {}
        for replica, slot in inst.deps:
            latest[replica] = max(slot, latest.get(replica, -1))
        edges, missing = [], []
        if inst.keys:
            for replica, slot in latest.items():
                missing += [(replica, s) for s in range(slot + 1)
                            if (replica, s) not in self.instances]
        for other_id, other in self.instances.items():
            if not inst.keys or other_id[0] not in latest \
                    or other_id[1] > latest[other_id[0]] \
                    or other is inst or other.is_executed:
                continue
            interferes = not inst.keys.isdisjoint(other.keys)
            if not other.is_committed and (interferes or not other.keys):
                missing.append(other_id)
            elif interferes:
                edges.append(other_id)
        return sorted(edges), missing

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
            edges, missing = self._scan(inst)
            if missing:
                return None
            closure[node] = (inst.seq, tuple(edges))
            stack.extend(edges)
        return closure

    def unexecuted(self):
        return [i for i, inst in self.instances.items()
                if not inst.is_executed]

    def uncommitted_dependencies(self):
        blocked = set()
        for inst in self.instances.values():
            if inst.status == COMMITTED:
                blocked.update(self._scan(inst)[1])
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


# ----------------------------------------------------------------------
# one dependency per replica covers every dependency of the full sets
# ----------------------------------------------------------------------
class FullDepsReplica(EPaxosReplica):
    """The oracle: dependencies as the replica kept them before they
    were bounded — every interfering instance ever, merged by union and
    walked as named (kept verbatim)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # conflict key -> instance ids whose command touches it.
        self._key_sets = {}

    def _adopt(self, inst, command, seq, deps, status):
        super()._adopt(inst, command, seq, deps, status)
        if command is not NOOP:
            for key in self.keys_of(command):
                self._key_sets.setdefault(key, set()).add(inst.instance_id)

    def _interfering(self, command, exclude):
        if command is NOOP:
            return set()
        found = set()
        for key in self.keys_of(command):
            found.update(self._key_sets.get(key, ()))
        found.discard(exclude)
        return found

    def _attributes_for(self, command, instance_id):
        deps = self._interfering(command, instance_id)
        max_seq = 0
        for dep in deps:
            dep_inst = self.instances.get(dep)
            if dep_inst is not None and dep_inst.seq > max_seq:
                max_seq = dep_inst.seq
        return max_seq + 1, frozenset(deps)

    @staticmethod
    def _merge_deps(deps, more):
        return deps if more <= deps else deps | more

    def _committed_closure(self, root):
        closure = {}
        known = self.instances.keys()
        unexecuted = self._unexecuted
        stack = [root]
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            inst = unexecuted[node]
            if inst.status != COMMITTED or not known >= inst.deps:
                return None
            closure[node] = (inst.seq, inst.deps)
            stack.extend(unexecuted.keys() & inst.deps)
        return closure

    def uncommitted_dependencies(self):
        blocked = set()
        for inst in self._unexecuted.values():
            if inst.status != COMMITTED:
                continue
            for dep in inst.deps:
                dep_inst = self.instances.get(dep)
                if dep_inst is None or not dep_inst.is_committed:
                    blocked.add(dep)
        return blocked


class CoveredReplica(FullDepsReplica):
    """The bounded replica, with the oracle's index kept beside it: each
    time it computes attributes it checks that they cover the oracle's
    from the same knowledge."""

    _merge_deps = staticmethod(EPaxosReplica._merge_deps)
    _committed_closure = EPaxosReplica._committed_closure
    uncommitted_dependencies = EPaxosReplica.uncommitted_dependencies

    def _attributes_for(self, command, instance_id):
        seq, deps = EPaxosReplica._attributes_for(self, command, instance_id)
        full_seq, full_deps = super()._attributes_for(command, instance_id)
        assert len(deps) == len(dict(deps)), deps
        latest = dict(deps)
        for replica, slot in full_deps:
            dep = self.instances[(replica, slot)]
            if dep.is_committed and dep.command is NOOP:
                continue  # final: interferes with nothing
            assert latest.get(replica, -1) >= slot, (full_deps, deps)
        assert seq >= full_seq
        return seq, deps


class Mesh:
    """Replicas of one class on per-link queues; each step of a
    schedule delivers one message (in or out of order) or drops it,
    proposes, or recovers a blocked dependency."""

    def __init__(self, cls, members=MEMBERS):
        self.members = list(members)
        self.links = {(a, b): [] for a in members for b in members if a != b}
        self.executed = {m: [] for m in members}
        self.replicas = {
            m: cls(m, list(members), keys_of=lambda c: c["keys"],
                   on_execute=(lambda c, i, log=self.executed[m]:
                               log.append(c["id"])),
                   send=(lambda dst, msg, src=m:
                         self.links[(src, dst)].append(msg)))
            for m in members}
        self.commands = {}

    def busy(self):
        return sorted(link for link, queue in self.links.items() if queue)

    def deliver(self, link, index=0):
        msg = self.links[link].pop(index)
        self.replicas[link[1]].handle(msg, link[0])

    def propose(self, leader, keys):
        cid = len(self.commands)
        self.commands[cid] = set(keys)
        self.replicas[leader].propose({"id": cid, "keys": list(keys)})

    def drain(self):
        for _ in range(10_000):
            busy = self.busy()
            if not busy:
                return
            for link in busy:
                self.deliver(link)
        raise AssertionError("messages still flowing")

    def heal(self):
        """Reliable FIFO delivery plus the liveness the group member
        drives (``ConsensusOrder.tick``): own instances re-sent until
        every replica committed them, blocked dependencies recovered,
        until every replica settles."""
        replicas = self.replicas.values()
        for _ in range(50):
            self.drain()
            stalled = False
            for member in self.members:
                replica = self.replicas[member]
                for iid in list(replica.instances):
                    if iid[0] == member and not all(
                            iid in other.instances
                            and other.instances[iid].is_committed
                            for other in replicas):
                        replica.resend(iid)
                        stalled = True
                self.drain()
                for iid in sorted(replica.uncommitted_dependencies()):
                    replica.recover(iid)
                    stalled = True
                    self.drain()
            if not stalled and all(not r._unexecuted
                                   for r in self.replicas.values()):
                return
        raise AssertionError("replicas did not settle")

    def interfering_pairs(self):
        return [(i, j) for i in self.commands for j in self.commands
                if i < j and self.commands[i] & self.commands[j]]

    def relative_orders(self, member):
        position = {cid: k for k, cid in enumerate(self.executed[member])}
        return {(i, j): position[i] < position[j]
                for i, j in self.interfering_pairs()
                if i in position and j in position}


step_st = st.tuples(st.sampled_from(["propose", "deliver", "deliver",
                                     "deliver", "reorder", "drop",
                                     "recover", "take_over"]),
                    st.integers(0, 1 << 16),
                    st.sampled_from(MEMBERS),
                    st.lists(st.sampled_from(["x", "y", "z"]), min_size=1,
                             max_size=2, unique=True))


@settings(deadline=None)
@given(steps=st.lists(step_st, min_size=1, max_size=40))
# c takes b's instance over, its Prepare to b and a's reply are lost, and
# b's re-sent round draws NACKs naming c's ballot: b must take the
# instance over in turn rather than re-send a round nobody accepts.
@example(steps=[("propose", 0, "b", ["x"]), ("drop", 0, "a", ["x"]),
                ("take_over", 0, "c", ["x"]), ("propose", 0, "a", ["y"]),
                ("deliver", 0, "a", ["x"]), ("drop", 1024, "a", ["x"]),
                ("deliver", 3, "a", ["x"]), ("drop", 237, "a", ["x"])])
def test_bounded_deps_cover_the_full_sets_under_loss_and_recovery(steps):
    """Random schedules with loss, reordering, recovery of blocked
    dependencies and take-overs of any instance: every attribute
    computed covers the full set from the same knowledge, no
    deps has two entries for one replica, and once the network heals
    every replica executes the same commands, with one relative order
    for each interfering pair."""
    mesh = Mesh(CoveredReplica)
    for action, pick, member, keys in steps:
        busy = mesh.busy()
        if action == "propose" or not busy:
            mesh.propose(member, keys)
            continue
        link = busy[pick % len(busy)]
        queue = mesh.links[link]
        if action == "deliver":
            mesh.deliver(link)
        elif action == "reorder":
            mesh.deliver(link, pick % len(queue))
        elif action == "drop":
            queue.pop(pick % len(queue))
        elif action == "take_over":
            # Any instance someone has heard of, recovered by a member
            # that may know nothing of it: a no-op races the leader's
            # round, and may be accepted at a minority only.
            heard = sorted(set().union(*(r.instances
                                         for r in mesh.replicas.values())))
            mesh.replicas[member].recover(heard[pick % len(heard)])
        else:
            replica = mesh.replicas[member]
            blocked = sorted(replica.uncommitted_dependencies())
            if blocked:
                replica.recover(blocked[pick % len(blocked)])
    mesh.heal()
    for replica in mesh.replicas.values():
        for inst in replica.instances.values():
            assert len(inst.deps) <= len(MEMBERS)
    executed = {m: sorted(mesh.executed[m]) for m in MEMBERS}
    assert executed["a"] == executed["b"] == executed["c"]
    assert all(len(set(log)) == len(log) for log in mesh.executed.values())
    orders = [mesh.relative_orders(m) for m in MEMBERS]
    assert orders[0] == orders[1] == orders[2]


@settings(deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 16),
                                st.sampled_from(MEMBERS),
                                st.lists(st.sampled_from(["x", "y", "z"]),
                                         min_size=1, max_size=2,
                                         unique=True)),
                      min_size=1, max_size=40))
def test_fifo_runs_name_the_oracles_instances_in_its_order(steps):
    """Reliable FIFO links, no recovery, random interleavings: the
    bounded replica takes the oracle's path message for message, each
    committed deps is the oracle's highest slot per replica, and every
    interfering pair runs in the oracle's order."""
    bounded, oracle = Mesh(EPaxosReplica), Mesh(FullDepsReplica)
    for propose, pick, member, keys in steps:
        assert bounded.busy() == oracle.busy()
        busy = bounded.busy()
        for mesh in (bounded, oracle):
            if propose or not busy:
                mesh.propose(member, keys)
            else:
                mesh.deliver(busy[pick % len(busy)])
    bounded.drain()
    oracle.drain()
    for member in MEMBERS:
        mine = bounded.replicas[member].instances
        theirs = oracle.replicas[member].instances
        assert mine.keys() == theirs.keys()
        for iid, inst in theirs.items():
            latest = {}
            for replica, slot in inst.deps:
                latest[replica] = max(slot, latest.get(replica, -1))
            assert dict(mine[iid].deps) == latest
            assert (mine[iid].status, mine[iid].seq) \
                == (inst.status, inst.seq)
        assert bounded.relative_orders(member) \
            == oracle.relative_orders(member)
        assert sorted(bounded.executed[member]) \
            == sorted(oracle.executed[member]) \
            == sorted(bounded.commands)
