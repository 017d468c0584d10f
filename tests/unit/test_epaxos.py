"""EPaxos unit tests: graph ordering and replica state machine."""

import pytest

from repro.epaxos import (ACCEPTED, COMMITTED, EXECUTED, PREACCEPTED,
                          Accept, Commit, EPaxosReplica, PreAccept,
                          execution_order, tarjan_sccs)


class Bus:
    """Synchronous in-memory transport with manual pumping."""

    def __init__(self):
        self.replicas = {}
        self.queue = []
        self.dropped = set()   # (src, dst) pairs to drop

    def make(self, members, keys_of=None, on_execute=None):
        executed = {m: [] for m in members}
        for m in members:
            def cb(cmd, iid, m=m):
                executed[m].append(cmd["id"])
            self.replicas[m] = EPaxosReplica(
                m, list(members),
                keys_of=keys_of or (lambda c: c["keys"]),
                on_execute=on_execute or cb,
                send=self._sender(m))
        return executed

    def _sender(self, src):
        def send(dst, msg):
            if (src, dst) not in self.dropped:
                self.queue.append((src, dst, msg))
        return send

    def pump(self, rounds=50):
        for _ in range(rounds):
            if not self.queue:
                return
            batch, self.queue = self.queue, []
            for src, dst, msg in batch:
                if (src, dst) not in self.dropped:
                    self.replicas[dst].handle(msg, src)


def cmd(cid, keys=("k",)):
    return {"id": cid, "keys": list(keys)}


class TestGraph:
    def test_sccs_linear_chain(self):
        nodes = ["a", "b", "c"]
        edges = {"a": [], "b": ["a"], "c": ["b"]}
        sccs = tarjan_sccs(nodes, lambda n: edges[n])
        assert [s[0] for s in sccs] == ["a", "b", "c"]

    def test_sccs_cycle_grouped(self):
        nodes = ["a", "b"]
        edges = {"a": ["b"], "b": ["a"]}
        sccs = tarjan_sccs(nodes, lambda n: edges[n])
        assert len(sccs) == 1
        assert set(sccs[0]) == {"a", "b"}

    def test_execution_order_deps_first(self):
        committed = {
            ("r", 0): (1, frozenset()),
            ("r", 1): (2, frozenset({("r", 0)})),
        }
        assert execution_order(committed) == [("r", 0), ("r", 1)]

    def test_execution_order_cycle_by_seq(self):
        committed = {
            ("a", 0): (2, frozenset({("b", 0)})),
            ("b", 0): (1, frozenset({("a", 0)})),
        }
        assert execution_order(committed) == [("b", 0), ("a", 0)]

    def test_execution_order_cycle_seq_tie_by_id(self):
        committed = {
            ("a", 0): (1, frozenset({("b", 0)})),
            ("b", 0): (1, frozenset({("a", 0)})),
        }
        assert execution_order(committed) == [("a", 0), ("b", 0)]

    def test_external_deps_ignored(self):
        committed = {("a", 0): (1, frozenset({("ghost", 7)}))}
        assert execution_order(committed) == [("a", 0)]


class TestReplicaFastPath:
    def test_single_member_commits_immediately(self):
        bus = Bus()
        executed = bus.make(["solo"])
        bus.replicas["solo"].propose(cmd(1))
        assert executed["solo"] == [1]

    def test_three_members_converge(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.replicas["a"].propose(cmd(1))
        bus.pump()
        assert executed["a"] == executed["b"] == executed["c"] == [1]

    def test_non_interfering_commit_in_parallel(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.replicas["a"].propose(cmd(1, keys=("x",)))
        bus.replicas["b"].propose(cmd(2, keys=("y",)))
        bus.pump()
        for member in "abc":
            assert set(executed[member]) == {1, 2}

    def test_interfering_same_order_everywhere(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.replicas["a"].propose(cmd(1, keys=("k",)))
        bus.replicas["c"].propose(cmd(2, keys=("k",)))
        bus.pump()
        assert executed["a"] == executed["b"] == executed["c"]
        assert set(executed["a"]) == {1, 2}

    def test_sequential_interfering_ordered_causally(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.replicas["a"].propose(cmd(1, keys=("k",)))
        bus.pump()
        bus.replicas["b"].propose(cmd(2, keys=("k",)))
        bus.pump()
        assert executed["a"] == executed["b"] == executed["c"] == [1, 2]

    def test_many_concurrent_conflicts_agree(self):
        members = [f"m{i}" for i in range(5)]
        bus = Bus()
        executed = bus.make(members)
        for index, member in enumerate(members):
            bus.replicas[member].propose(cmd(index, keys=("hot",)))
        bus.pump(rounds=200)
        orders = {tuple(executed[m]) for m in members}
        assert len(orders) == 1
        assert set(orders.pop()) == set(range(5))


class TestReplicaQuorums:
    def test_quorum_arithmetic(self):
        replica = EPaxosReplica("a", ["a", "b", "c"],
                                keys_of=lambda c: [], on_execute=None,
                                send=lambda d, m: None)
        assert replica.n == 3
        assert replica.f == 1
        assert replica.majority == 2
        assert replica.fast_quorum_replies == 1

    def test_quorums_n5(self):
        replica = EPaxosReplica("a", list("abcde"),
                                keys_of=lambda c: [], on_execute=None,
                                send=lambda d, m: None)
        assert replica.f == 2
        assert replica.majority == 3
        assert replica.fast_quorum_replies == 3

    def test_replica_must_be_member(self):
        with pytest.raises(ValueError):
            EPaxosReplica("x", ["a", "b"], keys_of=lambda c: [],
                          on_execute=None, send=lambda d, m: None)


class TestRecovery:
    def test_recover_committed_instance_noop(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        iid = bus.replicas["a"].propose(cmd(1))
        bus.pump()
        bus.replicas["b"].recover(iid)
        bus.pump()
        assert executed["b"] == [1]

    def test_recover_preaccepted_after_leader_silence(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        # Leader a sends PreAccepts but then goes silent: drop replies
        # to it so it never commits.
        bus.dropped = {("b", "a"), ("c", "a")}
        iid = bus.replicas["a"].propose(cmd(1))
        bus.pump()
        assert executed["b"] == []
        # b takes over.
        bus.replicas["b"].recover(iid)
        bus.pump(rounds=100)
        assert executed["b"] == executed["c"] == [1]

    def test_recover_unknown_instance_commits_noop(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.replicas["b"].recover(("a", 0))
        bus.pump()
        # The slot finalises as a no-op: nothing executes, nothing hangs.
        assert executed["b"] == []
        inst = bus.replicas["b"].instances[("a", 0)]
        assert inst.is_committed

    def test_resend_after_message_loss(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        bus.dropped = {("a", "b"), ("a", "c")}
        iid = bus.replicas["a"].propose(cmd(1))
        bus.pump()
        assert executed["a"] == []
        bus.dropped = set()
        bus.replicas["a"].resend(iid)
        bus.pump()
        assert executed["a"] == executed["b"] == [1]

    def test_resend_committed_rebroadcasts(self):
        bus = Bus()
        executed = bus.make(["a", "b", "c"])
        iid = bus.replicas["a"].propose(cmd(1))
        bus.pump()
        # c somehow lost the commit; simulate by resending from a.
        bus.replicas["a"].resend(iid)
        bus.pump()
        assert executed["c"] == [1]  # idempotent


class TestSeeding:
    def test_seed_committed_executes_in_order(self):
        executed = []
        replica = EPaxosReplica("a", ["a"], keys_of=lambda c: c["keys"],
                                on_execute=lambda c, i: executed.append(
                                    c["id"]),
                                send=lambda d, m: None)
        replica.seed_committed(("z", 0), cmd(1), 1, frozenset())
        assert executed == [1]

    def test_seed_as_executed_skips_callback(self):
        executed = []
        replica = EPaxosReplica("a", ["a"], keys_of=lambda c: c["keys"],
                                on_execute=lambda c, i: executed.append(
                                    c["id"]),
                                send=lambda d, m: None)
        replica.seed_committed(("z", 0), cmd(1), 1, frozenset(),
                               executed=True)
        assert executed == []
        assert replica.instances[("z", 0)].is_executed

    def test_committed_instances_listing(self):
        bus = Bus()
        bus.make(["a", "b", "c"])
        bus.replicas["a"].propose(cmd(1))
        bus.pump()
        committed = bus.replicas["b"].committed_instances()
        assert len(committed) == 1

    def test_set_members_grows_roster(self):
        bus = Bus()
        bus.make(["a", "b", "c"])
        replica = bus.replicas["a"]
        replica.set_members(["a", "b", "c", "d"])
        assert replica.n == 4
        with pytest.raises(ValueError):
            replica.set_members(["b", "c"])


def test_deps_are_sized_as_the_sum_of_their_instances():
    from repro.transport.codec import encode_value, value_size
    deps = frozenset({("m0", 1), ("m12", 7), ("édge", 3)})
    assert value_size(deps) == len(encode_value(deps)) \
        == 2 + sum(value_size(d) for d in deps)
    assert value_size(frozenset()) == 2
