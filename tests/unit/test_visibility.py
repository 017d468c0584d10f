"""The edge visibility frontier: admission, read tokens, K-stability.

What a replica exposes to readers (§3.8, §4) is its state vector plus
the dots it holds visible by id — own commits awaiting their stamp,
a peer's transactions ahead of the push chain.  ``EdgeLog.admit`` is
the one way a transaction enters it and ``EdgeFrontier`` decides what
readers see: most tests here drive those two values directly, with no
node and no simulator, the way ``EdgeNode`` wires them.  A group
member's execution pipeline — the gate between consensus order and
admission — is an actor's, and is driven on a node whose sessions stay
closed.
"""

import pytest

from repro.core import (CommitStamp, Dot, JournalEntry, KStabilityTracker,
                        ObjectKey, ObjectState, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter
from repro.edge import EdgeNode
from repro.edge.replica import EdgeFrontier
from repro.groups import GroupMember
from repro.sim import Simulation

from ..replicas import Replica

KEY = ObjectKey("b", "x")


def txn(counter, origin="f", snapshot_vector=None, local_deps=(),
        entries=None):
    op = Counter().prepare("increment", 1)
    return Transaction(
        dot=Dot(counter, origin), origin=origin,
        snapshot=Snapshot(VectorClock(snapshot_vector or {}), local_deps),
        commit=CommitStamp(entries),
        writes=[WriteOp(KEY, op)])


def replica_values():
    """The two values of a replica of KEY, seeded empty."""
    r = Replica()
    r.frontier.take_seed(KEY, VectorClock.zero())
    return r


def push(r, *txns, stable):
    """A push of the DC's copies, chained from our vector."""
    assert r.push([t.handoff() for t in txns], stable,
                  r.frontier.vector.to_dict())


class TestVisibleState:
    def test_admit_advances_vector(self):
        r = replica_values()
        t = txn(1, entries={"dc0": 1})
        push(r, t, stable={"dc0": 1})
        assert r.frontier.vector["dc0"] == 1
        assert r.log.dots.seen(t.dot) and r.visible(t, KEY)
        assert t.dot not in r.deps

    def test_admit_symbolic_tracked_by_dot(self):
        r = replica_values()
        t = txn(1)
        assert r.integrate(t)
        assert r.visible(t, KEY)
        assert t.dot in r.deps
        assert r.frontier.vector == VectorClock.zero()

    def test_admit_duplicate_returns_false(self):
        r = replica_values()
        t = txn(1, entries={"dc0": 1})
        assert r.log.admit(t)
        assert not r.log.admit(t.handoff())
        assert r.log.txns[t.dot] is t

    def test_admit_with_missing_deps_is_refused(self):
        r = replica_values()
        ahead = txn(1, snapshot_vector={"dc0": 5})
        orphan = txn(2, local_deps=[Dot(9, "g")])
        assert not r.integrate(ahead)
        assert not r.integrate(orphan)
        assert not r.log.dots.seen(ahead.dot)
        assert not r.log.txns

    def test_dependencies_met_via_local_dep(self):
        r = replica_values()
        own = r.commit_own(KEY)
        assert r.integrate(txn(1, local_deps=[own.dot]))

    def test_resolve_commit_merges_vector(self):
        r = replica_values()
        own = r.commit_own(KEY)
        assert r.adopt(own.dot, {"dc0": 4}) is own
        assert own.commit.entries == {"dc0": 4}
        assert not r.log.unacked
        # Read-my-writes holds it by dot until the vector covers it.
        assert own.dot in r.deps
        r.frontier.advance({"dc0": 4})
        assert own.dot not in r.deps
        assert r.visible(own, KEY)

    def test_entry_filter_matches_admitted(self):
        r = replica_values()
        t1 = txn(1, entries={"dc0": 1})
        push(r, t1, stable={"dc0": 1})
        assert r.visible(t1, KEY)
        assert not r.visible(txn(9, origin="z"), KEY)
        assert not r.visible(txn(2, entries={"dc0": 2}), KEY)

    def test_rollback_freedom_vector_monotonic(self):
        r = replica_values()
        r.frontier.advance({"dc0": 5})
        r.frontier.advance({"dc0": 3, "dc1": 1})
        assert r.frontier.vector.to_dict() == {"dc0": 5, "dc1": 1}

    def test_the_filter_masks_before_anything_else(self):
        t = txn(1, entries={"dc0": 1})
        entry = JournalEntry(t, [])
        vector = VectorClock({"dc0": 1})
        assert EdgeFrontier.filter(vector)(entry)
        assert not EdgeFrontier.filter(vector, masked=frozenset(
            {t.dot}))(entry)
        assert not EdgeFrontier.filter(vector, frozenset({t.dot}),
                                       frozenset({t.dot}))(entry)
        # A symbolic stamp is visible only by dot.
        own = JournalEntry(txn(2), [])
        assert not EdgeFrontier.filter(vector)(own)
        assert EdgeFrontier.filter(vector, frozenset({own.dot}))(own)


class TestFingerprint:
    """The read token: equal tokens, identical visible set."""

    def test_admit_bumps_fingerprint(self):
        r = replica_values()
        before = r.view(KEY)
        r.integrate(txn(1))
        assert r.view(KEY) != before

    def test_duplicate_admit_does_not_bump(self):
        r = replica_values()
        t = txn(1)
        r.integrate(t)
        token = r.view(KEY)
        assert not r.admit(t)
        assert r.integrate(t)
        assert r.view(KEY) == token

    def test_resolve_commit_bumps_fingerprint(self):
        r = replica_values()
        own = r.commit_own(KEY)
        token = r.view(KEY)
        r.adopt(own.dot, {"dc0": 4})
        r.frontier.advance({"dc0": 4})
        assert r.view(KEY) != token

    def test_advance_vector_bumps_only_on_progress(self):
        r = replica_values()
        r.frontier.advance({"dc0": 5})
        token = r.view(KEY)
        r.frontier.advance({"dc0": 3})  # already covered
        assert r.view(KEY) == token
        r.frontier.advance({"dc1": 1})
        assert r.view(KEY) != token

    def test_read_token_reflects_fingerprint(self):
        r = replica_values()
        token = r.view(KEY)
        assert r.view(KEY) == token
        push(r, txn(1, entries={"dc0": 1}), stable={"dc0": 1})
        assert r.view(KEY) != token

    def test_dots_view_is_frozen_and_refreshed(self):
        r = replica_values()
        t = txn(1)
        r.integrate(t)
        deps = r.deps
        assert isinstance(deps, frozenset)
        assert deps == {t.dot}
        t2 = txn(2, origin="g")
        r.integrate(t2)
        assert r.deps == {t.dot, t2.dot}
        assert deps == {t.dot}

    def test_a_key_read_at_its_seed_cut(self):
        r = replica_values()
        ahead = txn(1, entries={"dc0": 3})
        assert r.frontier.take_seed(KEY, VectorClock({"dc0": 3}))
        assert r.frontier.vector == VectorClock.zero()
        assert r.view(KEY).vector == VectorClock({"dc0": 3})
        assert r.visible(ahead, KEY)


def replica(cls=EdgeNode, **kwargs):
    """A node replicating KEY, seeded empty, with no DC session."""
    node = Simulation(seed=1).spawn(cls, "e", dc_id="dc0", **kwargs)
    node.declare_interest(KEY, "counter")
    node._install_seed(ObjectState(KEY, "counter", Counter().to_dict(), ()),
                       VectorClock.zero())
    return node


class TestTheNodeWiring:
    def test_a_duplicate_admit_journals_once(self):
        node = replica()
        t = txn(1, entries={"dc0": 1})
        assert node._admit(t)
        assert not node._admit(t)
        assert len(node.cache.journal(KEY).entries()) == 1


def member(commit_variant="async"):
    """A member of group g whose sync point, m0, never answers."""
    node = replica(GroupMember, group_id="g", parent_id="m0",
                   commit_variant=commit_variant)
    node.init_group(("m0", "e"))
    return node


def queued(node):
    """The transactions waiting in the node's execution queue."""
    return [txn for txn, _fast in node._exec_queue]


def pulls_sent(node):
    return node.network.stats.messages_on("e", "m0")


class TestAdmission:
    """A group member admits in consensus order, behind its gates."""

    def test_admissible_runs_extra_checks(self):
        node = member("psi")
        first = txn(1, origin="m0")
        node._execute(first)
        # Same key, a snapshot that misses ``first``: PSI certification
        # aborts it although every causal dependency is present.
        late = txn(2, origin="g")
        node._execute(late)
        assert node.dots.seen(first.dot)
        assert not node.dots.seen(late.dot)
        assert node.orderer.aborted == {late.dot}
        assert node.visibility_log == [first]

    def test_admit_ready_resolves_chains(self):
        node = member()
        t1 = txn(1)
        t2 = txn(2, local_deps=[t1.dot])
        node._execute(t2)  # ordered first, blocked on t1
        assert not node.dots.seen(t2.dot)
        node._execute(t1)
        assert node.dots.seen(t1.dot) and node.dots.seen(t2.dot)
        assert [t.dot for t in node.visibility_log] == [t2.dot, t1.dot]
        assert not node._exec_queue

    def test_admit_ready_leaves_blocked(self):
        node = member()
        blocked = txn(2, local_deps=[Dot(1, "f")])
        node._execute(blocked)
        assert queued(node) == [blocked]
        assert not node.dots.seen(blocked.dot)
        assert Dot(1, "f") in node._pull_pending

    def test_admit_ready_respects_gates(self):
        node = member()
        ahead = txn(1, snapshot_vector={"dc0": 3})
        node._execute(ahead)
        assert queued(node) == [ahead]
        assert not node.dots.seen(ahead.dot)

    def test_admit_ready_skips_repull_within_window(self):
        node = member()
        node._execute(txn(2, local_deps=[Dot(1, "f")]))
        sent = pulls_sent(node)
        assert sent == 1
        node._drain_exec_queue()
        node._drain_exec_queue()
        assert pulls_sent(node) == sent

    def test_admit_ready_retests_after_progress(self):
        node = member()
        ahead = txn(1, snapshot_vector={"dc0": 3})
        node._execute(ahead)
        node.frontier.advance({"dc0": 3})
        node._drain_exec_queue()
        assert node.dots.seen(ahead.dot)
        assert not node._exec_queue


class TestKStability:
    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KStabilityTracker(0)

    def test_count_and_stability(self):
        tracker = KStabilityTracker(2)
        d = Dot(1, "e")
        assert tracker.count(d) == 0
        assert tracker.record(d, {"dc0"}) == 1
        assert tracker.count(d) < tracker.k_target
        assert tracker.record(d, {"dc1"}) == 2
        assert tracker.count(d) == tracker.k_target

    def test_record_unions(self):
        tracker = KStabilityTracker(3)
        d = Dot(1, "e")
        assert tracker.record(d, {"dc0", "dc1"}) == 2
        assert tracker.record(d, {"dc1", "dc2"}) == 3
        assert tracker.count(d) == 3
