"""The edge visibility frontier: admission, read tokens, K-stability.

What a replica exposes to readers (§3.8, §4) is its state vector plus
the dots it holds visible by id — own commits awaiting their stamp,
a peer's transactions ahead of the push chain.  ``EdgeNode._admit`` is
the one way a transaction enters it, ``EdgeNode._snapshot_view`` the
filter and token readers see, and a group member's execution pipeline
the gate between consensus order and admission.  No DC runs here: the
sessions stay closed and pushes are handed to the replica directly.
"""

import pytest

from repro.core import (CommitStamp, Dot, JournalEntry, KStabilityTracker,
                        ObjectKey, Snapshot, Transaction, VectorClock,
                        WriteOp)
from repro.crdt import Counter
from repro.dc.messages import UpdatePush
from repro.edge import EdgeNode
from repro.groups import GroupMember
from repro.sim import Simulation

from ..conftest import run_update

KEY = ObjectKey("b", "x")


def txn(counter, origin="f", snapshot_vector=None, local_deps=(),
        entries=None):
    op = Counter().prepare("increment", 1)
    return Transaction(
        dot=Dot(counter, origin), origin=origin,
        snapshot=Snapshot(VectorClock(snapshot_vector or {}), local_deps),
        commit=CommitStamp(entries),
        writes=[WriteOp(KEY, op)])


def replica(cls=EdgeNode, **kwargs):
    """A replica of KEY, seeded empty, with no DC session."""
    node = Simulation(seed=1).spawn(cls, "e", dc_id="dc0", **kwargs)
    node.declare_interest(KEY, "counter")
    node._install_seed({"key": KEY.to_dict(), "type": "counter",
                        "base": Counter().to_dict(), "base_dots": []})
    return node


def view(node):
    """(filter, token) of the node's current frontier on KEY."""
    return node._snapshot_view(node.current_snapshot(), KEY)


def visible(node, t):
    return view(node)[0](JournalEntry(t, []))


def commit_own(node):
    """One own update; returns its (still symbolic) transaction."""
    run_update(node, KEY, "counter", "increment", 1)
    (dot,) = node.unacked
    return node.own_transaction(dot)


def push(node, *txns, stable):
    node.on_message(UpdatePush(tuple(t.handoff() for t in txns), stable,
                               node.vector.to_dict()), "dc0")


class TestVisibleState:
    def test_admit_advances_vector(self):
        node = replica()
        t = txn(1, entries={"dc0": 1})
        push(node, t, stable={"dc0": 1})
        assert node.vector["dc0"] == 1
        assert node.dots.seen(t.dot) and visible(node, t)
        assert t.dot not in node.current_snapshot().local_deps

    def test_admit_symbolic_tracked_by_dot(self):
        node = replica()
        t = txn(1)
        assert node.integrate_foreign_txn(t)
        assert visible(node, t)
        assert t.dot in node.current_snapshot().local_deps
        assert node.vector == VectorClock.zero()

    def test_admit_duplicate_returns_false(self):
        node = replica()
        t = txn(1, entries={"dc0": 1})
        assert node._admit(t)
        assert not node._admit(t)
        assert len(node.cache.store.journal(KEY).entries()) == 1

    def test_admit_with_missing_deps_is_refused(self):
        node = replica()
        ahead = txn(1, snapshot_vector={"dc0": 5})
        orphan = txn(2, local_deps=[Dot(9, "g")])
        assert not node.integrate_foreign_txn(ahead)
        assert not node.integrate_foreign_txn(orphan)
        assert not node.dots.seen(ahead.dot)
        assert not node.cache.store.journal(KEY).entries()

    def test_dependencies_met_via_local_dep(self):
        node = replica()
        own = commit_own(node)
        assert node.integrate_foreign_txn(txn(1, local_deps=[own.dot]))

    def test_resolve_commit_merges_vector(self):
        node = replica()
        own = commit_own(node)
        node._resolve_commit(own, {"dc0": 4})
        assert own.commit.entries == {"dc0": 4}
        assert not node.unacked
        # Read-my-writes holds it by dot until the vector covers it.
        assert own.dot in node.current_snapshot().local_deps
        node._advance_vector({"dc0": 4})
        assert own.dot not in node.current_snapshot().local_deps
        assert visible(node, own)

    def test_entry_filter_matches_admitted(self):
        node = replica()
        t1 = txn(1, entries={"dc0": 1})
        push(node, t1, stable={"dc0": 1})
        assert visible(node, t1)
        assert not visible(node, txn(9, origin="z"))
        assert not visible(node, txn(2, entries={"dc0": 2}))

    def test_rollback_freedom_vector_monotonic(self):
        node = replica()
        node._advance_vector({"dc0": 5})
        node._advance_vector({"dc0": 3, "dc1": 1})
        assert node.vector.to_dict() == {"dc0": 5, "dc1": 1}


class TestFingerprint:
    """The read token: equal tokens, identical visible set."""

    def test_admit_bumps_fingerprint(self):
        node = replica()
        before = view(node)[1]
        node.integrate_foreign_txn(txn(1))
        assert view(node)[1] != before

    def test_duplicate_admit_does_not_bump(self):
        node = replica()
        t = txn(1)
        node.integrate_foreign_txn(t)
        token = view(node)[1]
        assert not node._admit(t)
        assert node.integrate_foreign_txn(t)
        assert view(node)[1] == token

    def test_resolve_commit_bumps_fingerprint(self):
        node = replica()
        own = commit_own(node)
        token = view(node)[1]
        node._resolve_commit(own, {"dc0": 4})
        node._advance_vector({"dc0": 4})
        assert view(node)[1] != token

    def test_advance_vector_bumps_only_on_progress(self):
        node = replica()
        node._advance_vector({"dc0": 5})
        token = view(node)[1]
        node._advance_vector({"dc0": 3})  # already covered
        assert view(node)[1] == token
        node._advance_vector({"dc1": 1})
        assert view(node)[1] != token

    def test_read_token_reflects_fingerprint(self):
        node = replica()
        token = view(node)[1]
        assert view(node)[1] == token
        push(node, txn(1, entries={"dc0": 1}), stable={"dc0": 1})
        assert view(node)[1] != token

    def test_dots_view_is_frozen_and_refreshed(self):
        node = replica()
        t = txn(1)
        node.integrate_foreign_txn(t)
        deps = node.current_snapshot().local_deps
        assert isinstance(deps, frozenset)
        assert deps == {t.dot}
        t2 = txn(2, origin="g")
        node.integrate_foreign_txn(t2)
        assert node.current_snapshot().local_deps == {t.dot, t2.dot}
        assert deps == {t.dot}


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
        node._advance_vector({"dc0": 3})
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
        assert tracker.record(d, {"dc0"}) == 1
        assert not tracker.is_stable(d)
        assert tracker.record(d, {"dc1"}) == 2
        assert tracker.is_stable(d)

    def test_record_unions(self):
        tracker = KStabilityTracker(3)
        d = Dot(1, "e")
        tracker.record(d, {"dc0", "dc1"})
        tracker.record(d, {"dc1", "dc2"})
        assert tracker.holders(d) == {"dc0", "dc1", "dc2"}

    def test_stable_dots(self):
        tracker = KStabilityTracker(1)
        tracker.record(Dot(1, "e"), {"dc0"})
        assert tracker.stable_dots() == {Dot(1, "e")}

    def test_forget(self):
        tracker = KStabilityTracker(1)
        d = Dot(1, "e")
        tracker.record(d, {"dc0"})
        tracker.forget(d)
        assert tracker.count(d) == 0
