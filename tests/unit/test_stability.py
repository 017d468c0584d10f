"""StabilityFrontier, driven directly: no simulator, no DataCenter."""

from repro.core import (CommitStamp, Dot, Snapshot, Transaction,
                        VectorClock)
from repro.dc.commitlog import CommitLog
from repro.dc.interest import InterestGraph
from repro.dc.replog import SkipRun
from repro.dc.stability import StabilityFrontier, delivery_order

NODE = "dc0"
PEERS = ["dc1", "dc2"]


class Bench:
    """A frontier over a hand-written commit log (``dc0`` is us)."""

    def __init__(self, k_target):
        self.log = CommitLog(NODE)
        self.frontier = StabilityFrontier(
            NODE, k_target, InterestGraph(NODE, PEERS), self.log)

    def put(self, origin, ts, counter, vector=None, deps=()):
        """Store a transaction at ``(origin, ts)``; we now hold it."""
        dot = Dot(counter, f"e-{origin}")
        txn = Transaction(
            dot, dot.origin, Snapshot(VectorClock(vector), deps),
            CommitStamp({origin: ts}))
        if origin == NODE:
            self.log.sequence(txn)
            assert txn.commit.entries == {NODE: ts}
        else:
            self.log.admit(origin, ts, txn)
        self.frontier.record(
            dot, self.frontier.known_holders(origin, ts, dot))
        return dot

    def fill(self, origin, ts, counter):
        """A full entry for a resolved position (after a skip run)
        arrived: stored off-stream, as the receiver does."""
        dot = Dot(counter, f"e-{origin}")
        txn = Transaction(dot, dot.origin, Snapshot(VectorClock()),
                          CommitStamp({origin: ts}))
        self.log.admit(origin, ts, txn, advance=False)
        self.frontier.record(
            dot, self.frontier.known_holders(origin, ts, dot))
        return dot

    def skip(self, origin, ts):
        """``(origin, ts)`` reached us inside a skip run."""
        self.log.skip(origin, SkipRun(ts, 1, 0b1))

    def heard(self, peer, vector):
        return self.frontier.note_peer_applied(
            peer, VectorClock(vector), self.log.state_vector)


def test_k1_is_stable_at_birth():
    bench = Bench(k_target=1)
    dot = bench.put(NODE, 1, 1)
    assert bench.frontier.advance() == [(NODE, 1, dot)]
    assert bench.frontier.stable_vector == VectorClock({NODE: 1})
    assert bench.frontier.released(dot)
    assert dot not in bench.frontier._holders   # its set ends at release
    assert bench.frontier.advance() is None     # nothing left to move


def test_k_above_cluster_size_never_stabilises():
    bench = Bench(k_target=4)                   # three DCs exist
    dot = bench.put(NODE, 1, 1)
    assert bench.heard("dc1", {NODE: 1})
    assert bench.heard("dc2", {NODE: 1})
    assert bench.frontier.holders(dot) == {NODE, "dc1", "dc2"}
    assert bench.frontier.advance() is None
    assert bench.frontier.stable_vector == VectorClock.zero()


def test_peer_vector_credits_and_releases_in_stream_order():
    bench = Bench(k_target=2)
    first, second = bench.put(NODE, 1, 1), bench.put(NODE, 2, 2)
    assert bench.frontier.advance() is None     # one holder each
    assert bench.heard("dc1", {NODE: 2})
    assert bench.frontier.advance() == [(NODE, 1, first), (NODE, 2, second)]


def test_delivery_is_in_dot_order_and_once_per_dot():
    a, b, c = Dot(1, "x"), Dot(2, "w"), Dot(2, "x")
    # Release order is by stream; b was released on two streams.
    run = [("dc0", 1, c), ("dc0", 2, b), ("dc1", 1, a), ("dc1", 2, b)]
    assert delivery_order(run) == [a, b, c]
    assert delivery_order([]) == []


def test_stale_vector_changes_nothing():
    bench = Bench(k_target=2)
    dot = bench.put(NODE, 1, 1)
    assert bench.heard("dc1", {NODE: 1})
    before = bench.frontier.holders(dot)
    assert not bench.heard("dc1", {NODE: 1})    # same again
    assert not bench.heard("dc1", {})           # older
    assert bench.frontier.holders(dot) == before


def test_vector_past_our_frontier_is_credited_at_apply_time():
    bench = Bench(k_target=2)
    assert bench.heard("dc1", {"dc1": 3})       # we applied none of it
    dot = bench.put("dc1", 1, 1)
    assert bench.frontier.holders(dot) == {NODE, "dc1"}
    assert bench.frontier.advance() == [("dc1", 1, dot)]


def test_release_blocked_on_another_streams_frontier():
    bench = Bench(k_target=2)
    bench.heard("dc1", {NODE: 1, "dc1": 1})
    ours = bench.put(NODE, 1, 1, vector={"dc1": 1})   # read dc1's first
    assert bench.frontier.advance() is None     # dc1:1 is not stable yet
    theirs = bench.put("dc1", 1, 2)
    # dc1's stream comes second in the sweep, and unblocks ours: the
    # sweep goes round again.
    assert bench.frontier.advance() == [("dc1", 1, theirs), (NODE, 1, ours)]


def test_release_blocked_on_an_unreleased_local_dep():
    bench = Bench(k_target=2)
    dep = bench.put("dc1", 1, 1)                # held by us alone
    bench.heard("dc2", {"dc2": 1})
    dependent = bench.put("dc2", 1, 2, deps=[dep])
    assert bench.frontier.advance() is None
    assert bench.heard("dc1", {"dc1": 1})       # now dep has two holders
    assert bench.frontier.advance() == [("dc1", 1, dep),
                                        ("dc2", 1, dependent)]


def test_a_dep_never_applied_here_blocks_nothing():
    bench = Bench(k_target=1)
    dot = bench.put(NODE, 1, 1, deps=[Dot(7, "pruned")])
    assert bench.frontier.advance() == [(NODE, 1, dot)]


def test_frontier_hops_a_skip_covered_position():
    bench = Bench(k_target=1)
    bench.skip("dc1", 1)
    assert bench.frontier.advance() == []       # moved, released nothing
    assert bench.frontier.stable_vector == VectorClock({"dc1": 1})
    dot = bench.put("dc1", 2, 1)
    assert bench.frontier.advance() == [("dc1", 2, dot)]


def test_late_fill_below_the_frontier_joins_the_cut():
    bench = Bench(k_target=1)
    bench.skip("dc1", 1)
    bench.frontier.advance()                    # hopped dc1:1
    filled = bench.fill("dc1", 1, 5)
    assert bench.frontier.released(filled)
    assert filled not in bench.frontier._holders
    # dc1:2 is resolved but above the stable frontier, which waits on
    # dc1:1's snapshot: a fill there is not released.
    late = Bench(k_target=1)
    late.put("dc1", 1, 1, vector={"dc2": 1})
    late.skip("dc1", 2)
    assert late.frontier.advance() is None
    above = late.fill("dc1", 2, 6)
    assert not late.frontier.released(above)
    assert late.frontier.holders(above) == {NODE}


def test_credit_stops_once_the_dot_is_stable():
    bench = Bench(k_target=1)
    dot = bench.put(NODE, 1, 1)
    assert bench.frontier.credit(dot, "dc1")
    assert bench.frontier.holders(dot) == {NODE, "dc1"}
    bench.frontier.advance()
    assert bench.frontier.released(dot)
    assert not bench.frontier.credit(dot, "dc2")
    # The set ended at release, and the credit brought none back.
    assert dot not in bench.frontier._holders


def test_a_retired_dot_is_released_and_a_duplicate_head_of_it_passes():
    bench = Bench(k_target=1)
    dot = bench.put("dc1", 1, 1)
    assert bench.frontier.advance() == [("dc1", 1, dot)]
    bench.log.retire(bench.frontier.stable_vector, 0, lambda ts: False)
    assert dot not in bench.log.txns
    assert bench.frontier.released(dot)
    assert not bench.frontier.released(Dot(9, "e-dc1"))    # never seen
    # The same transaction, committed at dc2 too, reaches us on dc2's
    # stream after we retired it: its head passes, and no holder set
    # comes back.
    bench.log.admit("dc2", 1, Transaction(
        dot, dot.origin, Snapshot(VectorClock()),
        CommitStamp({"dc1": 1, "dc2": 1})))
    bench.frontier.record(dot, bench.frontier.known_holders("dc2", 1))
    assert bench.frontier.holders(dot) == set()
    assert bench.frontier.advance() == [("dc2", 1, dot)]


def test_shipped_is_the_least_own_position_every_peer_applied():
    bench = Bench(k_target=1)
    for ts in (1, 2, 3):
        bench.put(NODE, ts, ts)
    assert bench.frontier.shipped() == 0         # dc2 never heard from
    bench.heard("dc1", {NODE: 3})
    bench.heard("dc2", {NODE: 2})
    assert bench.frontier.shipped() == 2
