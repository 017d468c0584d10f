"""Log-shipping equivalence properties.

A DC fed an arbitrary interleaving of frames — overlapping runs,
duplicates, stale resends, arbitrary delta bases, one-entry frames,
skip runs over positions outside its interest — must end in exactly the
state the commit stream defines in closed form: every position resolved
(``state_vector == {ORIGIN: n}``, no gaps), every increment it is
interested in applied once.  Framing is a wire-format matter; any
divergence is a protocol bug.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ObjectKey
from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.txn import CommitStamp, Snapshot, Transaction, WriteOp
from repro.crdt.base import Operation
from repro.dc import DataCenter
from repro.dc.interest import ShardMap
from repro.dc.messages import ReplicateBatch
from repro.dc.replog import encode_stream_entry
from repro.sim import Simulation

ORIGIN = "dcX"  # fake sibling; never attached, acks to it are dropped
#: Two shards, each homed on one DC: the receiver serves ``KEY``'s and
#: is not interested in ``FOREIGN``'s, so positions writing ``FOREIGN``
#: may travel as skip runs.
SHARD_MAP = ShardMap(2, [ORIGIN, "dcR"], replica_factor=1)
_KEYS = [ObjectKey("b", f"x{i}") for i in range(64)]
KEY = next(k for k in _KEYS
           if SHARD_MAP.mask_of_keys([k]) & SHARD_MAP.served("dcR"))
FOREIGN = next(k for k in _KEYS
               if not SHARD_MAP.mask_of_keys([k]) & SHARD_MAP.served("dcR"))
FOREIGN_MASK = SHARD_MAP.mask_of_keys([FOREIGN])


def stream_txn(ts: int, foreign=frozenset()) -> Transaction:
    """The ``ts``-th entry of the fake origin's commit stream."""
    key = FOREIGN if ts in foreign else KEY
    return Transaction(
        dot=Dot(ts, ORIGIN),
        origin=ORIGIN,
        snapshot=Snapshot(VectorClock({ORIGIN: ts - 1}), []),
        commit=CommitStamp({ORIGIN: ts}),
        writes=[WriteOp(key, Operation("counter", "increment",
                                       {"amount": ts}))],
    )


def batch_frame(lo: int, hi: int, base_entries,
                foreign=frozenset(), skipped=frozenset()) -> ReplicateBatch:
    """Positions ``lo..hi`` as one frame; the ``skipped`` ones (a subset
    of ``foreign``) elided into skip runs.

    Full entries chain: the first is encoded against the (arbitrary)
    frame base, each later one against the previous *full* entry's
    snapshot vector.
    """
    base = VectorClock(base_entries)
    elements = []
    for ts in range(lo, hi + 1):
        if ts in skipped:
            if elements and type(elements[-1]) is tuple:
                elements[-1] = (elements[-1][0] + 1, FOREIGN_MASK)
            else:
                elements.append((1, FOREIGN_MASK))
            continue
        txn = stream_txn(ts, foreign)
        elements.append(encode_stream_entry(txn, ORIGIN, ts, base))
        base = txn.snapshot.vector
    return ReplicateBatch(ORIGIN, lo, VectorClock(base_entries).to_dict(),
                          tuple(elements), {ORIGIN: hi})


# Base vectors deliberately include a foreign key the snapshot vectors
# never carry, forcing the explicit-zero delta path, and origin entries
# both behind and ahead of the frame's own run.
base_st = st.fixed_dictionaries(
    {}, optional={ORIGIN: st.integers(0, 8),
                  "dcY": st.integers(1, 5)})


@st.composite
def delivery_plan(draw):
    n = draw(st.integers(2, 8))
    # Positions outside the receiver's interest; each frame elides any
    # subset of them (the sender's view of our interest may be stale in
    # either direction — a full entry we did not ask for is just stored).
    foreign = draw(st.frozensets(st.integers(1, n)))
    frames = []
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.integers(1, n))
        hi = draw(st.integers(lo, n))
        skipped = draw(st.frozensets(st.sampled_from(sorted(foreign)))) \
            if foreign else frozenset()
        frames.append((lo, hi, draw(base_st), skipped))
    for _ in range(draw(st.integers(0, 4))):
        ts = draw(st.integers(1, n))    # a stray one-entry frame
        frames.append((ts, ts, {ORIGIN: ts - 1}, frozenset()))
    frames = draw(st.permutations(frames))
    return n, foreign, list(frames)


def spawn_receiver():
    sim = Simulation(seed=3)
    dc = sim.spawn(DataCenter, "dcR", peer_dcs=[ORIGIN], n_shards=2,
                   k_target=1, shard_map=SHARD_MAP)
    return sim, dc


def assert_closed_form(dc, n, foreign=frozenset()):
    """The one state positions ``1..n`` define, however they arrived."""
    assert dc.state_vector == VectorClock({ORIGIN: n})
    assert dc.stable_vector == dc.state_vector
    assert dc.stream_gaps() == {}
    digest = dc.state_digest()
    assert digest.get(KEY, 0) == sum(
        ts for ts in range(1, n + 1) if ts not in foreign)
    # What we are not interested in is held in part or not at all —
    # whatever full entries happened to arrive — never more than once.
    held = digest.get(FOREIGN, 0)
    assert held == sum(ts for ts in foreign if dc.holds(Dot(ts, ORIGIN)))


@settings(deadline=None)
@given(plan=delivery_plan())
def test_batched_interleavings_match_per_txn_delivery(plan):
    n, foreign, frames = plan
    sim, dc = spawn_receiver()
    for lo, hi, base, skipped in frames:
        dc.on_message(batch_frame(lo, hi, base, foreign, skipped), ORIGIN)
    # Anti-entropy closure: a full resend guarantees coverage, exactly
    # like a sync-ping-triggered rewind of the sender's link would.
    dc.on_message(batch_frame(1, n, {}, foreign, foreign), ORIGIN)
    sim.run_for(200)
    assert dc.stats["repl_malformed_in"] == 0
    assert_closed_form(dc, n, foreign)


@settings(deadline=None)
@given(n=st.integers(1, 8), splits=st.sets(st.integers(1, 7)))
def test_any_chunking_is_equivalent(n, splits):
    """Every way of cutting the stream into frames yields one state."""
    sim, dc = spawn_receiver()
    cuts = sorted(s for s in splits if s < n)
    lo = 1
    for cut in cuts + [n]:
        dc.on_message(batch_frame(lo, cut, {ORIGIN: lo - 1}), ORIGIN)
        lo = cut + 1
    sim.run_for(200)
    assert_closed_form(dc, n)
    assert dc.state_digest() == {KEY: n * (n + 1) // 2}
