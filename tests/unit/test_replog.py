"""Log-shipping unit tests: codec, queue, links, frame input check.

The integration suite exercises the pipeline end to end; these tests
pin the pieces — the delta codec round-trips exactly, the per-stream
queue deduplicates and orders, the link counters add up, a small
cluster ships its streams whole in few frames, and a malformed frame
changes nothing.
"""

import pytest

from repro.core import ObjectKey
from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.txn import CommitStamp, Snapshot, Transaction, WriteOp
from repro.crdt.base import Operation
from repro.dc import DataCenter
from repro.dc.interest import ShardMap
from repro.dc.messages import ReplicateBatch
from repro.dc.replog import (ReplLink, _ReplQueue, decode_stream_entry,
                             encode_stream_entry, well_formed_entries)
from repro.sim import LatencyModel, Simulation

from ..conftest import build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def make_txn(counter, origin="dc0", commit=None, vector=None, deps=(),
             issuer=None):
    writes = [WriteOp(KEY, Operation("counter", "increment",
                                     {"amount": counter}))]
    return Transaction(
        dot=Dot(counter, origin),
        origin=origin,
        snapshot=Snapshot(vector or VectorClock.zero(), list(deps)),
        commit=CommitStamp(commit or {origin: counter}),
        writes=writes,
        issuer=issuer,
    )


# ---------------------------------------------------------------------------
# vector delta codec
# ---------------------------------------------------------------------------

class TestVectorDelta:
    def test_roundtrip(self):
        base = VectorClock({"dc0": 3, "dc1": 7})
        target = VectorClock({"dc0": 5, "dc1": 7, "dc2": 1})
        delta = target.delta_from(base)
        assert delta == {"dc0": 5, "dc2": 1}
        assert VectorClock.from_delta(base, delta) == target

    def test_regression_needs_explicit_zero(self):
        # The VectorClock constructor strips zero entries, so a target
        # missing a base key must be encoded as an explicit zero.
        base = VectorClock({"dc0": 4})
        target = VectorClock({"dc1": 2})
        delta = target.delta_from(base)
        assert delta == {"dc0": 0, "dc1": 2}
        assert VectorClock.from_delta(base, delta) == target

    def test_identical_vectors_empty_delta(self):
        base = VectorClock({"dc0": 3})
        assert base.delta_from(base) == {}
        assert VectorClock.from_delta(base, {}) == base


# ---------------------------------------------------------------------------
# stream-entry codec
# ---------------------------------------------------------------------------

class TestStreamEntryCodec:
    def test_roundtrip_plain(self):
        base = VectorClock({"dc1": 2})
        txn = make_txn(4, vector=VectorClock({"dc1": 2, "dc0": 3}),
                       issuer="alice")
        entry, size = encode_stream_entry(txn, "dc0", 4, base)
        assert size > 0
        decoded = decode_stream_entry(entry, "dc0", 4, base)
        assert decoded.dot == txn.dot
        assert decoded.origin == txn.origin
        assert decoded.issuer == "alice"
        assert decoded.snapshot.vector == txn.snapshot.vector
        assert decoded.commit.entries == txn.commit.entries
        assert decoded.to_dict() == txn.to_dict()

    def test_origin_commit_entry_is_implicit(self):
        txn = make_txn(9)
        entry, _size = encode_stream_entry(
            txn, "dc0", 9, VectorClock.zero())
        assert entry.cx == {}  # the ts rides on the frame position

    def test_migration_equivalent_entries_survive(self):
        txn = make_txn(2, commit={"dc0": 2, "dc1": 5})
        entry, _size = encode_stream_entry(
            txn, "dc0", 2, VectorClock.zero())
        assert entry.cx == {"dc1": 5}
        decoded = decode_stream_entry(entry, "dc0", 2, VectorClock.zero())
        assert decoded.commit.entries == {"dc0": 2, "dc1": 5}

    def test_contradicting_position_rejected(self):
        txn = make_txn(3, commit={"dc0": 3})
        with pytest.raises(ValueError):
            encode_stream_entry(txn, "dc0", 4, VectorClock.zero())

    def test_local_deps_roundtrip(self):
        deps = [Dot(1, "e1"), Dot(2, "e1")]
        txn = make_txn(5, deps=deps)
        entry, _size = encode_stream_entry(
            txn, "dc0", 5, VectorClock.zero())
        decoded = decode_stream_entry(entry, "dc0", 5, VectorClock.zero())
        assert set(decoded.snapshot.local_deps) == set(deps)

    def test_delta_encoding_shrinks_wire_size(self):
        vector = VectorClock({"dc0": 10, "dc1": 20, "dc2": 30})
        txn = make_txn(11, vector=vector)
        _entry, cold = encode_stream_entry(
            txn, "dc0", 11, VectorClock.zero())
        _entry, warm = encode_stream_entry(
            txn, "dc0", 11, VectorClock({"dc0": 10, "dc1": 20, "dc2": 30}))
        assert warm < cold


# ---------------------------------------------------------------------------
# per-stream queue
# ---------------------------------------------------------------------------

class TestReplQueue:
    def test_orders_by_commit_timestamp(self):
        queue = _ReplQueue()
        queue.insert(3, make_txn(3))
        queue.insert(1, make_txn(1))
        queue.insert(2, make_txn(2))
        got = [queue.popleft().dot.counter for _ in range(3)]
        assert got == [1, 2, 3]

    def test_rejects_duplicate_dots(self):
        queue = _ReplQueue()
        txn = make_txn(1)
        assert queue.insert(1, txn)
        assert not queue.insert(1, txn)
        assert len(queue) == 1

    def test_dot_reinsertable_after_pop(self):
        queue = _ReplQueue()
        txn = make_txn(1)
        queue.insert(1, txn)
        queue.popleft()
        assert queue.insert(1, txn)

    def test_head_compaction_preserves_order(self):
        queue = _ReplQueue()
        for ts in range(1, 101):
            queue.insert(ts, make_txn(ts))
        out = [queue.popleft().dot.counter for _ in range(100)]
        assert out == list(range(1, 101))
        assert len(queue) == 0


# ---------------------------------------------------------------------------
# links and a small cluster
# ---------------------------------------------------------------------------

def spawn_cluster(sim, n_dcs, k):
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    dcs = []
    for dc_id in dc_ids:
        dc = sim.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in dc_ids if d != dc_id],
                       n_shards=2, k_target=k)
        dcs.append(dc)
    for a in dc_ids:
        for b in dc_ids:
            if a < b:
                sim.network.set_link(a, b, LatencyModel(5.0))
    return dcs


def drive(seed=11, writes=6):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    dcs = spawn_cluster(sim, n_dcs=3, k=2)
    e0 = build_edge(sim, "e0", dc_id="dc0", interest=INTEREST)
    e1 = build_edge(sim, "e1", dc_id="dc1", interest=INTEREST)
    sim.run_for(200)
    for i in range(writes):
        run_update(e0 if i % 2 == 0 else e1, KEY, "counter",
                   "increment", 1)
        sim.run_for(40)
    sim.run_for(4000)
    return sim, dcs, (e0, e1)


class TestBatchedPipeline:
    def test_batched_mode_uses_batch_frames(self):
        _sim, dcs, edges = drive()
        assert sum(dc.stats["repl_batches_out"] for dc in dcs) > 0
        assert sum(dc.stats["repl_acks_in"] for dc in dcs) > 0
        # Writers shipped their whole stream on every link.
        for dc in dcs:
            for peer, counters in dc.repl_link_counters().items():
                assert counters["txns_sent"] >= dc.log.sequencer
        # Closed form: six unit increments, everywhere.
        for dc in dcs:
            assert dc.state_digest() == {KEY: 6}
            assert dc.state_vector == dcs[0].state_vector
            assert dc.stable_vector == dc.state_vector
        assert [e.read_value(KEY, "counter") for e in edges] == [6, 6]

    def test_no_stream_gaps_after_quiescence(self):
        _sim, dcs, _edges = drive()
        for dc in dcs:
            assert dc.stream_gaps() == {}


# ---------------------------------------------------------------------------
# input check on received frames
# ---------------------------------------------------------------------------

MALFORMED_ELEMENTS = [
    (0, 0b1),           # a run of nothing
    (-3, 0b1),          # would walk the cursor backwards
    (2, 0),             # mask-0 entries always ship: never a legitimate run
    (2, 0b1_0000),      # bit outside the 4-shard space
    (2, -1),
    (2.0, 0b1), (True, 0b1), ("2", 0b1),
    (2, 0b1, 0), (2,), 7, None, "xy",
    # A full entry in its old dict form: entries are StreamEntry records.
    {"dot": {"counter": 2, "origin": "dc0"}, "origin": "dc0",
     "issuer": None, "sv": {"dc0": 1}, "deps": [], "cx": {}, "writes": []},
]


class TestFrameInputCheck:
    def test_well_formed_entries(self):
        entry = encode_stream_entry(make_txn(1), "dc0", 1,
                                    VectorClock.zero())[0]
        assert well_formed_entries((), 0)
        assert well_formed_entries((entry, (3, 0b1010), [1, 0b1]), 0b1111)
        # A DC that prunes nothing has an empty shard space: no run at
        # all is legitimate there.
        assert not well_formed_entries((entry, (3, 0b1010)), 0)
        for element in MALFORMED_ELEMENTS:
            assert not well_formed_entries((entry, element), 0b1111), element

    @pytest.mark.parametrize("element", MALFORMED_ELEMENTS,
                             ids=[repr(e) for e in MALFORMED_ELEMENTS])
    def test_malformed_frame_is_dropped_whole(self, element):
        sim = Simulation(seed=1)
        dc = sim.spawn(DataCenter, "dcR", peer_dcs=["dc0"], n_shards=2,
                       k_target=1,
                       shard_map=ShardMap(4, ["dc0", "dcR"],
                                          replica_factor=1))
        first = encode_stream_entry(make_txn(1), "dc0", 1,
                                    VectorClock.zero())[0]
        dc.on_message(ReplicateBatch("dc0", 1, {}, (first,), {"dc0": 1}),
                      "dc0")
        sim.run_for(50)
        assert dc.state_vector == VectorClock({"dc0": 1})
        before = dict(dc.stats)

        # A good entry ahead of the bad element: nothing of the frame
        # may land, not even the part before the defect.
        second = encode_stream_entry(make_txn(2), "dc0", 2,
                                     VectorClock({"dc0": 1}))[0]
        dc.on_message(ReplicateBatch("dc0", 2, {"dc0": 1},
                                     (second, element), {"dc0": 9}),
                      "dc0")
        sim.run_for(50)

        assert dc.state_vector == VectorClock({"dc0": 1})
        assert dc.stream_gaps() == {}
        assert all(len(queue) == 0 for queue in dc.receiver.queues.values())
        assert not dc.holds(Dot(2, "dc0"))
        assert dc.stability._peer_applied["dc0"] == VectorClock({"dc0": 1})
        # Counted, and nothing else moved: not applied, not acked.
        assert dc.stats == {**before, "repl_malformed_in": 1}


class TestReplLink:
    def test_counters_accumulate(self):
        link = ReplLink("dc1")
        link.batches_sent += 2
        link.txns_sent += 9
        link.bytes_sent += 512
        link.acks_in += 2
        assert link.counters() == {"batches_sent": 2, "txns_sent": 9,
                                   "bytes_sent": 512, "acks_in": 2,
                                   "rewinds": 0, "txns_pruned": 0,
                                   "pruned_bytes": 0}
