"""ReplSender and ReplReceiver, driven directly: no simulator, no
DataCenter — two commit logs and the frames one ships to the other."""

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter
from repro.dc.commitlog import CommitLog
from repro.dc.interest import InterestGraph, ShardMap
from repro.dc.messages import ReplicateBatch, ShardBackfill
from repro.dc.replog import (ReplReceiver, ReplSender, SkipRun,
                             encode_stream_entry)
from repro.transport.codec import value_size, wire_size
from repro.dc.stability import StabilityFrontier

ORIGIN = "dc0"
PEERS = ["dc1", "dc2"]
DCS = [ORIGIN] + PEERS
N_SHARDS = 4
BATCH = 256


def pruning_map():
    # Shard s is homed at the two DCs from s % 3 on: dc0 {0,2,3},
    # dc1 {0,1,3}, dc2 {1,2}.
    return ShardMap(N_SHARDS, DCS, replica_factor=2)


def key_on(shard):
    shard_map = pruning_map()
    return next(key for key in (ObjectKey("b", f"k{i}") for i in range(99))
                if shard_map.shard_of(key) == shard)


def make_txn(counter, keys=(), origin="e", stamp=None, vector=None):
    return Transaction(
        Dot(counter, origin), origin, Snapshot(VectorClock(vector)),
        CommitStamp(stamp),
        [WriteOp(key, Counter().prepare("increment", 1)) for key in keys])


class Origin:
    """The shipping side: a log, its interest graph and its sender."""

    def __init__(self, shard_map=None):
        self.log = CommitLog(ORIGIN)
        self.interest = InterestGraph(ORIGIN, PEERS, shard_map)
        self.sender = ReplSender(self.log, self.interest, wire_size,
                                 value_size)

    def commit(self, counter, keys=(), vector=None):
        txn = self.log.sequence(make_txn(counter, keys, vector=vector))
        self.interest.note_entry(txn.dot, ORIGIN, txn.keys,
                                 own_ts=self.log.sequencer)
        return txn

    def flush(self, peer, limit=None):
        return self.sender.flush(self.sender.link(peer), BATCH, limit)


class Site:
    """The applying side (``dc1``): a log and its receiver."""

    def __init__(self, shard_map=None):
        self.log = CommitLog("dc1")
        self.interest = InterestGraph("dc1", [ORIGIN, "dc2"], shard_map)
        self.stability = StabilityFrontier("dc1", 2, self.interest,
                                           self.log)
        self.receiver = ReplReceiver(self.log, self.interest,
                                     self.stability)

    def receive(self, frame, sender=ORIGIN):
        return self.receiver.receive(frame, sender)


# -- ReplSender -------------------------------------------------------------

def test_unbroken_chain_encodes_each_entry_once_for_all_links():
    origin = Origin()
    for counter in (1, 2, 3):
        origin.commit(counter, vector={ORIGIN: counter - 1})
    (one,) = origin.flush("dc1")
    frame, lo, hi, pruned, _bytes = one
    assert (lo, hi, pruned) == (1, 3, 0)
    assert frame.start_ts == 1 and frame.base_vector == {}
    # dc2 has not shipped them yet: the encodings wait for its link.
    assert {ts: list(by_prev)
            for ts, by_prev in origin.sender._encoded.items()} \
        == {1: [0], 2: [1], 3: [2]}
    (two,) = origin.flush("dc2")
    # The very same encoded entries ride on both links, and once every
    # link shipped them nothing is kept.
    assert all(a is b for a, b in zip(frame.entries, two[0].entries))
    assert origin.sender._encoded == {}
    # Delta chain: entry 3 carries only what moved since entry 2.
    assert frame.entries[2].sv == {ORIGIN: 2}
    link = origin.sender.links["dc1"]
    assert (link.sent_ts, link.chain_ts, link.txns_sent) == (3, 3, 3)
    assert origin.flush("dc1") == []            # nothing left to ship


def test_a_pruned_position_breaks_the_chain_per_link():
    origin = Origin(pruning_map())
    origin.commit(1, [key_on(0)], vector={})            # dc1 only
    origin.commit(2, [key_on(2)], vector={ORIGIN: 1})   # dc2 only
    origin.commit(3, [key_on(1)], vector={ORIGIN: 2})   # both
    (to_dc1,) = origin.flush("dc1")
    full_1, skipped, full_3 = to_dc1[0].entries
    assert skipped == (1, 1 << 2)
    assert to_dc1[3] == 1 and to_dc1[4] > 0     # one position, its bytes
    # dc1's chain hops the pruned entry: 3 is encoded against 1 there
    # (2 is measured on the unbroken chain, for the bytes it saved).
    assert full_3.sv == {ORIGIN: 2}
    assert {ts: sorted(by_prev)
            for ts, by_prev in origin.sender._encoded.items()} \
        == {1: [0], 2: [1], 3: [1]}
    # On dc2's link 3 is encoded against 2, which dc2 got in full; then
    # every link shipped every position and the memo is empty.
    (to_dc2,) = origin.flush("dc2")
    assert origin.sender._encoded == {}
    assert to_dc2[0].entries[0] == (1, 1 << 0)
    assert to_dc2[0].entries[2].sv == {ORIGIN: 2}
    assert to_dc2[0].entries[2] is not full_3
    links = origin.sender.links
    assert (links["dc1"].txns_sent, links["dc1"].txns_pruned) == (2, 1)
    assert (links["dc1"].chain_ts, links["dc2"].chain_ts) == (3, 3)
    # What dc1 decodes is what was committed, whatever the chain.
    site = Site(pruning_map())
    got = site.receive(to_dc1[0])
    assert [(ts, txn.snapshot.vector) for _o, ts, txn, _f in got.applied] \
        == [(1, VectorClock.zero()), (3, VectorClock({ORIGIN: 2}))]


def test_rewind_only_on_a_twice_advertised_stalled_frontier():
    origin = Origin()
    for counter in range(1, 6):
        origin.commit(counter)
    origin.flush("dc1")
    heard = origin.sender.heard
    # One RTT stale: the frames may still be in flight.
    link = heard("dc1", 2)
    assert (link.sent_ts, link.rewinds) == (5, 0)
    # The same frontier again: they were lost.
    link = heard("dc1", 2)
    assert (link.sent_ts, link.chain_ts, link.rewinds) == (2, 2, 1)
    (resent,) = origin.flush("dc1", limit=2)
    assert (resent[1], resent[2]) == (3, 4)     # capped by the limit
    # Progress since the last advert is not a stall.
    link = heard("dc1", 3)
    assert (link.sent_ts, link.rewinds) == (4, 1)
    link = heard("dc1", 4)
    assert (link.sent_ts, link.rewinds) == (4, 1)


def test_peer_ahead_of_the_link_skips_ahead():
    origin = Origin()
    for counter in range(1, 6):
        origin.commit(counter, vector={ORIGIN: counter - 1})
    # dc1 got 1..4 through a third DC; this link never shipped them.
    link = origin.sender.heard("dc1", 4)
    assert (link.sent_ts, link.chain_ts, link.rewinds) == (4, 4, 0)
    ((frame, lo, hi, _pruned, _bytes),) = origin.flush("dc1")
    assert (lo, hi, frame.start_ts) == (5, 5, 5)
    assert frame.base_vector == {ORIGIN: 3}     # entry 4's snapshot


def test_graft_invalidates_exactly_the_grafted_position():
    origin = Origin()
    for counter in (1, 2, 3):
        origin.commit(counter)
    ((first, *_rest),) = origin.flush("dc1")
    # A migration duplicate of entry 2, also committed at dc2.
    own_ts = origin.log.adopt(
        make_txn(2, stamp={ORIGIN: 2, "dc2": 7}))
    assert own_ts == 2
    origin.sender.forget(own_ts)
    assert sorted(origin.sender._encoded) == [1, 3]
    ((again, *_rest),) = origin.flush("dc2")
    assert again.entries[0] is first.entries[0]
    assert again.entries[2] is first.entries[2]
    assert first.entries[1].cx == {}
    assert again.entries[1].cx == {"dc2": 7}
    assert origin.sender._encoded == {}         # both links shipped 1..3


def test_the_memo_drains_behind_every_link_and_after_a_rewind():
    origin = Origin()
    for counter in range(1, 6):
        origin.commit(counter, vector={ORIGIN: counter - 1})
    ((first, *_rest),) = origin.flush("dc1")
    origin.flush("dc2", limit=2)
    # dc2's link shipped only 1..2: 3..5 wait for it.
    assert sorted(origin.sender._encoded) == [3, 4, 5]
    # dc1 lost everything past 2.  The resend of 3 is the encoding both
    # links share, and the memo keeps 3 while dc1 is behind again.
    origin.sender.heard("dc1", 2)
    origin.sender.heard("dc1", 2)
    (resent,) = origin.flush("dc1", limit=1)
    assert resent[0].entries[0] is first.entries[2]
    assert sorted(origin.sender._encoded) == [3, 4, 5]
    origin.flush("dc2")
    assert sorted(origin.sender._encoded) == [4, 5]
    origin.flush("dc1")
    assert origin.sender._encoded == {}


def test_a_chain_resumes_from_the_newest_retired_position():
    origin = Origin()
    for counter in range(1, 5):
        origin.commit(counter, vector={ORIGIN: counter - 1})
    origin.flush("dc1", limit=2)
    origin.flush("dc2", limit=2)
    # Both peers applied 1..2 and the cut passed them: retired.
    origin.log.retire(VectorClock({ORIGIN: 4}), 2, lambda ts: False)
    assert sorted(origin.log.txns) == [Dot(3, "e"), Dot(4, "e")]
    # The rest ships against position 2's vector, kept by the log: the
    # frame decodes to the transactions the origin held.
    (frame, lo, hi, _p, _b), = origin.flush("dc1")
    assert (lo, hi, frame.base_vector) == (3, 4, {ORIGIN: 1})
    site = Site()
    site.log.skip(ORIGIN, SkipRun(1, 2, 0b1))
    got = site.receive(frame)
    assert [txn.snapshot.vector for _o, _ts, txn, _off in got.applied] \
        == [VectorClock({ORIGIN: 2}), VectorClock({ORIGIN: 3})]
    # Only the newest retired position can anchor a chain.
    with pytest.raises(ValueError):
        origin.sender._chain_base(1)


def test_backfill_walks_the_shard_in_stream_order():
    origin = Origin(pruning_map())
    hit = key_on(2)
    a = origin.commit(1, [hit])
    origin.commit(2, [key_on(0)])
    c = origin.commit(3, [hit, key_on(1)])
    message, dots = origin.sender.backfill(2)
    assert [ts for ts, _payload in message.entries] == [1, 3]
    assert (message.shard, message.upto) == (2, 3)
    assert dots == [a.dot, c.dot]
    assert origin.sender.backfill(3)[0].entries == ()


# -- ReplReceiver -----------------------------------------------------------

class Untouchable:
    """A receive queue that must stay empty and unused."""

    def __len__(self):
        return 0

    def insert(self, ts, txn):
        raise AssertionError(f"queued {txn.dot} at {ts}")

    insert_run = insert


def test_in_order_head_applies_without_touching_the_queue():
    origin = Origin()
    for counter in (1, 2, 3):
        origin.commit(counter, vector={ORIGIN: counter - 1})
    ((frame, *_rest),) = origin.flush("dc1")
    site = Site()
    site.receiver.queues[ORIGIN] = Untouchable()
    got = site.receive(frame)
    assert [(o, ts, t.dot.counter, fill) for o, ts, t, fill in got.applied] \
        == [(ORIGIN, 1, 1, False), (ORIGIN, 2, 2, False),
            (ORIGIN, 3, 3, False)]
    assert (got.dups, got.adverts, got.grafted) == (0, [], [])
    assert site.log.state_vector == VectorClock({ORIGIN: 3})
    assert site.log.gaps() == {}
    # The sender holds what its vector covers: two holders each.
    assert site.stability.holders(Dot(3, "e")) == {"dc1", ORIGIN}


def test_a_hole_waits_for_the_resend():
    origin = Origin()
    for counter in (1, 2, 3):
        origin.commit(counter)
    (first,) = origin.flush("dc1", limit=1)
    (rest,) = origin.flush("dc1")
    site = Site()
    got = site.receive(rest[0])                 # 2..3 before 1
    assert got.applied == []
    assert site.log.state_vector == VectorClock.zero()
    assert len(site.receiver.queues[ORIGIN]) == 2
    got = site.receive(first[0])
    assert [ts for _o, ts, _t, _f in got.applied] == [1, 2, 3]
    assert len(site.receiver.queues[ORIGIN]) == 0


def test_a_head_blocked_on_a_third_stream_unblocks_across_queues():
    origin = Origin()
    origin.commit(1, vector={"dc2": 1})         # read dc2's first
    ((frame, *_rest),) = origin.flush("dc1")
    site = Site()
    assert site.receive(frame).applied == []
    theirs = make_txn(9, stamp={"dc2": 1})
    other = ReplicateBatch(
        "dc2", 1, {},
        (encode_stream_entry(theirs, "dc2", 1, VectorClock.zero()),),
        {"dc2": 1})
    got = site.receive(other, sender="dc2")
    assert [(o, ts) for o, ts, _t, _f in got.applied] \
        == [("dc2", 1), (ORIGIN, 1)]


def test_a_duplicate_coordinate_and_its_stale_resend_adopt():
    # The edge committed at dc1 (us), migrated, and committed the same
    # transaction at dc0: dc0's stream brings the dot back.
    site = Site()
    ours = site.log.sequence(make_txn(1))
    origin = Origin()
    origin.commit(1)
    ((frame, *_rest),) = origin.flush("dc1")
    got = site.receive(frame)
    assert (got.applied, got.dups, got.grafted) == ([], 1, [1])
    assert ours.commit.entries == {"dc1": 1, ORIGIN: 1}
    assert site.log.state_vector == VectorClock({"dc1": 1, ORIGIN: 1})
    assert site.log.streams[ORIGIN] == {1: ours.dot}
    assert site.log.txns[ours.dot] is ours
    # Anti-entropy resends the frame: nothing left to adopt.
    got = site.receive(frame)
    assert (got.applied, got.dups, got.grafted) == ([], 1, [])
    assert len(site.receiver.queues[ORIGIN]) == 0


def test_a_duplicate_after_release_gets_no_holder_set():
    # dc0 ships the edge's transaction; the edge migrated and committed
    # it at dc2 too, whose stream brings it after we released it.
    origin = Origin()
    txn = origin.commit(1)
    ((frame, *_rest),) = origin.flush("dc1")
    site = Site()
    site.receive(frame)
    stability = site.stability
    assert stability.advance() == [(ORIGIN, 1, txn.dot)]
    assert stability.released(txn.dot)
    assert txn.dot not in stability._holders
    copy = make_txn(1, stamp={ORIGIN: 1, "dc2": 1})
    duplicate = ReplicateBatch(
        "dc2", 1, {}, (encode_stream_entry(copy, "dc2", 1,
                                            VectorClock.zero()),),
        {"dc2": 1, ORIGIN: 1})
    got = site.receive(duplicate, sender="dc2")
    assert (got.applied, got.dups) == ([], 1)
    assert site.log.streams["dc2"][1] == txn.dot
    assert txn.dot not in stability._holders
    # The dup's position is passed (the dot is in the run again, as at
    # every position it holds), and still no set comes back.
    assert stability.advance() == [("dc2", 1, txn.dot)]
    assert txn.dot not in stability._holders


def test_full_entry_after_a_skip_run_late_fills():
    shard_map = pruning_map()
    origin = Origin(shard_map)
    origin.commit(1, [key_on(2)])               # dc1 is not interested
    origin.commit(2, [key_on(0)])
    (pruned,) = origin.flush("dc1")
    site = Site(shard_map)
    got = site.receive(pruned[0])
    assert [ts for _o, ts, _t, _f in got.applied] == [2]
    assert site.log.covered(ORIGIN, 1) is not None
    assert got.adverts == []                    # rightly pruned
    # dc1 subscribed to shard 2 meanwhile and the origin re-ships 1 in
    # full (its view of our interest raced the skip run).
    site.interest.mask |= 1 << 2
    origin.interest.fold_advert("dc1", site.interest.mask, 1)
    assert site.log.shard_gaps(site.interest.mask) == {ORIGIN: [1]}
    link = origin.sender.heard("dc1", 0)
    link = origin.sender.heard("dc1", 0)        # stalled: rewind
    (full,) = origin.sender.flush(link, BATCH)
    before = site.log.state_vector
    got = site.receive(full[0])
    assert [(ts, fill) for _o, ts, _t, fill in got.applied] == [(1, True)]
    assert got.dups == 1                        # entry 2 again
    assert site.log.state_vector == before
    assert site.log.shard_gaps(site.interest.mask) == {}


def test_a_wrongly_pruned_run_asks_the_origin_to_backfill():
    shard_map = pruning_map()
    site = Site(shard_map)
    # The origin thinks we do not want shard 0; we serve it.
    frame = ReplicateBatch(ORIGIN, 1, {}, ((2, 1 << 0),), {ORIGIN: 2})
    got = site.receive(frame)
    assert site.log.state_vector == VectorClock({ORIGIN: 2})
    ((peer, advert),) = got.adverts
    assert (peer, advert.backfill) == (ORIGIN, (0,))
    assert site.interest.owed(ORIGIN) == (0,)
    # The backfill fills the positions off-stream.
    filled = make_txn(5, [key_on(0)], stamp={ORIGIN: 2})
    got = site.receiver.backfill(
        ShardBackfill(0, ((2, filled.handoff()),), 2), ORIGIN)
    assert [(ts, fill) for _o, ts, _t, fill in got.applied] == [(2, True)]
    assert site.log.state_vector == VectorClock({ORIGIN: 2})
    # Again (the first response was slow, we asked twice): a duplicate.
    got = site.receiver.backfill(
        ShardBackfill(0, ((2, filled.handoff()),), 2), ORIGIN)
    assert (got.applied, got.dups) == ([], 1)


def test_malformed_frame_touches_nothing_and_is_not_acked():
    origin = Origin()
    origin.commit(1)
    ((good, *_rest),) = origin.flush("dc1")
    site = Site()
    # No shard map: no skip run is legitimate, wherever it sits.
    bad = ReplicateBatch(ORIGIN, 1, {}, good.entries + ((1, 0b1),),
                         {ORIGIN: 9})
    assert site.receive(bad) is None            # None: no ack
    assert site.log.state_vector == VectorClock.zero()
    assert not site.log.txns
    assert site.receiver.queues == {}
    assert site.stability._peer_applied == {}
