"""CommitLog, driven directly: no simulator, no DataCenter."""

import pytest

from repro.core import (CommitStamp, Dot, Snapshot, Transaction,
                        VectorClock)
from repro.dc.commitlog import CommitLog
from repro.dc.replog import SkipRun

NODE = "dc0"


def txn(counter, origin="e", stamp=None):
    return Transaction(Dot(counter, origin), origin,
                       Snapshot(VectorClock.zero()), CommitStamp(stamp))


def test_sequence_assigns_consecutive_positions_and_stamps_them():
    log = CommitLog(NODE)
    first, second = txn(1), txn(2)
    assert log.sequence(first) is first
    assert log.sequence(second) is second
    assert first.commit.entries == {NODE: 1}
    assert second.commit.entries == {NODE: 2}
    assert log.sequencer == 2
    assert log.state_vector == VectorClock({NODE: 2})
    assert log.streams[NODE] == {1: first.dot, 2: second.dot}
    assert log.txns[first.dot] is first
    assert log.dots.seen(second.dot)
    assert log.lamport.time == 2            # observed every dot


def test_own_sequence_refuses_a_held_dot():
    log = CommitLog(NODE)
    first = txn(1)
    log.sequence(first)
    # A second copy of the same transaction (a duplicate request that
    # raced the first copy's 2PC): the log hands back what it holds and
    # takes no position.
    assert log.sequence(txn(1)) is first
    assert log.sequencer == 1
    assert log.streams[NODE] == {1: first.dot}
    assert log.state_vector == VectorClock({NODE: 1})
    # ... also when it is held through a sibling's stream only.
    remote = txn(7, stamp={"dc1": 1})
    log.admit("dc1", 1, remote)
    assert log.sequence(txn(7)) is remote
    assert log.sequencer == 1


def test_admit_advances_only_the_stream_it_arrived_on():
    log = CommitLog(NODE)
    both = txn(1, stamp={"dc1": 1, "dc2": 4})   # committed at two DCs
    assert log.admit("dc1", 1, both)
    assert log.state_vector == VectorClock({"dc1": 1})
    assert log.streams["dc1"] == {1: both.dot}
    assert "dc2" not in log.streams


def test_admit_without_advance_leaves_the_vector():
    log = CommitLog(NODE)
    log.skip("dc1", SkipRun(1, 3, 0b1))
    before = log.state_vector
    late = txn(2, stamp={"dc1": 2})
    assert log.admit("dc1", 2, late, advance=False)
    assert log.state_vector == before == VectorClock({"dc1": 3})
    assert log.streams["dc1"] == {2: late.dot}
    assert log.txns[late.dot] is late


def test_a_stream_coordinate_for_a_held_dot_records_the_coordinate_only():
    log = CommitLog(NODE)
    held = txn(1, stamp={"dc1": 1})
    log.admit("dc1", 1, held)
    clock = log.lamport.time
    copy = txn(1, stamp={"dc2": 1})             # same dot via dc2
    assert not log.admit("dc2", 1, copy)
    assert log.streams["dc2"] == {1: held.dot}
    assert log.state_vector == VectorClock({"dc1": 1, "dc2": 1})
    assert log.txns[held.dot] is held           # the first copy stays
    assert log.lamport.time == clock
    # The equivalent commit entry is grafted by adopt, not by admit.
    assert held.commit.entries == {"dc1": 1}


def test_admit_keeps_streams_contiguous_and_positions_honest():
    log = CommitLog(NODE)
    with pytest.raises(ValueError, match="does not extend"):
        log.admit("dc1", 2, txn(1, stamp={"dc1": 2}))
    with pytest.raises(ValueError, match="contradicts"):
        log.admit("dc1", 1, txn(1, stamp={"dc1": 5}))
    with pytest.raises(ValueError, match="hole"):
        log.skip("dc1", SkipRun(2, 2, 0b1))
    assert log.state_vector == VectorClock.zero()
    assert not log.txns and log.streams == {NODE: {}}


def test_adopt_grafts_new_entries_and_names_our_own_position():
    log = CommitLog(NODE)
    ours = txn(1)
    log.sequence(ours)
    assert log.adopt(txn(1, stamp={NODE: 1})) is None       # nothing new
    assert log.adopt(txn(1, stamp={NODE: 1, "dc1": 9})) == 1
    assert ours.commit.entries == {NODE: 1, "dc1": 9}
    assert log.adopt(txn(1, stamp={"dc1": 9})) is None      # again: known
    # A dot we hold only through a sibling's stream has no position of
    # ours, and one we do not hold is not adopted at all.
    theirs = txn(2, stamp={"dc1": 1})
    log.admit("dc1", 1, theirs)
    assert log.adopt(txn(2, stamp={"dc2": 3})) is None
    assert theirs.commit.entries == {"dc1": 1, "dc2": 3}
    assert log.adopt(txn(3, stamp={"dc2": 4})) is None


def test_skip_records_only_the_part_above_the_frontier():
    log = CommitLog(NODE)
    log.admit("dc1", 1, txn(1, stamp={"dc1": 1}))
    recorded = log.skip("dc1", SkipRun(1, 3, 0b10))     # 1 is applied
    assert (recorded.start_ts, recorded.end_ts, recorded.mask) \
        == (2, 3, 0b10)
    assert log.state_vector == VectorClock({"dc1": 3})
    assert log.skip("dc1", SkipRun(2, 2, 0b10)) is None     # stale resend
    assert log.covered("dc1", 1) is None
    assert log.covered("dc1", 2) is recorded
    assert log.covered("dc1", 3) is recorded
    assert log.covered("dc1", 4) is None
    assert log.covered("dc2", 1) is None
    assert log.pruned("dc1") and not log.pruned("dc2")


def test_gaps_and_shard_gaps_with_skip_runs_and_a_late_fill():
    log = CommitLog(NODE)
    log.sequence(txn(1))
    log.admit("dc1", 1, txn(2, stamp={"dc1": 1}))
    log.skip("dc1", SkipRun(2, 2, 0b01))                # dc1:2-3, shard 0
    log.admit("dc1", 4, txn(3, stamp={"dc1": 4}))
    log.skip("dc1", SkipRun(5, 1, 0b10))                # dc1:5, shard 1
    assert log.gaps() == {}
    # Every skipped position is empty; which ones are *owed* depends on
    # the shards we say we should hold.
    assert log.shard_gaps(0b00) == {}
    assert log.shard_gaps(0b01) == {"dc1": [2, 3]}
    assert log.shard_gaps(0b10) == {"dc1": [5]}
    assert log.shard_gaps(0b11) == {"dc1": [2, 3, 5]}
    log.admit("dc1", 3, txn(4, stamp={"dc1": 3}), advance=False)
    assert log.shard_gaps(0b01) == {"dc1": [2]}
    assert log.gaps() == {}
    # A frontier that claims a position nobody stored or skipped.
    log.state_vector = log.state_vector.advance("dc2", 2)
    log.streams["dc2"] = {2: Dot(9, "x")}
    assert log.gaps() == {"dc2": [1]}


def never(_ts):
    return False


def test_retire_drops_released_positions_every_peer_applied():
    log = CommitLog(NODE)
    own = [log.sequence(txn(counter)) for counter in (1, 2, 3)]
    remote = txn(9, origin="f", stamp={"dc1": 1})
    log.admit("dc1", 1, remote)
    # Own positions 1-3 are stable, but peers applied only up to 2; the
    # remote transaction is stable: no peer asks us for it.
    gone = log.retire(VectorClock({NODE: 3, "dc1": 1}), 2, never)
    assert gone == [(own[0].dot, 1), (own[1].dot, 2), (remote.dot, None)]
    assert list(log.txns) == [own[2].dot]
    assert log.retired_base == (2, own[1].snapshot.vector)
    # Streams and the dot tracker keep what was retired.
    assert log.streams[NODE] == {1: own[0].dot, 2: own[1].dot,
                                 3: own[2].dot}
    assert all(log.dots.seen(t.dot) for t in own + [remote])
    assert log.retire(VectorClock({NODE: 3, "dc1": 1}), 2, never) == []
    assert log.retire(VectorClock({NODE: 3, "dc1": 1}), 3, never) \
        == [(own[2].dot, 3)]
    assert not log.txns


def test_retire_keeps_what_a_peer_may_still_ask_for():
    log = CommitLog(NODE)
    kept, gone = log.sequence(txn(1)), log.sequence(txn(2))
    assert log.retire(VectorClock({NODE: 2}), 2, lambda ts: ts == 1) \
        == [(gone.dot, 2)]
    assert list(log.txns) == [kept.dot]
    # ... for good: the cursor has passed it.
    assert log.retire(VectorClock({NODE: 2}), 2, never) == []


def test_a_duplicate_held_at_an_own_position_is_decided_on_our_stream():
    log = CommitLog(NODE)
    ours = log.sequence(txn(1))
    # dc1 committed it too (a migration duplicate) and shipped it; the
    # receiver grafts its entry and records the coordinate.
    copy = txn(1, stamp={"dc1": 1})
    log.adopt(copy)
    log.admit("dc1", 1, copy)
    assert ours.commit.entries == {NODE: 1, "dc1": 1}
    stable = VectorClock({NODE: 1, "dc1": 1})
    assert log.retire(stable, 0, never) == []
    assert log.retire(stable, 1, never) == [(ours.dot, 1)]


def test_a_fill_below_the_retired_cursor_is_retired_next():
    log = CommitLog(NODE)
    log.skip("dc1", SkipRun(1, 2, 0b1))
    assert log.retire(VectorClock({"dc1": 2}), 0, never) == []
    late = txn(5, origin="f", stamp={"dc1": 2})
    log.admit("dc1", 2, late, advance=False)
    assert log.retire(VectorClock({"dc1": 2}), 0, never) \
        == [(late.dot, None)]
    assert not log.txns


def test_a_retired_dot_is_never_sequenced_again_and_adopts_nothing():
    log = CommitLog(NODE)
    first = log.sequence(txn(1))
    log.retire(VectorClock({NODE: 1}), 1, never)
    assert log.sequence(txn(1)) is None
    assert log.sequencer == 1
    grown = txn(1, stamp={"dc9": 4})
    assert log.adopt(grown) is None
    assert log.entries(first.dot) == {NODE: 1}


def test_entries_read_the_stamp_while_held_and_the_streams_after():
    log = CommitLog(NODE)
    both = txn(1, stamp={"dc1": 3})
    log.admit("dc1", 1, txn(2, stamp={"dc1": 1}))
    log.admit("dc1", 2, txn(3, stamp={"dc1": 2}))
    log.admit("dc1", 3, both)
    held = log.entries(both.dot)
    assert held == {"dc1": 3} and held is not both.commit.entries
    log.retire(VectorClock({"dc1": 3}), 0, never)
    assert not log.txns
    assert log.entries(both.dot) == {"dc1": 3}
