"""Transaction metadata tests: snapshots, commit stamps, dots (§3.5-3.8)."""

import pytest

from repro.core import (CommitStamp, Dot, DotTracker, ObjectKey, Snapshot,
                        Transaction, VectorClock, WriteOp)
from repro.crdt import Counter
from repro.transport.codec import value_size


def make_txn(dot=Dot(1, "edge"), snapshot_vector=None, local_deps=(),
             entries=None, keys=("bucket/x",)):
    writes = []
    for name in keys:
        bucket, key = name.split("/")
        op = Counter().prepare("increment", 1)
        writes.append(WriteOp(ObjectKey(bucket, key), op))
    return Transaction(
        dot=dot, origin=dot.origin,
        snapshot=Snapshot(VectorClock(snapshot_vector or {}), local_deps),
        commit=CommitStamp(entries), writes=writes)


class TestSnapshot:
    def test_satisfied_by_vector(self):
        snap = Snapshot(VectorClock({"dc0": 2}))
        assert snap.satisfied_by(VectorClock({"dc0": 3}), DotTracker())
        assert not snap.satisfied_by(VectorClock({"dc0": 1}), DotTracker())

    def test_satisfied_requires_local_deps(self):
        dep = Dot(4, "edge")
        snap = Snapshot(VectorClock(), [dep])
        tracker = DotTracker()
        assert not snap.satisfied_by(VectorClock(), tracker)
        tracker.observe(dep)
        assert snap.satisfied_by(VectorClock(), tracker)

    def test_satisfied_by_plain_set(self):
        dep = Dot(4, "edge")
        snap = Snapshot(VectorClock(), [dep])
        assert snap.satisfied_by(VectorClock(), {dep})

    def test_roundtrip(self):
        snap = Snapshot(VectorClock({"dc0": 1}), [Dot(2, "e")])
        restored = Snapshot.from_dict(snap.to_dict())
        assert restored == snap

    def test_equality_hash(self):
        a = Snapshot(VectorClock({"d": 1}), [Dot(1, "e")])
        b = Snapshot(VectorClock({"d": 1}), [Dot(1, "e")])
        assert a == b and hash(a) == hash(b)


class TestCommitStamp:
    def test_symbolic_until_first_entry(self):
        stamp = CommitStamp()
        assert stamp.is_symbolic
        stamp.add_entry("dc0", 5)
        assert not stamp.is_symbolic

    def test_included_in_any_equivalent_entry(self):
        # Migration can yield multiple equivalent stamps (section 3.8).
        stamp = CommitStamp({"dc0": 9, "dc1": 4})
        assert stamp.included_in(VectorClock({"dc1": 4}))
        assert stamp.included_in(VectorClock({"dc0": 9}))
        assert not stamp.included_in(VectorClock({"dc0": 8, "dc1": 3}))

    def test_symbolic_never_included(self):
        assert not CommitStamp().included_in(VectorClock({"dc0": 99}))

    def test_conflicting_reassignment_rejected(self):
        stamp = CommitStamp({"dc0": 5})
        with pytest.raises(ValueError):
            stamp.add_entry("dc0", 6)

    def test_idempotent_reassignment_ok(self):
        stamp = CommitStamp({"dc0": 5})
        stamp.add_entry("dc0", 5)
        assert stamp.entries == {"dc0": 5}

    def test_as_vector_advances_snapshot(self):
        stamp = CommitStamp({"dc0": 7})
        vec = stamp.as_vector(VectorClock({"dc0": 3, "dc1": 2}))
        assert vec.to_dict() == {"dc0": 7, "dc1": 2}

    def test_roundtrip_and_copy(self):
        stamp = CommitStamp({"dc0": 1})
        assert CommitStamp.from_dict(stamp.to_dict()).entries == {"dc0": 1}
        copy = stamp.copy()
        copy.add_entry("dc1", 2)
        assert "dc1" not in stamp.entries


class TestTransaction:
    def test_tag_embeds_dot_and_index(self):
        txn = make_txn(dot=Dot(9, "node"))
        assert txn.tag_for(0) == (9, "node", 0)
        assert txn.tag_for(2) == (9, "node", 2)

    def test_tagged_writes_are_applicable(self):
        txn = make_txn()
        counter = Counter()
        for write in txn.tagged_writes():
            counter.apply(write.op)
        assert counter.value() == 1

    def test_conflicts_on_shared_write_key(self):
        a = make_txn(dot=Dot(1, "a"), keys=("b/x", "b/y"))
        b = make_txn(dot=Dot(1, "b"), keys=("b/y",))
        c = make_txn(dot=Dot(1, "c"), keys=("b/z",))
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)
        assert not a.conflicts_with(c)

    def test_touches(self):
        txn = make_txn(keys=("b/x",))
        assert txn.touches(ObjectKey("b", "x"))
        assert not txn.touches(ObjectKey("b", "y"))

    def test_dict_roundtrip(self):
        txn = make_txn(dot=Dot(3, "e"), snapshot_vector={"dc0": 2},
                       local_deps=[Dot(1, "e")], entries={"dc0": 3})
        restored = Transaction.from_dict(txn.to_dict())
        assert restored.dot == txn.dot
        assert restored.snapshot == txn.snapshot
        assert restored.commit.entries == txn.commit.entries
        assert len(restored.writes) == len(txn.writes)

    def test_byte_size_scales_with_metadata(self):
        small = make_txn(snapshot_vector={"dc0": 1})
        large = make_txn(snapshot_vector={f"dc{i}": 1 for i in range(10)})
        assert value_size(large) > value_size(small)


class TestObjectKey:
    def test_roundtrip(self):
        key = ObjectKey("bucket", "name")
        assert ObjectKey.from_dict(key.to_dict()) == key

    def test_hashable(self):
        assert len({ObjectKey("b", "k"), ObjectKey("b", "k")}) == 1

    def test_repr(self):
        assert repr(ObjectKey("b", "k")) == "b/k"
