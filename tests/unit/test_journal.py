"""ObjectJournal tests: base + journal, materialisation, compaction (§4.1)."""

from repro.core import (CommitStamp, Dot, ObjectKey, ObjectJournal,
                        ObjectState, Snapshot, Transaction, VectorClock,
                        WriteOp)
from repro.crdt import Counter, RGASequence


KEY = ObjectKey("b", "x")


def counter_txn(counter, origin="e", amount=1, snapshot=None,
                entries=None):
    op = Counter().prepare("increment", amount)
    return Transaction(
        dot=Dot(counter, origin), origin=origin,
        snapshot=snapshot or Snapshot(VectorClock()),
        commit=CommitStamp(entries),
        writes=[WriteOp(KEY, op)])


class TestAppend:
    def test_append_and_materialise(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=5))
        assert j.materialise().value() == 5

    def test_append_duplicate_dot_rejected(self):
        j = ObjectJournal(KEY, "counter")
        txn = counter_txn(1)
        assert j.append(txn)
        assert not j.append(txn)
        assert j.materialise().value() == 1

    def test_append_irrelevant_txn_ignored(self):
        j = ObjectJournal(ObjectKey("b", "other"), "counter")
        assert not j.append(counter_txn(1))

    def test_an_entry_shares_each_ops_payload_with_its_write(self):
        other = ObjectKey("b", "y")
        op = Counter().prepare("increment", 2)
        txn = Transaction(dot=Dot(4, "e"), origin="e",
                          snapshot=Snapshot(VectorClock()),
                          commit=CommitStamp(),
                          writes=[WriteOp(other, op), WriteOp(KEY, op),
                                  WriteOp(KEY, op)])
        j = ObjectJournal(KEY, "counter")
        assert j.append(txn)
        (entry,) = j.entries()
        assert [o.tag for o in entry.ops] == [(4, "e", 1), (4, "e", 2)]
        assert all(o.payload is op.payload for o in entry.ops)
        assert j.materialise().value() == 4

    def test_entries_sorted_by_dot(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(3, origin="b"))
        j.append(counter_txn(1, origin="a"))
        j.append(counter_txn(2, origin="c"))
        dots = [e.dot for e in j.entries()]
        assert dots == sorted(dots)

    def test_version_bumps_on_append(self):
        j = ObjectJournal(KEY, "counter")
        v0 = j.version
        j.append(counter_txn(1))
        assert j.version > v0

    def test_has(self):
        j = ObjectJournal(KEY, "counter")
        txn = counter_txn(1)
        j.append(txn)
        assert j.has(txn.dot)
        assert not j.has(Dot(99, "z"))


class TestMaterialise:
    def test_filter_excludes_entries(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        vec = VectorClock({"dc0": 1})
        state = j.materialise(lambda e: e.txn.commit.included_in(vec))
        assert state.value() == 1

    def test_visible_dots(self):
        j = ObjectJournal(KEY, "counter")
        t1 = counter_txn(1, entries={"dc0": 1})
        t2 = counter_txn(2, entries={"dc0": 2})
        j.append(t1)
        j.append(t2)
        vec = VectorClock({"dc0": 1})
        dots = j.visible_dots(lambda e: e.txn.commit.included_in(vec))
        assert dots == {t1.dot}

    def test_materialise_does_not_mutate_base(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=2))
        j.materialise()
        j.materialise()
        assert j.materialise().value() == 2

    def test_rga_applies_in_dot_order(self):
        key = ObjectKey("b", "seq")
        j = ObjectJournal(key, "rga")
        source = RGASequence()
        op1 = source.prepare("append", "a")
        t1 = Transaction(Dot(1, "e"), "e", Snapshot(VectorClock()),
                         CommitStamp(), [WriteOp(key, op1)])
        source.apply(op1.with_tag(t1.tag_for(0)))
        op2 = source.prepare("append", "b")
        t2 = Transaction(Dot(2, "e"), "e", Snapshot(VectorClock()),
                         CommitStamp(), [WriteOp(key, op2)])
        # Deliver out of order: the journal re-sorts by dot.
        j.append(t2)
        j.append(t1)
        assert j.materialise().value() == ["a", "b"]


class TestCompaction:
    def test_advance_base_folds_stable_prefix(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        vec = VectorClock({"dc0": 1})
        folded = j.advance_base(
            lambda e: e.txn.commit.included_in(vec))
        assert folded == 1
        assert j.journal_length == 1
        assert Dot(1, "e") in j.base_dots
        assert j.materialise().value() == 2

    def test_fold_stops_at_first_unstable(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1))                      # symbolic: unstable
        j.append(counter_txn(2, entries={"dc0": 1}))  # stable but later
        folded = j.advance_base(
            lambda e: not e.txn.commit.is_symbolic)
        assert folded == 0
        assert j.journal_length == 2

    def test_append_after_fold_is_deduplicated(self):
        j = ObjectJournal(KEY, "counter")
        txn = counter_txn(1, entries={"dc0": 1})
        j.append(txn)
        j.advance_base(lambda e: True)
        assert not j.append(txn)
        assert j.materialise().value() == 1

    def test_version_bumps_on_fold(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        v = j.version
        j.advance_base(lambda e: True)
        assert j.version > v

    def test_base_version_bumps_only_on_fold(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        assert j.base_version == 0  # appends leave the base alone
        j.advance_base(lambda e: True)
        assert j.base_version == 1
        j.advance_base(lambda e: True)  # nothing to fold
        assert j.base_version == 1

    def test_fold_large_stable_prefix(self):
        j = ObjectJournal(KEY, "counter")
        for i in range(1, 201):
            j.append(counter_txn(i, entries={"dc0": i}))
        vec = VectorClock({"dc0": 150})
        folded = j.advance_base(
            lambda e: e.txn.commit.included_in(vec))
        assert folded == 150
        assert j.journal_length == 50
        assert len(j.base_dots) == 150
        assert j.materialise().value() == 200
        # The index only tracks journalled entries, but has() still
        # answers for folded dots.
        assert j.has(Dot(1, "e")) and j.has(Dot(200, "e"))

    def test_base_dots_view_is_frozen_and_refreshed(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.advance_base(lambda e: True)
        view = j.base_dots
        assert isinstance(view, frozenset)
        assert view == {Dot(1, "e")}
        j.append(counter_txn(2, entries={"dc0": 2}))
        j.advance_base(lambda e: True)
        assert j.base_dots == {Dot(1, "e"), Dot(2, "e")}


class TestSnapshotState:
    def test_roundtrip_base(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=3, entries={"dc0": 1}))
        j.advance_base(lambda e: True)
        restored = ObjectState.of(KEY, "counter", j.materialise(),
                                  j.base_dots).journal()
        assert restored.materialise().value() == 3
        assert restored.base_dots == {Dot(1, "e")}
