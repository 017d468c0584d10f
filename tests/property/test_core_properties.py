"""Property tests for core metadata: clocks, dots, journals."""

from hypothesis import given, settings, strategies as st

from repro.core import (CommitStamp, Dot, DotTracker, ObjectKey, Snapshot,
                        ObjectJournal, Transaction, VectorClock, WriteOp)
from repro.crdt import Counter

DCS = ["dc0", "dc1", "dc2"]

clock_st = st.dictionaries(st.sampled_from(DCS),
                           st.integers(0, 20)).map(VectorClock)


class TestVectorClockLaws:
    @settings(max_examples=50, deadline=None)
    @given(a=clock_st, b=clock_st)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=50, deadline=None)
    @given(a=clock_st, b=clock_st, c=clock_st)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=50, deadline=None)
    @given(a=clock_st)
    def test_merge_idempotent(self, a):
        assert a.merge(a) == a

    @settings(max_examples=50, deadline=None)
    @given(a=clock_st, b=clock_st)
    def test_merge_is_least_upper_bound(self, a, b):
        m = a.merge(b)
        assert a.leq(m) and b.leq(m)

    @settings(max_examples=50, deadline=None)
    @given(a=clock_st, b=clock_st)
    def test_order_antisymmetry(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @settings(max_examples=50, deadline=None)
    @given(a=clock_st, b=clock_st)
    def test_exactly_one_relation(self, a, b):
        relations = [a == b, a.lt(b), b.lt(a), a.concurrent(b)]
        assert sum(relations) == 1


class TestDotTrackerProperties:
    @settings(max_examples=50, deadline=None)
    @given(counters=st.lists(st.integers(1, 15), min_size=1, max_size=30))
    def test_seen_iff_observed(self, counters):
        tracker = DotTracker()
        observed = set()
        for counter in counters:
            dot = Dot(counter, "origin")
            first_time = dot not in observed
            assert tracker.observe(dot) == first_time
            observed.add(dot)
        for counter in range(1, 16):
            dot = Dot(counter, "origin")
            assert tracker.seen(dot) == (dot in observed)

    @settings(max_examples=50, deadline=None)
    @given(counters=st.permutations(list(range(1, 10))))
    def test_watermark_closes_under_any_order(self, counters):
        tracker = DotTracker()
        for counter in counters:
            tracker.observe(Dot(counter, "o"))
        assert tracker.watermark("o") == 9


class TestJournalProperties:
    def _txn(self, counter, origin, amount):
        key = ObjectKey("b", "x")
        op = Counter().prepare("increment", amount)
        return Transaction(Dot(counter, origin), origin,
                           Snapshot(VectorClock()), CommitStamp(),
                           [WriteOp(key, op)])

    @settings(max_examples=50, deadline=None)
    @given(entries=st.lists(
        st.tuples(st.integers(1, 50), st.sampled_from("ab"),
                  st.integers(1, 5)),
        min_size=1, max_size=20, unique_by=lambda t: (t[0], t[1])))
    def test_materialisation_order_independent(self, entries):
        """Any insertion order yields the same materialised value."""
        txns = [self._txn(c, o, a) for c, o, a in entries]
        forward = ObjectJournal(ObjectKey("b", "x"), "counter")
        backward = ObjectJournal(ObjectKey("b", "x"), "counter")
        for txn in txns:
            forward.append(txn)
        for txn in reversed(txns):
            backward.append(txn)
        assert forward.materialise().value() \
            == backward.materialise().value() \
            == sum(a for _c, _o, a in entries)

    @settings(max_examples=50, deadline=None)
    @given(entries=st.lists(
        st.tuples(st.integers(1, 50), st.sampled_from("ab"),
                  st.integers(1, 5)),
        min_size=1, max_size=20, unique_by=lambda t: (t[0], t[1])),
        fold=st.integers(0, 20))
    def test_compaction_preserves_value(self, entries, fold):
        """Folding any prefix into the base never changes reads."""
        journal = ObjectJournal(ObjectKey("b", "x"), "counter")
        txns = [self._txn(c, o, a) for c, o, a in entries]
        for txn in txns:
            txn.commit = txn.commit.with_entry("dc0", txn.dot.counter)
            journal.append(txn)
        before = journal.materialise().value()
        limit = sorted(t.dot.counter for t in txns)
        threshold = limit[min(fold, len(limit) - 1)]
        vec = VectorClock({"dc0": threshold})
        journal.advance_base(lambda e: e.txn.commit.included_in(vec))
        assert journal.materialise().value() == before
