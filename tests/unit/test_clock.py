"""VectorClock and LamportClock unit tests."""

import pytest

from repro.core import LamportClock, VectorClock, lub


class TestVectorClockBasics:
    def test_zero(self):
        v = VectorClock.zero()
        assert len(v) == 0
        assert v["anything"] == 0

    def test_construction_drops_zero_entries(self):
        v = VectorClock({"a": 0, "b": 2})
        assert "a" not in v
        assert v["b"] == 2
        assert len(v) == 1

    def test_advance_increments(self):
        v = VectorClock().advance("dc0")
        assert v["dc0"] == 1

    def test_advance_to_value(self):
        v = VectorClock().advance("dc0", 7)
        assert v["dc0"] == 7

    def test_advance_backwards_rejected(self):
        v = VectorClock({"dc0": 5})
        with pytest.raises(ValueError):
            v.advance("dc0", 3)

    def test_immutability(self):
        v = VectorClock({"a": 1})
        w = v.advance("a")
        assert v["a"] == 1
        assert w["a"] == 2

    def test_to_dict_roundtrip(self):
        v = VectorClock({"a": 1, "b": 2})
        assert VectorClock(v.to_dict()) == v


class TestVectorClockOrder:
    def test_leq_reflexive(self):
        v = VectorClock({"a": 3})
        assert v.leq(v)

    def test_leq_with_missing_entries(self):
        assert VectorClock({"a": 1}).leq(VectorClock({"a": 1, "b": 5}))
        assert not VectorClock({"a": 1, "b": 5}).leq(VectorClock({"a": 1}))

    def test_lt_strict(self):
        v = VectorClock({"a": 1})
        w = VectorClock({"a": 2})
        assert v.lt(w)
        assert not v.lt(v)

    def test_concurrent(self):
        v = VectorClock({"a": 1})
        w = VectorClock({"b": 1})
        assert v.concurrent(w)
        assert w.concurrent(v)
        assert not v.concurrent(v)

    def test_dominates(self):
        assert VectorClock({"a": 2, "b": 1}).dominates(VectorClock({"a": 1}))

    def test_zero_leq_everything(self):
        assert VectorClock.zero().leq(VectorClock({"x": 1}))


class TestVectorClockLattice:
    def test_merge_is_componentwise_max(self):
        v = VectorClock({"a": 3, "b": 1})
        w = VectorClock({"b": 5, "c": 2})
        m = v.merge(w)
        assert m.to_dict() == {"a": 3, "b": 5, "c": 2}

    def test_merge_commutative(self):
        v = VectorClock({"a": 1, "b": 4})
        w = VectorClock({"a": 2})
        assert v.merge(w) == w.merge(v)

    def test_merge_idempotent(self):
        v = VectorClock({"a": 1})
        assert v.merge(v) == v

    def test_merge_upper_bound(self):
        v = VectorClock({"a": 1})
        w = VectorClock({"b": 2})
        m = v.merge(w)
        assert v.leq(m) and w.leq(m)

    def test_meet_is_componentwise_min(self):
        v = VectorClock({"a": 3, "b": 1})
        w = VectorClock({"b": 5, "c": 2})
        assert v.meet(w).to_dict() == {"b": 1}
        assert v.meet(w) == w.meet(v)
        assert v.meet(v) == v
        assert v.meet(w).leq(v) and v.meet(w).leq(w)
        assert v.meet(VectorClock.zero()) == VectorClock.zero()

    def test_merge_dict_matches_merge(self):
        v = VectorClock({"a": 3, "b": 1})
        raw = {"b": 5, "c": 2, "d": 0}
        assert v.merge_dict(raw) == v.merge(VectorClock(raw))
        assert "d" not in v.merge_dict(raw)
        # Nothing to learn: the clock itself comes back, not a copy.
        assert v.merge_dict({"a": 3, "b": 0}) is v
        assert v.merge_dict(raw).merge_dict(raw) == v.merge_dict(raw)

    def test_dominates_dict_matches_leq(self):
        v = VectorClock({"a": 3, "b": 1})
        for raw in ({}, {"a": 3}, {"a": 4}, {"c": 1}, {"c": 0, "b": 1}):
            assert v.dominates_dict(raw) == VectorClock(raw).leq(v)
        # One raw dict asked by clocks at different frontiers (a shared
        # heartbeat) must be answered per clock.
        raw = {"a": 2}
        assert VectorClock({"a": 2}).dominates_dict(raw)
        assert not VectorClock({"a": 1}).dominates_dict(raw)

    def test_lub_of_many(self):
        clocks = [VectorClock({"a": i}) for i in range(5)]
        assert lub(clocks)["a"] == 4

    def test_lub_empty(self):
        assert lub([]) == VectorClock.zero()


class TestVectorClockMisc:
    def test_equality_and_hash(self):
        assert VectorClock({"a": 1}) == VectorClock({"a": 1, "b": 0})
        assert hash(VectorClock({"a": 1})) == hash(VectorClock({"a": 1}))

    def test_byte_size_paper_estimate(self):
        # The paper uses 8 bytes per component (section 3.3).
        assert VectorClock({"a": 1, "b": 2, "c": 3}).byte_size() == 24


class TestLamportClock:
    def test_tick_monotonic(self):
        c = LamportClock()
        assert [c.tick() for _ in range(3)] == [1, 2, 3]

    def test_observe_advances(self):
        c = LamportClock()
        c.observe(10)
        assert c.tick() == 11

    def test_observe_smaller_ignored(self):
        c = LamportClock(5)
        c.observe(3)
        assert c.time == 5

    def test_happened_before_implies_tick_order(self):
        a, b = LamportClock(), LamportClock()
        t1 = a.tick()
        b.observe(t1)        # message from a to b
        t2 = b.tick()
        assert t1 < t2
