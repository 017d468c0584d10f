"""Skewed physical clocks and hybrid logical clocks (repro.sim.clock)."""

from repro.sim.clock import ClockService, HybridLogicalClock, SkewedClock
from repro.sim.events import EventLoop
from repro.transport.codec import encode_value, value_size


def _advance(loop, ms):
    loop.schedule(ms, lambda: None)
    loop.run()


class TestSkewedClock:
    def test_zero_skew_tracks_loop(self):
        loop = EventLoop()
        clock = SkewedClock(loop)
        _advance(loop, 100.0)
        assert clock.now() == loop.now
        assert clock.offset_ms == 0.0

    def test_offset_and_step(self):
        loop = EventLoop()
        clock = SkewedClock(loop, offset_ms=30.0)
        assert clock.offset_ms == 30.0
        clock.step(-50.0)
        assert clock.offset_ms == -20.0

    def test_drift_accumulates(self):
        loop = EventLoop()
        clock = SkewedClock(loop, drift=0.01)
        _advance(loop, 1000.0)
        assert abs(clock.offset_ms - 10.0) < 1e-9

    def test_set_drift_is_continuous(self):
        loop = EventLoop()
        clock = SkewedClock(loop, drift=0.05)
        _advance(loop, 1000.0)
        before = clock.now()
        clock.set_drift(0.0)
        assert clock.now() == before
        _advance(loop, 1000.0)
        # The old drift stops accumulating once the rate reverts.
        assert abs(clock.offset_ms - 50.0) < 1e-9

    def test_negative_drift_runs_slow(self):
        loop = EventLoop()
        clock = SkewedClock(loop, drift=-0.02)
        _advance(loop, 1000.0)
        assert clock.now() < loop.now


class TestHlcMonotonicity:
    def test_timestamps_strictly_increase(self):
        loop = EventLoop()
        hlc = HybridLogicalClock(SkewedClock(loop), "a")
        stamps = [hlc.now() for _ in range(5)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5

    def test_same_tick_sends_stay_unique(self):
        # The loop never advances, so the physical reading is frozen:
        # the counter must disambiguate every stamp.
        loop = EventLoop()
        hlc = HybridLogicalClock(SkewedClock(loop), "a")
        stamps = [hlc.now() for _ in range(100)]
        assert len(set(stamps)) == 100
        assert all(s[0] == stamps[0][0] for s in stamps)
        counters = [s[1] for s in stamps]
        assert counters == list(range(counters[0], counters[0] + 100))

    def test_backwards_step_clamped(self):
        # An NTP step backwards must not let the HLC run backwards: the
        # logical component absorbs the regression.
        loop = EventLoop()
        clock = SkewedClock(loop)
        hlc = HybridLogicalClock(clock, "a")
        _advance(loop, 100.0)
        before = hlc.now()
        clock.step(-60.0)
        after = hlc.now()
        assert after > before
        assert after[0] == before[0]      # physical part held, not reset

    def test_forward_step_adopted(self):
        loop = EventLoop()
        clock = SkewedClock(loop)
        hlc = HybridLogicalClock(clock, "a")
        clock.step(500.0)
        ts = hlc.now()
        assert ts[0] == clock.now()
        assert ts[1] == 0


class TestHlcCausality:
    def test_observe_preserves_happened_before(self):
        loop = EventLoop()
        a = HybridLogicalClock(SkewedClock(loop), "a")
        b = HybridLogicalClock(SkewedClock(loop), "b")
        sent = a.now()
        b.observe(sent)
        assert b.now() > sent

    def test_causality_survives_receiver_step_back(self):
        # The receiver's physical clock jumps behind the sender's: the
        # merged logical clock still orders receipt after send.
        loop = EventLoop()
        _advance(loop, 100.0)
        fast = SkewedClock(loop, offset_ms=40.0)
        slow = SkewedClock(loop, offset_ms=-40.0)
        a = HybridLogicalClock(fast, "a")
        b = HybridLogicalClock(slow, "b")
        sent = a.now()
        slow.step(-30.0)                  # and then it steps further back
        b.observe(sent)
        received = b.now()
        assert received > sent

    def test_chain_across_three_skewed_nodes(self):
        loop = EventLoop()
        _advance(loop, 50.0)
        clocks = {n: HybridLogicalClock(
            SkewedClock(loop, offset_ms=off), n)
            for n, off in (("a", 25.0), ("b", -25.0), ("c", 0.0))}
        chain = []
        previous = None
        for n in ("a", "b", "c", "a", "c", "b"):
            if previous is not None:
                clocks[n].observe(previous)
            previous = clocks[n].now()
            chain.append(previous)
        assert chain == sorted(chain)
        assert len(set(chain)) == len(chain)

    def test_peek_does_not_advance(self):
        loop = EventLoop()
        hlc = HybridLogicalClock(SkewedClock(loop), "a")
        ts = hlc.now()
        assert hlc.peek() == ts
        assert hlc.peek() == ts


class TestClockService:
    def test_default_clock_is_true_time(self):
        loop = EventLoop()
        service = ClockService(loop)
        _advance(loop, 10.0)
        assert service.clock_for("n").now() == loop.now
        assert service.clock_for("n") is service.clock_for("n")

    def test_set_offset_is_absolute(self):
        loop = EventLoop()
        service = ClockService(loop)
        service.set_offset("n", 20.0)
        service.set_offset("n", 5.0)      # not cumulative
        assert abs(service.clock_for("n").offset_ms - 5.0) < 1e-9

    def test_max_offset_spans_both_signs(self):
        loop = EventLoop()
        service = ClockService(loop)
        service.set_offset("a", 30.0)
        service.set_offset("b", -10.0)
        assert abs(service.max_offset_ms() - 40.0) < 1e-9

    def test_wire_size_counts_node_id(self):
        assert value_size((1.0, 0, "m0")) \
            == len(encode_value((1.0, 0, "m0"))) \
            == value_size((1.0, 0, "m")) + 1
