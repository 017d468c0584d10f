"""Simulation substrate tests: event loop, network, actors."""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (Actor, EventLoop, LatencyModel, Network,
                       Simulation)


class TestEventLoop:
    def test_schedule_and_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [5.0]

    def test_ordering_by_time(self):
        loop = EventLoop()
        order = []
        loop.schedule(10.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        loop.run()
        assert order == ["early", "late"]

    def test_fifo_tie_break(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_run_until_stops_clock(self):
        loop = EventLoop()
        loop.schedule(100.0, lambda: None)
        loop.run(until=50.0)
        assert loop.now == 50.0
        assert loop.pending() == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        fired = []

        def first():
            loop.schedule(1.0, lambda: fired.append("chained"))

        loop.schedule(1.0, first)
        loop.run()
        assert fired == ["chained"]
        assert loop.now == 2.0

    def test_max_events_budget(self):
        loop = EventLoop()
        for i in range(10):
            loop.schedule(float(i), lambda: None)
        loop.run(max_events=3)
        assert loop.processed_events == 3


class _Echo(Actor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, message, sender):
        self.received.append((message, sender, self.now))


class _Sink(Actor):
    def on_message(self, message, sender):
        pass


class TestNetwork:
    def _world(self, latency=10.0):
        sim = Simulation(seed=1, default_latency=LatencyModel(latency))
        a = sim.spawn(_Echo, "a")
        b = sim.spawn(_Echo, "b")
        return sim, a, b

    def test_delivery_with_latency(self):
        sim, a, b = self._world()
        a.send("b", "hi")
        sim.run()
        assert b.received[0][:2] == ("hi", "a")
        assert b.received[0][2] == pytest.approx(10.0)

    def test_fifo_per_link(self):
        sim, a, b = self._world()
        # Jittered latencies could reorder; FIFO must hold anyway.
        sim.network.set_link("a", "b", LatencyModel(5.0, 10.0))
        for i in range(20):
            a.send("b", i)
        sim.run()
        assert [m for m, _s, _t in b.received] == list(range(20))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000),
           base=st.floats(0.1, 20.0),
           jitter=st.floats(0.0, 15.0),
           sends=st.lists(st.tuples(st.sampled_from("abc"),
                                    st.sampled_from("abc")),
                          min_size=1, max_size=40))
    def test_every_link_is_fifo_and_never_early(self, seed, base, jitter,
                                                sends):
        """Each directed link delivers in send order, and no message
        arrives before ``send + base latency`` or before the one sent
        ahead of it — whatever the seed, jitter and traffic."""
        sim = Simulation(seed=seed,
                         default_latency=LatencyModel(base, jitter))
        nodes = {name: sim.spawn(_Echo, name) for name in "abc"}
        sent_at = {}
        sends = [(src, dst) for src, dst in sends if src != dst]

        def send(index, src, dst):
            sent_at[index] = sim.now
            nodes[src].send(dst, index)

        for index, (src, dst) in enumerate(sends):
            sim.loop.schedule_fast(0.25 * index, send, (index, src, dst))
        sim.run()
        for dst, node in nodes.items():
            assert sorted(m for m, _s, _t in node.received) \
                == [i for i, (_src, d) in enumerate(sends) if d == dst]
            for src in nodes:
                link = [(m, t) for m, s, t in node.received if s == src]
                assert [m for m, _t in link] == sorted(m for m, _t in link)
                assert all(t >= sent_at[m] + base for m, t in link)
                times = [t for _m, t in link]
                assert times == sorted(times)

    def test_partition_drops(self):
        sim, a, b = self._world()
        sim.network.partition("a", "b")
        assert not a.send("b", "lost")
        sim.run()
        assert b.received == []
        assert sim.network.stats.messages_dropped == 1

    def test_heal_restores(self):
        sim, a, b = self._world()
        sim.network.partition("a", "b")
        sim.network.heal("a", "b")
        a.send("b", "back")
        sim.run()
        assert len(b.received) == 1

    def test_partition_mid_flight_kills_message(self):
        sim, a, b = self._world()
        a.send("b", "doomed")
        sim.loop.schedule(1.0, lambda: sim.network.partition("a", "b"))
        sim.run()
        assert b.received == []

    def test_a_delivered_batch_keeps_no_message_alive(self):
        # The link's record names its last batch until the next send on
        # the link, which may never come.
        class Payload:
            pass

        sim = Simulation(seed=1, default_latency=LatencyModel(10.0))
        sim.spawn(_Sink, "a")
        sim.spawn(_Sink, "b")
        sent = [Payload(), Payload()]
        refs = [weakref.ref(message) for message in sent]
        sim.network.send("a", "b", sent[0], size_bytes=1)
        sim.run()
        sim.network.send("a", "b", sent[1], size_bytes=1)
        sim.loop.schedule(1.0, lambda: sim.network.partition("a", "b"))
        sim.run()
        del sent
        assert [ref() for ref in refs] == [None, None]

    def test_isolate_node(self):
        sim, a, b = self._world()
        sim.network.isolate("b")
        assert not a.send("b", "x")
        sim.network.restore("b")
        assert a.send("b", "y")

    def test_loss_rate(self):
        sim, a, b = self._world()
        sim.network.set_loss_rate("a", "b", 1.0)
        a.send("b", "x")
        sim.run()
        assert b.received == []

    def test_crashed_actor_ignores_messages(self):
        sim, a, b = self._world()
        b.crash()
        a.send("b", "x")
        sim.run()
        assert b.received == []

    def test_stats_counters(self):
        sim, a, b = self._world()
        a.send("b", "x", size_bytes=128)
        sim.run()
        assert sim.network.stats.messages_sent == 1
        assert sim.network.stats.messages_delivered == 1
        assert sim.network.stats.bytes_sent == 128


class TestActorTimers:
    def test_set_timer(self):
        sim = Simulation(seed=1)
        actor = sim.spawn(_Echo, "a")
        fired = []
        actor.set_timer(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_timer_skipped_after_crash(self):
        sim = Simulation(seed=1)
        actor = sim.spawn(_Echo, "a")
        fired = []
        actor.set_timer(5.0, lambda: fired.append(1))
        actor.crash()
        sim.run()
        assert fired == []

    def test_periodic_until_crash(self):
        sim = Simulation(seed=1)
        actor = sim.spawn(_Echo, "a")
        fired = []
        actor.every(10.0, lambda: fired.append(sim.now))
        sim.run(until=35.0)
        assert fired == [10.0, 20.0, 30.0]
        actor.crash()
        sim.run(until=100.0)
        assert len(fired) == 3


class TestSimulationDeterminism:
    def _trace(self, seed):
        sim = Simulation(seed=seed, default_latency=LatencyModel(3.0, 4.0))
        a = sim.spawn(_Echo, "a")
        b = sim.spawn(_Echo, "b")
        for i in range(10):
            sim.loop.schedule(float(i), lambda i=i: a.send("b", i))
        sim.run()
        return [(m, t) for m, _s, t in b.received]

    def test_same_seed_same_trace(self):
        assert self._trace(42) == self._trace(42)

    def test_different_seed_different_jitter(self):
        assert self._trace(1) != self._trace(2)

    def test_duplicate_actor_id_rejected(self):
        sim = Simulation(seed=1)
        sim.spawn(_Echo, "a")
        with pytest.raises(ValueError):
            sim.spawn(_Echo, "a")


class TestFrozenWorld:
    def test_freeze_restores_gc_state(self):
        import gc
        sim = Simulation(seed=3)
        a = sim.spawn(_Echo, "a")
        sim.spawn(_Echo, "b")
        before = gc.get_threshold()
        with sim.frozen_world() as frozen:
            assert frozen > 0
            assert gc.get_threshold() == Simulation.GC_FROZEN_THRESHOLDS
            for i in range(5):
                sim.loop.schedule(float(i), lambda i=i: a.send("b", i))
            sim.run()
        assert gc.get_threshold() == before
        assert gc.get_freeze_count() == 0
        assert len(sim.actors["b"].received) == 5

    def test_freeze_restores_on_error(self):
        import gc
        sim = Simulation(seed=3)
        before = gc.get_threshold()
        with pytest.raises(RuntimeError):
            with sim.frozen_world():
                raise RuntimeError("boom")
        assert gc.get_threshold() == before
        assert gc.get_freeze_count() == 0
