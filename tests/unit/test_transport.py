"""Transport abstraction: SimTransport facets, actor construction,
seeded rng derivation, crash/recover timer lifecycle, asyncio backend."""

import asyncio
import gc
import random

import pytest

from repro.core.dot import Dot
from repro.sim import Actor, EventLoop, Network, Simulation
from repro.transport.asyncio_backend import AsyncioTransport
from repro.transport.base import SimTransport


def make_world(seed=0):
    loop = EventLoop()
    rng = random.Random(seed)
    network = Network(loop, rng, seed=seed)
    return loop, network


class TestSimTransport:
    def test_facets_expose_loop_and_network(self):
        loop, network = make_world()
        transport = network.transport_view(loop)
        assert transport.timers is loop
        assert transport.net is network
        assert transport.seed == 0

    def test_view_is_memoized(self):
        loop, network = make_world()
        assert network.transport_view(loop) is network.transport_view(loop)

    def test_null_network_rejected(self):
        with pytest.raises(TypeError):
            SimTransport(EventLoop(), None)


class TestActorConstruction:
    def test_actor_via_transport_matches_classic_form(self):
        loop, network = make_world(seed=5)
        classic = Actor("a", loop, network)
        via_transport = Actor("b", network.transport_view(loop))
        assert classic.loop is via_transport.loop
        assert classic.network is via_transport.network

    def test_loop_without_network_rejected(self):
        with pytest.raises(TypeError):
            Actor("a", EventLoop())

    def test_rng_derived_from_seed_and_node_id(self):
        loop, network = make_world(seed=7)
        a = Actor("a", loop, network)
        b = Actor("b", loop, network)
        assert a.rng.random() == random.Random("7/a").random()
        assert b.rng.random() == random.Random("7/b").random()

    def test_spawned_and_direct_actors_share_rng_stream(self):
        sim = Simulation(seed=3)
        spawned = sim.spawn(Actor, "n0")
        loop, network = make_world(seed=3)
        direct = Actor("n0", loop, network)
        assert [spawned.rng.random() for _ in range(4)] \
            == [direct.rng.random() for _ in range(4)]


class TestTimerLifecycle:
    def test_crash_cancels_pending_timers(self):
        sim = Simulation(seed=0)
        actor = sim.spawn(Actor, "n0")
        fired = []
        actor.set_timer(10.0, lambda: fired.append("boom"))
        actor.crash()
        sim.run(50.0)
        assert fired == []

    def test_pre_crash_timer_does_not_fire_after_recovery(self):
        sim = Simulation(seed=0)
        actor = sim.spawn(Actor, "n0")
        fired = []
        actor.set_timer(10.0, lambda: fired.append("stale"))
        sim.run(1.0)
        actor.crash()
        sim.run(2.0)        # recover before the stale timer matures
        actor.recover()
        sim.run(100.0)
        assert fired == []

    def test_timers_armed_after_recovery_fire(self):
        sim = Simulation(seed=0)
        actor = sim.spawn(Actor, "n0")
        fired = []
        actor.crash()
        actor.recover()
        actor.set_timer(10.0, lambda: fired.append("fresh"))
        sim.run(50.0)
        assert fired == ["fresh"]

    def test_periodic_timers_rearmed_on_recovery(self):
        sim = Simulation(seed=0)
        actor = sim.spawn(Actor, "n0")
        ticks = []
        actor.every(10.0, lambda: ticks.append(sim.loop.now))
        sim.run_for(25.0)
        before = len(ticks)
        assert before >= 2
        actor.crash()
        sim.run_for(30.0)
        assert len(ticks) == before     # silent while down
        actor.recover()
        sim.run_for(30.0)
        assert len(ticks) > before      # cadence resumes


class TestAsyncioBackend:
    def test_timers_and_local_delivery(self):
        async def scenario():
            transport = AsyncioTransport("site", seed=0)
            got = []
            transport.attach("a", lambda m, s: got.append((m, s)))
            transport.attach("b", lambda m, s: got.append(("b", m, s)))
            fired = []
            transport.schedule(5.0, lambda: fired.append(transport.now))
            transport.send("a", "b", "ping")
            assert got == []            # local sends are not reentrant
            await asyncio.sleep(0.05)
            assert ("b", "ping", "a") in got
            assert fired
            await transport.stop()

        asyncio.run(scenario())

    def test_actor_runs_on_asyncio_transport(self):
        async def scenario():
            transport = AsyncioTransport("site", seed=9)
            actor = Actor("n1", transport)
            assert actor.rng.random() == random.Random("9/n1").random()
            assert actor.transport is transport
            await transport.stop()

        asyncio.run(scenario())

    def test_tcp_send_between_transports(self):
        async def scenario():
            homes = {"a": "s1", "b": "s2"}
            t1 = AsyncioTransport("s1", homes=homes,
                                  listen=("127.0.0.1", 0))
            t2 = AsyncioTransport("s2", homes=homes,
                                  listen=("127.0.0.1", 0))
            await t1.start()
            await t2.start()
            t1.peer_addrs.update({"s1": t1.listen_addr,
                                  "s2": t2.listen_addr})
            t2.peer_addrs.update(t1.peer_addrs)

            got = asyncio.Event()
            inbox = []

            def on_message(message, sender):
                inbox.append((message, sender))
                got.set()

            t2.attach("b", on_message)
            from repro.dc.messages import CommitAck
            message = CommitAck(Dot(1, "a"), {"dc": 2})
            t1.send("a", "b", message)
            await asyncio.wait_for(got.wait(), timeout=5.0)
            assert inbox == [(message, "a")]
            await t1.stop()
            await t2.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("garbage", [
        b"\x00\x00\x00\x04\x05\x02\xc3\x28",        # invalid UTF-8
        b"\x00\x00\x00\x06\x09\x01\x07\x00\x00\x00",  # list as dict key
        b"\x00\x00\x27\x10" + bytes([0x07, 1]) * 5000,  # nesting bomb
        b"\xff\xff\xff\xff",                          # absurd length
    ], ids=["utf8", "unhashable", "nesting", "length"])
    def test_garbage_closes_one_connection_and_nothing_else(self, garbage):
        """Bytes that are not a frame: that connection is closed and
        counted, no task dies with an exception, and a well-behaved
        peer's frame still arrives."""
        from repro.dc.messages import CommitAck

        async def scenario():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context))
            homes = {"a": "s1", "b": "s2"}
            t1 = AsyncioTransport("s1", homes=homes,
                                  listen=("127.0.0.1", 0))
            t2 = AsyncioTransport("s2", homes=homes,
                                  listen=("127.0.0.1", 0))
            await t1.start()
            await t2.start()
            t1.peer_addrs["s2"] = t2.listen_addr
            got = asyncio.Event()
            inbox = []

            def on_message(message, sender):
                inbox.append((message, sender))
                got.set()

            t2.attach("b", on_message)

            reader, writer = await asyncio.open_connection(*t2.listen_addr)
            writer.write(garbage)
            await writer.drain()
            # The transport hangs up on us; nothing comes back.
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            assert t2.malformed == 1

            message = CommitAck(Dot(1, "a"), {"dc": 2})
            t1.send("a", "b", message)
            await asyncio.wait_for(got.wait(), timeout=5.0)
            assert inbox == [(message, "a")]
            assert t2.malformed == 1 and t1.malformed == 0
            await t1.stop()
            await t2.stop()
            # Let a task that died get collected and reported.
            gc.collect()
            await asyncio.sleep(0)
            assert loop_errors == []

        asyncio.run(scenario())

    def test_failed_write_keeps_link_fifo_across_reconnect(self, monkeypatch):
        """The peer closes mid-stream: the frame whose write failed goes
        out first on the new connection, not behind the queued ones, so
        the receiver sees sequence numbers in order (the failed frame
        may have got through, hence once more)."""
        from repro.transport import asyncio_backend

        received = []

        class Writer:
            def __init__(self, fail_at=None):
                self.fail_at = fail_at
                self.last = None

            def write(self, frame):
                self.last = int(frame)
                received.append(self.last)

            async def drain(self):
                if self.last == self.fail_at:
                    raise ConnectionResetError("peer closed")

            def close(self):
                pass

        writers = [Writer(fail_at=3), Writer()]

        async def open_connection(host, port):
            return None, writers.pop(0)

        monkeypatch.setattr(asyncio_backend.asyncio, "open_connection",
                            open_connection)

        async def scenario():
            transport = AsyncioTransport("s1")
            link = asyncio_backend._PeerLink(transport, "s2", "h", 1)
            for seq in range(8):
                assert link.enqueue(b"%d" % seq)
            for _ in range(100):
                if len(received) >= 9:
                    break
                await asyncio.sleep(0.01)
            link.close()
            await transport.stop()

        asyncio.run(scenario())
        assert received == [0, 1, 2, 3, 3, 4, 5, 6, 7]
