"""Transport abstraction: SimTransport facets, actor construction,
seeded rng derivation, crash/recover timer lifecycle, asyncio backend."""

import asyncio
import gc
import random
import sys
import warnings

import pytest

from repro.core.dot import Dot
from repro.sim import Actor, EventLoop, Network, Simulation
from repro.transport import asyncio_backend, samples
from repro.transport.asyncio_backend import AsyncioTransport
from repro.transport.base import SimTransport
from repro.transport.codec import encode_frame


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

    @staticmethod
    def _fifo_run(queued):
        """Frames 0-7 over a link whose first connection reports closing
        right after frame 3; the first ``queued`` frames are sent before
        the link connects, the rest straight to the open socket."""
        received = []

        async def scenario():
            transport = AsyncioTransport("s1")
            loop = asyncio.get_running_loop()
            fail_at = [3, None]

            async def create_connection(factory, host, port):
                protocol = factory()
                sock = FakeSocket(protocol, received, fail_at.pop(0))
                protocol.connection_made(sock)
                return sock, protocol

            loop.create_connection = create_connection
            link = asyncio_backend._PeerLink(transport, "s2", "h", 1)
            transport._links["s2"] = link
            for seq in range(queued):
                assert link.send(b"%d" % seq)
            await asyncio.sleep(0)
            if queued < 8:      # connected: the rest are direct writes
                assert link.sock is not None and not link.pending
            for seq in range(queued, 8):
                assert link.send(b"%d" % seq)
            for _ in range(100):
                if len(received) >= 9:
                    break
                await asyncio.sleep(0.01)
            await transport.stop()

        asyncio.run(scenario())
        return received

    def test_failed_write_keeps_link_fifo_across_reconnect(self):
        """The peer closes mid-stream: the frame whose write left the
        socket closing goes out first on the new connection, not behind
        the frames sent after it, so the receiver sees sequence numbers
        in order (the failed frame may have got through, hence once
        more)."""
        assert self._fifo_run(queued=2) == [0, 1, 2, 3, 3, 4, 5, 6, 7]

    def test_failed_flush_keeps_link_fifo_across_reconnect(self):
        """The same when frame 3 fails while the new connection flushes
        the frames queued before it."""
        assert self._fifo_run(queued=8) == [0, 1, 2, 3, 3, 4, 5, 6, 7]

    def test_paused_link_queues_in_order_and_resume_flushes(self):
        received = []

        async def scenario():
            transport = AsyncioTransport("s1")
            link = asyncio_backend._PeerLink(transport, "s2", "h", 1)
            sock = FakeSocket(link, received)
            link.connection_made(sock)
            assert link.send(b"0")
            link.pause_writing()
            for seq in range(1, 6):
                assert link.send(b"%d" % seq)
            assert received == [0]
            assert list(link.pending) == [b"1", b"2", b"3", b"4", b"5"]
            link.resume_writing()
            assert link.send(b"6")
            assert received == [0, 1, 2, 3, 4, 5, 6]
            assert not link.pending

        asyncio.run(scenario())

    def test_full_queue_refuses_and_counts_the_drop(self, monkeypatch):
        monkeypatch.setattr(asyncio_backend, "MAX_OUTBOUND_QUEUE", 3)
        from repro.dc.messages import CommitAck

        async def scenario():
            transport = AsyncioTransport("s1", homes={"b": "s2"},
                                         peers={"s2": ("h", 1)})
            link = asyncio_backend._PeerLink(transport, "s2", "h", 1)
            transport._links["s2"] = link
            link.connection_made(FakeSocket(link, []))
            link.pause_writing()
            message = CommitAck(Dot(1, "a"), {})
            assert [transport.send("a", "b", message)
                    for _ in range(4)] == [True, True, True, False]
            assert len(link.pending) == 3
            assert transport.stats.messages_dropped == 1
            assert transport.stats.drops_by_link == {("a", "b"): 1}

        asyncio.run(scenario())

    def test_stop_leaves_no_socket_open(self, monkeypatch):
        """Start, one TCP send, stop: the listener, the inbound and the
        outbound socket are closed, with no ``ResourceWarning`` and
        nothing reported to the loop's exception handler."""
        from repro.dc.messages import CommitAck

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

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
            t2.attach("b", lambda message, sender: got.set())
            t1.send("a", "b", CommitAck(Dot(1, "a"), {}))
            await asyncio.wait_for(got.wait(), timeout=5.0)
            socks = [t1._links["s2"].sock.get_extra_info("socket")]
            socks += [conn.sock.get_extra_info("socket")
                      for conn in t2._inbound]
            socks += list(t1._server.sockets) + list(t2._server.sockets)
            assert len(socks) == 4
            await t1.stop()
            await t2.stop()
            assert [s.fileno() for s in socks] == [-1] * 4
            assert t1._links["s2"].sock is None and not t2._inbound
            return loop_errors

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loop_errors = asyncio.run(scenario())
            gc.collect()
        assert loop_errors == []
        assert unraisable == []


class FakeSocket:
    """The part of an asyncio socket transport a ``_PeerLink`` uses.

    Records each frame as an int; after the frame ``fail_at`` it reports
    closing and delivers ``connection_lost`` on the next loop turn, as a
    transport whose send failed does.
    """

    def __init__(self, protocol, received, fail_at=None):
        self.protocol = protocol
        self.received = received
        self.fail_at = fail_at
        self.closing = False

    def write(self, frame):
        self.received.append(int(frame))
        if int(frame) == self.fail_at:
            self.close()

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None)


def _feed(conn, data, chunk):
    """Hand ``data`` to an inbound protocol ``chunk`` bytes per read, the
    way the socket transport does: ``get_buffer``, copy, ``buffer_updated``."""
    for start in range(0, len(data), chunk):
        piece = memoryview(data)[start:start + chunk]
        while piece:
            buf = conn.get_buffer(-1)
            n = min(len(buf), len(piece))
            buf[:n] = piece[:n]
            conn.buffer_updated(n)
            piece = piece[n:]


class TestInboundFraming:
    DSTS = ("dc0", "édge-1", "m2")

    def _deliveries(self, frames, chunk):
        """``(src, dst, message)`` in the order an inbound connection
        delivers ``frames`` read ``chunk`` bytes at a time."""
        got = []

        async def scenario():
            transport = AsyncioTransport("site")
            for dst in self.DSTS:
                transport.attach(dst, lambda m, s, dst=dst:
                                 got.append((s, dst, m)))
            conn = asyncio_backend._Inbound(transport)
            _feed(conn, b"".join(frames), chunk)
            assert conn.held == 0 and transport.malformed == 0

        asyncio.run(scenario())
        return got

    def test_every_split_delivers_the_same_frames_in_order(self):
        sent = [(f"s{i}", self.DSTS[i % 3], message)
                for i, message in enumerate(samples.all_samples())]
        frames = [encode_frame(*triple) for triple in sent]
        whole = len(b"".join(frames))
        for chunk in (1, 3, 4, 7, 4096, whole):
            assert self._deliveries(frames, chunk) == sent, chunk

    def test_frame_larger_than_the_buffer_arrives_whole(self):
        from repro.serve.control import CtrlBye
        big = CtrlBye("x" * (3 * asyncio_backend.READ_BUFFER_BYTES))
        small = CtrlBye("dc0")
        sent = [("a", "dc0", small), ("a", "m2", big), ("b", "dc0", small)]
        frames = [encode_frame(*triple) for triple in sent]
        assert len(frames[1]) > asyncio_backend.READ_BUFFER_BYTES
        for chunk in (7, 4096, len(b"".join(frames))):
            assert self._deliveries(frames, chunk) == sent, chunk

    def test_one_buffer_serves_a_thousand_frames(self):
        """Over a real socket: the connection's ``bytearray`` after 1 000
        frames is the one it read the first into."""
        from repro.dc.messages import ReplicateBatch

        async def scenario():
            homes = {"a": "s1", "b": "s2"}
            t1 = AsyncioTransport("s1", homes=homes)
            t2 = AsyncioTransport("s2", homes=homes,
                                  listen=("127.0.0.1", 0))
            await t2.start()
            t1.peer_addrs["s2"] = t2.listen_addr
            buffers = {}      # id -> the buffer itself, so no id is reused
            done = asyncio.Event()
            seen = []

            def sink(message, sender):
                seen.append(message)
                buffers.update((id(conn.buf), conn.buf)
                               for conn in t2._inbound)
                if len(seen) == 1000:
                    done.set()

            t2.attach("b", sink)
            message = samples.samples_by_class()[ReplicateBatch][0]
            for _ in range(1000):
                assert t1.send("a", "b", message)
            await asyncio.wait_for(done.wait(), timeout=10.0)
            (conn,) = t2._inbound
            assert list(buffers) == [id(conn.buf)]
            assert len(conn.buf) == asyncio_backend.READ_BUFFER_BYTES
            await t1.stop()
            await t2.stop()

        asyncio.run(scenario())
