"""AsyncioTransport: the protocol stack over real TCP sockets.

One ``AsyncioTransport`` runs inside one OS process and hosts the
actors of one deployment *site* (a DC with its shards, a PoP, an edge
node or group member).  It implements both facets of
:class:`~repro.transport.base.Transport` on a single object:

* **timers** — ``now`` is the process monotonic clock in milliseconds
  (zeroed at construction); ``schedule``/``schedule_fast`` map onto
  ``loop.call_later``.
* **network** — ``send`` routes by destination node id: ids attached in
  this process are delivered locally through ``call_soon`` (preserving
  the simulator's FIFO, non-reentrant delivery semantics); ids homed on
  a remote site go out as codec frames over a per-peer TCP connection.

Both ends of a connection are asyncio protocols.  An outbound link
(``_PeerLink``) writes each frame straight to its socket while it is
connected and asyncio has not paused it (``pause_writing``); while it
connects, reconnects or is paused, frames wait in a bounded FIFO that
the new connection or ``resume_writing`` flushes in order.  An inbound
connection (``_Inbound``) reads into one buffer it keeps for its
lifetime and parses every complete frame in place, so no ``recv``
allocates.

Connections are lazy and self-healing: the first frame to a peer opens
the connection and a failed connection retries with linear backoff.
Nothing is acknowledged at this layer — exactly like TCP in the paper's
testbed, frames handed to a socket that then dies are lost, and that is
the protocols' problem, which the stack already handles (session retry,
anti-entropy, EPaxos resends).

Inbound bytes are not trusted.  A connection whose length prefix is 0
or above ``MAX_FRAME_BYTES``, or whose frame body ``decode_frame``
refuses with ``CodecError`` (the only exception it raises on bytes), is
counted in ``malformed`` and closed; every other connection and the
listener keep running.

The shared services keep their simulator implementations:
``ClockService`` only needs ``.now`` (duck-typed on the transport) and
``NetworkStats``/``NULL_RECORDER`` are backend-agnostic.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from ..obs.trace import NULL_RECORDER
from ..sim.clock import ClockService
from ..sim.network import NetworkStats
from .base import Transport
from .codec import (MAX_FRAME_BYTES, CodecError, decode_frame,
                    encode_sized_frame, wire_size)

#: Reconnect backoff: base delay, per-attempt increment, ceiling (ms).
RECONNECT_BASE_MS = 50.0
RECONNECT_STEP_MS = 100.0
RECONNECT_MAX_MS = 1000.0

#: Frames a link holds while it cannot write before ``send`` refuses
#: (and counts) the next one.
MAX_OUTBOUND_QUEUE = 10_000

#: Size of an inbound connection's read buffer; it grows only for a
#: frame that does not fit.  Benchmark line that justifies reading into
#: a kept buffer: ``live_steady`` ``cpu_ms_per_txn`` (a stream reader
#: reads each ``recv`` into a fresh 256 KiB block, which glibc may serve
#: with ``mmap``); the size is kept small for ``peak_rss_mb``.
READ_BUFFER_BYTES = 16 * 1024

#: How long ``stop`` lets sockets flush what they hold before it aborts
#: them (s).
STOP_GRACE_S = 1.0

_LENGTH = struct.Struct(">I")


class _PeerLink(asyncio.Protocol):
    """Outbound connection to one remote site.

    ``pending`` holds, in order, the frames that could not be written
    yet; a new connection and ``resume_writing`` flush it.  While it is
    empty and the socket is connected and not paused, ``send`` writes
    straight to the socket.
    """

    def __init__(self, owner: "AsyncioTransport", peer: str,
                 host: str, port: int):
        self.owner = owner
        self.peer = peer
        self.host = host
        self.port = port
        self.pending: Deque[bytes] = deque()
        #: The connection's asyncio transport, from ``connection_made``
        #: to ``connection_lost``.
        self.sock: Optional[asyncio.Transport] = None
        self.paused = False
        self.task: Optional[asyncio.Task] = None
        #: Resolved by ``connection_lost`` of the current connection.
        self.lost: Optional[asyncio.Future] = None

    def send(self, frame: bytes) -> bool:
        """Write or hold ``frame``; False if the queue is full."""
        sock = self.sock
        if sock is not None and not self.paused and not self.pending:
            sock.write(frame)
            if sock.is_closing():
                # The connection is going down and the frame may not
                # have left: it goes first on the next connection (it
                # may arrive twice; protocol dedup absorbs that).
                self.pending.append(frame)
            return True
        if len(self.pending) >= MAX_OUTBOUND_QUEUE:
            return False
        self.pending.append(frame)
        if sock is None and self.task is None:
            self.task = self.owner._loop.create_task(self._connect())
        return True

    async def _connect(self) -> None:
        attempt = 0
        try:
            while self.sock is None and not self.owner.closing:
                try:
                    await self.owner._loop.create_connection(
                        lambda: self, self.host, self.port)
                except OSError:
                    attempt += 1
                    delay = min(RECONNECT_BASE_MS
                                + attempt * RECONNECT_STEP_MS,
                                RECONNECT_MAX_MS)
                    await asyncio.sleep(delay / 1000.0)
        finally:
            self.task = None

    def _flush(self) -> None:
        # Stream apply and chain-delta decoding above assume per-link
        # FIFO: the head frame leaves the queue only once a write took it.
        sock = self.sock
        pending = self.pending
        while pending and not self.paused:
            sock.write(pending[0])
            if sock.is_closing():
                return
            pending.popleft()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.sock = transport
        self.lost = self.owner._loop.create_future()
        if self.owner.closing:
            transport.close()
        else:
            self._flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.sock = None
        self.paused = False
        self.lost.set_result(None)
        if self.pending and self.task is None and not self.owner.closing:
            self.task = self.owner._loop.create_task(self._connect())

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._flush()


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection, read into one buffer it keeps.

    ``buffer_updated`` delivers every complete frame in place and moves
    the partial tail to the front of the buffer.
    """

    def __init__(self, owner: "AsyncioTransport"):
        self.owner = owner
        self.buf = bytearray(READ_BUFFER_BYTES)
        self.view = memoryview(self.buf)
        #: Bytes at the front of ``buf`` that are not a whole frame yet.
        self.held = 0
        self.sock: Optional[asyncio.Transport] = None
        self.lost: Optional[asyncio.Future] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.sock = transport
        self.lost = self.owner._loop.create_future()
        self.owner._inbound.add(self)
        if self.owner.closing:
            transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.sock = None
        self.owner._inbound.discard(self)
        self.lost.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.view[self.held:]

    def buffer_updated(self, nbytes: int) -> None:
        buf = self.buf
        view = self.view
        end = self.held + nbytes
        pos = 0
        need = 0
        deliver = self.owner._deliver_local
        while end - pos >= 4:
            length = _LENGTH.unpack_from(buf, pos)[0]
            if not 0 < length <= MAX_FRAME_BYTES:
                self._refuse()
                return
            body = pos + 4
            if body + length > end:
                need = 4 + length
                break
            try:
                src, dst, message = decode_frame(
                    bytes(view[body:body + length]))
            except CodecError:
                # The stream cannot be trusted past this point: close
                # this connection only.  A live peer reconnects and the
                # protocols above resend.
                self._refuse()
                return
            pos = body + length
            deliver(dst, message, src)
        held = end - pos
        if need > len(buf):
            grown = bytearray(need)
            grown[:held] = view[pos:end]
            self.buf = grown
            self.view = memoryview(grown)
        elif pos and held:
            buf[:held] = buf[pos:end]
        self.held = held

    def _refuse(self) -> None:
        self.owner.malformed += 1
        self.sock.close()


class AsyncioTransport(Transport):
    """Both transport facets over one process's asyncio event loop.

    ``homes`` maps node ids to site names and ``peers`` maps site names
    to ``(host, port)``; any attached node id is local regardless of
    ``homes`` (hierarchical ids like ``"dc0/shard2"`` never appear in
    the topology — they are always co-homed with their parent actor).
    """

    def __init__(self, site: str, seed: int = 0,
                 homes: Optional[Dict[str, str]] = None,
                 peers: Optional[Dict[str, Tuple[str, int]]] = None,
                 listen: Optional[Tuple[str, int]] = None):
        self.site = site
        self.seed = seed
        self.homes = dict(homes or {})
        self.peer_addrs = dict(peers or {})
        self.listen_addr = listen
        self.closing = False
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._handlers: Dict[str, Callable[[Any, str], None]] = {}
        self._links: Dict[str, _PeerLink] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._inbound: Set[_Inbound] = set()
        self.stats = NetworkStats()
        self.obs = NULL_RECORDER
        self.clocks = ClockService(self)
        #: Frames whose destination is neither local nor homed anywhere.
        self.unroutable = 0
        #: Inbound connections closed on bytes that are not a frame.
        self.malformed = 0

    # -- Transport facets --------------------------------------------------
    @property
    def timers(self) -> "AsyncioTransport":
        return self

    @property
    def net(self) -> "AsyncioTransport":
        return self

    # -- timer facet -------------------------------------------------------
    @property
    def now(self) -> float:
        """Milliseconds since transport construction (monotonic)."""
        return (self._loop.time() - self._t0) * 1000.0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._loop.call_later(max(delay, 0.0) / 1000.0, callback)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> None:
        self.schedule(time - self.now, callback)

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      args: Tuple = ()) -> None:
        self._loop.call_later(max(delay, 0.0) / 1000.0, callback, *args)

    def schedule_fast_at(self, time: float, callback: Callable[..., None],
                         args: Tuple = ()) -> None:
        self.schedule_fast(time - self.now, callback, args)

    # -- network facet -----------------------------------------------------
    def attach(self, node_id: str,
               handler: Callable[[Any, str], None]) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already attached")
        self._handlers[node_id] = handler

    def detach(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    def send(self, src: str, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool:
        """Deliver locally or frame and queue the message; charge what
        ``wire_size`` charges in the simulator — on a socket, the length
        of the message the frame carries."""
        stats = self.stats
        stats.messages_sent += 1
        handler = self._handlers.get(dst)
        if handler is not None:
            stats.bytes_sent += wire_size(message) if size_bytes is None \
                else size_bytes
            # Local delivery is deferred to the next loop iteration so a
            # handler never runs re-entrantly inside the sender's frame
            # (matching the simulator, where delivery is always a later
            # event than the send).
            self._loop.call_soon(self._deliver_local, dst, message, src)
            return True
        peer = self.homes.get(dst)
        link = self._links.get(peer)
        if link is None and peer is not None and peer != self.site:
            addr = self.peer_addrs.get(peer)
            if addr is not None:
                link = self._links[peer] = _PeerLink(self, peer, addr[0],
                                                     addr[1])
        if link is None:
            stats.bytes_sent += wire_size(message) if size_bytes is None \
                else size_bytes
            self.unroutable += 1
            stats.record_drop(src, dst)
            return False
        frame, size = encode_sized_frame(src, dst, message)
        stats.bytes_sent += size if size_bytes is None else size_bytes
        if not link.send(frame):
            stats.record_drop(src, dst)
            return False
        return True

    def _deliver_local(self, dst: str, message: Any, src: str) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            return
        self.stats.messages_delivered += 1
        self.stats.delivery_events += 1
        handler(message, src)

    # -- inbound server ----------------------------------------------------
    async def start(self) -> None:
        """Start listening (if configured); idempotent."""
        if self._server is None and self.listen_addr is not None:
            host, port = self.listen_addr
            self._server = await self._loop.create_server(
                lambda: _Inbound(self), host, port)
            # Record the real bound address so ``port 0`` (ephemeral,
            # used by tests) yields a routable listen_addr.
            bound = self._server.sockets[0].getsockname()
            self.listen_addr = (bound[0], bound[1])

    async def stop(self) -> None:
        """Close the listener and every connection, inbound and outbound.

        Returns once every socket is released: a connection that cannot
        flush what it holds within ``STOP_GRACE_S`` is aborted.
        """
        self.closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        connecting = [link.task for link in self._links.values()
                      if link.task is not None]
        for task in connecting:
            task.cancel()
        await asyncio.gather(*connecting, return_exceptions=True)
        conns = [conn for conn in (*self._links.values(), *self._inbound)
                 if conn.sock is not None]
        for conn in conns:
            conn.sock.close()
        if conns:
            _, late = await asyncio.wait([conn.lost for conn in conns],
                                         timeout=STOP_GRACE_S)
            if late:
                for conn in conns:
                    if conn.sock is not None:
                        conn.sock.abort()
                await asyncio.wait(late)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AsyncioTransport(site={self.site!r}, seed={self.seed},"
                f" nodes={len(self._handlers)})")
