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

Connections are lazy and self-healing: the first frame to a peer opens
the connection, frames queue while it is down, and a failed connection
retries with linear backoff.  Nothing is acknowledged at this layer —
exactly like TCP in the paper's testbed, loss on a broken connection is
the protocols' problem, and the stack already handles it (session
retry, anti-entropy, EPaxos resends).

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import NULL_RECORDER
from ..sim.clock import ClockService
from ..sim.network import DEFAULT_MESSAGE_BYTES, NetworkStats
from .base import Transport
from .codec import MAX_FRAME_BYTES, CodecError, decode_frame, encode_frame

#: Reconnect backoff: base delay, per-attempt increment, ceiling (ms).
RECONNECT_BASE_MS = 50.0
RECONNECT_STEP_MS = 100.0
RECONNECT_MAX_MS = 1000.0

#: Frames queued towards an unreachable peer before the oldest drop.
MAX_OUTBOUND_QUEUE = 10_000


class _PeerLink:
    """Outbound connection to one remote site: queue + writer task."""

    def __init__(self, transport: "AsyncioTransport", peer: str,
                 host: str, port: int):
        self.transport = transport
        self.peer = peer
        self.host = host
        self.port = port
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.dropped = 0

    def enqueue(self, frame: bytes) -> bool:
        if self.queue.qsize() >= MAX_OUTBOUND_QUEUE:
            self.dropped += 1
            return False
        self.queue.put_nowait(frame)
        if self.task is None or self.task.done():
            self.task = asyncio.get_running_loop().create_task(self._run())
        return True

    async def _run(self) -> None:
        attempt = 0
        writer: Optional[asyncio.StreamWriter] = None
        # A frame whose write failed: it goes out first on the next
        # connection, ahead of everything queued behind it — stream
        # apply and chain-delta decoding above assume per-link FIFO.
        held: Optional[bytes] = None
        try:
            while not self.transport.closing:
                if writer is None:
                    try:
                        _, writer = await asyncio.open_connection(
                            self.host, self.port)
                        attempt = 0
                    except OSError:
                        attempt += 1
                        delay = min(RECONNECT_BASE_MS
                                    + attempt * RECONNECT_STEP_MS,
                                    RECONNECT_MAX_MS)
                        await asyncio.sleep(delay / 1000.0)
                        continue
                frame = held if held is not None \
                    else await self.queue.get()
                try:
                    writer.write(frame)
                    await writer.drain()
                    held = None
                except (ConnectionError, OSError):
                    # Connection died mid-write: keep the frame and
                    # reconnect.  It may arrive twice; protocol dedup
                    # (dots, request ids, idempotent session msgs)
                    # absorbs it.
                    held = frame
                    writer.close()
                    writer = None
        finally:
            if writer is not None:
                writer.close()

    def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            self.task = None


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
        self._reader_tasks: List[asyncio.Task] = []
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
        stats = self.stats
        stats.messages_sent += 1
        if size_bytes is None:
            wire_size = getattr(message, "wire_size", None)
            size_bytes = (wire_size() if wire_size is not None
                          else DEFAULT_MESSAGE_BYTES)
        stats.bytes_sent += size_bytes
        handler = self._handlers.get(dst)
        if handler is not None:
            # Local delivery is deferred to the next loop iteration so a
            # handler never runs re-entrantly inside the sender's frame
            # (matching the simulator, where delivery is always a later
            # event than the send).
            self._loop.call_soon(self._deliver_local, dst, message, src)
            return True
        peer = self.homes.get(dst)
        if peer is None or peer == self.site:
            self.unroutable += 1
            stats.record_drop(src, dst)
            return False
        link = self._links.get(peer)
        if link is None:
            addr = self.peer_addrs.get(peer)
            if addr is None:
                self.unroutable += 1
                stats.record_drop(src, dst)
                return False
            link = _PeerLink(self, peer, addr[0], addr[1])
            self._links[peer] = link
        if not link.enqueue(encode_frame(src, dst, message)):
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
            self._server = await asyncio.start_server(
                self._on_connection, host, port)
            # Record the real bound address so ``port 0`` (ephemeral,
            # used by tests) yields a routable listen_addr.
            bound = self._server.sockets[0].getsockname()
            self.listen_addr = (bound[0], bound[1])

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        try:
            while not self.closing:
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    return
                length = int.from_bytes(prefix, "big")
                if not 0 < length <= MAX_FRAME_BYTES:
                    self.malformed += 1
                    return
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    return
                try:
                    src, dst, message = decode_frame(body)
                except CodecError:
                    # The stream cannot be trusted past this point:
                    # close this connection only.  A live peer reconnects
                    # and the protocols above resend.
                    self.malformed += 1
                    return
                self._deliver_local(dst, message, src)
        except asyncio.CancelledError:
            # stop() cancels reader tasks; treat as a clean close so the
            # streams machinery does not log the cancellation.
            return
        finally:
            writer.close()
            if task is not None and task in self._reader_tasks:
                self._reader_tasks.remove(task)

    async def stop(self) -> None:
        """Close the server and every peer link."""
        self.closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [link.task for link in self._links.values()
                   if link.task is not None]
        for link in self._links.values():
            link.close()
        for task in list(self._reader_tasks):
            task.cancel()
        pending.extend(self._reader_tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await asyncio.sleep(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AsyncioTransport(site={self.site!r}, seed={self.seed},"
                f" nodes={len(self._handlers)})")
