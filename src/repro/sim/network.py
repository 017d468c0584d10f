"""Simulated network: links, latency models, partitions.

Substitutes the paper's testbed transports (RabbitMQ between DCs, WebRTC
between peers, `tc` latency shaping): what the protocols observe is only
latency, loss, FIFO-ness and partitions, all of which are modelled here.
Default latencies follow the paper's setup (section 7.2): 0.15 ms
intra-cluster, 10 ms carrier Ethernet, 50 ms mobile cellular.

Links are FIFO per direction (TCP/WebRTC data channels are ordered): a
message never overtakes an earlier one on the same directed link.  FIFO
is enforced by clamping a delivery time to the link's previous one and
letting the event loop's sequence number break the tie — the schedule
order *is* the send order — rather than by inflating timestamps
(``+ 1e-6``), which distorted latency and accrued float error under
bursts.

The send/delivery path is allocation-free: no per-message closure or
handle is created (messages ride ``EventLoop.schedule_fast`` entries),
and same-tick deliveries on one link coalesce into a single batch event.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..obs.trace import NULL_RECORDER
from ..transport.codec import wire_size
from .clock import ClockService
from .events import EventLoop

# Paper latency presets, milliseconds.
LAN_LATENCY_MS = 0.15
ETHERNET_LATENCY_MS = 10.0
CELLULAR_LATENCY_MS = 50.0

class LatencyModel:
    """Base latency plus uniform jitter, sampled from the shared RNG."""

    __slots__ = ("base_ms", "jitter_ms")

    def __init__(self, base_ms: float, jitter_ms: float = 0.0):
        if base_ms < 0 or jitter_ms < 0:
            raise ValueError("latencies must be non-negative")
        self.base_ms = base_ms
        self.jitter_ms = jitter_ms

    def sample(self, rng: random.Random) -> float:
        if self.jitter_ms:
            return self.base_ms + rng.uniform(0.0, self.jitter_ms)
        return self.base_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyModel({self.base_ms}±{self.jitter_ms}ms)"


LAN = LatencyModel(LAN_LATENCY_MS, 0.05)
ETHERNET = LatencyModel(ETHERNET_LATENCY_MS, 2.0)
CELLULAR = LatencyModel(CELLULAR_LATENCY_MS, 10.0)


class NetworkStats:
    """Aggregate counters for benchmark reporting.

    Sends and drops are also attributed to the directed link they
    occurred on, so benchmark and fault-injection reports can say *which*
    link carried (or lost) the traffic rather than only the totals.
    ``bytes_sent`` is a real wire-cost metric: a send is charged the
    encoded length of its message (``repro.transport.codec.wire_size``)
    unless the call site passes an explicit size.

    The counters are cumulative for the simulation's lifetime; a
    benchmark that measures one phase takes a :meth:`snapshot` at the
    phase boundary and reads :meth:`since` afterwards, so warm-up
    traffic is never attributed to the measured phase.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # Loop events spent delivering: one per delivery batch.
        # ``messages_delivered`` minus
        # this is the number of heap operations batching saved; the
        # scale bench uses it to report logical (per-message) events.
        self.delivery_events = 0
        self.bytes_sent = 0
        self.drops_by_link: Dict[Tuple[str, str], int] = {}
        #: ``link -> [messages, bytes]`` — one mutable record per
        #: directed link, shared with the network's per-link send state
        #: so the hot path updates it without re-hashing the link key.
        self.link_traffic: Dict[Tuple[str, str], list] = {}

    @property
    def bytes_by_link(self) -> Dict[Tuple[str, str], int]:
        """Per-link byte totals (derived view; see ``link_traffic``)."""
        return {k: v[1] for k, v in self.link_traffic.items() if v[1]}

    @property
    def messages_by_link(self) -> Dict[Tuple[str, str], int]:
        """Per-link message totals (derived view of ``link_traffic``)."""
        return {k: v[0] for k, v in self.link_traffic.items() if v[0]}

    def snapshot(self) -> "NetworkStats":
        """Frozen copy of every counter, for phase accounting."""
        copy = NetworkStats()
        copy.messages_sent = self.messages_sent
        copy.messages_delivered = self.messages_delivered
        copy.messages_dropped = self.messages_dropped
        copy.delivery_events = self.delivery_events
        copy.bytes_sent = self.bytes_sent
        copy.drops_by_link = dict(self.drops_by_link)
        copy.link_traffic = {k: v[:] for k, v in self.link_traffic.items()}
        return copy

    def since(self, baseline: "NetworkStats") -> "NetworkStats":
        """Counters accumulated after ``baseline`` was snapshotted.

        The returned object supports the same per-link accessors
        (``bytes_on`` etc.), so phase measurements read identically to
        lifetime ones.  ``baseline`` must be an earlier snapshot of the
        *same* stats stream — a later one raises rather than returning
        negative traffic.
        """
        delta = NetworkStats()
        delta.messages_sent = self.messages_sent - baseline.messages_sent
        delta.messages_delivered = \
            self.messages_delivered - baseline.messages_delivered
        delta.messages_dropped = \
            self.messages_dropped - baseline.messages_dropped
        delta.delivery_events = \
            self.delivery_events - baseline.delivery_events
        delta.bytes_sent = self.bytes_sent - baseline.bytes_sent
        if delta.messages_sent < 0 or delta.bytes_sent < 0:
            raise ValueError("baseline is newer than these stats")
        for link, value in self.drops_by_link.items():
            diff = value - baseline.drops_by_link.get(link, 0)
            if diff:
                delta.drops_by_link[link] = diff
        for link, record in self.link_traffic.items():
            base = baseline.link_traffic.get(link)
            if base is None:
                if record[0] or record[1]:
                    delta.link_traffic[link] = record[:]
            else:
                diff = [record[0] - base[0], record[1] - base[1]]
                if diff[0] or diff[1]:
                    delta.link_traffic[link] = diff
        return delta

    def traffic_record(self, link: Tuple[str, str]) -> list:
        """The mutable ``[messages, bytes]`` record for a link."""
        record = self.link_traffic.get(link)
        if record is None:
            record = self.link_traffic[link] = [0, 0]
        return record

    def record_drop(self, src: str, dst: str) -> None:
        self.messages_dropped += 1
        link = (src, dst)
        self.drops_by_link[link] = self.drops_by_link.get(link, 0) + 1

    def bytes_on(self, src: str, dst: str) -> int:
        """Bytes queued on the directed link ``src -> dst``."""
        record = self.link_traffic.get((src, dst))
        return record[1] if record else 0

    def messages_on(self, src: str, dst: str) -> int:
        """Messages queued on the directed link ``src -> dst``."""
        record = self.link_traffic.get((src, dst))
        return record[0] if record else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NetworkStats(sent={self.messages_sent},"
                f" delivered={self.messages_delivered},"
                f" dropped={self.messages_dropped},"
                f" bytes={self.bytes_sent})")


class Network:
    """Directed message delivery between named nodes."""

    def __init__(self, loop: EventLoop, rng: random.Random,
                 default_latency: Optional[LatencyModel] = None,
                 seed: int = 0):
        self._loop = loop
        self._rng = rng
        #: Determinism root actors derive default RNGs from (see
        #: ``repro.transport.base.Transport.seed``).
        self.seed = seed
        self._transport_view: Any = None
        self._default = default_latency or LatencyModel(1.0)
        self._links: Dict[Tuple[str, str], LatencyModel] = {}
        self._handlers: Dict[str, Callable[[Any, str], None]] = {}
        self._cut: Set[frozenset] = set()
        self._down: Set[str] = set()
        self._loss_rate: Dict[Tuple[str, str], float] = {}
        #: One mutable record per directed link, so ``send`` resolves
        #: everything link-scoped with a single dict lookup:
        #: ``[model, traffic, last_delivery, tail_time, tail_batch]``
        #: where ``traffic`` is the ``[messages, bytes]`` list shared
        #: with ``stats.link_traffic``, ``last_delivery`` is the latest
        #: scheduled delivery time (FIFO clamp), and the tail fields
        #: describe the link's newest not-yet-fired delivery batch (a
        #: send landing on the same instant appends instead of
        #: scheduling another event).
        self._link_state: Dict[Tuple[str, str], list] = {}
        self.stats = NetworkStats()
        # Lifecycle trace recorder; actors reach it via ``Actor.obs``.
        # The null default keeps tracing a pure observer: assigning a
        # repro.obs.TraceRecorder here must not change behaviour.
        self.obs = NULL_RECORDER
        # Per-actor skewed physical clocks (zero skew until injected);
        # actors reach them via ``Actor.clock``, chaos injects skew here.
        self.clocks = ClockService(loop)

    def transport_view(self, loop: EventLoop) -> Any:
        """This ``(loop, network)`` pair as a cached ``SimTransport``.

        Actors constructed the legacy way — ``Actor(id, loop, network)``
        — share this one view instead of allocating a transport each,
        which matters at the million-actor scale point.
        """
        view = self._transport_view
        if view is None or view.loop is not loop:
            from ..transport.base import SimTransport
            view = SimTransport(loop, self)
            self._transport_view = view
        return view

    # -- wiring ---------------------------------------------------------------
    def attach(self, node_id: str,
               handler: Callable[[Any, str], None]) -> None:
        """Register the message handler of a node."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already attached")
        self._handlers[node_id] = handler

    def detach(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    def set_link(self, a: str, b: str, model: LatencyModel,
                 symmetric: bool = True) -> None:
        self._links[(a, b)] = model
        state = self._link_state.get((a, b))
        if state is not None:
            state[0] = model
        if symmetric:
            self._links[(b, a)] = model
            state = self._link_state.get((b, a))
            if state is not None:
                state[0] = model

    def set_loss_rate(self, a: str, b: str, rate: float,
                      symmetric: bool = True) -> None:
        """Independent per-message drop probability on the link."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self._loss_rate[(a, b)] = rate
        if symmetric:
            self._loss_rate[(b, a)] = rate

    # -- failures ----------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Cut the (bidirectional) link between two nodes."""
        self._cut.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._cut.discard(frozenset((a, b)))

    def isolate(self, node_id: str) -> None:
        """Disconnect a node from everyone (e.g. it goes offline)."""
        self._down.add(node_id)

    def restore(self, node_id: str) -> None:
        self._down.discard(node_id)

    def is_reachable(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return False
        return frozenset((src, dst)) not in self._cut

    # -- sending ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool:
        """Queue a message for delivery; returns False when unreachable.

        When ``size_bytes`` is None the message's encoded length is
        charged (``wire_size``), exactly what a socket would carry.

        An unreachable destination silently drops the message, as a real
        disconnected socket would: protocols must handle it with retries
        (and they do — that is the point of the paper).
        """
        if size_bytes is None:
            size_bytes = wire_size(message)
        link = (src, dst)
        state = self._link_state.get(link)
        if state is None:
            state = self._link_state[link] = [
                self._links.get(link, self._default),
                self.stats.traffic_record(link), None, -1.0, None]
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        traffic = state[1]
        traffic[0] += 1
        traffic[1] += size_bytes
        if (self._down or self._cut) and not self.is_reachable(src, dst):
            stats.record_drop(src, dst)
            return False
        rng = self._rng
        rate = self._loss_rate.get(link) if self._loss_rate else None
        if rate and rng.random() < rate:
            stats.record_drop(src, dst)
            return False
        loop = self._loop
        now = loop.now
        # Inlined LatencyModel.sample: bit-identical to
        # ``base + rng.uniform(0.0, jitter)`` (uniform(0, j) computes
        # ``0.0 + (j - 0.0) * random()``), with the same draw-only-if-
        # jittered rule, minus two call frames per message.
        model = state[0]
        jitter = model.jitter_ms
        latency = model.base_ms + jitter * rng.random() if jitter \
            else model.base_ms
        deliver_at = now + latency
        last = state[2]
        if last is not None and deliver_at < last:
            deliver_at = last       # FIFO clamp; seq breaks the tie
        if state[3] == deliver_at and deliver_at > now:
            # The link's next delivery event fires at exactly this time
            # and has not run yet (strictly in the future): coalesce.
            state[4].append(message)
        else:
            batch = [message]
            state[3] = deliver_at
            state[4] = batch
            loop.schedule_fast_at(deliver_at, self._deliver_batch,
                                  (src, dst, batch))
        state[2] = deliver_at
        return True

    def _deliver_batch(self, src: str, dst: str, batch: list) -> None:
        # Check reachability again at delivery time: a partition that
        # appeared while the batch was in flight kills it (TCP reset).
        stats = self.stats
        stats.delivery_events += 1
        handlers = self._handlers
        if (self._down or self._cut) and not self.is_reachable(src, dst):
            handlers = {}       # every message of the batch drops
        delivered = 0
        for message in batch:
            # Per-message handler lookup: a handler may detach its node
            # mid-batch, and the rest of the batch must then drop.
            handler = handlers.get(dst)
            if handler is None:
                stats.record_drop(src, dst)
                continue
            delivered += 1
            handler(message, src)
        stats.messages_delivered += delivered
        # The link's record still names the batch as its tail until the
        # next send: it must keep no delivered message alive.
        batch.clear()
