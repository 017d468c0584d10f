"""The abstract transport interface actors are written against.

An :class:`~repro.sim.actor.Actor` never talks to the event loop or the
socket layer directly; it goes through two *facets* of its transport:

* the **timer facet** (``transport.timers``): ``now`` (milliseconds),
  ``schedule(delay, cb)``, ``schedule_fast(delay, cb, args)`` for
  hot-path events (no closure), plus the absolute-time variants —
  nothing is ever cancelled, so none returns a handle;
* the **network facet** (``transport.net``): ``attach``/``detach`` a
  node's message handler, ``send(src, dst, message, size_bytes)``,
  and the shared services ``clocks`` (per-node physical clocks),
  ``obs`` (lifecycle trace recorder) and ``stats`` (traffic counters).

The discrete-event simulator satisfies both facets natively
(``EventLoop`` is a timer facet, ``Network`` a network facet);
:class:`SimTransport` just bundles the pair.  The asyncio TCP backend
(:class:`~repro.transport.asyncio_backend.AsyncioTransport`) implements
both facets on one object with real sockets and the OS monotonic clock.

``seed`` is the deployment-wide determinism root: an actor constructed
without an explicit RNG derives one from ``f"{transport.seed}/{node_id}"``,
so every node gets its own reproducible random stream under either
backend (and a simulated and a live deployment of the same topology
derive identical per-node streams).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Tuple

try:  # pragma: no cover - Protocol exists on every supported python
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


class TimerFacet(Protocol):
    """Structural type of ``transport.timers`` (see module docstring)."""

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> None: ...

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> None: ...

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      args: Tuple = ()) -> None: ...

    def schedule_fast_at(self, time: float,
                         callback: Callable[..., None],
                         args: Tuple = ()) -> None: ...


class NetworkFacet(Protocol):
    """Structural type of ``transport.net`` (see module docstring)."""

    clocks: Any
    obs: Any
    stats: Any

    def attach(self, node_id: str,
               handler: Callable[[Any, str], None]) -> None: ...

    def detach(self, node_id: str) -> None: ...

    def send(self, src: str, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool: ...


class Transport(ABC):
    """A timer facet plus a network facet plus the determinism seed."""

    #: Deployment-wide seed actors derive their default RNG from.
    seed: int = 0

    @property
    @abstractmethod
    def timers(self) -> TimerFacet:
        """The timer facet (``now``/``schedule``/``schedule_fast``)."""

    @property
    @abstractmethod
    def net(self) -> NetworkFacet:
        """The network facet (``attach``/``send``/services)."""

    # -- convenience passthroughs ---------------------------------------
    @property
    def now(self) -> float:
        return self.timers.now

    def send(self, src: str, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool:
        return self.net.send(src, dst, message, size_bytes)

    def attach(self, node_id: str,
               handler: Callable[[Any, str], None]) -> None:
        self.net.attach(node_id, handler)

    def detach(self, node_id: str) -> None:
        self.net.detach(node_id)


class SimTransport(Transport):
    """The simulator pair ``(EventLoop, Network)`` as one transport.

    Purely a view: all state lives in the loop and the network, so any
    number of ``SimTransport`` objects over the same pair are
    interchangeable.  ``Network.transport_view`` caches one per network
    so a million-actor world does not allocate a million views.
    """

    __slots__ = ("loop", "network")

    def __init__(self, loop: Any, network: Any):
        if network is None:
            raise TypeError(
                "SimTransport needs both a loop and a network; to build "
                "an actor over a single transport object, pass it as "
                "the `loop` argument and leave `network` as None")
        self.loop = loop
        self.network = network

    @property
    def timers(self) -> Any:
        return self.loop

    @property
    def net(self) -> Any:
        return self.network

    @property
    def seed(self) -> int:  # type: ignore[override]
        return getattr(self.network, "seed", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimTransport(seed={self.seed}, t={self.loop.now:.3f}ms)"
