"""Actor base class: a protocol node driven by a transport.

Protocol logic lives in sans-io state machines; :class:`Actor` is the thin
shell binding one to a :class:`~repro.transport.base.Transport` — timers
plus a network.  Subclasses implement ``on_message`` and may arm timers.
The same actor code runs over the discrete-event simulator (pass the
simulator ``loop`` and ``network``, as always) and over real asyncio TCP
sockets (pass an ``AsyncioTransport`` as the sole positional argument).

Fail-stop crashes are modelled by ``crash()``: a crashed actor ignores
everything (paper's failure model, section 3.1).  ``recover()`` brings it
back with a clean timer slate: every timer armed before the crash is
dead — a stale callback closing over pre-crash state must never fire into
post-recovery state — and periodic timers registered via :meth:`every`
are re-armed fresh.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Tuple

from .events import EventLoop
from .network import Network


class Actor:
    """A named node attached to a transport.

    Construction accepts either the simulator pair or a transport::

        Actor("n0", loop, network)   # DES: EventLoop + Network
        Actor("n0", transport)       # any Transport (e.g. asyncio)

    ``self.loop`` and ``self.network`` are always bound to the
    transport's timer and network facets, so subclass code is oblivious
    to which backend it runs on.
    """

    def __init__(self, node_id: str, loop: Any,
                 network: Optional[Network] = None,
                 rng: Optional[random.Random] = None):
        if network is None:
            transport = loop
            if not hasattr(transport, "timers"):
                raise TypeError(
                    "Actor(node_id, transport) needs a Transport; got "
                    f"{type(transport).__name__} (to build over the "
                    "simulator, pass both loop and network)")
        else:
            transport = network.transport_view(loop)
        self.transport = transport
        self.loop = transport.timers
        self.network = transport.net
        self.node_id = node_id
        # Derive the default RNG from the deployment seed and the node
        # id (the same scheme as Simulation.spawn), so actors built
        # without an explicit rng get distinct, reproducible streams
        # instead of all sharing Random(0).
        self.rng = rng or random.Random(f"{transport.seed}/{node_id}")
        self.crashed = False
        # Timers are epoch-guarded: crash() and recover() each bump the
        # epoch, so any callback armed before the transition is dead on
        # arrival even after the actor is back up.
        self._timer_epoch = 0
        #: Periodic timers registered via every(); re-armed on recover().
        self._periodic: List[Tuple[float, Callable[[], None], float]] = []
        self.network.attach(node_id, self._receive)

    # -- messaging ---------------------------------------------------------
    def send(self, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool:
        """Send; ``size_bytes`` defaults to the message's encoded length."""
        if self.crashed:
            return False
        return self.network.send(self.node_id, dst, message, size_bytes)

    def _receive(self, message: Any, sender: str) -> None:
        if self.crashed:
            return
        self.on_message(message, sender)

    def on_message(self, message: Any, sender: str) -> None:
        raise NotImplementedError

    # -- timers --------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm a timer; dead if the actor crashes (even after recovery)."""
        epoch = self._timer_epoch
        def guarded() -> None:
            if not self.crashed and self._timer_epoch == epoch:
                callback()
        self.loop.schedule(delay, guarded)

    def every(self, period: float, callback: Callable[[], None],
              jitter: float = 0.0) -> None:
        """Run ``callback`` every ``period`` ms while the actor is up.

        The periodic registration survives crashes: ``recover()`` re-arms
        it with a fresh epoch (the pre-crash tick chain is dead).
        """
        self._periodic.append((period, callback, jitter))
        self._arm_periodic(period, callback, jitter)

    def _arm_periodic(self, period: float, callback: Callable[[], None],
                      jitter: float) -> None:
        # Rescheduled via the allocation-free path: periodic protocol
        # timers dominate the event population at scale (crash/epoch is
        # checked in the tick).
        epoch = self._timer_epoch
        def tick() -> None:
            if self.crashed or self._timer_epoch != epoch:
                return
            callback()
            delay = period + (self.rng.uniform(0, jitter) if jitter else 0.0)
            self.loop.schedule_fast(delay, tick)
        self.loop.schedule_fast(period, tick)

    # -- failure ----------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: cease executing until ``recover()`` (if ever)."""
        self.crashed = True
        # Invalidate every armed timer: a callback scheduled pre-crash
        # closes over pre-crash state and must not fire post-recovery.
        self._timer_epoch += 1

    def recover(self) -> None:
        """Come back up with a clean timer slate.

        Pre-crash timers stay dead; periodic timers registered through
        :meth:`every` are re-armed from now.
        """
        if not self.crashed:
            return
        self.crashed = False
        self._timer_epoch += 1
        for period, callback, jitter in self._periodic:
            self._arm_periodic(period, callback, jitter)

    @property
    def now(self) -> float:
        return self.loop.now

    @property
    def clock(self) -> Any:
        """This actor's skewed physical clock (zero skew by default)."""
        return self.network.clocks.clock_for(self.node_id)

    @property
    def obs(self) -> Any:
        """The world's lifecycle trace recorder (a no-op by default).

        Hot paths guard span emission with ``if self.obs.enabled``;
        the recorder itself is passive, so tracing never perturbs
        protocol behaviour.
        """
        return self.network.obs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.node_id}, {state})"


# Re-exported for subclass modules that type-hint against the simulator
# pair; new code should hint Any/Transport instead.
__all__ = ["Actor", "EventLoop", "Network"]
