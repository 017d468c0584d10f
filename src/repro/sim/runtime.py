"""Simulation façade tying the loop, network and actors together."""

from __future__ import annotations

import contextlib
import gc
import random
from typing import Any, Dict, Iterator, Optional, Tuple, Type, TypeVar

from .actor import Actor
from .events import EventLoop
from .network import LatencyModel, Network

A = TypeVar("A", bound=Actor)


class Simulation:
    """One deterministic simulated world.

    >>> sim = Simulation(seed=7)
    >>> # actors = sim.spawn(MyActor, "node-1", ...)
    >>> sim.run(until=1000.0)   # advance one simulated second
    """

    def __init__(self, seed: int = 0,
                 default_latency: Optional[LatencyModel] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.loop = EventLoop()
        self.network = Network(self.loop, self.rng, default_latency,
                               seed=seed)
        self.actors: Dict[str, Actor] = {}

    @property
    def now(self) -> float:
        return self.loop.now

    def spawn(self, cls: Type[A], node_id: str, *args: Any,
              **kwargs: Any) -> A:
        """Create an actor wired to this simulation.

        The actor's RNG (:attr:`Actor.rng`) derives from the simulation
        seed and its id when first drawn from, so adding an actor does
        not perturb the random streams of the others, and an actor that
        never draws builds none.
        """
        if node_id in self.actors:
            raise ValueError(f"duplicate actor id {node_id!r}")
        actor = cls(node_id, self.loop, self.network, *args, **kwargs)
        self.actors[node_id] = actor
        return actor

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.loop.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> None:
        self.run(until=self.loop.now + duration)

    #: Generation thresholds while a world is frozen: collect young
    #: garbage rarely enough that in-flight deliveries (which live for
    #: one link latency, tens of thousands of events) stop being
    #: promoted and rescanned by every older-generation pass.
    GC_FROZEN_THRESHOLDS: Tuple[int, int, int] = (100_000, 20, 20)

    @contextlib.contextmanager
    def frozen_world(self) -> Iterator[int]:
        """Exclude the built world from cyclic-GC scanning while running.

        A large simulated world is millions of live, effectively
        immortal objects (actors, journals, link state).  CPython's
        generational collector rescans all of them on every gen-2 pass,
        and the in-flight delivery churn (~one entry per link latency)
        keeps triggering those passes — at 10^4+ nodes this costs more
        wall-clock than the simulation itself (2-3x at 10^4).  This
        context collects once, moves the current heap into the
        permanent generation (``gc.freeze``), and widens the
        generation thresholds; on exit everything is restored, so a
        later collection can still reclaim the world.  Collection stays
        *enabled* throughout — cyclic garbage created while frozen is
        still reclaimed, just less often.

        Yields the number of objects frozen.  Purely a wall-clock
        optimisation: GC has no observable effect on simulation
        behaviour, so event streams and digests are unchanged.
        """
        old_thresholds = gc.get_threshold()
        gc.collect()
        gc.freeze()
        gc.set_threshold(*self.GC_FROZEN_THRESHOLDS)
        try:
            yield gc.get_freeze_count()
        finally:
            gc.set_threshold(*old_thresholds)
            gc.unfreeze()

    def actor(self, node_id: str) -> Actor:
        return self.actors[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulation(seed={self.seed}, t={self.loop.now:.3f}ms,"
                f" actors={len(self.actors)})")
