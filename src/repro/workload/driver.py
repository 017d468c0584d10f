"""The closed-loop workload driver of the paper's figures (section 7.3).

:class:`ClosedLoopDriver` keeps every client saturated: each issues its
next trace op (:meth:`MattermostTrace.sample_op`) as soon as the
previous one completes, plus think time, so the load grows with the
number of clients (Figure 4) and a timeline shows how each population
fares under a fault (Figures 5-7).  Each op runs through
:func:`~repro.serve.workload.run_op`; an aborted op ends a turn as a
completed one does, and is counted apart.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from ..serve.workload import run_op
from ..sim.runtime import Simulation
from .trace import MattermostTrace


class ClosedLoopDriver:
    """Each client issues its next transaction as soon as one finishes.

    ``clients`` are ``(user, actor)`` pairs: the trace user whose
    actions the actor (an edge node, a group member or a cloud client)
    runs.
    """

    def __init__(self, sim: Simulation, trace: MattermostTrace,
                 clients: List[Tuple[str, Any]],
                 think_time_ms: float = 1.0):
        self.sim = sim
        self.trace = trace
        self.clients = clients
        self.think_time_ms = think_time_ms
        self.completed = 0
        self.aborted = 0
        self._counts: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {
            user: random.Random(f"{trace.config.seed}/{user}")
            for user, _actor in clients}

    def start(self) -> None:
        for user, actor in self.clients:
            # Stagger starts to avoid a thundering herd at t=0.
            delay = self._rngs[user].uniform(0.0, 5.0)
            self.sim.loop.schedule(
                delay, (lambda u=user, a=actor: self._issue(u, a)))

    def _issue(self, user: str, actor: Any) -> None:
        count = self._counts.get(user, 0) + 1
        self._counts[user] = count
        rng = self._rngs[user]
        op = self.trace.sample_op(user, count, rng, self.sim.now)

        def next_turn() -> None:
            think = self.think_time_ms * rng.expovariate(1.0) \
                if self.think_time_ms else 0.0
            self.sim.loop.schedule(
                think, (lambda: self._issue(user, actor)))

        def done(result: Any, stats: Any) -> None:
            # A cloud client reports an abort here, in its stats.
            if stats.aborted:
                self.aborted += 1
            else:
                self.completed += 1
            next_turn()

        def aborted(error: Exception) -> None:
            self.aborted += 1
            next_turn()

        run_op(actor, op, on_done=done, on_abort=aborted)
