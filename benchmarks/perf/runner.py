"""The five workloads, and one run of one of them in this process."""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import des_geo_write, des_group_mix, des_sessions, live
from .spans import SpanRecorder
from .worlds import Phase, SpeedMeter, Window

#: ``--seconds`` of a ``--quick`` run (the DES worlds also shrink).
QUICK_SECONDS = 1.0

#: ``(set-up times at the reference machine speed, window)`` of one run.
Outcome = Tuple[List[float], Window]


@dataclass(frozen=True)
class Workload:
    """Why each exists is recorded in ``BENCHMARK.json`` and the README."""

    name: str
    live: bool
    #: Set-ups per untraced run (``setup_s`` is their median); the
    #: 10^4-session world takes seconds to build, the others do not.
    setups: int
    run: Callable[..., Outcome]


def _run_des(module: Any) -> Callable[..., Outcome]:
    def run(seed: int, seconds: float, quick: bool,
            recorder: Optional[SpanRecorder], setups: int,
            window: Optional[int]) -> Outcome:
        times, world = [], None
        meter = SpeedMeter()
        for _ in range(setups):
            world = None
            gc.collect()   # the previous world is cyclic garbage
            with Phase(meter) as phase:
                world = module.prepare(seed, seconds, quick, recorder, meter)
            times.append(phase.wall_s * phase.speed)
        if recorder is not None:
            recorder.reset()
        return times, module.measure(world)
    return run


def _run_live(txns_per_second: float, rate_per_s: Optional[float],
              deadline_factor: float) -> Callable[..., Outcome]:
    async def main(seed: int, seconds: float, quick: bool,
                   recorder: Optional[SpanRecorder], setups: int,
                   window: Optional[int]) -> Outcome:
        if quick:
            seconds = QUICK_SECONDS
        n_txns = max(1, round(txns_per_second * seconds))
        times, world, meter = [], None, SpeedMeter()
        try:
            for _ in range(setups):
                if world is not None:
                    await world.close()
                    world = None
                with Phase(meter) as phase:
                    world = await live.prepare(seed, recorder, meter)
                times.append(phase.wall_s * phase.speed)
            if recorder is not None:
                recorder.reset()
            measured = await live.measure(
                world, seed, n_txns, rate_per_s,
                deadline_factor * seconds + live.DRAIN_DEADLINE_S,
                window or live.WINDOW)
            return times, measured
        finally:
            if world is not None:
                await world.close()

    def run(*args: Any) -> Outcome:
        return asyncio.run(main(*args))
    return run


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "des_sessions",
        live=False, setups=3, run=_run_des(des_sessions)),
    Workload(
        "des_geo_write",
        live=False, setups=5, run=_run_des(des_geo_write)),
    Workload(
        "des_group_mix",
        live=False, setups=5, run=_run_des(des_group_mix)),
    Workload(
        "live_saturate",
        live=True, setups=5,
        # About 150 txn/s is what the mesh sustains over a 12 s run.
        run=_run_live(150.0, None, deadline_factor=4.0)),
    Workload(
        "live_steady",
        live=True, setups=5,
        run=_run_live(live.STEADY_TXN_PER_S, live.STEADY_TXN_PER_S,
                      deadline_factor=1.0)),
)}
