"""Metrics by name: assembly from a window, statistics, comparison.

``BENCHMARK.json`` at the repository root is the list of names, units,
directions and bounds; this module computes the values and refuses to
emit a set that differs from that list.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.bench.metrics import percentile

from .spans import SpanRecorder
from .worlds import Window, peak_rss_mb

ROOT = Path(__file__).resolve().parents[2]


def manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    return percentile(sorted(values), 100.0 * q) if values else 0.0


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def failed_txns(window: Window) -> int:
    """Aborted, or not visible by the drain deadline; all, if the DCs
    did not converge to the analytic fold of the op list."""
    if not window.digests_ok:
        return window.submitted
    return window.submitted - window.visible


def end_to_end(window: Window, setup_s: Sequence[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced window.

    Durations are at the reference machine speed (``window.speed``, see
    ``worlds.SpeedMeter``): seconds this machine took, times its speed
    relative to the reference.  Two kinds of time are not set by this
    machine's speed and are left alone: a ``des_*`` latency is simulated
    time (``sim.now``, deterministic for a seed); and in an open loop
    below capacity the window is as long as its schedule (``txn_per_s``
    on ``live_steady`` is the offered rate unless the system falls
    behind) and the latency is as much protocol timers as CPU — over
    ten seeds, scaling it spread the medians 12.7 %, not scaling 9.5 %.
    """
    txns = max(window.visible, 1)
    wall_s = window.wall_s * (1.0 if window.scheduled else window.speed)
    latency = 1.0 if window.simulated or window.scheduled else window.speed
    return {
        "setup_s": statistics.median(setup_s),
        "txn_per_s": window.visible / wall_s,
        "cpu_ms_per_txn": window.cpu_s * window.speed * 1000.0 / txns,
        "visible_p50_ms": quantile(window.latencies_ms, 0.50) * latency,
        "link_bytes_per_txn": window.link_bytes / txns,
        "peak_rss_mb": peak_rss_mb(),
    }


def untraced_extras(window: Window) -> Dict[str, float]:
    """Numbers that must come from an untraced window but are reported
    with the per-layer set (they have no bound; see the README).  These
    are as this machine measured them, with its speed beside them."""
    late = window.series.get("gen_late_ms", [])
    commit = window.series.get("commit_ms", [])
    return {
        "serve.visible_p99_ms": quantile(window.latencies_ms, 0.99),
        "serve.visible_samples": len(window.latencies_ms),
        "serve.fail_frac": _ratio(failed_txns(window), window.submitted),
        "groups.sim_commit_p50_ms": quantile(commit, 0.50),
        "groups.sim_commit_p99_ms": quantile(commit, 0.99),
        "bench.gen_late_p50_ms": quantile(late, 0.50),
        "bench.gen_late_p99_ms": quantile(late, 0.99),
        "bench.untraced_wall_s": window.wall_s,
        "bench.untraced_cpu_s": window.cpu_s,
        "bench.untraced_machine_speed": window.speed,
    }


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------

def per_layer(window: Window, rec: SpanRecorder, live: bool,
              untraced: Dict[str, float],
              micro: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    The layer self times, ``sim.self_s``/``transport.loop_self_s`` (busy
    time between spans: the event loop, and over TCP the socket reads
    and frame decoding) and ``bench.idle_s`` add up to the traced wall
    time by construction.  They are seconds as this machine ran them;
    ``bench.machine_speed`` is what to scale them by.
    """
    counts = window.counts
    txns = max(window.visible, 1)
    between = window.cpu_s - rec.top_s
    pushes = sum(acc[0] for acc in rec.accs.values()
                 if acc[4].endswith(":UpdatePush"))
    tiga_fast = counts["epaxos.tiga_fast"]
    values = {
        "sim.self_s": 0.0 if live else between + rec.layer_self_s("sim"),
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_s": _ratio(counts.get("sim.events", 0),
                                   window.wall_s),
        "sim.msgs_per_txn": 0.0 if live else counts["net.msgs"] / txns,
        "transport.send_self_s": rec.layer_self_s("transport"),
        "transport.send_calls": rec.layer_calls("transport"),
        "transport.loop_self_s": between if live else 0.0,
        "transport.frames_per_txn":
            rec.layer_calls("transport", "send:tcp") / txns,
        "transport.dropped": counts["net.dropped"],
        "transport.unroutable": counts["net.unroutable"],
        "dc.self_s": rec.layer_self_s("dc"),
        "dc.timer_self_s": rec.layer_self_s("dc", "timer:"),
        "dc.recv_calls": rec.layer_calls("dc", "recv:"),
        "dc.repl_batches_out": counts["dc.repl_batches_out"],
        "dc.repl_txns_per_batch": _ratio(counts["dc.repl_txns_out"],
                                         counts["dc.repl_batches_out"]),
        "dc.repl_dup_in": counts["dc.repl_dup_in"],
        "dc.rewinds": counts["dc.rewinds"],
        "edge.self_s": rec.layer_self_s("edge"),
        "edge.recv_calls": rec.layer_calls("edge", "recv:"),
        "edge.push_msgs_per_txn": pushes / txns,
        "edge.mat_hit_ratio": _ratio(counts["edge.mat_fast"],
                                     counts["edge.mat_total"]),
        "groups.self_s": rec.layer_self_s("groups"),
        "groups.recv_calls": rec.layer_calls("groups", "recv:"),
        "epaxos.self_s": rec.layer_self_s("epaxos"),
        "epaxos.msgs_per_commit": _ratio(rec.layer_calls("epaxos"),
                                         counts.get("groups.commits", 0)),
        "epaxos.tiga_fast_path_ratio": _ratio(
            tiga_fast, tiga_fast + counts["epaxos.tiga_fallbacks"]),
        "epaxos.tiga_fallbacks": counts["epaxos.tiga_fallbacks"],
        "store.self_s": rec.layer_self_s("store"),
        "store.mat_hit_ratio": _ratio(counts["store.mat_fast"],
                                      counts["store.mat_total"]),
        "store.mat_rebuilds": counts["store.mat_rebuilds"],
        "bench.self_s": rec.layer_self_s("bench"),
        "bench.idle_s": window.wall_s - window.cpu_s,
        "bench.traced_wall_s": window.wall_s,
        "bench.machine_speed": window.speed,
        "obs.spans": rec.spans,
        # CPU, not wall (an open loop's wall time is its schedule's),
        # each at the speed the machine had while it was measured.
        "obs.trace_overhead_frac":
            window.cpu_s * window.speed
            / (untraced["bench.untraced_cpu_s"]
               * untraced["bench.untraced_machine_speed"]) - 1.0,
    }
    values.update(untraced)
    values.update(micro)
    return values


def emit(section: str, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``values`` as the contract's ``metrics`` object for ``section``
    (``end_to_end`` or ``per_layer``); the names must match exactly."""
    listed = manifest()[section]
    names = {m["name"] for m in listed}
    if names != set(values):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, unlisted "
            f"{sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def layer_table(rec: SpanRecorder, values: Dict[str, float]) -> List[str]:
    """Human-readable layer shares and the heaviest span names."""
    wall = values["bench.traced_wall_s"]
    shares = dict(rec.layers())
    shares["sim"] = values["sim.self_s"]
    shares["transport"] = (values["transport.send_self_s"]
                           + values["transport.loop_self_s"])
    shares["idle"] = values["bench.idle_s"]
    lines = [f"  layer self time (traced wall {wall:.3f} s, sum "
             f"{sum(shares.values()):.3f} s):"]
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:10s} {seconds:8.3f} s  "
                     f"{100.0 * seconds / wall:5.1f} %")
    lines.append("  heaviest spans (self s, calls, longest ms, layer, name):")
    for calls, _, self_s, layer, name, longest_s in rec.top_names(10):
        lines.append(f"    {self_s:8.3f}  {calls:9d}  {1000 * longest_s:8.1f}  "
                     f"{layer:9s} {name}")
    return lines


# ---------------------------------------------------------------------------
# statistics over repeated runs, and comparison of two result sets
# ---------------------------------------------------------------------------

def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, _ratio(q3 - q1, abs(median))


def summarise(runs: Iterable[Dict[str, Dict[str, float]]]
              ) -> Dict[str, Dict[str, List[float]]]:
    """``[{workload: {metric: value}}]`` -> ``{workload: {metric: [values]}}``."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for workload, metrics in run.items():
            for name, value in metrics.items():
                table.setdefault(workload, {}).setdefault(name, []).append(
                    value)
    return table


def spread_lines(table: Dict[str, Dict[str, List[float]]]) -> List[str]:
    bounds = {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    lines = []
    for workload, metrics in table.items():
        lines.append(f"{workload}:")
        for name, values in metrics.items():
            if len(values) < 2:
                lines.append(f"  {name:22s} {values[0]:14.4f}")
                continue
            median, q1, q3, rel = spread(values)
            flag = "  > bound/3" if rel > bounds[name] / 3.0 else ""
            lines.append(
                f"  {name:22s} median {median:14.4f}  q1 {q1:14.4f}  "
                f"q3 {q3:14.4f}  spread {100 * rel:6.2f} % "
                f"(bound {100 * bounds[name]:.0f} %){flag}")
    return lines


def compare(base: Dict[str, Dict[str, List[float]]],
            change: Dict[str, Dict[str, List[float]]]
            ) -> Tuple[List[str], bool]:
    """Check ``change`` against ``base`` with the bounds in the manifest.

    Per workload x metric: *regressed* if the change's median is worse
    than the base's by more than the bound, *unresolved* if either
    side's run-to-run spread is wider than the bound, else *ok*.
    Returns the report lines and whether nothing regressed.
    """
    listed = {m["name"]: m for m in manifest()["end_to_end"]}
    lines, clean = [], True
    for workload, metrics in base.items():
        lines.append(f"{workload}:")
        for name, values in metrics.items():
            other = change.get(workload, {}).get(name)
            if not other:
                lines.append(f"  {name:22s} missing from the change")
                clean = False
                continue
            spec = listed[name]
            a = statistics.median(values)
            b = statistics.median(other)
            worse = (b - a) / abs(a) if spec["better"] == "lower" \
                else (a - b) / abs(a)
            widest = max(spread(v)[3] if len(v) > 1 else 0.0
                         for v in (values, other))
            if widest > spec["bound"]:
                verdict = "unresolved (spread %.1f %%)" % (100 * widest)
            elif worse > spec["bound"]:
                verdict, clean = "REGRESSED", False
            else:
                verdict = "ok"
            lines.append(f"  {name:22s} {a:14.4f} -> {b:14.4f}  "
                         f"{100 * worse:+7.2f} % worse  "
                         f"(bound {100 * spec['bound']:.0f} %)  {verdict}")
    return lines, clean
