"""Self-test of the wall-clock benchmark at ``--quick`` sizes.

Not under ``tests/`` (tier-1 time is unchanged); run it with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Every workload runs once untraced and once traced, in this process, at
the sizes ``--quick`` uses; the checks are that the metric names and
units are exactly ``BENCHMARK.json``'s, that nothing fails, and that
the tracer is a pure observer.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import micro, report
from benchmarks.perf.runner import QUICK_SECONDS, WORKLOADS
from benchmarks.perf.spans import SpanRecorder

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


@pytest.fixture(scope="module")
def quick_runs():
    """``{workload: (untraced window, traced window, recorder)}``."""
    runs = {}
    for name, workload in WORKLOADS.items():
        _, plain = workload.run(SEED, QUICK_SECONDS, True, None, 1, None)
        recorder = SpanRecorder()
        _, traced = workload.run(SEED, QUICK_SECONDS, True, recorder, 1, None)
        runs[name] = (plain, traced, recorder)
    return runs


@pytest.fixture(scope="module")
def micro_rates():
    return micro.run_all()


def test_manifest_names_are_well_formed_and_unique():
    manifest = report.manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in manifest[section]]
        assert len(names) == len(set(names)), section
        assert all(NAME.fullmatch(name) for name in names), section
    assert "setup_s" in {m["name"] for m in manifest["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_once_with_its_unit(name, quick_runs,
                                                    micro_rates):
    plain, traced, recorder = quick_runs[name]
    manifest = report.manifest()
    end_to_end = report.emit("end_to_end",
                             report.end_to_end(plain, [0.1, 0.2, 0.3]))
    layers = report.emit("per_layer", report.per_layer(
        traced, recorder, WORKLOADS[name].live,
        report.untraced_extras(plain), micro_rates))
    for section, emitted in (("end_to_end", end_to_end),
                             ("per_layer", layers)):
        assert list(emitted) == [m["name"] for m in manifest[section]]
        for spec in manifest[section]:
            assert emitted[spec["name"]]["unit"] == spec["unit"]
            assert isinstance(emitted[spec["name"]]["value"], (int, float))
    # A user-visible metric that reads 0 cannot get worse.
    assert all(m["value"] > 0 for m in end_to_end.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_nothing_fails_and_digests_agree(name, quick_runs):
    for window in quick_runs[name][:2]:
        assert window.digests_ok
        assert window.visible == window.submitted
        assert report.failed_txns(window) == 0
        assert report.untraced_extras(window)["serve.fail_frac"] == 0
        assert window.counts["net.dropped"] == 0
        assert window.counts["net.unroutable"] == 0


@pytest.mark.parametrize(
    "name", [n for n, w in WORKLOADS.items() if not w.live])
def test_span_transport_is_a_pure_observer(name, quick_runs):
    """Same DES event count, same simulated latencies, same program
    counters and (both equal to the analytic fold) same digests,
    whether or not the world was built over ``SpanTransport``."""
    plain, traced, recorder = quick_runs[name]
    assert recorder.spans > 0
    assert plain.counts == traced.counts
    assert plain.counts["sim.events"] > 0
    assert plain.latencies_ms == traced.latencies_ms
    assert plain.link_bytes == traced.link_bytes


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_times_add_up_to_the_traced_wall(name, quick_runs,
                                               micro_rates):
    plain, traced, recorder = quick_runs[name]
    values = report.per_layer(traced, recorder, WORKLOADS[name].live,
                              report.untraced_extras(plain), micro_rates)
    total = (sum(recorder.layers().values()) - recorder.layer_self_s("sim")
             + values["sim.self_s"] + values["transport.loop_self_s"]
             + values["bench.idle_s"])
    assert total == pytest.approx(traced.wall_s, rel=0.05)
    if not WORKLOADS[name].live:
        assert values["transport.send_calls"] == 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_command_prints_the_contract_object_last():
    done = _run(report.ROOT, "--workload", "des_geo_write", "--quick",
                "--seed", "5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in report.manifest()["end_to_end"]]


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result."""
    shutil.copy(report.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(report.ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run(tmp_path, "--workload", "des_geo_write", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
