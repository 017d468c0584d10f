"""Unit tests for the consolidated CI bench gate (repro.bench.gate)."""

import json

import pytest

from repro.bench.gate import (GateConfigError, benchmark_name,
                              gate_report, load_gates, main, resolve,
                              run_check)
from repro.obs import SPAN_KINDS

from pathlib import Path

GATES_TOML = Path(__file__).resolve().parents[2] / "benchmarks" / "gates.toml"


# ----------------------------------------------------------------------
# metric path resolution
# ----------------------------------------------------------------------
def test_resolve_dotted_paths_and_list_indices():
    report = {"totals": {"failed": 0},
              "sweep": [{"events": 10}, {"events": 20}]}
    assert resolve(report, "totals.failed") == 0
    assert resolve(report, "sweep.1.events") == 20


@pytest.mark.parametrize("path", ["missing", "totals.nope",
                                  "sweep.5.events", "sweep.x"])
def test_resolve_missing_paths_raise_keyerror(path):
    report = {"totals": {"failed": 0}, "sweep": [{"events": 10}]}
    with pytest.raises(KeyError):
        resolve(report, path)


# ----------------------------------------------------------------------
# check evaluation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op,value,expect", [
    ("ge", 5.0, True), ("ge", 5.1, False),
    ("gt", 4.9, True), ("gt", 5.0, False),
    ("le", 5.0, True), ("le", 4.9, False),
    ("lt", 5.1, True), ("lt", 5.0, False),
    ("eq", 5.0, True), ("eq", 4.0, False),
    ("ne", 4.0, True), ("ne", 5.0, False),
])
def test_comparison_ops(op, value, expect):
    ok, detail = run_check({"speedup": 5.0},
                           {"metric": "speedup", "op": op,
                            "value": value})
    assert ok is expect, detail


def test_truthy_op():
    assert run_check({"ok": True}, {"metric": "ok", "op": "truthy"})[0]
    assert not run_check({"ok": False},
                         {"metric": "ok", "op": "truthy"})[0]
    assert not run_check({"ok": []},
                         {"metric": "ok", "op": "truthy"})[0]


def test_ref_threshold_reads_from_report():
    report = {"speedup_10k": 3.0, "gate_min_speedup": 2.0}
    ok, detail = run_check(report, {"metric": "speedup_10k", "op": "ge",
                                    "ref": "gate_min_speedup"})
    assert ok and "gate_min_speedup" in detail
    report["gate_min_speedup"] = 4.0
    assert not run_check(report, {"metric": "speedup_10k", "op": "ge",
                                  "ref": "gate_min_speedup"})[0]


def test_missing_metric_fails_instead_of_crashing():
    ok, detail = run_check({}, {"metric": "speedup", "op": "ge",
                                "value": 1.0})
    assert not ok and "missing" in detail


def test_missing_ref_fails_instead_of_crashing():
    ok, detail = run_check({"speedup": 1.0},
                           {"metric": "speedup", "op": "ge",
                            "ref": "floor"})
    assert not ok and "missing" in detail


def test_unknown_op_is_a_config_error():
    with pytest.raises(GateConfigError):
        run_check({"x": 1}, {"metric": "x", "op": "approx", "value": 1})


def test_check_without_threshold_is_a_config_error():
    with pytest.raises(GateConfigError):
        run_check({"x": 1}, {"metric": "x", "op": "ge"})


def test_spans_complete_op():
    events = [{"name": kind, "ph": "i"} for kind in SPAN_KINDS]
    ok, _ = run_check({"traceEvents": events},
                      {"metric": "traceEvents", "op": "spans_complete"})
    assert ok
    ok, detail = run_check({"traceEvents": events[:-1]},
                           {"metric": "traceEvents",
                            "op": "spans_complete"})
    assert not ok and SPAN_KINDS[-1] in detail
    ok, detail = run_check({"traceEvents": []},
                           {"metric": "traceEvents",
                            "op": "spans_complete"})
    assert not ok and "empty" in detail


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_benchmark_name_prefers_report_field(tmp_path):
    path = tmp_path / "BENCH_whatever.json"
    assert benchmark_name({"benchmark": "chaos_harness"}, path,
                          {}) == "chaos_harness"


def test_benchmark_name_recognises_chrome_traces(tmp_path):
    assert benchmark_name({"traceEvents": []},
                          tmp_path / "obs-trace.json", {}) == "obs_trace"


def test_benchmark_name_falls_back_to_file_stem(tmp_path):
    gates = {"chaos": {}, "chaos_group_s0": {}}
    assert benchmark_name({}, tmp_path / "BENCH_chaos_group_s0.json",
                          gates) == "chaos_group_s0"
    assert benchmark_name({}, tmp_path / "BENCH_chaos_tree_s5.json",
                          gates) == "chaos"


# ----------------------------------------------------------------------
# end-to-end against the committed gates.toml
# ----------------------------------------------------------------------
def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_committed_gates_toml_parses():
    gates = load_gates(GATES_TOML)
    for name in ("read_path_materialisation", "sim_core_scale",
                 "partial_replication", "chaos_harness", "obs_trace"):
        assert gates[name]["check"], name


def test_gate_report_passes_good_chaos_report(tmp_path):
    gates = load_gates(GATES_TOML)
    path = _write(tmp_path, "BENCH_chaos_tree_s0.json",
                  {"benchmark": "chaos_harness", "ok": True,
                   "totals": {"failed": 0}})
    assert gate_report(path, gates, log=lambda *_: None) == []


def test_gate_report_collects_failures(tmp_path):
    gates = load_gates(GATES_TOML)
    path = _write(tmp_path, "BENCH_chaos.json",
                  {"benchmark": "chaos_harness", "ok": False,
                   "totals": {"failed": 2}})
    failures = gate_report(path, gates, log=lambda *_: None)
    assert len(failures) == 2


def test_gate_report_unknown_benchmark_is_config_error(tmp_path):
    path = _write(tmp_path, "BENCH_mystery.json",
                  {"benchmark": "mystery", "x": 1})
    with pytest.raises(GateConfigError):
        gate_report(path, load_gates(GATES_TOML),
                    log=lambda *_: None)


def test_main_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "BENCH_read_path.json",
                  {"benchmark": "read_path_materialisation",
                   "speedup": 9.0})
    bad = _write(tmp_path, "BENCH_read_path_bad.json",
                 {"benchmark": "read_path_materialisation",
                  "speedup": 1.0})
    assert main([str(good), "--gates", str(GATES_TOML)]) == 0
    assert "all gates passed" in capsys.readouterr().out
    assert main([str(good), str(bad),
                 "--gates", str(GATES_TOML)]) == 1
    assert "FAILED" in capsys.readouterr().out
    assert main([str(tmp_path / "nope.json"),
                 "--gates", str(GATES_TOML)]) == 2
    assert main([str(good), "--gates", str(tmp_path / "nope.toml")]) == 2


def test_main_gates_partial_report(tmp_path):
    report = {"benchmark": "partial_replication",
              "digest_parity_all_interested": True,
              "frame_parity_all_interested": True,
              "byte_reduction_rf3": 0.62,
              "byte_reduction_rf1": 0.80}
    good = _write(tmp_path, "BENCH_partial.json", report)
    assert main([str(good), "--gates", str(GATES_TOML)]) == 0
    report["byte_reduction_rf1"] = 0.50  # must exceed rf3's reduction
    regressed = _write(tmp_path, "BENCH_partial_bad.json", report)
    assert main([str(regressed), "--gates", str(GATES_TOML)]) == 1
