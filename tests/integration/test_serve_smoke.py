"""Live asyncio deployment smoke test: DES/live digest parity.

Boots a small localhost topology as real OS processes (one per site,
exactly what ``python -m repro.serve`` does), drives the seeded
workload, and asserts the headline property of the transport refactor:
the live asyncio deployment and the discrete-event reference converge
to the same canonical state digest — which also equals the analytic
fold of the op list.
"""

import json
import socket
from pathlib import Path

import pytest

from repro.serve.builder import (build_sim_world, run_reference,
                                 settle_order)
from repro.serve.supervisor import run_deployment
from repro.serve.topology import load_topology, parse_topology
from repro.serve.workload import generate_ops


def _free_ports(count):
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _write_topology(tmp_path):
    p = _free_ports(5)
    text = f"""
[deployment]
name = "serve-test"
seed = 2

[workload]
n_txns = 8
window_ms = 900.0
settle_max_ms = 20000.0

[[keys]]
bucket = "app"
key = "c0"
type = "counter"

[[keys]]
bucket = "app"
key = "s0"
type = "orset"

[[sites]]
name = "dc0"
role = "dc"
listen = "127.0.0.1:{p[0]}"
k_target = 2

[[sites]]
name = "dc1"
role = "dc"
listen = "127.0.0.1:{p[1]}"
k_target = 2

[[sites]]
name = "m0"
role = "member"
listen = "127.0.0.1:{p[2]}"
dc = "dc0"
group = "g"
parent = "m0"

[[sites]]
name = "m1"
role = "member"
listen = "127.0.0.1:{p[3]}"
dc = "dc0"
group = "g"
parent = "m0"

[supervisor]
listen = "127.0.0.1:{p[4]}"
"""
    path = tmp_path / "serve_test.toml"
    path.write_text(text)
    return load_topology(str(path))


def test_des_reference_matches_analytic_expectation(tmp_path):
    topo = _write_topology(tmp_path)
    reference = run_reference(topo)
    assert reference["converged"], reference
    assert reference["digest"] == reference["expected_digest"]
    assert reference["committed"] == topo.n_txns


def test_live_deployment_digest_parity(tmp_path):
    topo = _write_topology(tmp_path)
    log_dir = tmp_path / "logs"
    report = run_deployment(topo, log_dir=str(log_dir),
                            log=lambda *a, **k: None)

    assert report["digest_parity"], report
    assert report["clean_shutdown"], report
    assert report["ok"]
    assert report["live"]["live_digest"] == report["des"]["digest"]
    assert all(code == 0 for code in report["exit_codes"].values()), \
        report["exit_codes"]

    # Every site left a parseable JSON-lines log ending in a clean
    # shutdown record.
    for site in ("dc0", "dc1", "m0", "m1"):
        lines = [json.loads(line) for line in
                 (log_dir / f"{site}.jsonl").read_text().splitlines()]
        assert lines[0]["event"] == "boot"
        assert lines[-1]["event"] == "shutdown"
        assert lines[-1]["clean"] is True


def test_seeded_workload_is_deterministic(tmp_path):
    topo = _write_topology(tmp_path)
    clients = [s.name for s in topo.clients]
    first = generate_ops(topo.seed, clients, topo.keys, topo.n_txns,
                         topo.window_ms)
    second = generate_ops(topo.seed, clients, topo.keys, topo.n_txns,
                          topo.window_ms)
    assert first == second
    assert {op.client for op in first} <= set(clients)


def test_example_topology_parses():
    topo = load_topology(
        str(Path(__file__).resolve().parents[2]
            / "examples" / "serve_3dc.toml"))
    assert topo.name == "serve-3dc"
    assert [s.name for s in topo.dcs] == ["dc0", "dc1", "dc2"]
    assert [s.name for s in topo.members_of("g")] == ["m0", "m1", "m2"]
    assert topo.homes()["supervisor.ctl"] == "supervisor"
    assert topo.homes()["m1.ctl"] == "m1"


def _document(*sites, **extra):
    def site(name, role, **fields):
        return {"name": name, "role": role, "listen": "127.0.0.1:0",
                **fields}
    return {"keys": [{"bucket": "app", "key": "c0"}],
            "sites": [site("dc0", "dc"), site("pop0", "pop", dc="dc0")]
            + [site(*args, **fields) for args, fields in sites],
            **extra}


def _member(name, parent, **fields):
    return ((name, "member"),
            {"dc": "dc0", "group": "g", "parent": parent, **fields})


@pytest.mark.parametrize("document, named", [
    (_document((("far", "edge"), {"dc": "nope"})), "'far'"),
    (_document((("far", "edge"), {"dc": "far"})), "'far'"),
    (_document(_member("m0", "ghost")), "'m0'"),
    (_document(_member("m0", "m0"), _member("m1", "m1")), "'m1'"),
    (_document(_member("m0", "m0"),
               _member("m1", "m0", commit_variant="tiga")), "'m1'"),
    (_document((("far", "edge"), {"dc": "dc0", "keys": ["app/zz"]})),
     "'far'"),
    (_document(links=[{"a": "dc0", "b": "ghost", "base_ms": 1.0}]),
     "'ghost'"),
], ids=["upstream-missing", "upstream-not-a-relay", "parent-not-a-member",
        "parents-disagree", "commit-variants-disagree", "key-not-declared",
        "link-end-not-a-site"])
def test_parse_topology_rejects_dangling_names(document, named):
    with pytest.raises(ValueError, match=named):
        parse_topology(document)


def test_pop_children_connect_after_their_pop():
    # The child is listed first: the order comes from the tree.
    topo = parse_topology(_document(
        (("child", "edge"), {"dc": "pop0", "keys": ["app/c0"]}),
        (("far", "edge"), {"dc": "dc0"}),
        links=[{"a": "child", "b": "pop0", "base_ms": 10.0,
                "jitter_ms": 2.0}]))
    topo.sites.sort(key=lambda s: s.name != "child")
    direct, below = settle_order(topo)
    assert [s.name for s in direct] == ["pop0", "far"]
    assert [s.name for s in below] == ["child"]
    world = build_sim_world(topo)
    assert world.actors["child"].session_open
    assert world.sim.network.stats.messages_dropped == 0
