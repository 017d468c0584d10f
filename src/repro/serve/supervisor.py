"""Supervisor: boot the sites, drive the workload, check digest parity.

The supervisor is the deployment's root process.  It

1. spawns one child process per topology site (``python -m repro.serve
   --topology T --node NAME``),
2. runs the *same* seeded workload under the discrete-event simulator
   in-process (the reference run),
3. tells every site to start its workload slice, polls canonical state
   digests over the control plane until every DC agrees and the op
   count is complete (stable across two probes),
4. shuts every site down and waits for clean exits,
5. writes a ``BENCH_serve.json`` report whose headline metric is
   **digest parity**: live digest == DES digest == the analytic fold of
   the op list.

The supervisor runs under the real asyncio backend, never under the
DES, so wall-clock reads are correct here.
# colony-lint: disable-file=D101
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..transport.asyncio_backend import AsyncioTransport
from .builder import run_reference
from .control import (CtrlBye, CtrlDigestReply, CtrlDigestRequest,
                      CtrlShutdown, CtrlStart)
from .topology import Topology

POLL_INTERVAL_S = 0.25
#: Consecutive identical converged probes before declaring the live
#: deployment quiescent.
STABLE_PROBES = 2
SHUTDOWN_GRACE_S = 10.0


def spawn_site(topo: Topology, site_name: str,
               log_dir: Optional[str] = None) -> subprocess.Popen:
    """Start one site child process (stderr carries its JSON log)."""
    assert topo.path is not None, "spawning needs an on-disk topology"
    cmd = [sys.executable, "-m", "repro.serve",
           "--topology", topo.path, "--node", site_name]
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src_dir}{os.pathsep}{existing}"
                         if existing else src_dir)
    log_handle: Any = subprocess.DEVNULL
    if log_dir is not None:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
        log_handle = open(Path(log_dir) / f"{site_name}.jsonl", "w")
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=log_handle)


async def _supervise(topo: Topology, n_ops: int,
                     deadline_s: float) -> Dict[str, Any]:
    """Control-plane side: start, poll to quiescence, shut down."""
    transport = AsyncioTransport("supervisor", seed=topo.seed,
                                 homes=topo.homes(),
                                 peers=topo.peer_addrs(),
                                 listen=topo.supervisor_addr)
    await transport.start()

    latest: Dict[str, CtrlDigestReply] = {}
    byes: set = set()

    def handler(message: Any, sender: str) -> None:
        if isinstance(message, CtrlDigestReply):
            latest[message.site] = message
        elif isinstance(message, CtrlBye):
            byes.add(message.site)

    transport.attach("supervisor.ctl", handler)

    site_names = [s.name for s in topo.sites]
    dc_names = {s.name for s in topo.dcs}
    client_names = [s.name for s in topo.clients]

    for name in site_names:
        transport.send("supervisor.ctl", f"{name}.ctl",
                       CtrlStart(run_id=topo.name))

    live_digest: Optional[str] = None
    stable = 0
    last_digest: Optional[str] = None
    probe = 0
    t_deadline = time.monotonic() + deadline_s
    while time.monotonic() < t_deadline:
        probe += 1
        for name in site_names:
            transport.send("supervisor.ctl", f"{name}.ctl",
                           CtrlDigestRequest(probe=probe))
        await asyncio.sleep(POLL_INTERVAL_S)
        dc_replies = [r for s, r in latest.items() if s in dc_names]
        ops_done = sum(latest[s].ops_done for s in client_names
                       if s in latest)
        if (len(dc_replies) == len(dc_names) and ops_done >= n_ops
                and len({r.digest for r in dc_replies}) == 1):
            digest = dc_replies[0].digest
            if digest == last_digest:
                stable += 1
                if stable >= STABLE_PROBES:
                    live_digest = digest
                    break
            else:
                stable = 1
                last_digest = digest
        else:
            stable = 0
            last_digest = None

    for name in site_names:
        transport.send("supervisor.ctl", f"{name}.ctl", CtrlShutdown())
    t_grace = time.monotonic() + SHUTDOWN_GRACE_S
    while time.monotonic() < t_grace and len(byes) < len(site_names):
        await asyncio.sleep(0.05)
    await transport.stop()

    return {
        "live_digest": live_digest,
        "converged": live_digest is not None,
        "probes": probe,
        "ops_done": sum(r.ops_done for s, r in latest.items()
                        if s in client_names),
        "byes": sorted(byes),
        "site_digests": {s: r.digest for s, r in sorted(latest.items())},
    }


def run_deployment(topo: Topology,
                   log_dir: Optional[str] = None,
                   log=print) -> Dict[str, Any]:
    """Full smoke deployment + parity check; returns the report."""
    ops = topo.workload()

    log(f"[serve] spawning {len(topo.sites)} site processes")
    procs = {site.name: spawn_site(topo, site.name, log_dir=log_dir)
             for site in topo.sites}

    try:
        log("[serve] running DES reference workload")
        reference = run_reference(topo, ops)
        log(f"[serve] reference digest {reference['digest']} "
            f"(converged={reference['converged']})")

        deadline_s = (topo.window_ms + topo.settle_max_ms) / 1000.0 + 15.0
        live = asyncio.run(_supervise(topo, len(ops), deadline_s))
        log(f"[serve] live digest {live['live_digest']} "
            f"(converged={live['converged']})")
    finally:
        exit_codes = {}
        t_grace = time.monotonic() + SHUTDOWN_GRACE_S
        for name, proc in procs.items():
            timeout = max(0.1, t_grace - time.monotonic())
            try:
                exit_codes[name] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                exit_codes[name] = "killed"

    clean_shutdown = (sorted(live["byes"]) ==
                      sorted(s.name for s in topo.sites)
                      and all(code == 0 for code in exit_codes.values()))
    parity = (live["live_digest"] is not None
              and live["live_digest"] == reference["digest"]
              and live["live_digest"] == reference["expected_digest"])
    report = {
        "benchmark": "serve_smoke",
        "topology": topo.name,
        "seed": topo.seed,
        "sites": len(topo.sites),
        "ops": len(ops),
        "digest_parity": parity,
        "des": reference,
        "live": live,
        "exit_codes": exit_codes,
        "clean_shutdown": clean_shutdown,
        "ok": (parity and clean_shutdown and reference["converged"]
               and live["converged"]),
    }
    return report


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
