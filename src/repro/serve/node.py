"""One deployment site as one OS process.

``python -m repro.serve --topology T --node NAME`` lands here: build
the site's protocol actor over an :class:`AsyncioTransport`, join the
deployment (sessions, group bootstrap), run the site's slice of the
seeded workload when the supervisor says go, answer digest probes, and
exit cleanly on ``CtrlShutdown``.

Each site writes a JSON-lines log (boot, workload progress, shutdown)
so a failed smoke deployment can be diagnosed from the uploaded CI
artifacts.

This module runs under the real asyncio backend, never under the DES,
so wall-clock reads are correct here.
# colony-lint: disable-file=D101
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from ..transport.asyncio_backend import AsyncioTransport
from .builder import bootstrap_group, build_site
from .control import ControlAgent
from .topology import Topology
from .workload import Op, canonical_digest

#: A site that never hears from the supervisor gives up eventually, so
#: an orphaned process (supervisor crash) cannot linger forever.
ORPHAN_TIMEOUT_S = 180.0


class _NodeLog:
    """JSON-lines event log; line-buffered so crashes keep the tail."""

    def __init__(self, stream: TextIO):
        self.stream = stream
        self._t0 = time.monotonic()

    def write(self, event: str, **fields: Any) -> None:
        record = {"t_ms": round((time.monotonic() - self._t0) * 1000, 3),
                  "event": event, **fields}
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.stream.flush()


async def run_node(topo: Topology, site_name: str,
                   log_stream: Optional[TextIO] = None) -> Dict[str, Any]:
    """Run one site until shutdown; returns a summary dict."""
    site = topo.by_name[site_name]
    log = _NodeLog(log_stream or sys.stderr)
    transport = AsyncioTransport(site.name, seed=topo.seed,
                                 homes=topo.homes(),
                                 peers=topo.peer_addrs(),
                                 listen=site.addr)
    await transport.start()
    log.write("boot", site=site.name, role=site.role,
              listen=f"{site.host}:{site.port}", seed=topo.seed)

    actor = build_site(transport, topo, site)
    if site.role in ("edge", "pop"):
        actor.connect()
    elif site.role == "member":
        bootstrap_group(topo, actor)

    my_ops: List[Op] = [op for op in topo.workload()
                        if op.client == site.name]
    progress = {"done": 0, "aborted": 0}

    def fire_op(op: Op) -> None:
        def body(tx):
            yield tx.update(op.key, op.type_name, op.method, *op.args)

        def done(result, stats):
            progress["done"] += 1
            log.write("op_committed", done=progress["done"],
                      total=len(my_ops))

        def abort(exc):
            progress["aborted"] += 1
            log.write("op_aborted", error=repr(exc))

        actor.run_transaction(body, on_done=done, on_abort=abort)

    def start_workload() -> None:
        log.write("workload_start", ops=len(my_ops))
        for op in my_ops:
            transport.schedule_fast(op.at_ms, fire_op, (op,))

    stop = asyncio.Event()
    ControlAgent(
        site.name, transport, role=site.role,
        digest_fn=lambda: canonical_digest(actor.state_digest()),
        progress_fn=lambda: (progress["done"], len(my_ops)),
        on_start=start_workload,
        on_shutdown=stop.set)

    try:
        await asyncio.wait_for(stop.wait(), timeout=ORPHAN_TIMEOUT_S)
        clean = True
    except asyncio.TimeoutError:
        log.write("orphan_timeout")
        clean = False
    # Give the CtrlBye frame one loop turn to reach the wire.
    await asyncio.sleep(0.05)
    await transport.stop()
    summary = {"site": site.name, "role": site.role,
               "ops_done": progress["done"],
               "ops_aborted": progress["aborted"],
               "clean": clean,
               "unroutable": transport.unroutable,
               "malformed": transport.malformed,
               "dropped": transport.stats.messages_dropped,
               "messages_sent": transport.stats.messages_sent}
    log.write("shutdown", **summary)
    return summary
