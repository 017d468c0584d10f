"""Control-plane messages and the per-site control agent.

The supervisor steers a live deployment entirely through protocol
messages — the control plane rides the same transport and codec as the
data plane, so there is no second RPC mechanism to keep alive.  Each
site attaches a :class:`ControlAgent` under ``<site>.ctl``; the
supervisor's own agent is ``supervisor.ctl``.

The messages are registered with the wire codec exactly like protocol
messages: each has an id in the codec's fixed table, and the module
registers at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.actor import Actor
from ..transport.codec import register_module


@dataclass(frozen=True, slots=True)
class CtrlStart:
    """Supervisor -> site: begin the site's workload slice."""

    run_id: str


@dataclass(frozen=True, slots=True)
class CtrlDigestRequest:
    """Supervisor -> site: report state digest and progress."""

    probe: int


@dataclass(frozen=True, slots=True)
class CtrlDigestReply:
    """Site -> supervisor: canonical digest plus workload progress."""

    probe: int
    site: str
    role: str
    digest: str          # canonical hex digest of local state
    ops_done: int
    ops_total: int


@dataclass(frozen=True, slots=True)
class CtrlShutdown:
    """Supervisor -> site: stop the process cleanly."""

    reason: str = "done"


@dataclass(frozen=True, slots=True)
class CtrlBye:
    """Site -> supervisor: acknowledging shutdown."""

    site: str


register_module(__name__)


class ControlAgent(Actor):
    """One site's control endpoint (``<site>.ctl``)."""

    def __init__(self, site: str, transport: Any, *,
                 role: str,
                 digest_fn: Callable[[], str],
                 progress_fn: Callable[[], tuple],
                 on_start: Optional[Callable[[], None]] = None,
                 on_shutdown: Optional[Callable[[], None]] = None):
        super().__init__(f"{site}.ctl", transport, None)
        self.site = site
        self.role = role
        self.digest_fn = digest_fn
        self.progress_fn = progress_fn
        self.on_start = on_start
        self.on_shutdown = on_shutdown
        self._started = False

    def on_message(self, message: Any, sender: str) -> None:
        if isinstance(message, CtrlStart):
            if not self._started:
                self._started = True
                if self.on_start is not None:
                    self.on_start()
        elif isinstance(message, CtrlDigestRequest):
            ops_done, ops_total = self.progress_fn()
            self.send(sender, CtrlDigestReply(
                probe=message.probe, site=self.site, role=self.role,
                digest=self.digest_fn(), ops_done=ops_done,
                ops_total=ops_total))
        elif isinstance(message, CtrlShutdown):
            self.send(sender, CtrlBye(site=self.site))
            if self.on_shutdown is not None:
                self.on_shutdown()
