"""Cache-less cloud client — the AntidoteDB/Cure baseline (section 7.3).

"In the last configuration 'AntidoteDB', clients have no local cache at
all, and must contact the DC for each operation."  Every transaction is a
``RemoteTxnRequest`` round trip to the connected DC, which executes it
under SI inside the DC and geo-replicates it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.txn import ObjectKey
from ..dc.messages import RemoteTxnReply, RemoteTxnRequest
from ..sim.actor import Actor
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from .node import TxnStats


class CloudClient(Actor):
    """A thin client executing every transaction remotely in the DC."""

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network],
                 dc_id: str, user: Optional[str] = None,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, loop, network, rng)
        self.connected_dc = dc_id
        self.user = user or node_id
        self._next_request = 0
        self._pending: Dict[int, Tuple[float, Optional[Callable]]] = {}
        self.txn_stats: List[TxnStats] = []

    def execute(self, reads: List[Tuple[ObjectKey, str]] = (),
                updates: List[Tuple[ObjectKey, str, str, tuple]] = (),
                on_done: Optional[Callable[[Any, TxnStats], None]] = None,
                on_abort: Optional[Callable[[Exception], None]] = None) \
            -> None:
        """Run one remote transaction; mirrors ``EdgeNode.execute``.

        ``on_abort`` is never called: the DC reports an abort through
        ``on_done``, with ``stats.aborted`` set."""
        request_id = self._next_request
        self._next_request += 1
        # The DC assigns the dot (Lamport-ordered after everything it has
        # applied); retries are deduplicated by (client, request) id.
        request = RemoteTxnRequest(
            client_id=self.node_id,
            request_id=request_id,
            reads=tuple((k, t) for k, t in reads),
            updates=tuple((k, t, m, tuple(a)) for k, t, m, a in updates),
            issuer=self.user,
        )
        self._pending[request_id] = (self.now, on_done)
        self.send(self.connected_dc, request)

    def state_digest(self) -> Dict[ObjectKey, Any]:
        """Nothing: the client keeps no state (a live site reports it)."""
        return {}

    def on_message(self, message: Any, sender: str) -> None:
        if not isinstance(message, RemoteTxnReply):
            raise TypeError(f"cloud client {self.node_id}: unexpected"
                            f" message {message!r}")
        pending = self._pending.pop(message.request_id, None)
        if pending is None:
            return
        start, on_done = pending
        stats = TxnStats(start, self.now, "dc",
                         read_only=not message.commit_entries,
                         aborted=not message.committed)
        self.txn_stats.append(stats)
        if on_done is not None:
            on_done(message.values, stats)
