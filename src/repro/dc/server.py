"""Shard server: one storage node inside a data centre.

A DC shards objects across servers by consistent hashing (paper section
6.3).  Shard servers store journals and answer the coordinator's 2PC and
read messages.  They are deliberately dumb: ordering, timestamps and
visibility are the coordinator's business (the DC is one SI zone).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Union

from ..core.clock import VectorClock
from ..core.journal import ObjectJournal, ObjectState
from ..core.txn import Transaction
from ..sim.actor import Actor
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from ..store.kv import VersionedStore
from ..store.matcache import MaterialisedCache
from .messages import (ShardAbort, ShardApply, ShardApplyBatch,
                       ShardCommit, ShardCompactMsg, ShardPrepare,
                       ShardRead, ShardReadReply, ShardVote)


class ShardServer(Actor):
    """Stores the journals of the keys it owns."""

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network] = None,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, loop, network, rng)
        self.store = VersionedStore(mat_cache=MaterialisedCache())
        self._prepared: Dict[int, Transaction] = {}

    def on_message(self, message: Any, sender: str) -> None:
        if isinstance(message, ShardPrepare):
            self._on_prepare(message, sender)
        elif isinstance(message, ShardCommit):
            self._on_commit(message, sender)
        elif isinstance(message, ShardAbort):
            self._prepared.pop(message.txid, None)
        elif isinstance(message, ShardApply):
            self.store.apply_transaction(message.txn)
        elif isinstance(message, ShardApplyBatch):
            # Replicated applies batched per drain; FIFO links keep the
            # stream order a single-txn frame would have had.
            for txn in message.txns:
                self.store.apply_transaction(txn)
        elif isinstance(message, ShardRead):
            self._on_read(message, sender)
        elif isinstance(message, ShardCompactMsg):
            covered = message.frontier.get

            def stable(entry) -> bool:
                # Any equivalent commit entry inside the frontier (a
                # symbolic stamp has none); once per journalled entry
                # per round, so no generator and no clock object.
                for dc, ts in entry.txn.commit.entries.items():
                    if covered(dc, 0) >= ts:
                        return True
                return False

            self.store.compact(stable)
        else:
            raise TypeError(f"shard {self.node_id}: unexpected"
                            f" message {message!r}")

    # -- 2PC participant -----------------------------------------------------
    def _on_prepare(self, msg: ShardPrepare, sender: str) -> None:
        # CRDT updates merge rather than conflict, so a shard only refuses
        # when it cannot durably stage the writes (never, in simulation).
        self._prepared[msg.txid] = msg.txn
        self.send(sender, ShardVote(msg.txid, True))

    def _on_commit(self, msg: ShardCommit, sender: str) -> None:
        self._prepared.pop(msg.txid, None)
        # The coordinator's copy carries the assigned commit stamp.
        self.store.apply_transaction(msg.txn)

    # -- reads -------------------------------------------------------------------
    def _on_read(self, msg: ShardRead, sender: str) -> None:
        key = msg.key
        vector = VectorClock(msg.visible_vector)
        extras = frozenset(msg.extra_dots)

        def visible(entry) -> bool:
            return (entry.txn.commit.included_in(vector)
                    or entry.dot in extras)

        if self.store.has_object(key):
            # Snapshot reads mostly arrive at the DC's advancing stable
            # frontier, so the cached state replays only the delta.
            state, dots = self.store.read_with_dots(
                key, visible, type_name=msg.type_name,
                token=(vector, extras))
        else:
            journal = ObjectJournal(key, msg.type_name)
            state = journal.materialise(visible)
            dots = journal.visible_dots(visible)
        self.send(sender, ShardReadReply(
            msg.request_id, ObjectState.of(key, msg.type_name, state, dots)))
