"""Interactive transaction execution at an edge node.

Application code is a generator so that a read (or update) that misses the
local cache can suspend the transaction while the object is fetched from a
peer or the connected DC:

    def body(tx):
        value = yield tx.read(key, "counter")
        if value < 10:
            yield tx.update(key, "counter", "increment", 1)
        return value

    node.run_transaction(body, on_done=...)

Reads come from the transaction's snapshot (plus its own writes); updates
are prepared immediately and journalled at commit (paper section 4.1).

The snapshot states are the node's cached materialisations, shared and
never mutated here.  A key's first update is prepared against the shared
state and its tagged effect is only *buffered*; the private copy —
snapshot state plus own effects — is built when the transaction comes
back to that key (a read after the write, or a further update whose
``prepare`` must observe the first).  A transaction that updates each
key once, the common shape, therefore never copies an object, however
large the shared document has grown.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..core.txn import ObjectKey, Snapshot, WriteOp
from ..crdt.base import OpBasedCRDT, Operation


class AbortTransaction(Exception):
    """Raised by application code to abort the current transaction."""


class ReadIntent:
    """Sentinel yielded by ``tx.read``; resolved by the engine."""

    __slots__ = ("key", "type_name")

    def __init__(self, key: ObjectKey, type_name: str):
        self.key = key
        self.type_name = type_name


class UpdateIntent:
    """Sentinel yielded by ``tx.update``."""

    __slots__ = ("key", "type_name", "method", "args")

    def __init__(self, key: ObjectKey, type_name: str, method: str,
                 args: Tuple[Any, ...]):
        self.key = key
        self.type_name = type_name
        self.method = method
        self.args = args


class TransactionContext:
    """Snapshot-scoped read/update buffer of one interactive transaction."""

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        # Materialised snapshot states, shared with the node's
        # materialisation cache except for the keys in ``_owned``, which
        # are private copies carrying this transaction's effects.
        self.states: Dict[ObjectKey, OpBasedCRDT] = {}
        self.writes: List[WriteOp] = []
        self._owned: set = set()
        # First effect on a still-shared key, applied once a copy exists.
        self._deferred: Dict[ObjectKey, Operation] = {}
        self.started_at: float = 0.0
        # How the transaction's reads were served, worst case:
        # "client" < "peer" < "dc" (for the latency benchmarks).
        self.served_by = "client"

    # -- application-facing intents ------------------------------------------
    def read(self, key: ObjectKey, type_name: str) -> ReadIntent:
        return ReadIntent(key, type_name)

    def update(self, key: ObjectKey, type_name: str, method: str,
               *args: Any) -> UpdateIntent:
        return UpdateIntent(key, type_name, method, tuple(args))

    # -- engine side -------------------------------------------------------------
    def _own_view(self, key: ObjectKey) -> OpBasedCRDT:
        """The state of ``key`` including this transaction's effects."""
        state = self.states[key]
        effect = self._deferred.pop(key, None)
        if effect is not None:
            state = state.clone()
            state.apply(effect)
            self.states[key] = state
            self._owned.add(key)
        return state

    def resolve_read(self, key: ObjectKey) -> Any:
        return self._own_view(key).value()

    def apply_update(self, intent: UpdateIntent, tag_index: int,
                     dot_hint) -> None:
        """Prepare against the transaction's view and buffer the write."""
        key = intent.key
        state = self._own_view(key)
        op = state.prepare(intent.method, *intent.args)
        # Later reads in this txn must see the effect; the provisional
        # tag is replaced at commit by Transaction.tag_for, which uses
        # the same (dot, index) shape, so effects agree.
        effect = op.with_tag((dot_hint[0], dot_hint[1], tag_index))
        if key in self._owned:
            state.apply(effect)
        else:
            self._deferred[key] = effect
        self.writes.append(WriteOp(key, op))

    def note_serving(self, source: str) -> None:
        rank = {"client": 0, "peer": 1, "dc": 2}
        if rank[source] > rank[self.served_by]:
            self.served_by = source

    @property
    def is_read_only(self) -> bool:
        return not self.writes
