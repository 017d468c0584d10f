"""Client work as :class:`Op` records, run by :func:`run_op`; the
seeded deployment workload and canonical state digests.

An :class:`Op` is one client transaction on one object, a read or one
CRDT update, and :func:`run_op` is the one way every workload (the
deployment, chaos, obs, the scale sweep, the ablations and the paper's
figures) runs it on an actor.

The deployment workload is a pure function of the topology: ``seed``
fixes every operation (which client, which key, which CRDT update,
when).  All operations are *local* client transactions — locally
committed CRDT updates are exactly once by dot dedup, so any run that
commits every operation and converges holds the same final state,
whether the clock was simulated or real.  That makes the digest
comparison content-based and timing-independent: the DES reference, the live deployment, and the
analytic expectation (folding the op list) must all agree.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.txn import ObjectKey

#: ``Op.method`` of a read: a name no CRDT effect uses.
READ = "read"


@dataclass(frozen=True)
class Op:
    """One client transaction: a read of one object, or one update."""

    at_ms: float           # when to issue it, in its workload's time base
    client: str            # site (and protocol node) name, or trace user
    key: ObjectKey
    type_name: str
    method: str            # READ, or a CRDT update method
    args: Tuple = ()


def run_op(actor: Any, op: Op, on_done: Optional[Callable] = None,
           on_abort: Optional[Callable[[Exception], None]] = None) -> None:
    """Run ``op`` as one transaction on an edge node, a group member or
    a cloud client (which reports an abort through ``on_done``'s stats
    and never calls ``on_abort``)."""
    if op.method == READ:
        reads, updates = [(op.key, op.type_name)], []
    else:
        reads, updates = [], [(op.key, op.type_name, op.method, op.args)]
    actor.execute(reads=reads, updates=updates, on_done=on_done,
                  on_abort=on_abort)


def generate_ops(seed: int, clients: Sequence[str],
                 keys: Sequence[Tuple[ObjectKey, str]],
                 n_txns: int, window_ms: float) -> List[Op]:
    """The deployment's op list; deterministic for (seed, topology)."""
    rng = random.Random(f"serve-workload/{seed}")
    span = max(window_ms - 200.0, 100.0)
    ops = []
    for i in range(n_txns):
        at = rng.uniform(50.0, span)
        client = rng.choice(list(clients))
        key, type_name = rng.choice(list(keys))
        if type_name == "counter":
            method, args = "increment", (rng.randint(1, 5),)
        else:
            method, args = "add", (f"{client}:{i}",)
        ops.append(Op(at, client, key, type_name, method, args))
    return ops


def expected_state(keys: Sequence[Tuple[ObjectKey, str]],
                   ops: Sequence[Op]) -> Dict[ObjectKey, Any]:
    """Fold the op list into the final CRDT state it must produce.

    Reads change nothing; an update other than a counter ``increment``
    or a set ``add`` has no fold here and raises ``ValueError``.
    """
    state: Dict[ObjectKey, Any] = {
        key: (0 if type_name == "counter" else set())
        for key, type_name in keys}
    for op in ops:
        if op.method == "increment":
            state[op.key] += op.args[0]
        elif op.method == "add":
            state[op.key].add(op.args[0])
        elif op.method != READ:
            raise ValueError(f"no fold for {op.method!r} on {op.key}")
    return state


def _canonical_value(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return sorted(value)
    return value


def canonical_digest(digest: Dict[ObjectKey, Any]) -> str:
    """Content-addressed hex digest of a ``state_digest()`` mapping.

    Keys sort lexically and set-valued CRDT states sort internally, so
    the digest is independent of dict order, hash seed, and backend.
    Empty-valued keys (counter 0 / empty set) are dropped: a replica
    that never saw a key and one that saw only no-ops agree.
    """
    canon = {}
    for key, value in digest.items():
        value = _canonical_value(value)
        if value == 0 or value == []:
            continue
        canon[f"{key.bucket}/{key.key}"] = value
    raw = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()
