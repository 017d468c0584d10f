"""Retained-objects guard: a site holds one object per dot, not one per
mention.

Count-based, no timers.  One writer's transactions are pushed as 200
``UpdatePush`` frames; each snapshot lists the writer's previous 8 dots
as its local deps (read-my-writes), so every dot is mentioned up to nine
times.  All 200 are decoded and kept, as a site keeps what it admits,
and the ``Dot`` and ``ObjectKey`` objects reachable from them are
counted.  When every decode built a fresh ``Dot`` per mention, the
count was about nine times the number of distinct dots, and the cyclic
collector walked each copy on every full pass.
"""

import gc
from types import FunctionType, ModuleType

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, Transaction,
                            WriteOp)
from repro.crdt.base import Operation
from repro.dc.messages import UpdatePush
from repro.transport import codec
from repro.transport.codec import decode_frame, encode_frame

N_PUSHES = 200
N_DEPS = 8
WRITER = "w0"
KEYS = tuple(ObjectKey("app", f"doc{i}") for i in range(4))


def pushes():
    """The writer's pushes: transaction ``k`` writes one of ``KEYS`` and
    depends on the writer's ``N_DEPS`` dots before it."""
    for k in range(1, N_PUSHES + 1):
        deps = [Dot(c, WRITER) for c in range(max(1, k - N_DEPS), k)]
        write = WriteOp(KEYS[k % len(KEYS)],
                        Operation("counter", "increment", {"amount": 1}))
        txn = Transaction(Dot(k, WRITER), WRITER,
                          Snapshot(VectorClock({"dc0": k}), deps),
                          CommitStamp({"dc0": k}), (write,))
        yield UpdatePush((txn,), {"dc0": k}, {"dc0": k - 1})


def reachable(roots, cls):
    """The distinct objects of exactly ``cls`` reachable from ``roots``,
    by identity; classes, modules and functions are not followed."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType,
                                               FunctionType)):
            continue
        seen.add(id(obj))
        if type(obj) is cls:
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(found.values())


def test_a_decoded_dot_is_held_once_however_often_it_is_named():
    frames = [encode_frame("dc0", "edge-1", push)[4:] for push in pushes()]
    # Far fewer values than the table holds: it is never emptied midway.
    codec._DEC_VALUES.clear()
    kept = [decode_frame(body)[2] for body in frames]

    dots = reachable(kept, Dot)
    mentions = sum(1 + len(push.txns[0].snapshot.local_deps)
                   for push in kept)
    assert mentions > 8 * N_PUSHES
    assert len(dots) == len(set(dots)) == N_PUSHES
    keys = reachable(kept, ObjectKey)
    assert len(keys) == len(set(keys)) == len(KEYS)
