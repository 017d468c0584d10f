"""What a live transaction costs on the wire, pinned in tier-1.

On the live mesh a writer's transaction names its own uncovered commits
as local dependencies, and writes an ``orset`` add and a ``counter``
increment.  The ``UpdatePush`` that carries one such transaction to a
session must encode to at most ``BUDGET`` bytes, so a wire form that
grows back (operations spelled out by name, each dependency repeating
its origin) fails here rather than only on a benchmark.
"""

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, Transaction,
                            WriteOp)
from repro.crdt.base import Operation
from repro.dc.messages import UpdatePush
from repro.transport.codec import decode_frame, encode_frame

#: Body bytes (the frame less its 4-byte length prefix).  Operations by
#: name and one dot record per dependency encoded this push to 266, a
#: string type key and a field tuple to 182.
BUDGET = 158


def live_push() -> UpdatePush:
    vector = {"dc0": 5120, "dc1": 4873, "dc2": 5007}
    txn = Transaction(
        Dot(1042, "w1"), "w1",
        Snapshot(VectorClock(vector),
                 [Dot(counter, "w1") for counter in range(1026, 1042, 2)]),
        CommitStamp({"dc0": 5133}),
        (WriteOp(ObjectKey("live", "doc"),
                 Operation("orset", "add", {"value": "w1:517"})),
         WriteOp(ObjectKey("live", "probe-w1"),
                 Operation("counter", "increment", {"amount": 1}))),
        "w1")
    return UpdatePush((txn,), {**vector, "dc0": 5133}, vector)


def test_a_live_shaped_push_stays_within_its_byte_budget():
    push = live_push()
    assert len(push.txns[0].snapshot.local_deps) == 8
    frame = encode_frame("dc0", "w2", push)
    assert decode_frame(frame[4:]) == ("dc0", "w2", push)
    assert len(frame) - 4 <= BUDGET
