"""Property: the in-order journal append is the sorted insert it replaced.

``ObjectJournal.append`` compares a new entry with the tail and falls
back to a bisect over precomputed tuples; it used to ``insort`` through
a Python ``__lt__`` and tag every write of the transaction to keep the
matching ones.  The old code is kept here **verbatim** as the oracle
(``HeadEntry``, ``HeadJournal``: the parent commit's ``JournalEntry``
and the ``ObjectJournal`` methods an append can influence), and any
arrival order of dots from one to five origins — duplicates included,
transactions writing the key zero, one or two times among writes to
other keys, the base advanced somewhere in the middle — must leave both
journals with the same ``append`` return values, ``entries()``,
``applied_dots()`` and ``materialise()``.

Each append also says which path it must have taken (after the tail, or
the bisect), so no example passes by never leaving the fast path.
"""

from bisect import insort
from typing import List
from unittest import mock

from hypothesis import given, strategies as st

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.core import journal as journal_module
from repro.core.journal import ObjectJournal
from repro.crdt import LWWRegister
from repro.crdt.base import Operation, new_crdt

KEY = ObjectKey("b", "x")
OTHER = ObjectKey("b", "y")
ORIGINS = ["a", "b", "c", "d", "e"]


# -- the parent commit's code, verbatim -----------------------------------

class HeadEntry:
    """One transaction's updates to one object."""

    __slots__ = ("dot", "txn", "ops")

    def __init__(self, txn: Transaction, ops: List[Operation]):
        self.dot = txn.dot
        self.txn = txn
        self.ops = ops  # already tagged

    def sort_key(self):
        return self.dot.as_tuple()

    def __lt__(self, other: "HeadEntry") -> bool:
        return self.sort_key() < other.sort_key()


class HeadJournal:
    def __init__(self, key, type_name):
        self.key = key
        self.type_name = type_name
        self._base = new_crdt(type_name)
        self._base_dots = set()
        self._entries = []  # kept sorted by dot
        self._index = {}
        self.version = 0
        self.base_version = 0

    def append(self, txn: Transaction) -> bool:
        if txn.dot in self._index or txn.dot in self._base_dots:
            return False
        ops = [w.op for w in txn.tagged_writes() if w.key == self.key]
        if not ops:
            return False
        entry = HeadEntry(txn, ops)
        insort(self._entries, entry)
        self._index[txn.dot] = entry
        self.version += 1
        return True

    def has(self, dot: Dot) -> bool:
        return dot in self._index or dot in self._base_dots

    def materialise(self, visible=None):
        state = self._base.clone()
        for entry in self._entries:
            if visible is None or visible(entry):
                for op in entry.ops:
                    state.apply(op)
        return state

    def advance_base(self, stable) -> int:
        entries = self._entries
        folded = 0
        while folded < len(entries) and stable(entries[folded]):
            folded += 1
        if not folded:
            return 0
        for entry in entries[:folded]:
            del self._index[entry.dot]
            for op in entry.ops:
                self._base.apply(op)
            self._base_dots.add(entry.dot)
        self._entries = entries[folded:]
        self.version += 1
        self.base_version += 1
        return folded

    def applied_dots(self) -> List[Dot]:
        dots = sorted(self._base_dots)
        dots.extend(entry.dot for entry in self._entries)
        return dots

    def entries(self):
        return list(self._entries)


# -- the comparison ---------------------------------------------------------

def make_txn(dot, keys):
    """One LWW assignment per key; the register keeps the winning tag,
    so a wrong write index or a wrong apply order shows."""
    writes = [WriteOp(key, LWWRegister().prepare(
        "assign", f"{dot.origin}{dot.counter}.{i}"))
        for i, key in enumerate(keys)]
    return Transaction(dot, dot.origin, Snapshot(VectorClock()),
                       CommitStamp({"dc0": dot.counter}), writes)


def observable(journal):
    return ([(e.dot, e.txn, [op.to_dict() for op in e.ops])
             for e in journal.entries()],
            journal.applied_dots(),
            journal.materialise().to_dict(),
            journal.version, journal.base_version)


@st.composite
def arrivals(draw):
    origins = ORIGINS[:draw(st.integers(1, 5))]
    dots = draw(st.lists(
        st.builds(Dot, st.integers(1, 12), st.sampled_from(origins)),
        min_size=1, max_size=40))
    txns = {}
    for dot in set(dots):
        keys = [KEY] * draw(st.integers(0, 2)) \
            + [OTHER] * draw(st.integers(0, 2))
        txns[dot] = make_txn(dot, draw(st.permutations(keys)))
    return ([txns[dot] for dot in dots],
            draw(st.integers(0, len(dots))), draw(st.integers(0, 12)))


@given(arrivals())
def test_append_matches_the_sorted_insert_it_replaced(case):
    sequence, fold_at, fold_upto = case
    new = ObjectJournal(KEY, "lwwregister")
    head = HeadJournal(KEY, "lwwregister")
    bisects = mock.Mock(side_effect=insort)
    with mock.patch.object(journal_module, "insort", bisects):
        for step, txn in enumerate(sequence):
            if step == fold_at:
                def stable(entry):
                    return entry.dot.counter <= fold_upto
                assert new.advance_base(stable) == head.advance_base(stable)
            tail = head._entries[-1].dot if head._entries else None
            bisects.reset_mock()
            accepted = head.append(txn)
            assert new.append(txn) == accepted
            # After the tail unless it sorts before it; never for a
            # refused transaction.
            assert bisects.call_count == int(
                accepted and tail is not None and txn.dot < tail)
            assert new.has(txn.dot) == head.has(txn.dot)
            assert observable(new) == observable(head)


def test_both_append_paths_are_taken():
    """In stream order nothing is bisected; in reverse everything is."""
    txns = [make_txn(Dot(i, "a"), [KEY]) for i in range(1, 21)]
    for order, expected in ((txns, 0), (txns[::-1], len(txns) - 1)):
        journal = ObjectJournal(KEY, "lwwregister")
        bisects = mock.Mock(side_effect=insort)
        with mock.patch.object(journal_module, "insort", bisects):
            for txn in order:
                assert journal.append(txn)
        assert bisects.call_count == expected
        assert [e.dot for e in journal.entries()] \
            == [t.dot for t in txns]
