"""Indexed PSI certification over a group's visibility log.

The PSI rule (see :class:`~repro.groups.ordering.CertifiedOrder`): a
transaction aborts when a conflicting one sits between its snapshot and
its slot, i.e. when some earlier entry of the visibility log wrote one of
its keys and is *not covered* by its snapshot — neither named in
``local_deps`` nor, once its commit stamp is concrete, included in the
snapshot vector.  The verdict is therefore a function of the visibility
order *and* of the stamps this member holds when it certifies; stamps
resolve at different times on different members, so two members can
reach different verdicts on one transaction (DESIGN §9).
Only writers of the transaction's own keys can decide that, so the log
is indexed by written key and certification walks those lists newest
first, with the same three tests the full reverse scan of the log
applies (``tests/property/test_group_properties.py`` keeps that scan as
the oracle).

**The settled prefix.**  A key's older writers all end up with concrete
stamps, and a stamp never loses or changes an entry: a writer's stamp is
only ever replaced by one with an entry more
(:meth:`~repro.core.txn.CommitStamp.with_entry`), and the index reads it
off the writer each time.  Per key the index therefore folds the leading
run of concrete writers into a *floor*: for every DC at which *all* of
them hold an entry, the largest timestamp among them.  A snapshot vector
that reaches the floor at one such DC includes every one of those
stamps, so the walk stops there without visiting them; a vector that
does not is compared with each of them as before.  The floor only ever
summarises facts that stay true, so the verdict equals the full scan's
on every input, whatever the commit stamps do between two
certifications.  A writer whose stamp never resolves (or a run of
writers with no DC in common) stops the prefix growing on that key,
which then costs a walk of its writers again.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.clock import VectorClock
from ..core.txn import ObjectKey, Transaction


class _KeyWriters:
    """Log-ordered writers of one key and their settled prefix."""

    __slots__ = ("writers", "settled", "floor")

    def __init__(self) -> None:
        self.writers: List[Transaction] = []
        #: ``writers[:settled]`` all hold an entry at every DC of
        #: ``floor``, none above the timestamp recorded there.
        self.settled = 0
        self.floor: Dict[str, int] = {}

    def settle(self) -> None:
        """Fold newly concrete writers into the prefix."""
        writers, settled, floor = self.writers, self.settled, self.floor
        while settled < len(writers):
            entries = writers[settled].commit.entries
            if not entries:
                break
            if settled:
                floor = {dc: max(ts, entries[dc])
                         for dc, ts in floor.items() if dc in entries}
                if not floor:
                    break
            else:
                floor = dict(entries)
            settled += 1
            self.settled, self.floor = settled, floor

    def prefix_included_in(self, vector: VectorClock) -> bool:
        return any(vector[dc] >= ts for dc, ts in self.floor.items())


class LogWriters:
    """Per-key index of a visibility log, answering the PSI check."""

    def __init__(self) -> None:
        self._by_key: Dict[ObjectKey, _KeyWriters] = {}
        #: Log entries compared with a snapshot so far, over all
        #: certifications (the tier-1 growth guard reads it).
        self.examined = 0

    def add(self, txn: Transaction) -> None:
        """Record a transaction appended to the visibility log."""
        for key in txn.key_set:
            slot = self._by_key.get(key)
            if slot is None:
                slot = self._by_key[key] = _KeyWriters()
            slot.writers.append(txn)

    def conflicts(self, txn: Transaction) -> bool:
        """Does a logged writer of ``txn``'s keys escape its snapshot?"""
        deps = txn.snapshot.local_deps
        vector = txn.snapshot.vector
        for key in txn.key_set:
            slot = self._by_key.get(key)
            if slot is None:
                continue
            slot.settle()
            writers = slot.writers
            index = len(writers)
            while index:
                if index == slot.settled \
                        and slot.prefix_included_in(vector):
                    break
                index -= 1
                self.examined += 1
                prior = writers[index]
                if prior.dot in deps:
                    continue
                if not prior.commit.is_symbolic \
                        and prior.commit.included_in(vector):
                    continue
                return True
        return False
