"""Colony's core contribution: TCC+ metadata, journals and visibility.

* :mod:`repro.core.clock` — per-DC vector timestamps and Lamport clocks;
* :mod:`repro.core.dot` — unique transaction ids + duplicate suppression;
* :mod:`repro.core.txn` — transactions with snapshot vectors and (possibly
  symbolic, possibly multi-equivalent) commit stamps;
* :mod:`repro.core.journal` — base version + update journal per object;
* :mod:`repro.core.kstable` — K-stability gate for edge visibility.
"""

from .clock import LamportClock, VectorClock, lub
from .dot import Dot, DotTracker
from .journal import JournalEntry, ObjectJournal, ObjectState, Visibility
from .kstable import KStabilityTracker
from .txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry, Transaction,
                  WriteOp)

__all__ = [
    "LamportClock", "VectorClock", "lub",
    "Dot", "DotTracker",
    "CommitStamp", "ObjectKey", "Snapshot", "StreamEntry", "Transaction",
    "WriteOp",
    "JournalEntry", "ObjectJournal", "ObjectState", "Visibility",
    "KStabilityTracker",
]
