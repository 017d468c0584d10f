"""K-stability bookkeeping (paper section 3.8).

A transaction becomes visible to edge nodes only once it is known at >= K
data centres; the higher K, the likelier that after a migration the new DC
already holds the dependencies of the edge node's state.  DCs learn each
other's holdings through replication messages that carry the set of DCs
known to store the transaction; receivers union and re-gossip, so counts
converge monotonically.

A DC keeps its holder sets in
:class:`~repro.dc.stability.StabilityFrontier`, which ends a set when its
dot is released; this tracker keeps every set and counts it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from .dot import Dot


class KStabilityTracker:
    """Tracks, per transaction dot, the set of DCs known to hold it."""

    def __init__(self, k_target: int):
        if k_target < 1:
            raise ValueError("K must be at least 1")
        self.k_target = k_target
        self._holders: Dict[Dot, Set[str]] = {}

    def record(self, dot: Dot, dc_ids: Iterable[str]) -> int:
        """Merge knowledge that ``dc_ids`` hold ``dot``; return new count."""
        holders = self._holders.setdefault(dot, set())
        holders.update(dc_ids)
        return len(holders)

    def count(self, dot: Dot) -> int:
        return len(self._holders.get(dot, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KStabilityTracker(K={self.k_target},"
                f" tracked={len(self._holders)})")
