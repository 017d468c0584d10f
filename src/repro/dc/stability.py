"""The K-stable frontier of one DC (paper section 3.8), sans-io.

A transaction is shown to edge nodes once it is known at ``K`` data
centres *and* everything it depends on is already shown: the stable
vector stays a causally closed cut.  :class:`StabilityFrontier` owns
what that takes — the applied vector last heard from each peer, the
holder set of every dot (the :class:`KStabilityTracker`'s map, written
in place), the released dots and the stable vector — and reads the DC's
:class:`~repro.dc.commitlog.CommitLog`, which the sequencer and the
replication receiver write.  It sends nothing and records no span:
:meth:`advance` returns the run it released, which is also what the DC
has to push.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.kstable import KStabilityTracker
from .commitlog import CommitLog
from .interest import InterestGraph

_ZERO = VectorClock.zero()

#: A released stream position: ``(origin, ts, dot)``.
Release = Tuple[str, int, Dot]


def delivery_order(run: List[Release]) -> List[Dot]:
    """The dots of a released run in dot order, which linearly extends
    causality: a safe delivery order.  A dot released on two streams (a
    migration duplicate) is delivered once."""
    dots = {dot.as_tuple(): dot for _origin, _ts, dot in run}
    return [dots[order] for order in sorted(dots)]


class StabilityFrontier:
    """Who holds what, and how far each stream is stable."""

    def __init__(self, node_id: str, k_target: int,
                 interest: InterestGraph, log: CommitLog):
        self.node_id = node_id
        self.k_target = k_target
        self.interest = interest
        self.kstab = KStabilityTracker(k_target)
        # Readers go through the tracker; the folds below write the
        # sets without a call per holder.
        self._holders: Dict[Dot, Set[str]] = self.kstab._holders
        self._streams = log.streams     # origin -> ts -> dot
        self._txns = log.txns
        self._seen = log.dots.seen      # was this dot ever applied here?
        self._skip_covered = log.covered
        self._peer_applied: Dict[str, VectorClock] = {}
        #: Every dot inside the stable cut.
        self.stable_dots: Set[Dot] = set()
        self.stable_vector = _ZERO

    def known_holders(self, origin: str, ts: int,
                      dot: Optional[Dot] = None) -> Set[str]:
        """Us plus every peer whose applied vector covers (origin, ts).
        That only proves the peer *resolved* the position; given the
        ``dot``, it counts only if its interest intersects the entry's
        shards."""
        holders = {self.node_id}
        check = dot is not None and self.interest.prunes
        for peer, vector in self._peer_applied.items():
            if vector[origin] >= ts and (
                    not check or self.interest.peer_holds(peer, dot)):
                holders.add(peer)
        return holders

    def record(self, dot: Dot, holders: Set[str]) -> None:
        """``holders`` (a set this call may keep) hold ``dot``."""
        held = self._holders.get(dot)
        if held is None:
            self._holders[dot] = holders
        else:
            held.update(holders)

    def credit(self, dot: Dot, peer: str) -> bool:
        """``peer`` was handed ``dot``.  False once the dot is stable:
        holder sets only gate stability."""
        if dot in self.stable_dots:
            return False
        self.record(dot, {peer})
        return True

    def fill(self, origin: str, ts: int, dot: Dot) -> None:
        """``dot`` was stored at an already resolved position.  If the
        stable frontier hopped it while it was skip-covered, the dot is
        part of the cut: entries naming it as a local dependency must
        see it as released."""
        if ts <= self.stable_vector[origin]:
            self.stable_dots.add(dot)

    def note_peer_applied(self, peer: str, vector: VectorClock,
                          applied: VectorClock) -> bool:
        """Fold a peer's applied vector into holder knowledge: every
        newly covered position we know the dot of is credited to it,
        if its interest intersects the entry.  Positions past
        ``applied``, our own frontier, are picked up at apply time by
        :meth:`known_holders`.  False on a stale vector: nothing changed.
        """
        known = self._peer_applied.get(peer, _ZERO)
        if vector.leq(known):
            return False
        merged = self._peer_applied[peer] = known.merge(vector)
        stable_dots = self.stable_dots
        holders = self._holders
        holds = self.interest.peer_holds if self.interest.prunes else None
        for origin in merged:
            stream = self._streams.get(origin)
            if not stream:
                continue
            # Every dot at or below the stable frontier is released
            # (see fill): start above it.
            lo = max(known[origin], self.stable_vector[origin])
            for ts in range(lo + 1, min(merged[origin],
                                        applied[origin]) + 1):
                dot = stream.get(ts)
                if (dot is None or dot in stable_dots
                        or (holds and not holds(peer, dot))):
                    continue
                held = holders.get(dot)
                if held is None:
                    holders[dot] = {peer}
                else:
                    held.add(peer)
        return True

    def advance(self) -> Optional[List[Release]]:
        """Move every stream's stable frontier as far as it goes.

        A head is released when it is K-stable (among the replicas that
        can hold it, where pruning shrank that set), its snapshot vector
        is inside the cut and its symbolic dependencies were released —
        one never seen here was pruned from the stream that carried it:
        nothing to wait for.  A skip-covered position holds nothing and
        is hopped.  Streams unblock one another, so the sweep repeats
        until nothing moves.  Returns the run in release order, ``None``
        when the cut did not move.
        """
        # A plain dict: a long run would otherwise rebuild an immutable
        # clock per released transaction.
        stable = self.stable_vector.to_dict()
        in_cut = stable.get
        holders_of = self._holders.get
        stable_dots = self.stable_dots
        k_target = self.k_target
        required_k = self.interest.required_k \
            if self.interest.prunes else None
        released: List[Release] = []
        moved = False
        progress = True
        while progress:
            progress = False
            for origin, stream in self._streams.items():
                frontier = start = in_cut(origin, 0)
                while True:
                    ts = frontier + 1
                    dot = stream.get(ts)
                    if dot is None:
                        if self._skip_covered(origin, ts) is None:
                            break
                        frontier = stable[origin] = ts
                        continue
                    held = len(holders_of(dot, ()))
                    if held < k_target and (
                            required_k is None
                            or held < required_k(dot, k_target)):
                        break
                    txn = self._txns.get(dot)
                    if txn is None:  # pragma: no cover - defensive
                        break
                    snapshot = txn.snapshot
                    vector = snapshot.vector
                    for dc in vector:
                        if vector[dc] > in_cut(dc, 0):
                            break   # blocked on another stream's frontier
                    else:
                        if snapshot.local_deps and not all(
                                d in stable_dots or not self._seen(d)
                                for d in snapshot.local_deps):
                            break
                        frontier = stable[origin] = ts
                        stable_dots.add(dot)
                        released.append((origin, ts, dot))
                        continue
                    break
                if frontier != start:
                    progress = moved = True
        if not moved:
            return None
        self.stable_vector = VectorClock(stable)
        return released
