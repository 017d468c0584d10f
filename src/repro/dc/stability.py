"""The K-stable frontier of one DC (paper section 3.8), sans-io.

A transaction is shown to edge nodes once it is known at ``K`` data
centres *and* everything it depends on is already shown: the stable
vector stays a causally closed cut.  :class:`StabilityFrontier` owns
what that takes — the applied vector last heard from each peer, the
holder set of every dot not yet released and the stable vector — and
reads the DC's :class:`~repro.dc.commitlog.CommitLog`, which the
sequencer and the replication receiver write.  It sends nothing and
records no span: :meth:`advance` returns the run it released, which is
also what the DC has to push.

What is released is read off the stamp (:func:`passed`), so the only
per-dot state kept here is the holder set, and it ends at release.  A
dot the log has seen but no longer holds was retired
(:meth:`~repro.dc.commitlog.CommitLog.retire`), which only a released
transaction is: it counts as released.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.txn import Transaction
from .commitlog import CommitLog
from .interest import InterestGraph

_ZERO = VectorClock.zero()

#: A released stream position: ``(origin, ts, dot)``.
Release = Tuple[str, int, Dot]


def passed(txn: Transaction, in_cut: Callable[[str, int], int]) -> bool:
    """Is ``txn`` inside the stable cut whose ``get`` is ``in_cut``?

    It is iff one of its commit entries ``(dc, ts)`` has ``ts`` at or
    below the cut's ``dc`` component.  The frontier of stream ``dc``
    passed position ``ts`` either by releasing the transaction there or
    by hopping the position while it was skip-covered; a transaction
    stored there afterwards is part of the cut all the same.
    """
    for dc, ts in txn.commit.entries.items():
        if ts <= in_cut(dc, 0):
            return True
    return False


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
        # A set lives from the dot's first holder to its release.
        self._holders: Dict[Dot, Set[str]] = {}
        self._streams = log.streams     # origin -> ts -> dot
        self._txns = log.txns
        self._seen = log.dots.seen
        self._skip_covered = log.covered
        self._peer_applied: Dict[str, VectorClock] = {}
        self.stable_vector = _ZERO

    def released(self, dot: Dot) -> bool:
        """Is ``dot`` inside the stable cut here: held and passed, or
        retired?"""
        txn = self._txns.get(dot)
        if txn is None:
            return self._seen(dot)
        return passed(txn, self.stable_vector.get)

    def holders(self, dot: Dot) -> Set[str]:
        """The DCs known to hold ``dot``; none once it is released."""
        return set(self._holders.get(dot, ()))

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
        """``holders`` (a set this call may keep) hold ``dot``.  Holder
        sets only gate stability: a released dot gets none back (a
        migration duplicate arriving on a second stream after release,
        or a fill at a position the frontier hopped)."""
        held = self._holders.get(dot)
        if held is not None:
            held.update(holders)
        elif not self.released(dot):
            self._holders[dot] = holders

    def credit(self, dot: Dot, peer: str) -> bool:
        """``peer`` was handed ``dot``.  False once the dot is stable."""
        if self.released(dot):
            return False
        self.record(dot, {peer})
        return True

    def shipped(self) -> int:
        """The position of our own stream every peer has applied (by
        the vectors heard from them) up to."""
        node = self.node_id
        applied = self._peer_applied
        return min((applied.get(peer, _ZERO)[node]
                    for peer in self.interest.peers),
                   default=self.stable_vector[node])

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
        holders = self._holders
        holds = self.interest.peer_holds if self.interest.prunes else None
        for origin in merged:
            stream = self._streams.get(origin)
            if not stream:
                continue
            # Every dot at or below the stable frontier is released:
            # start above it.
            lo = max(known[origin], self.stable_vector[origin])
            for ts in range(lo + 1, min(merged[origin],
                                        applied[origin]) + 1):
                dot = stream.get(ts)
                if dot is None or (holds and not holds(peer, dot)):
                    continue
                held = holders.get(dot)
                if held is not None:
                    held.add(peer)
                elif not self.released(dot):
                    holders[dot] = {peer}
        return True

    def advance(self) -> Optional[List[Release]]:
        """Move every stream's stable frontier as far as it goes.

        A head is released when it is K-stable (among the replicas that
        can hold it, where pruning shrank that set), its snapshot vector
        is inside the cut and its symbolic dependencies were released —
        one never seen here was pruned from the stream that carried it:
        nothing to wait for.  A skip-covered position holds nothing and
        is hopped, and so is a dot already inside the cut (a migration
        duplicate released on another stream: it is in the run again,
        as at every position it holds, even once retired).  Streams
        unblock one another, so the sweep repeats until nothing moves.
        A released dot's holder set is dropped.  Returns the run in
        release order, ``None`` when the cut did not move.
        """
        # A plain dict: a long run would otherwise rebuild an immutable
        # clock per released transaction.
        stable = self.stable_vector.to_dict()
        in_cut = stable.get
        txns = self._txns
        holders = self._holders
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
                    txn = txns.get(dot)
                    # Not held: retired, so released on another stream.
                    if txn is not None and not passed(txn, in_cut):
                        held = len(holders.get(dot, ()))
                        if held < k_target and (
                                required_k is None
                                or held < required_k(dot, k_target)):
                            break
                        if not self._ready(txn, in_cut):
                            break
                    holders.pop(dot, None)
                    frontier = stable[origin] = ts
                    released.append((origin, ts, dot))
                if frontier != start:
                    progress = moved = True
        if not moved:
            return None
        self.stable_vector = VectorClock(stable)
        return released

    def _ready(self, txn: Transaction,
               in_cut: Callable[[str, int], int]) -> bool:
        """Is everything ``txn`` depends on inside the cut?  Its snapshot
        vector, and each local dependency held here (a retired one is
        released)."""
        snapshot = txn.snapshot
        vector = snapshot.vector
        for dc in vector:
            if vector[dc] > in_cut(dc, 0):
                return False    # blocked on another stream's frontier
        txns = self._txns
        for dep in snapshot.local_deps:
            held = txns.get(dep)
            if held is not None and not passed(held, in_cut):
                return False
        return True
