"""The edge replica (paper sections 3.7-3.8) as a log and a frontier, sans-io.

An edge replica keeps three things: the transactions it journalled, the
symbolic stamps of its own commits until a DC's ack — or another copy
that carries one — resolves them, and a vector that only the DC's
K-stable pushes, or a seed of everything it holds warm, advance.
:class:`EdgeLog` is what the replica *has*; :class:`EdgeFrontier` is
what it *shows*, and reads the log.  They mirror the DC's
:class:`~repro.dc.commitlog.CommitLog` and
:class:`~repro.dc.stability.StabilityFrontier`: the edge actors
(:class:`~repro.edge.node.EdgeNode`, the PoP and the group member) write
the log through its ways in, ask the frontier what to expose, and keep
the sends, the timers, the store, the sessions and the fetches.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Set, Tuple)

from ..core.clock import LamportClock, VectorClock
from ..core.dot import Dot, DotTracker
from ..core.journal import ObjectJournal, Visibility
from ..core.txn import ObjectKey, Snapshot, Transaction

_ZERO = VectorClock.zero()
_NO_DOTS: FrozenSet[Dot] = frozenset()


class EdgeLog:
    """What an edge replica holds: every journalled transaction by dot,
    the own commits no DC has stamped yet, and the Lamport clock its
    dots come from."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        # The clock observes every dot held (seed-folded ones included),
        # so own dots order after everything the replica has seen.
        self.lamport = LamportClock()
        self.dots = DotTracker()
        self.txns: Dict[Dot, Transaction] = {}
        #: Own commits awaiting their stamp, in commit order.
        self.unacked: "OrderedDict[Dot, Transaction]" = OrderedDict()

    def admit(self, txn: Transaction, own: bool = False) -> bool:
        """Hold ``txn``: own commits, DC pushes, group relays and pulled
        or consensus-ordered transactions all come in here.  A dot
        already held is refused (False); an ``own`` commit waits in
        ``unacked`` for its stamp."""
        dot = txn.dot
        self.lamport.observe(dot.counter)
        if not self.dots.observe(dot):
            return False
        self.txns[dot] = txn
        if own:
            self.unacked[dot] = txn
        return True

    def fold(self, dots: Iterable[Dot]) -> None:
        """Hold the dots a seed folded into a journal's base: a child
        declaring one as a session dependency must not be refused."""
        for dot in dots:
            self.lamport.observe(dot.counter)
            self.dots.observe(dot)

    def adopt(self, dot: Dot, entries: Mapping[str, int],
              symbolic_only: bool = False) -> Optional[Transaction]:
        """Graft the commit ``entries`` another copy of ``dot`` carries —
        the DC's ack, the sync point's relay of it, a pushed or a pulled
        copy — onto the transaction held under it: the one way a held
        stamp grows.  ``symbolic_only`` leaves a stamp that is already
        concrete alone.  Returns the transaction when it adopted."""
        txn = self.txns.get(dot)
        if txn is None or symbolic_only and not txn.commit.is_symbolic:
            return None
        for dc, ts in entries.items():
            if dc not in txn.commit.entries:
                txn.commit.add_entry(dc, ts)
        if not txn.commit.is_symbolic:
            self.unacked.pop(dot, None)
        return txn


class EdgeFrontier:
    """What an edge replica shows: its vector, the cut each warm key was
    seeded at, and the held transactions the vector does not cover yet;
    reads the log.

    The vector promises that every warm journal holds what it covers.
    Only the push chain and a seed of the *whole* warm set keep that
    promise, so a push advances it only if it starts inside it, and a
    seed's cut is bounded by what every warm key is complete up to.
    """

    def __init__(self, log: EdgeLog):
        self.log = log
        #: The stable prefix received.
        self.vector = _ZERO
        #: Warm keys — seeded, hole-free, the only ones served — with
        #: the cut each base was materialised at.  A seed may run ahead
        #: of the vector (a fetch served by a fresher parent): reads of
        #: the key happen at ``merge(vector, cut)``.
        self.key_cut: Dict[ObjectKey, VectorClock] = {}
        #: Held transactions the vector does not cover — own commits
        #: awaiting their stamp, a peer's ahead of the push chain —
        #: visible by dot (read-my-writes, the group's SI zone).
        self.uncovered: "OrderedDict[Dot, Transaction]" = OrderedDict()
        #: A group member's warm-set resync: the keys whose replies are
        #: still due, when it started, and the cut the replies so far
        #: were taken at (see :meth:`fetch_reply`).
        self.resync_expect: Set[ObjectKey] = set()
        self.resync_started = -1e9
        self._pending_vector = _ZERO

    # -- what comes in --------------------------------------------------------
    def note(self, txn: Transaction, pushed: bool = False) -> None:
        """A newly held ``txn`` stays visible by dot until the vector
        covers it; a ``pushed`` one is covered by its push."""
        if not pushed and not txn.commit.included_in(self.vector):
            self.uncovered[txn.dot] = txn

    def settle(self, txn: Transaction) -> None:
        """``txn``'s stamp grew: the covering push may have come first,
        and no later advance is owed to us."""
        if txn.commit.included_in(self.vector):
            self.uncovered.pop(txn.dot, None)

    def follows(self, prev: Mapping[str, int]) -> bool:
        """Does a push cut from ``prev`` extend what we hold?  If our
        vector does not cover it we missed an earlier delta (across a
        partition, say) and must re-seed rather than advance past
        transactions we do not hold."""
        return self.vector.dominates_dict(prev)

    def advance(self, stable: Mapping[str, int]) -> None:
        """Merge a push's ``stable`` cut (a raw wire vector)."""
        self.vector = self.vector.merge_dict(stable)
        self._drop_covered()

    def take_seed(self, key: ObjectKey, seed_vector: VectorClock) -> bool:
        """Record a seed of ``key`` cut at ``seed_vector``; False for one
        that must not be installed: a warm key's seed at a cut its own
        already covers (a slow fetch racing a re-seed).  Staleness is
        judged against the key's cut, not the vector, which also moves
        on heartbeats and on pushes that carry nothing for the key."""
        cut = self.key_cut.get(key)
        if cut is not None and seed_vector.leq(cut):
            return False
        self.key_cut[key] = (cut or _ZERO).merge(seed_vector)
        return True

    def advance_to_seed(self, seed_vector: VectorClock) -> None:
        """Adopt as much of a seed's cut as the whole warm set has earned.

        The ack of a (re)open seeds the whole warm set; the one-key seed
        answering an interest add or a fetch does not, and neither does
        a member's resync whose replies were cut at different vectors.
        So the cut is bounded by what each warm key is complete up to,
        ``merge(vector, key_cut[key])``.  Merging a partial seed's cut
        would also hide a lost push for good: the vector would dominate
        the next ``prev`` and no heartbeat could expose the gap.
        """
        floor = seed_vector
        for cut in self.key_cut.values():
            floor = floor.meet(self.vector.merge(cut))
        self.vector = self.vector.merge(floor)
        self._drop_covered()

    def _drop_covered(self) -> None:
        if self.uncovered:
            vector = self.vector
            for dot in [dot for dot, txn in self.uncovered.items()
                        if txn.commit.included_in(vector)]:
                del self.uncovered[dot]

    # -- a group member's warm-set resync ---------------------------------
    def resync_keys(self, fetching: Iterable[ObjectKey],
                    interest: Iterable[ObjectKey] = ()) -> Set[ObjectKey]:
        """What a warm-set resync fetches: the warm keys and those a
        fetch is out for — or, when that is nothing, the ``interest``
        set: with nothing warm there is no journal to learn the vector
        through, and the replies of the first seeds teach it."""
        return set(self.key_cut) | set(fetching) or set(interest)

    def start_resync(self, keys: Set[ObjectKey], now: float) -> None:
        self.resync_expect = keys
        self.resync_started = now

    def fetch_reply(self, key: ObjectKey, reply_vector: VectorClock,
                    fetching: Iterable[ObjectKey]) \
            -> Tuple[Optional[VectorClock], Set[ObjectKey]]:
        """A fetch reply for ``key``, cut at ``reply_vector``, whose seed
        was taken.  Returns the cut the whole warm set has now earned —
        for :meth:`advance_to_seed` — or the keys a warm-set resync must
        fetch first (both may be empty).

        A single reply may run ahead of the relays (notably across a
        parent re-seed, whose jump is never relayed as transactions);
        adopting its cut would claim transactions the *other* journals
        never received.  The fetched key is read at its own cut; the
        vector waits until a resync of the whole warm set is complete.
        """
        if self.resync_expect:
            # Every reply settles its key, even one that taught us
            # nothing (pushes may have moved the vector past its cut
            # while it was in flight): else the resync never completes.
            self.resync_expect.discard(key)
            if not reply_vector.leq(self.vector):
                self._pending_vector = self._pending_vector.merge(reply_vector)
            if self.resync_expect or self._pending_vector.leq(self.vector):
                return None, set()
            return self._pending_vector, set()
        if reply_vector.leq(self.vector):
            return None, set()
        self._pending_vector = self._pending_vector.merge(reply_vector)
        expect = self.resync_keys(fetching) - {key}
        return (None, expect) if expect else (self._pending_vector, set())

    # -- what goes out --------------------------------------------------------
    def current_snapshot(self) -> Snapshot:
        """The replica's state: the vector plus the uncovered dots."""
        return Snapshot(self.vector, set(self.uncovered))

    def read_vector(self, vector: VectorClock, key: ObjectKey) -> VectorClock:
        """Where a read of ``key`` at ``vector`` cuts: the base was
        seeded at the key's cut, which may run ahead of ``vector``, and
        entries up to the same point make one consistent view."""
        cut = self.key_cut.get(key)
        return vector if cut is None else vector.merge(cut)

    @staticmethod
    def filter(vector: VectorClock, deps: FrozenSet[Dot] = _NO_DOTS,
               masked: FrozenSet[Dot] = _NO_DOTS) -> Visibility:
        """The one visibility rule every read applies — a read at a
        snapshot, a seed for whoever hangs below us, compaction's
        stable prefix, security's unmasked view — as a value
        (:class:`~repro.core.journal.Visibility`)."""
        return Visibility(vector, deps, masked)

    def ready(self, txn: Transaction) -> bool:
        """May ``txn``, which arrived outside the push chain, be held:
        does this replica hold everything its snapshot depends on?"""
        return txn.snapshot.satisfied_by(self.vector, self.log.dots)

    def exposed_dots(self) -> Set[Dot]:
        """Foreign dots shown as stable state: everything held, minus
        the uncovered (visible only through read-my-writes or a peer
        group's SI zone) and the replica's own.  The K-stability
        invariant requires each to be held at >= K data centres."""
        return {dot for dot in self.log.dots.observed_dots()
                if dot.origin != self.log.node_id
                and dot not in self.uncovered}

    def covered_but_missing(self, txn: Transaction,
                            journal: Callable[[ObjectKey], ObjectJournal]) \
            -> List[ObjectKey]:
        """Warm keys on which the vector covers ``txn`` while the key's
        ``journal`` does not hold it; empty unless the vector ran ahead
        of what it may promise (an invariant probe)."""
        if not txn.commit.included_in(self.vector):
            return []
        return [key for key in dict.fromkeys(txn.keys)
                if key in self.key_cut and not journal(key).has(txn.dot)]
