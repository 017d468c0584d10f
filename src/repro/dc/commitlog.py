"""The commit log of one DC (paper sections 3.4-3.6), sans-io.

A DC is "externally a single sequential node": a sequencer, a commit
log, and that log shipped FIFO to its siblings.  :class:`CommitLog` is
the log — what this DC has sequenced on its own stream and applied from
its siblings' — and the machines around it share the one value: the
sequencer and the 2PC coordinator append to it, :class:`~repro.dc.
replog.ReplSender` ships its own stream, :class:`~repro.dc.replog.
ReplReceiver` applies the others, :class:`~repro.dc.stability.
StabilityFrontier` reads all of them.

It owns the own-stream counter, the state vector ("every position up to
here is *resolved*": applied or deliberately pruned), the dot tracker,
the Lamport clock that server-assigned dots come from, ``dot ->
Transaction`` for what a peer or a stream head can still ask for,
``origin -> ts -> dot`` and the ledger of applied skip runs.  There is
one way in per kind of entry, and each keeps the invariants the rest of
the DC relies on:

* **own-stream positions are assigned here and nowhere else, one per
  dot** (:meth:`sequence` stamps the commit entry with the position it
  just took, so position == commit entry by construction, and refuses a
  dot the log already holds);
* **streams are applied contiguously** (:meth:`admit` with ``advance``
  and :meth:`skip` only ever extend a frontier by the next position);
* **a stream position names the transaction whose commit entry says
  so** (:meth:`admit` refuses a stamp that contradicts its position);
* **only a released transaction that no peer can still ask for leaves
  ``txns``** (:meth:`retire`); its dot stays seen and its coordinates
  stay in ``streams``, which is where :meth:`entries` finds them.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Tuple

from ..core.clock import LamportClock, VectorClock
from ..core.dot import Dot, DotTracker
from ..core.txn import Transaction
from .replog import SkipRun


class CommitLog:
    """What one DC has sequenced and applied."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        #: Last position of our own stream.
        self.sequencer = 0
        # Dots for transactions executed *in* this DC (section 3.6/3.9)
        # come from a Lamport clock that observes every applied dot, so
        # dot order keeps extending happened-before.
        self.lamport = LamportClock()
        self.state_vector = VectorClock.zero()
        self.dots = DotTracker()
        self.txns: Dict[Dot, Transaction] = {}
        #: Per-origin-DC commit streams: ts -> dot.
        self.streams: Dict[str, Dict[int, Dot]] = {node_id: {}}
        # Applied skip runs per origin, sorted by start (the flat
        # frontier covers them without a stored entry).
        self._skip_runs: Dict[str, List[SkipRun]] = {}
        self._skip_starts: Dict[str, List[int]] = {}
        # Per stream, the last position :meth:`retire` has passed, and
        # positions stored off-stream at or below it since its last call.
        self._retired: Dict[str, int] = {}
        self._late: List[Tuple[str, int]] = []
        #: ``(ts, snapshot vector)`` of the newest own position retired:
        #: the one retired position a replication chain can still start
        #: from (``ReplSender._chain_base``).
        self.retired_base: Tuple[int, VectorClock] = (0, VectorClock.zero())

    # -- the ways in -----------------------------------------------------------
    def sequence(self, txn: Transaction) -> Optional[Transaction]:
        """Commit ``txn`` at the next position of our own stream and
        stamp it with that position.  Returns the transaction the log
        holds under its dot: ``txn`` — or, for a dot the log has seen,
        the known transaction (``None`` once retired), and nothing is
        sequenced (a dot takes a position of our stream at most once)."""
        if self.dots.seen(txn.dot):
            return self.txns.get(txn.dot)
        ts = self.sequencer = self.sequencer + 1
        txn.commit = txn.commit.with_entry(self.node_id, ts)
        self.admit(self.node_id, ts, txn)
        return txn

    def admit(self, origin: str, ts: int, txn: Transaction,
              advance: bool = True) -> bool:
        """``txn`` sits at ``(origin, ts)``.  True when it is new to the
        log and now held; for a dot already held (a duplicate that
        arrived on another stream, section 3.8) only the coordinate is
        recorded.

        ``advance`` moves the stream's frontier, which must stand just
        below ``ts``; without it the position is one the frontier
        already resolved (a backfill, or a full entry that raced a skip
        run) and only the data was missing.
        """
        if txn.commit.entries.get(origin) != ts:
            raise ValueError(
                f"stream position {origin}:{ts} contradicts the commit"
                f" stamp {txn.commit.entries} of {txn.dot}")
        dot = txn.dot
        if advance:
            # Only the stream the entry arrived on: other equivalent
            # commit entries belong to streams that ship separately,
            # and merging them here would claim transactions we have
            # not applied.
            if ts != self.state_vector[origin] + 1:
                raise ValueError(
                    f"{origin}:{ts} does not extend the applied frontier"
                    f" {self.state_vector[origin]}")
            self.state_vector = self.state_vector.advance(origin, ts)
        stream = self.streams.get(origin)
        if stream is None:
            stream = self.streams[origin] = {}
        stream.setdefault(ts, dot)
        if not self.dots.observe(dot):
            return False
        self.lamport.observe(dot.counter)
        self.txns[dot] = txn
        if not advance and ts <= self._retired.get(origin, 0):
            self._late.append((origin, ts))
        return True

    def adopt(self, txn: Transaction) -> Optional[int]:
        """Graft the equivalent commit entries of a duplicate copy onto
        the transaction we hold (nothing, once it is retired).  Returns
        our own stream position of it when the stamp grew (its shipped
        form changed), else ``None``."""
        known = self.txns.get(txn.dot)
        if known is None:
            return None
        held = known.commit
        for dc, entry_ts in txn.commit.entries.items():
            if dc not in known.commit.entries:
                known.commit = known.commit.with_entry(dc, entry_ts)
        return None if known.commit is held \
            else known.commit.entries.get(self.node_id)

    def skip(self, origin: str, run: SkipRun) -> Optional[SkipRun]:
        """Advance ``origin``'s frontier over positions its sender
        pruned.  Returns the part of the run that was new (recorded in
        the ledger), ``None`` for a fully stale resend."""
        frontier = self.state_vector[origin]
        start = max(run.start_ts, frontier + 1)
        if start > run.end_ts:
            return None
        if run.start_ts > frontier + 1:
            raise ValueError(
                f"skip run {run!r} of {origin} leaves a hole above"
                f" {frontier}")
        self.state_vector = self.state_vector.advance(origin, run.end_ts)
        # Materialise the stream dict even when every entry is pruned:
        # the stability sweep iterates it to hop the stable frontier
        # over skip-covered positions.
        self.streams.setdefault(origin, {})
        recorded = SkipRun(start, run.end_ts - start + 1, run.mask)
        runs = self._skip_runs.setdefault(origin, [])
        starts = self._skip_starts.setdefault(origin, [])
        index = bisect.bisect_right(starts, start)
        runs.insert(index, recorded)
        starts.insert(index, start)
        return recorded

    def retire(self, stable: VectorClock, shipped: int,
               askable: Callable[[int], bool]) \
            -> List[Tuple[Dot, Optional[int]]]:
        """Drop from ``txns`` what no peer can still ask for.

        A transaction leaves once it is inside the ``stable`` cut and
        every own-stream position it holds is at or below ``shipped``,
        the position each peer has applied our stream up to — unless
        ``askable(ts)``: a peer may still ask for that own position in
        a backfill.  A transaction held at an own position is decided
        on our stream, any other on the stream it was stored at.  Each
        stream is walked once, up to the cut; a position filled
        off-stream below that since the last call is decided now.
        Returns ``(dot, own position or None)`` of each dropped one.
        """
        node = self.node_id
        txns = self.txns
        streams = self.streams
        cursors = self._retired
        ranges = [(origin, ts - 1, ts) for origin, ts in self._late]
        self._late = []
        for origin in streams:
            lo = cursors.get(origin, 0)
            hi = stable[origin]
            if origin == node and shipped < hi:
                hi = shipped
            if hi > lo:
                cursors[origin] = hi
                ranges.append((origin, lo, hi))
        dropped: List[Tuple[Dot, Optional[int]]] = []
        for origin, lo, hi in ranges:
            stream = streams[origin]
            ours = origin == node
            for ts in range(lo + 1, hi + 1):
                # Nothing at a skip-covered position; nothing held for a
                # dot dropped through another stream.
                txn = txns.get(stream.get(ts))
                if txn is None:
                    continue
                own = txn.commit.entries.get(node)
                if ours:
                    if askable(ts):
                        continue
                    self.retired_base = (ts, txn.snapshot.vector)
                elif own is not None:
                    continue        # our own stream decides
                del txns[txn.dot]
                dropped.append((txn.dot, own))
        return dropped

    # -- the read side -----------------------------------------------------------
    def entries(self, dot: Dot) -> Dict[str, int]:
        """The commit entries of a dot the log has seen: its stamp's
        while it is held; once retired, its coordinates in ``streams``
        (a walk of every stream, which only a late duplicate asks for).
        """
        txn = self.txns.get(dot)
        if txn is not None:
            return dict(txn.commit.entries)
        return {origin: ts for origin, stream in self.streams.items()
                for ts, held in stream.items() if held == dot}

    def covered(self, origin: str, ts: int) -> Optional[SkipRun]:
        """The applied skip run covering ``(origin, ts)``, if any."""
        starts = self._skip_starts.get(origin)
        if not starts:
            return None
        index = bisect.bisect_right(starts, ts) - 1
        if index < 0:
            return None
        run = self._skip_runs[origin][index]
        return run if run.covers(ts) else None

    def pruned(self, origin: str) -> bool:
        """Did ``origin``'s stream ever reach us with a skip run?"""
        return origin in self._skip_runs

    def gaps(self) -> Dict[str, List[int]]:
        """Missing stream positions below each applied frontier.

        Contiguous application is a protocol invariant: every position
        ``1 .. state_vector[origin]`` must have a recorded dot or lie in
        an applied skip run.  A gap means the DC advertised transactions
        it never stored.  An empty dict is healthy.
        """
        gaps: Dict[str, List[int]] = {}
        for origin in self.state_vector:
            stream = self.streams.get(origin, {})
            missing = [ts
                       for ts in range(1, self.state_vector[origin] + 1)
                       if ts not in stream
                       and not self.covered(origin, ts)]
            if missing:
                gaps[origin] = missing
        return gaps

    def shard_gaps(self, expected: int) -> Dict[str, List[int]]:
        """Skip-covered positions still empty though their run's mask
        intersects ``expected``, the shards we should hold: each must
        eventually be filled by a backfill or a racing full resend."""
        gaps: Dict[str, List[int]] = {}
        for origin, runs in self._skip_runs.items():
            stream = self.streams.get(origin, {})
            missing = [ts for run in runs if run.mask & expected
                       for ts in range(run.start_ts, run.end_ts + 1)
                       if ts not in stream]
            if missing:
                gaps[origin] = missing
        return gaps
