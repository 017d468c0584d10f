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
Transaction``, ``origin -> ts -> dot`` and the ledger of applied skip
runs.  There is one way in per kind of entry, and each keeps the
invariants the rest of the DC relies on:

* **own-stream positions are assigned here and nowhere else, one per
  dot** (:meth:`sequence` stamps the commit entry with the position it
  just took, so position == commit entry by construction, and refuses a
  dot the log already holds);
* **streams are applied contiguously** (:meth:`admit` with ``advance``
  and :meth:`skip` only ever extend a frontier by the next position);
* **a stream position names the transaction whose commit entry says
  so** (:meth:`admit` refuses a stamp that contradicts its position).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

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

    # -- the ways in -----------------------------------------------------------
    def sequence(self, txn: Transaction) -> Transaction:
        """Commit ``txn`` at the next position of our own stream and
        stamp it with that position.  Returns the transaction the log
        holds under its dot: ``txn`` — or, for a dot the log already
        holds, the known transaction, and nothing is sequenced (a dot
        takes a position of our stream at most once)."""
        known = self.txns.get(txn.dot)
        if known is not None:
            return known
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
        return True

    def adopt(self, txn: Transaction) -> Optional[int]:
        """Graft the equivalent commit entries of a duplicate copy onto
        the transaction we hold.  Returns our own stream position of it
        when the stamp grew (its shipped form changed), else ``None``."""
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

    # -- the read side -----------------------------------------------------------
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
