"""Log shipping, sans-io: the stream-entry codec, skip runs, and the two
machines that ship a DC's commit stream and apply its siblings'.

Geo-replication ships each DC's commit stream as contiguous
:class:`~repro.dc.messages.ReplicateBatch` frames.  This module holds
the per-entry codec — snapshot vectors delta-encoded against a caller
supplied base, the origin's commit entry implicit in the frame
position — the skip runs standing in for positions a link pruned and
the input check on received frames; :class:`ReplSender`, which owns the
per-directed-link state (shipped frontier, delta chain, counters) and
turns the unsent suffix of the own stream into frames; and
:class:`ReplReceiver`, which owns the per-origin receive queues and
decides, for the head of each stream, whether it applies, waits or is a
duplicate.  Both share the DC's :class:`~repro.dc.commitlog.CommitLog`
and :class:`~repro.dc.interest.InterestGraph`; neither sends anything:
their methods return what to send and what happened, and the
:class:`~repro.dc.datacenter.DataCenter` sends it, records the spans
and keeps the counters.

The codec is base-agnostic: any ``base`` round-trips, only the wire
size changes; how the sender chains the bases is told at
:meth:`ReplSender.flush`.

The encoded entry is a :class:`~repro.core.txn.StreamEntry` record —
``dot``, ``origin``, ``issuer``, ``sv``, ``deps``, ``cx``, ``writes`` —
where ``sv`` is ``snapshot.vector.delta_from(base)``, ``deps`` the
local-dep dots, ``cx`` the *extra* equivalent commit entries (every DC
except the stream origin, present only after migration) and ``writes``
the transaction's own immutable write ops, shared, not copied.
Decoding rebuilds only what the frame position and base imply — the
snapshot vector and a fresh stamp — around that shared body.
"""

from __future__ import annotations

import bisect
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set,
                    Tuple)

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.txn import CommitStamp, Snapshot, StreamEntry, Transaction
from .messages import InterestAdvert, ReplicateBatch, ShardBackfill

if TYPE_CHECKING:  # the values the machines share; no run-time import
    from .commitlog import CommitLog
    from .interest import InterestGraph
    from .stability import StabilityFrontier


def encode_stream_entry(txn: Transaction, stream_dc: str, ts: int,
                        base: VectorClock) -> StreamEntry:
    """Delta-encode one stream entry.

    ``ts`` must be the origin timestamp the frame position implies
    (``start_ts + i``); the entry does not repeat it.
    """
    entries = txn.commit.entries
    assigned = entries.get(stream_dc)
    if assigned is not None and assigned != ts:
        raise ValueError(
            f"stream position {ts} contradicts commit entry "
            f"{stream_dc}:{assigned} for {txn.dot}")
    snapshot = txn.snapshot
    return StreamEntry(
        txn.dot, txn.origin, txn.issuer,
        snapshot.vector.delta_from(base),
        tuple(sorted(snapshot.local_deps)),
        {dc: t for dc, t in entries.items() if dc != stream_dc},
        txn.writes)


def decode_stream_entry(entry: StreamEntry, stream_dc: str, ts: int,
                        base: VectorClock) -> Transaction:
    """Rebuild the transaction a frame entry encodes.

    Self-contained given the frame fields: ``base`` is the frame's
    ``base_vector`` and ``ts`` the timestamp its position implies.
    """
    commit = CommitStamp(entry.cx)
    commit.entries[stream_dc] = ts
    return Transaction(
        entry.dot, entry.origin,
        Snapshot(VectorClock.from_delta(base, entry.sv), entry.deps),
        commit, entry.writes, entry.issuer)


def well_formed_entries(entries: Any, shard_space: int) -> bool:
    """Is every element of a frame's ``entries`` a stream entry or a
    legitimate ``(count, mask)`` skip run?

    A run elides at least one position, and its mask names at least one
    shard (entries with mask 0 always ship) and none outside
    ``shard_space`` — so a DC that prunes nothing accepts no run at all.
    Checked before a frame touches any state: a run that failed this
    would walk the stream cursor backwards or jump it.
    """
    for element in entries:
        if type(element) is StreamEntry:
            continue
        if not (isinstance(element, (tuple, list)) and len(element) == 2):
            return False
        count, mask = element
        if not (type(count) is int and type(mask) is int
                and count >= 1 and mask > 0 and not mask & ~shard_space):
            return False
    return True


class SkipRun:
    """A run of stream positions pruned from a replication link.

    ``count`` consecutive positions starting at ``start_ts``, all of
    whose entries touch exactly the shards in ``mask`` — runs break on
    mask changes, so the mask describes *every* elided position and the
    receiver can audit a run against its own interest exactly.  These
    objects live in the receive queues (ordered with full entries by
    ``start_ts``) and, once applied, in the per-origin skip ledger that
    backs the per-shard contiguity invariant.
    """

    __slots__ = ("start_ts", "count", "mask")

    def __init__(self, start_ts: int, count: int, mask: int):
        self.start_ts = start_ts
        self.count = count
        self.mask = mask

    @property
    def end_ts(self) -> int:
        return self.start_ts + self.count - 1

    def covers(self, ts: int) -> bool:
        return self.start_ts <= ts <= self.end_ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SkipRun({self.start_ts}..{self.end_ts}"
                f" mask={self.mask:#x})")


class ReplLink:
    """Sender-side state of one directed replication link.

    The commit stream itself is the send buffer: ``sent_ts`` marks the
    prefix of our own stream already shipped on this link, so a flush
    just walks ``sent_ts + 1 .. sequencer``.  Loss recovery rewinds
    ``sent_ts`` to the peer's advertised frontier once ``last_advert``,
    the previous advert, shows that the peer stalled (see
    :meth:`ReplSender.heard`).  The counters feed the replication
    benchmarks.

    ``chain_ts`` is the position of the last *full* entry shipped on
    this link, which anchors the per-link delta chain (pruned entries
    never ship a vector, so the chain must hop over them); prune
    accounting is ``txns_pruned`` positions elided as skip runs and
    ``pruned_bytes`` the wire bytes that would have cost.
    """

    __slots__ = ("peer", "sent_ts", "last_advert", "batches_sent",
                 "txns_sent", "bytes_sent", "acks_in", "rewinds",
                 "chain_ts", "txns_pruned", "pruned_bytes")

    def __init__(self, peer: str):
        self.peer = peer
        self.sent_ts = 0
        self.last_advert = -1
        self.batches_sent = 0
        self.txns_sent = 0
        self.bytes_sent = 0
        self.acks_in = 0
        self.rewinds = 0
        self.chain_ts = 0
        self.txns_pruned = 0
        self.pruned_bytes = 0

    def counters(self) -> Dict[str, int]:
        return {"batches_sent": self.batches_sent,
                "txns_sent": self.txns_sent,
                "bytes_sent": self.bytes_sent,
                "acks_in": self.acks_in,
                "rewinds": self.rewinds,
                "txns_pruned": self.txns_pruned,
                "pruned_bytes": self.pruned_bytes}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplLink({self.peer} sent_ts={self.sent_ts}"
                f" batches={self.batches_sent} txns={self.txns_sent})")


#: One frame ready to ship on a link: ``(frame, lo, hi, pruned,
#: pruned_bytes)`` — stream positions ``lo..hi``, ``pruned`` of them
#: elided as skip runs that would have cost ``pruned_bytes``.
Shipment = Tuple[ReplicateBatch, int, int, int, int]


class ReplSender:
    """Ships our own commit stream: one :class:`ReplLink` per sibling,
    and the chain-encoded entries they share.

    ``wire_size`` and ``value_size`` are the wire codec's measures of a
    message and of a value (``repro.transport.codec``), which the links'
    byte counters are kept in; they are handed in, so that this module
    imports no transport."""

    def __init__(self, log: "CommitLog", interest: "InterestGraph",
                 wire_size: Callable[[Any], int],
                 value_size: Callable[[Any], int]):
        self.log = log
        self.interest = interest
        self.wire_size = wire_size
        self.value_size = value_size
        self.node_id = log.node_id
        self.links: Dict[str, ReplLink] = {}
        # Chain-encoded own-stream entries: ts -> previous *shipped*
        # entry ts -> entry.  Pruning makes the predecessor
        # link-dependent; links that shipped the same predecessor — all
        # of them on an unbroken chain — share one encoding.
        self._encoded: Dict[int, Dict[int, StreamEntry]] = {}

    def link(self, peer: str) -> ReplLink:
        link = self.links.get(peer)
        if link is None:
            link = self.links[peer] = ReplLink(peer)
        return link

    def flush(self, link: ReplLink, batch_max: int,
              limit: Optional[int] = None) -> List[Shipment]:
        """The unsent suffix of our stream as contiguous frames of at
        most ``batch_max`` positions (``limit``: at most that many
        positions in all); the link is moved past them.

        Each position of the window travels either as a full entry or,
        when its write-shard mask misses the peer's interest, inside a
        mask-homogeneous ``(count, mask)`` skip run.  Entries nobody
        can prune (mask 0: metadata-only, or full replication) always
        ship — they carry causal structure every replica needs.

        Full entries are chain-encoded: each snapshot vector is a delta
        against the previous entry *shipped on this link* (consecutive
        snapshot vectors differ by a handful of components, so the
        deltas stay tiny), and the frame carries the vector just before
        its first entry as the base, so decoding is self-contained even
        across lost acks.  On an unbroken chain the predecessor is
        ``ts - 1`` for every link, so each entry is serialised exactly
        once and shared by all of them.
        """
        top = self.log.sequencer
        if limit is not None:
            top = min(top, link.sent_ts + limit)
        if link.sent_ts >= top:
            return []
        sender_vector = self.log.state_vector.to_dict()
        peer = link.peer
        wants = self.interest.wants
        stream_mask = self.interest.stream_mask
        shipments: List[Shipment] = []
        while link.sent_ts < top:
            lo = link.sent_ts + 1
            hi = min(top, link.sent_ts + batch_max)
            base = self._chain_base(link.chain_ts)
            elements: List[Any] = []
            pruned = 0
            pruned_bytes = 0
            chain_ts = link.chain_ts
            for ts in range(lo, hi + 1):
                if wants(peer, ts):
                    elements.append(self._encode(chain_ts, ts))
                    chain_ts = ts
                    continue
                mask = stream_mask(ts)
                last = elements[-1] if elements else None
                if type(last) is tuple and last[1] == mask:
                    elements[-1] = (last[0] + 1, mask)   # the run goes on
                else:
                    elements.append((1, mask))
                pruned += 1
                # What the entry would have cost on the unbroken
                # chain — the honest measure of bytes saved.
                pruned_bytes += self.value_size(self._encode(ts - 1, ts))
            frame = ReplicateBatch(self.node_id, lo, base.to_dict(),
                                   tuple(elements), sender_vector)
            shipments.append((frame, lo, hi, pruned, pruned_bytes))
            link.sent_ts = hi
            link.chain_ts = chain_ts
            link.batches_sent += 1
            link.txns_sent += hi - lo + 1 - pruned
            link.bytes_sent += self.wire_size(frame)
            link.txns_pruned += pruned
            link.pruned_bytes += pruned_bytes
        return shipments

    def _chain_base(self, prev_ts: int) -> VectorClock:
        """Snapshot vector of own stream entry ``prev_ts`` — what the
        entry shipped after it is encoded against (zero before 1)."""
        if prev_ts <= 0:
            return VectorClock.zero()
        log = self.log
        return log.txns[log.streams[self.node_id][prev_ts]].snapshot.vector

    def _encode(self, prev_ts: int, ts: int) -> StreamEntry:
        """Chain-encode own stream entry ``ts`` against ``prev_ts``,
        the last entry shipped before it; memoised per pair.

        Stream entries are immutable once sequenced, except that a
        migration duplicate may graft extra equivalent commit entries
        later — :meth:`forget` drops the position's encodings then.
        """
        by_prev = self._encoded.get(ts)
        if by_prev is None:
            by_prev = self._encoded[ts] = {}
        cached = by_prev.get(prev_ts)
        if cached is None:
            log = self.log
            txn = log.txns[log.streams[self.node_id][ts]]
            cached = by_prev[prev_ts] = encode_stream_entry(
                txn, self.node_id, ts, self._chain_base(prev_ts))
        return cached

    def forget(self, ts: int) -> None:
        """Own stream entry ``ts`` changed (a grafted commit entry):
        its cached wire encodings are stale."""
        self._encoded.pop(ts, None)

    def heard(self, peer: str, peer_has: int) -> ReplLink:
        """``peer`` advertised (on a sync ping) that it applied our
        stream up to ``peer_has``: repair the link's shipped frontier.

        An advertised frontier is one RTT stale: frames shipped inside
        that window are still in flight, not lost.  Rewinding on every
        ping would resend the in-flight suffix each period — pure
        duplicate traffic (double-counted at the receiver) that the
        receive queue's dedup set no longer filters once the entries
        have been applied and popped.  The rewind waits for evidence of
        loss: the peer advertising the *same* stalled frontier twice in
        a row.
        """
        link = self.link(peer)
        if peer_has > link.sent_ts:
            # The peer holds entries we never shipped on this link
            # (received via a third DC after a migration): skip them.
            link.sent_ts = peer_has
            link.chain_ts = peer_has
        elif peer_has < link.sent_ts and peer_has <= link.last_advert:
            # Stalled across a full sync period: the in-flight
            # window has drained, so the gap is genuine loss.
            link.sent_ts = peer_has
            link.chain_ts = peer_has
            link.rewinds += 1
        link.last_advert = peer_has
        return link

    def backfill(self, shard: int) -> Tuple[ShardBackfill, List[Dot]]:
        """Answer a catch-up request for ``shard`` from our own stream:
        the message and the dots it hands over.

        FIFO links make subscribe + backfill gap-free: ``upto`` is our
        sequencer at response time, and every later entry ships as a
        live frame that the peer's (already folded) interest keeps
        un-pruned.
        """
        bit = 1 << shard
        log = self.log
        stream = log.streams[self.node_id]
        stream_mask = self.interest.stream_mask
        txns = [(ts, log.txns[stream[ts]])
                for ts in range(1, log.sequencer + 1)
                if stream_mask(ts) & bit]
        return (ShardBackfill(shard,
                              tuple((ts, txn.handoff()) for ts, txn in txns),
                              log.sequencer),
                [txn.dot for _ts, txn in txns])


class _ReplQueue:
    """One origin stream's receive queue, ordered by origin timestamp.

    Anti-entropy resends interleave with live replication, so one
    origin's transactions can arrive out of stream order.  The queue is
    processed strictly from the head (a blocked head must stall its
    stream); appending blindly would let an out-of-order later
    transaction block the very predecessor that unblocks it.

    Duplicates are filtered by a dot set (kept in sync on ``popleft``)
    and the insert position found by bisect on the origin timestamp, so
    both operations stay O(log n) instead of the naive O(n) scans.
    """

    __slots__ = ("_entries", "_keys", "_dots", "_runs", "_head")

    def __init__(self) -> None:
        # Transactions and SkipRun markers, stream-ordered.
        self._entries: List[Any] = []
        # Origin timestamps parallel to _entries.
        self._keys: List[int] = []
        self._dots: Set[Dot] = set()
        self._runs: Set[Tuple[int, int, int]] = set()
        self._head = 0

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def head(self) -> Tuple[int, Any]:
        """``(ts, item)`` at the head of the stream."""
        return self._keys[self._head], self._entries[self._head]

    def popleft(self) -> Any:
        item = self._entries[self._head]
        self._head += 1
        if isinstance(item, SkipRun):
            self._runs.discard((item.start_ts, item.count, item.mask))
        else:
            self._dots.discard(item.dot)
        if self._head >= 32 and self._head * 2 >= len(self._entries):
            del self._entries[:self._head]
            del self._keys[:self._head]
            self._head = 0
        return item

    def insert(self, ts: int, txn: Transaction) -> bool:
        """Queue in stream order; False when the dot is already queued."""
        if txn.dot in self._dots:
            return False  # a resend already queued; keep the first copy
        index = bisect.bisect_right(self._keys, ts, lo=self._head)
        self._entries.insert(index, txn)
        self._keys.insert(index, ts)
        self._dots.add(txn.dot)
        return True

    def insert_run(self, run: SkipRun) -> bool:
        """Queue a skip run by start position; dedup exact resends."""
        ident = (run.start_ts, run.count, run.mask)
        if ident in self._runs:
            return False
        index = bisect.bisect_right(self._keys, run.start_ts,
                                    lo=self._head)
        self._entries.insert(index, run)
        self._keys.insert(index, run.start_ts)
        self._runs.add(ident)
        return True


class Received:
    """What a frame or a backfill did to the log, for the DC to carry
    out and count.

    ``applied``: ``(origin, ts, txn, offstream)`` for every transaction
    that entered the log, in order — each is new, so counting them makes
    ``replicated_in`` exact; ``offstream`` marks a fill of a position
    the frontier had already resolved.  ``dups``: entries that arrived
    for a dot already held (anti-entropy resends, migration copies).
    ``adverts``: ``(peer, advert)`` to send — a skip run pruned shards we
    want.  ``grafted``: own stream positions whose entry gained a commit
    entry.
    """

    __slots__ = ("applied", "dups", "adverts", "grafted")

    def __init__(self) -> None:
        self.applied: List[Tuple[str, int, Transaction, bool]] = []
        self.dups = 0
        self.adverts: List[Tuple[str, InterestAdvert]] = []
        self.grafted: List[int] = []


class ReplReceiver:
    """Applies the sibling DCs' commit streams to the log, each strictly
    in stream order."""

    def __init__(self, log: "CommitLog", interest: "InterestGraph",
                 stability: "StabilityFrontier"):
        self.log = log
        self.interest = interest
        self.stability = stability
        #: One receive queue per sibling stream.
        self.queues: Dict[str, _ReplQueue] = {}

    def receive(self, msg: ReplicateBatch,
                sender: str) -> Optional[Received]:
        """Take in a frame: full entries and skip runs, in stream order.

        The flat stream cursor advances over both element kinds, so the
        state vector keeps meaning "every position up to here is
        *resolved*" — applied or deliberately pruned.

        A malformed frame is dropped whole before it touches any state
        (``None``: not to be acked — an honest sender's sync-ping
        rewind re-ships it).
        """
        if not well_formed_entries(msg.entries, self.interest.shard_space):
            return None
        log = self.log
        # The sender applied everything its vector covers: that is the
        # coalesced stability gossip, and it must be noted *before* the
        # applies so apply-time holder counts see it.
        self.stability.note_peer_applied(
            sender, VectorClock(msg.sender_vector), log.state_vector)
        out = Received()
        base = VectorClock(msg.base_vector)
        origin = msg.origin_dc
        queue = self.queues.get(origin)
        if queue is None:
            queue = self.queues[origin] = _ReplQueue()
        seen = log.dots.seen
        progress = False
        ts = msg.start_ts
        for element in msg.entries:
            if type(element) is StreamEntry:
                item: Any = decode_stream_entry(element, origin, ts, base)
                if seen(item.dot):
                    # Stale resend or migration duplicate: account it as
                    # a duplicate, never as fresh replication traffic.
                    out.dups += 1
                # The chain continues from the entry just decoded.
                base = item.snapshot.vector
                step = 1
            else:
                step, mask = element
                item = SkipRun(ts, step, mask)
            # With nothing queued ahead of it the element *is* the head
            # of its stream: settle it without a queue round-trip.
            if not len(queue) and self._settle(origin, ts, item, out):
                progress = True
            elif isinstance(item, SkipRun):
                queue.insert_run(item)
            else:
                queue.insert(ts, item)
            ts += step
        if len(queue) and self._drain(origin, queue, out):
            progress = True
        # A frontier moved, so other streams may have unblocked
        # (cross-stream snapshot dependencies): rescan until quiescent.
        while progress:
            progress = False
            for stream, queued in self.queues.items():
                if self._drain(stream, queued, out):
                    progress = True
        return out

    def _drain(self, origin: str, queue: _ReplQueue,
               out: Received) -> bool:
        """Settle one stream's queue from the head; True if anything
        left it."""
        progress = False
        while len(queue):
            ts, head = queue.head()
            if not self._settle(origin, ts, head, out):
                break
            queue.popleft()
            progress = True
        return progress

    def _settle(self, origin: str, ts: int, item: Any,
                out: Received) -> bool:
        """Decide the head of ``origin``'s stream — the one place that
        does.  True: it applied, was recorded or dropped; False: it
        must wait.

        Each stream is applied *contiguously*: the vector component for
        ``origin`` asserts "we resolved its stream up to here", so a
        head past ``frontier + 1`` waits for the gap below it to be
        filled (anti-entropy resends it, because our advertised frontier
        still points at the hole).  Skipping ahead would advertise
        transactions we never received and stall replication forever.
        """
        log = self.log
        frontier = log.state_vector[origin]
        if isinstance(item, SkipRun):
            if item.end_ts <= frontier:
                return True     # fully stale resend
            if ts > frontier + 1:
                return False    # hole below the run: wait for the resend
            self._skip(origin, item, out)
            return True
        held = log.dots.seen(item.dot)
        if ts <= frontier:
            if held:
                # Stale resend of an entry we already cover.
                self._adopt(item, out)
            else:
                # The position was skip-covered and the full entry
                # arrived afterwards (our interest raced the sender's
                # view): late-fill the data off-stream.
                self._apply(origin, ts, item, out, advance=False)
            return True
        if ts > frontier + 1:
            return False        # hole below the head: wait for the resend
        if held:
            # Duplicate via another DC (migration): adopt the extra
            # equivalent commit entry (section 3.8).  The stream
            # coordinate is new even if the dot is not: peers whose
            # vectors already cover it hold the txn.
            self._adopt(item, out)
            log.admit(origin, ts, item)
            self.stability.record(
                item.dot, self.stability.known_holders(origin, ts))
            return True
        if not self._snapshot_ready(origin, item):
            return False        # blocked on a third DC's stream
        self._apply(origin, ts, item, out)
        return True

    def _apply(self, origin: str, ts: int, txn: Transaction,
               out: Received, advance: bool = True) -> None:
        """The *only* place a remote transaction enters this DC's
        state: on its stream, or (``advance=False``) at a position the
        flat cursor already resolved — the position is covered, only the
        data was missing."""
        self.log.admit(origin, ts, txn, advance)
        if not advance:
            self.stability.fill(origin, ts, txn.dot)
        self.interest.note_entry(txn.dot, origin, txn.keys)
        # Every peer whose applied vector already covers this coordinate
        # holds the transaction — that knowledge arrived coalesced on
        # batch acks rather than per-txn gossip.
        self.stability.record(
            txn.dot, self.stability.known_holders(origin, ts, txn.dot))
        out.applied.append((origin, ts, txn, not advance))

    def _adopt(self, txn: Transaction, out: Received) -> None:
        own_ts = self.log.adopt(txn)
        if own_ts is not None:
            out.grafted.append(own_ts)

    def _skip(self, origin: str, run: SkipRun, out: Received) -> None:
        """Advance a stream frontier over positions the sender pruned.

        Safe because this DC never serves or pushes entries it does not
        hold: the flat frontier only asserts the stream is *resolved* up
        to here, and per-shard reads gate on interest plus backfill
        completion.  A mask that intersects our interest means the
        sender pruned on a stale view: the run still advances the cursor
        (the stream must not stall) and we ask the stream origin to
        backfill those shards instead of losing data.
        """
        if self.log.skip(origin, run) is None:
            return
        wrong = self.interest.audit_skip(origin, run.mask)
        if wrong:
            out.adverts.append((origin, self.interest.advert(wrong)))

    def _snapshot_ready(self, origin: str, txn: Transaction) -> bool:
        """Snapshot check, exempting deps pruned from ``origin``.

        Local deps of an edge transaction are sequenced earlier in the
        *same* origin stream (session pipelines are FIFO, and migration
        resubmits pending deps before dependents), so when the head sits
        at ``frontier + 1`` every dep position below is resolved.  An
        unseen dep on a stream that recorded skip runs was therefore
        deliberately pruned — treating it as satisfied is what keeps a
        partially-replicated stream from stalling on data it opted out
        of.  Streams without skip runs (every stream, under full
        replication) keep the strict check: there an unseen dep is
        merely late.
        """
        log = self.log
        snapshot = txn.snapshot
        if snapshot.satisfied_by(log.state_vector, log.dots):
            return True
        return (log.pruned(origin)
                and snapshot.vector.leq(log.state_vector))

    def backfill(self, msg: ShardBackfill, origin: str) -> Received:
        """Store a shard's catch-up entries at positions of ``origin``'s
        stream that the frontier already resolved."""
        log = self.log
        out = Received()
        for ts, txn in msg.entries:
            if log.dots.seen(txn.dot):
                out.dups += 1
                self._adopt(txn, out)
                log.admit(origin, ts, txn, advance=False)
                self.stability.fill(origin, ts, txn.dot)
            else:
                self._apply(origin, ts, txn, out, advance=False)
        return out
