"""Log-shipping support: stream-entry codec, skip runs and link state.

Geo-replication ships each DC's commit stream as contiguous
:class:`~repro.dc.messages.ReplicateBatch` frames.  This module holds
the per-entry codec — snapshot vectors delta-encoded against a caller
supplied base, the origin's commit entry implicit in the frame
position — the skip runs standing in for positions a link pruned, the
input check on received frames, and the per-directed-link bookkeeping
(shipped frontier, counters) the DC keeps for each sibling.

The DC *chains* the bases: an entry is encoded against the snapshot
vector of the previous entry shipped on the link (``ts - 1`` unless
pruning broke the chain) and the frame's ``base_vector`` carries the
vector just before its first entry.  Consecutive snapshot vectors
differ by a handful of components, so the deltas stay tiny, and links
that shipped the same predecessor share one encoding.  The codec
itself is base-agnostic: any ``base`` round-trips, only the wire size
changes.

The encoded entry is a plain dict so frames stay serialisable values:

``{"dot", "origin", "issuer", "sv", "deps", "cx", "writes"}``

where ``sv`` is ``snapshot.vector.delta_from(base)``, ``deps`` the
local-dep dots, ``cx`` the *extra* equivalent commit entries (every DC
except the stream origin, present only after migration) and ``writes``
the serialised write ops.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.txn import CommitStamp, Snapshot, Transaction, WriteOp
from .messages import stream_entry_wire_size


def encode_stream_entry(txn: Transaction, stream_dc: str, ts: int,
                        base: VectorClock) -> Tuple[Dict[str, Any], int]:
    """Delta-encode one stream entry; returns ``(entry, wire_bytes)``.

    ``ts`` must be the origin timestamp the frame position implies
    (``start_ts + i``); the entry does not repeat it.
    """
    assigned = txn.commit.entries.get(stream_dc)
    if assigned is not None and assigned != ts:
        raise ValueError(
            f"stream position {ts} contradicts commit entry "
            f"{stream_dc}:{assigned} for {txn.dot}")
    entry = {
        "dot": txn.dot.to_dict(),
        "origin": txn.origin,
        "issuer": txn.issuer,
        "sv": txn.snapshot.vector.delta_from(base),
        "deps": [d.to_dict() for d in sorted(txn.snapshot.local_deps)],
        "cx": {dc: t for dc, t in txn.commit.entries.items()
               if dc != stream_dc},
        "writes": [w.to_dict() for w in txn.writes],
    }
    return entry, stream_entry_wire_size(entry)


def decode_stream_entry(entry: Dict[str, Any], stream_dc: str, ts: int,
                        base: VectorClock) -> Transaction:
    """Rebuild the transaction a frame entry encodes.

    Self-contained given the frame fields: ``base`` is the frame's
    ``base_vector`` and ``ts`` the timestamp its position implies.
    """
    cx = entry.get("cx")
    commit = dict(cx) if cx else {}
    commit[stream_dc] = ts
    dot = entry["dot"]
    deps = entry.get("deps")
    writes = entry.get("writes")
    return Transaction(
        dot=Dot(dot["counter"], dot["origin"]),
        origin=entry["origin"],
        snapshot=Snapshot(
            VectorClock.from_delta(base, entry.get("sv") or {}),
            [Dot.from_dict(d) for d in deps] if deps else []),
        commit=CommitStamp(commit),
        writes=[WriteOp.from_dict(w) for w in writes] if writes else [],
        issuer=entry.get("issuer"),
    )


def well_formed_entries(entries: Any, shard_space: int) -> bool:
    """Is every element of a frame's ``entries`` a stream entry (a
    dict) or a legitimate ``(count, mask)`` skip run?

    A run elides at least one position, and its mask names at least one
    shard (entries with mask 0 always ship) and none outside
    ``shard_space`` — so a DC that prunes nothing accepts no run at all.
    Checked before a frame touches any state: a run that failed this
    would walk the stream cursor backwards or jump it.
    """
    for element in entries:
        if isinstance(element, dict):
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
    ``sent_ts`` from the peer's advertised frontier (sync pings);
    ``last_advert`` remembers the previous advert so a rewind only
    fires when the peer *stalled* — an advert is one RTT stale, and
    rewinding past frames still in flight would resend (and at the
    receiver double-count) entries that were never lost.
    The counters feed the replication benchmarks.

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
