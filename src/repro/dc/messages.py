"""Wire messages of the Colony infrastructure protocols.

Three message families:

* edge/client <-> DC: sessions, interest sets, asynchronous edge commit,
  update pushes, remote (in-DC) transactions;
* DC <-> DC: geo-replication and K-stability gossip;
* intra-DC: ClockSI-style two-phase commit between the transaction
  coordinator and the shard servers, plus shard reads.

A message that carries a transaction carries the core value itself: a
:class:`~repro.core.txn.Transaction` — always through
``Transaction.handoff()``, one copy per receiver, so every receiver owns
its stamp — on a DC's links to its shards, its siblings (as a
:class:`~repro.core.txn.StreamEntry`) and its edge sessions.  A message
that names an object, a dot or an object version carries the value: an
:class:`~repro.core.txn.ObjectKey`, a :class:`~repro.core.dot.Dot`, an
:class:`~repro.core.journal.ObjectState`.  Two ingress points also
accept a transaction's ``to_dict()`` form, which drivers outside
``src/`` build by hand: ``DataCenter._on_edge_commit`` and
``EdgeNode._on_update_push``.  Vectors stay plain ``str -> int``
dictionaries.

Every message implements ``wire_size()`` — an honest estimate of its
serialised size — which the network uses automatically when a
``send()`` call site does not pass an explicit ``size_bytes``, making
``NetworkStats.bytes_sent`` a real wire-cost metric.  A value and its
dict form are sized by one formula, each with its own terms: a value's
are calibrated against the schema'd record the codec writes (the
``*_RECORD_*`` constants, a write's ``WriteOp.record_bytes`` and dot
runs), a dict's against the dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import (ObjectKey, StreamEntry, Transaction, WriteOp,
                        dot_runs_bytes)

#: Fixed per-message framing overhead (type tag, lengths, checksums).
HEADER_BYTES = 16
#: A dot dict on the wire: tag scaffolding, the ``origin``/``counter``
#: field names, a short origin id and a varint counter.  Calibrated
#: against the transport codec (M205 keeps it honest).
DOT_BYTES = 24
#: Dict scaffolding of a serialised transaction beyond its payload:
#: the ``dot``/``origin``/``snapshot``/``commit``/``writes``/``issuer``
#: field names, nested dict tags and the origin/issuer ids.
TXN_OVERHEAD_BYTES = 96
#: Dict scaffolding of one write: the ``key``/``op`` envelope plus the
#: ``type``/``method``/``payload``/``tag`` field names.
WRITE_OVERHEAD_BYTES = 64

#: The same three for the schema'd record (``repro.transport.codec``):
#: a dot record — a varint counter and a short origin id.  A collection
#: of dots inside a record is written as runs (``dot_runs_bytes``).
DOT_RECORD_BYTES = 8
#: A transaction record beyond its payload: the record tag and id, the
#: origin and issuer ids and the vector, stamp and writes counts.
TXN_RECORD_OVERHEAD_BYTES = 16
#: One write record beyond ``WriteOp.record_bytes``: the key's two
#: string headers and the tag field.
WRITE_RECORD_OVERHEAD_BYTES = 5
#: A stream entry record beyond its dot, origin and payload: the record
#: tag and id, the issuer and the ``sv``/``deps``/``cx``/``writes``
#: counts.
STREAM_ENTRY_OVERHEAD_BYTES = 12
#: A key record: the record tag and id and two short strings with their
#: headers (a key's dict form was charged 24).
KEY_RECORD_BYTES = 16
#: An object state record beyond its base and its dots: the record tag
#: and id, the key's fields, the type name and the dots' count (the
#: dict form was charged 60).
OBJECT_STATE_RECORD_OVERHEAD_BYTES = 24


def vector_wire_size(vector: Mapping[Any, int]) -> int:
    """8 bytes per entry, matching ``VectorClock.byte_size``."""
    return 8 * len(vector)


def _writes_wire_size(writes: Sequence[Mapping[str, Any]]) -> int:
    total = 0
    for write in writes:
        key = write.get("key") or {}
        total += (WRITE_OVERHEAD_BYTES
                  + len(str(key.get("bucket", "")))
                  + len(str(key.get("key", ""))))
        op = write.get("op") or {}
        total += (len(str(op.get("type", "")))
                  + len(str(op.get("method", "")))
                  + len(repr(op.get("payload", {}))))
    return total


def txn_wire_size(txn: Mapping[str, Any]) -> int:
    """Wire size of a serialised transaction.

    Mirrors ``Transaction.byte_size`` so dict payloads and live objects
    account identically: the txn envelope, a dot, 8 bytes per
    snapshot-vector entry, a dot per local dep, 8 per commit entry
    (minimum one, the symbolic placeholder), plus the writes.
    """
    snapshot = txn.get("snapshot") or {}
    commit = (txn.get("commit") or {}).get("entries") or {}
    size = TXN_OVERHEAD_BYTES + DOT_BYTES
    size += vector_wire_size(snapshot.get("vector") or {})
    size += DOT_BYTES * len(snapshot.get("local_deps") or ())
    size += 8 * max(1, len(commit))
    size += _writes_wire_size(txn.get("writes") or ())
    return size


def object_state_wire_size(state: ObjectState) -> int:
    """Object versions shipped in seeds, fetches and read replies."""
    return (OBJECT_STATE_RECORD_OVERHEAD_BYTES + len(repr(state.base))
            + dot_runs_bytes(len(state.base_dots)))


def _writes_record_size(writes: Sequence[WriteOp]) -> int:
    """The writes of a record: each its key and its op by schema."""
    total = WRITE_RECORD_OVERHEAD_BYTES * len(writes)
    for write in writes:
        total += write.record_bytes
    return total


def txn_record_size(txn: Transaction) -> int:
    """``txn_wire_size``'s formula, computed from the value, with the
    local dependencies as dot runs and the writes by schema."""
    snapshot = txn.snapshot
    return (TXN_RECORD_OVERHEAD_BYTES + DOT_RECORD_BYTES
            + 8 * len(snapshot.vector)
            + dot_runs_bytes(len(snapshot.local_deps))
            + 8 * max(1, len(txn.commit.entries))
            + _writes_record_size(txn.writes))


def txn_size(txn: Any) -> int:
    """A transaction on an ingress message: a value, or its dict form."""
    if type(txn) is Transaction:
        return txn_record_size(txn)
    return txn_wire_size(txn)


def stream_entry_wire_size(entry: StreamEntry) -> int:
    """Wire size of one delta-encoded ``ReplicateBatch`` entry.

    The stream origin's commit entry is implicit in the frame position
    and the snapshot vector is a delta against the frame base, so an
    entry whose snapshot sits at the link frontier costs just the dot,
    the origin id, the entry scaffolding and its writes.
    """
    return (STREAM_ENTRY_OVERHEAD_BYTES + DOT_RECORD_BYTES + len(entry.origin)
            + 8 * len(entry.sv) + dot_runs_bytes(len(entry.deps))
            + 8 * len(entry.cx) + _writes_record_size(entry.writes))


# -- edge/client <-> DC -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SessionOpen:
    """Edge node opens (or re-opens after migration) a session."""

    edge_id: str
    interest: Tuple[Tuple[ObjectKey, str], ...]  # ((key, type_name), ...)
    state_vector: Dict[str, int]
    # Dots of local transactions the edge state depends upon (unacked).
    local_deps: Tuple[Dot, ...] = ()
    credentials: Optional[str] = None

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.edge_id)
                + KEY_RECORD_BYTES * len(self.interest)
                + vector_wire_size(self.state_vector)
                + DOT_RECORD_BYTES * len(self.local_deps))


@dataclass(frozen=True, slots=True)
class SessionAck:
    dc_id: str
    objects: Tuple[ObjectState, ...]
    stable_vector: Dict[str, int]
    accepted: bool = True
    reason: Optional[str] = None

    def wire_size(self) -> int:
        return (HEADER_BYTES
                + sum(object_state_wire_size(o) for o in self.objects)
                + vector_wire_size(self.stable_vector))


@dataclass(frozen=True, slots=True)
class InterestChange:
    edge_id: str
    add: Tuple[Tuple[ObjectKey, str], ...] = ()
    remove: Tuple[ObjectKey, ...] = ()
    # The edge's current state vector: seeds must not be older than it.
    state_vector: Dict[str, int] = field(default_factory=dict)

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.edge_id)
                + KEY_RECORD_BYTES * (len(self.add) + len(self.remove))
                + vector_wire_size(self.state_vector))


@dataclass(frozen=True, slots=True)
class ObjectRequest:
    edge_id: str
    key: ObjectKey
    type_name: str
    state_vector: Dict[str, int] = field(default_factory=dict)

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.edge_id) + KEY_RECORD_BYTES
                + vector_wire_size(self.state_vector))


@dataclass(frozen=True, slots=True)
class ObjectResponse:
    object_state: ObjectState
    stable_vector: Dict[str, int]

    def wire_size(self) -> int:
        return (HEADER_BYTES + object_state_wire_size(self.object_state)
                + vector_wire_size(self.stable_vector))


@dataclass(frozen=True, slots=True)
class EdgeCommit:
    """An edge transaction shipped for (asynchronous) DC commitment."""

    txn: Transaction

    def wire_size(self) -> int:
        return HEADER_BYTES + txn_size(self.txn)


@dataclass(frozen=True, slots=True)
class EdgeCommitBatch:
    """Several buffered edge transactions shipped together, in commit
    order (the writeback cache policy, section 6.1)."""

    txns: Tuple[Transaction, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(map(txn_size, self.txns))


@dataclass(frozen=True, slots=True)
class CommitAck:
    """The concrete commit descriptor for a previously symbolic commit."""

    dot: Dot
    entries: Dict[str, int]

    def wire_size(self) -> int:
        return HEADER_BYTES + DOT_RECORD_BYTES + 8 * len(self.entries)


@dataclass(frozen=True, slots=True)
class CommitReject:
    dot: Dot
    reason: str

    def wire_size(self) -> int:
        return HEADER_BYTES + DOT_RECORD_BYTES + len(self.reason)


@dataclass(frozen=True, slots=True)
class UpdatePush:
    """K-stable updates for an edge's interest set, in DC commit order.

    ``prev_vector`` is the cut this delta starts from: a receiver whose
    state does not cover it has missed a push (e.g. across a partition)
    and must re-synchronise instead of blindly advancing its vector.
    """

    txns: Tuple[Transaction, ...]
    stable_vector: Dict[str, int]
    prev_vector: Dict[str, int] = field(default_factory=dict)

    def wire_size(self) -> int:
        return (HEADER_BYTES + sum(map(txn_size, self.txns))
                + vector_wire_size(self.stable_vector)
                + vector_wire_size(self.prev_vector))


@dataclass(frozen=True, slots=True)
class RemoteTxnRequest:
    """A transaction executed *in* the DC (baseline mode or migration §3.9).

    ``reads`` name objects to read; ``updates`` are (key, type_name,
    method, args) tuples prepared server-side.  ``snapshot`` optionally
    pins the snapshot (transaction migration primes it with the client's
    state vector).
    """

    client_id: str
    request_id: int
    reads: Tuple[Tuple[ObjectKey, str], ...] = ()
    updates: Tuple[Tuple[ObjectKey, str, str, tuple], ...] = ()
    snapshot: Optional[Dict[str, int]] = None
    local_deps: Tuple[Dot, ...] = ()
    issuer: Optional[str] = None
    # Client-assigned dot for the update transaction (keeps client dot
    # spaces collision-free and makes retries idempotent).
    dot: Optional[Dot] = None

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.client_id)
                + KEY_RECORD_BYTES * len(self.reads)
                + sum(KEY_RECORD_BYTES + 24 + len(repr(args))
                      for _k, _t, _m, args in self.updates)
                + vector_wire_size(self.snapshot or {})
                + DOT_RECORD_BYTES * len(self.local_deps)
                + (DOT_RECORD_BYTES if self.dot is not None else 0))


@dataclass(frozen=True, slots=True)
class RemoteTxnReply:
    request_id: int
    values: Tuple[Any, ...]
    committed: bool
    commit_entries: Dict[str, int] = field(default_factory=dict)
    reason: Optional[str] = None

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(repr(self.values))
                + 8 * len(self.commit_entries))


# -- DC <-> DC ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DCSyncPing:
    """Anti-entropy heartbeat: the sender's applied vector.

    A receiver that is *ahead* on its own stream resends the missing
    suffix, repairing replication after partitions; the applied vector
    doubles as stability gossip, like a :class:`ReplicateBatchAck`.

    Where links can prune, the ping also carries the sender's interest
    mask and advert sequence number, so a lost :class:`InterestAdvert`
    heals within one sync period; ``interest_mask is None`` (nothing
    can be pruned) costs no bytes.
    """

    state_vector: Dict[str, int]
    interest_mask: Optional[int] = None
    interest_seq: int = 0

    def wire_size(self) -> int:
        return (HEADER_BYTES + vector_wire_size(self.state_vector)
                + (16 if self.interest_mask is not None else 0))


#: Wire cost of one skip marker: a 4-byte run length + 8-byte mask.
SKIP_MARKER_BYTES = 12


@dataclass(frozen=True, slots=True)
class ReplicateBatch:
    """Log shipping: a contiguous run of one origin's commit stream.

    ``entries`` mixes two element kinds.  A
    :class:`~repro.core.txn.StreamEntry` is a full delta-encoded
    transaction: its snapshot vector is a sparse delta against the
    previous *full* entry's vector — ``base_vector`` seeds the chain
    (the vector of the last entry shipped on this link before the
    frame) and is carried on the frame so decoding is self-contained —
    and the origin's own commit entry is implicit in the frame
    position.  A ``(count, shard_mask)`` pair is a *skip run*:
    ``count`` consecutive positions whose (identical) write-shard mask
    misses the receiver's interest set, elided from the wire.

    The position cursor starts at ``start_ts`` and advances over both
    kinds, so the receiver's state vector keeps its contiguity
    semantics: "applied **or deliberately pruned** every position up to
    here".  The mask lets the receiver audit runs against its own
    interest and request backfill for wrongly pruned shards (a stale
    sender view heals instead of losing data).  Under full replication
    no frame carries a run.

    The sender piggybacks its applied ``sender_vector``, which doubles
    as coalesced stability gossip: every transaction it covers is held
    by the sender.
    """

    origin_dc: str
    start_ts: int
    base_vector: Dict[str, int]
    entries: Tuple[Any, ...]
    sender_vector: Dict[str, int]

    def wire_size(self) -> int:
        size = (HEADER_BYTES + len(self.origin_dc) + 8
                + vector_wire_size(self.base_vector)
                + vector_wire_size(self.sender_vector))
        for element in self.entries:
            if type(element) is StreamEntry:
                size += stream_entry_wire_size(element)
            else:
                size += SKIP_MARKER_BYTES
        return size


@dataclass(frozen=True, slots=True)
class InterestAdvert:
    """A DC's current shard interest set, broadcast on change.

    ``shards_mask`` is the full interest bitmask (not a delta), guarded
    by ``seq`` so reordered adverts cannot regress a peer's view.  The
    ``backfill`` shards are the ones newly subscribed: each receiver
    answers with a :class:`ShardBackfill` of its *own* stream's entries
    for those shards — every origin is the authoritative holder of its
    own log, so the union of responses is a complete catch-up.
    """

    shards_mask: int
    seq: int
    backfill: Tuple[int, ...] = ()

    def wire_size(self) -> int:
        return HEADER_BYTES + 16 + 4 * len(self.backfill)


@dataclass(frozen=True, slots=True)
class ShardBackfill:
    """Catch-up for one shard: the sender's own-stream entries.

    ``entries`` are ``(origin_ts, txn)`` pairs — full (non-delta)
    transactions, each carrying its explicit stream position because
    backfill is sparse.  ``upto`` is the sender's sequencer at response
    time: every own-stream entry of the shard at or below it is
    included, and anything later ships fully on the live stream (the
    interest update is processed before this response, and the link is
    FIFO), so subscribe + backfill leaves no per-shard gap.  An empty
    response still acknowledges the subscription.
    """

    shard: int
    entries: Tuple[Tuple[int, Transaction], ...]
    upto: int

    def wire_size(self) -> int:
        return (HEADER_BYTES + 12
                + sum(8 + txn_record_size(t) for _ts, t in self.entries))


@dataclass(frozen=True, slots=True)
class ReplicateBatchAck:
    """Cumulative acknowledgement of log shipping.

    Carries the receiver's full applied state vector, which is the
    stability gossip: the receiver holds every entry the vector covers
    that its interest did not prune.
    """

    applied_vector: Dict[str, int]

    def wire_size(self) -> int:
        return HEADER_BYTES + vector_wire_size(self.applied_vector)


# -- intra-DC (coordinator <-> shard server) ----------------------------------------

@dataclass(frozen=True, slots=True)
class ShardPrepare:
    txid: int
    txn: Transaction

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + txn_record_size(self.txn)


@dataclass(frozen=True, slots=True)
class ShardVote:
    txid: int
    ok: bool

    def wire_size(self) -> int:
        return HEADER_BYTES + 9


@dataclass(frozen=True, slots=True)
class ShardCommit:
    txid: int
    txn: Transaction

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + txn_record_size(self.txn)


@dataclass(frozen=True, slots=True)
class ShardAbort:
    txid: int

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True, slots=True)
class ShardApply:
    """Replicated/edge transaction applied to the owning shard (no 2PC)."""

    txn: Transaction

    def wire_size(self) -> int:
        return HEADER_BYTES + txn_record_size(self.txn)


@dataclass(frozen=True, slots=True)
class ShardApplyBatch:
    """A run of applies flushed together after draining a replication
    batch: one message per touched shard instead of one per transaction."""

    txns: Tuple[Transaction, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(txn_record_size(t) for t in self.txns)


@dataclass(frozen=True, slots=True)
class ShardCompactMsg:
    """Fold journalled entries covered by ``frontier`` into base versions."""

    frontier: Dict[str, int]

    def wire_size(self) -> int:
        return HEADER_BYTES + vector_wire_size(self.frontier)


@dataclass(frozen=True, slots=True)
class ShardRead:
    request_id: int
    key: ObjectKey
    type_name: str
    visible_vector: Dict[str, int]
    # Extra dots visible by identity (unacked edge txns of a migrated
    # transaction's snapshot, section 3.9).
    extra_dots: Tuple[Dot, ...] = ()

    def wire_size(self) -> int:
        return (HEADER_BYTES + 8 + KEY_RECORD_BYTES
                + vector_wire_size(self.visible_vector)
                + DOT_RECORD_BYTES * len(self.extra_dots))


@dataclass(frozen=True, slots=True)
class ShardReadReply:
    request_id: int
    object_state: ObjectState

    def wire_size(self) -> int:
        return HEADER_BYTES + object_state_wire_size(self.object_state)
