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

Each class has a one-byte id in the wire codec's fixed table, and its
fields are its schema (``repro.transport.codec.message_schemas``): a
message's bytes, and the size every send charges for it
(``repro.transport.codec.wire_size``), follow from its annotations.  A
field that accepts a transaction's dict form is annotated so, and goes
on the wire as a generic value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey, Transaction


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


@dataclass(frozen=True, slots=True)
class SessionAck:
    dc_id: str
    objects: Tuple[ObjectState, ...]
    stable_vector: Dict[str, int]
    accepted: bool = True
    reason: Optional[str] = None


@dataclass(frozen=True, slots=True)
class InterestChange:
    edge_id: str
    add: Tuple[Tuple[ObjectKey, str], ...] = ()
    remove: Tuple[ObjectKey, ...] = ()
    # The edge's current state vector: seeds must not be older than it.
    state_vector: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ObjectRequest:
    edge_id: str
    key: ObjectKey
    type_name: str
    state_vector: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ObjectResponse:
    object_state: ObjectState
    stable_vector: Dict[str, int]


@dataclass(frozen=True, slots=True)
class EdgeCommit:
    """An edge transaction shipped for (asynchronous) DC commitment."""

    txn: Union[Transaction, Dict[str, Any]]


@dataclass(frozen=True, slots=True)
class EdgeCommitBatch:
    """Several buffered edge transactions shipped together, in commit
    order (the writeback cache policy, section 6.1)."""

    txns: Tuple[Union[Transaction, Dict[str, Any]], ...]


@dataclass(frozen=True, slots=True)
class CommitAck:
    """The concrete commit descriptor for a previously symbolic commit."""

    dot: Dot
    entries: Dict[str, int]


@dataclass(frozen=True, slots=True)
class CommitReject:
    dot: Dot
    reason: str


@dataclass(frozen=True, slots=True)
class UpdatePush:
    """K-stable updates for an edge's interest set, in DC commit order.

    ``prev_vector`` is the cut this delta starts from: a receiver whose
    state does not cover it has missed a push (e.g. across a partition)
    and must re-synchronise instead of blindly advancing its vector.
    """

    txns: Tuple[Union[Transaction, Dict[str, Any]], ...]
    stable_vector: Dict[str, int]
    prev_vector: Dict[str, int] = field(default_factory=dict)


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


@dataclass(frozen=True, slots=True)
class RemoteTxnReply:
    request_id: int
    values: Tuple[Any, ...]
    committed: bool
    commit_entries: Dict[str, int] = field(default_factory=dict)
    reason: Optional[str] = None


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
    can be pruned) costs one byte.
    """

    state_vector: Dict[str, int]
    interest_mask: Optional[int] = None
    interest_seq: int = 0


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


@dataclass(frozen=True, slots=True)
class ReplicateBatchAck:
    """Cumulative acknowledgement of log shipping.

    Carries the receiver's full applied state vector, which is the
    stability gossip: the receiver holds every entry the vector covers
    that its interest did not prune.
    """

    applied_vector: Dict[str, int]


# -- intra-DC (coordinator <-> shard server) ----------------------------------------

@dataclass(frozen=True, slots=True)
class ShardPrepare:
    txid: int
    txn: Transaction


@dataclass(frozen=True, slots=True)
class ShardVote:
    txid: int
    ok: bool


@dataclass(frozen=True, slots=True)
class ShardCommit:
    txid: int
    txn: Transaction


@dataclass(frozen=True, slots=True)
class ShardAbort:
    txid: int


@dataclass(frozen=True, slots=True)
class ShardApply:
    """Replicated/edge transaction applied to the owning shard (no 2PC)."""

    txn: Transaction


@dataclass(frozen=True, slots=True)
class ShardApplyBatch:
    """A run of applies flushed together after draining a replication
    batch: one message per touched shard instead of one per transaction."""

    txns: Tuple[Transaction, ...]


@dataclass(frozen=True, slots=True)
class ShardCompactMsg:
    """Fold journalled entries covered by ``frontier`` into base versions."""

    frontier: Dict[str, int]


@dataclass(frozen=True, slots=True)
class ShardRead:
    request_id: int
    key: ObjectKey
    type_name: str
    visible_vector: Dict[str, int]
    # Extra dots visible by identity (unacked edge txns of a migrated
    # transaction's snapshot, section 3.9).
    extra_dots: Tuple[Dot, ...] = ()


@dataclass(frozen=True, slots=True)
class ShardReadReply:
    request_id: int
    object_state: ObjectState
