"""The DC as transaction coordinator (paper sections 3.6, 3.9), sans-io.

Interactive in-DC transactions — the cache-less baseline clients of
section 7.3 and the transactions migrated from resource-poor edge nodes
— read a snapshot from the shards that own their keys, prepare their
updates against it and commit with a ClockSI-style two-phase commit
across the touched shards; the commit point is the DC's sequencer.
:class:`RemoteTxns` owns that conversation with the shards: the
scatter-gather reads in flight (every DC read goes through it, session
seeds included), the transactions waiting for their reads, the ones in
their prepare phase, and the ``(client, request) -> dot`` memory that
makes a retried request idempotent.  It shares the DC's
:class:`~repro.dc.commitlog.CommitLog` and sequences into it; it sends
nothing — methods return ``(destination, message)`` pairs and, when a
transaction committed, the transaction for the DC to announce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import CommitStamp, ObjectKey, Snapshot, Transaction, WriteOp
from ..crdt.base import state_from_dict
from ..store.ring import HashRing
from .commitlog import CommitLog
from .messages import (RemoteTxnReply, RemoteTxnRequest, ShardAbort,
                       ShardCommit, ShardPrepare, ShardRead, ShardReadReply,
                       ShardVote)

#: Messages for the DC to send, in order: ``(destination, message)``.
Sends = List[Tuple[str, Any]]
#: What to do with gathered object states.
Gathered = Callable[[List[ObjectState]], None]


@dataclass
class PendingRemoteTxn:
    """A remote transaction waiting for its shard reads."""

    request: RemoteTxnRequest
    client: str
    snapshot: Snapshot
    #: ``(key, type_name)`` of every object read or updated, once.
    keys: List[Tuple[ObjectKey, str]]


@dataclass
class _Pending2PC:
    """A transaction in its prepare phase across shards."""

    txn: Transaction
    shards: List[str]
    client: str
    request_id: int
    values: Tuple[Any, ...]
    votes: Set[str] = field(default_factory=set)


class RemoteTxns:
    """Coordinator state of one DC's shard reads and in-DC commits."""

    def __init__(self, log: CommitLog, ring: HashRing):
        self.log = log
        self.ring = ring
        self.node_id = log.node_id
        self._next_request = 0
        self._gathers: Dict[int, Tuple[Set[int], Dict[int, ObjectState],
                                       Gathered, List[int]]] = {}
        self._prepared: Dict[int, _Pending2PC] = {}
        self._next_txid = 0
        self._request_dots: Dict[Tuple[str, int], Dot] = {}

    # -- shard read gathering ------------------------------------------------
    def gather(self, keys: List[Tuple[ObjectKey, str]], vector: VectorClock,
               extra_dots: Tuple[Dot, ...], done: Gathered) -> Sends:
        """Read object states (at ``vector``) from their owning shards;
        ``done`` is handed back by :meth:`on_read_reply` with the states
        in ``keys`` order once the last one arrived — or, with no keys,
        called at once with none."""
        if not keys:
            done([])
            return []
        sends: Sends = []
        request_ids: List[int] = []
        for key, type_name in keys:
            request_id = self._next_request
            self._next_request += 1
            request_ids.append(request_id)
            sends.append((self.ring.lookup(key), ShardRead(
                request_id, key, type_name, vector.to_dict(), extra_dots)))
        gather = (set(request_ids), {}, done, request_ids)
        for request_id in request_ids:
            self._gathers[request_id] = gather
        return sends

    def on_read_reply(self, msg: ShardReadReply) \
            -> Optional[Tuple[Gathered, List[ObjectState]]]:
        """``(done, states)`` when ``msg`` completed its gather."""
        gather = self._gathers.pop(msg.request_id, None)
        if gather is None:
            return None
        waiting, results, done, order = gather
        waiting.discard(msg.request_id)
        results[msg.request_id] = msg.object_state
        if waiting:
            return None
        return done, [results[r] for r in order]

    # -- remote (in-DC) transactions: baseline clients & migration -----------
    def open(self, msg: RemoteTxnRequest, client: str,
             stable: VectorClock) -> Union[RemoteTxnReply, PendingRemoteTxn]:
        """Fix the snapshot and the objects of a request: the reply to
        send when there is nothing to read (or the snapshot cannot be
        served), else the transaction to :meth:`execute` on its reads."""
        log = self.log
        if msg.snapshot is not None:
            # Migration primes the snapshot with the client's own state
            # (section 3.9); we raise it to at least our stable vector —
            # still a superset of the client's dependencies, and it keeps
            # shard reads above the compaction frontier.
            snapshot = Snapshot(VectorClock(msg.snapshot).merge(stable),
                                msg.local_deps)
            if not snapshot.satisfied_by(log.state_vector, log.dots):
                return RemoteTxnReply(msg.request_id, (), False,
                                      reason="missing-dependencies")
        else:
            snapshot = Snapshot(log.state_vector)
        keys: List[Tuple[ObjectKey, str]] = []
        seen: Set[ObjectKey] = set()
        for key, type_name, *_update in (*msg.reads, *msg.updates):
            if key not in seen:
                keys.append((key, type_name))
                seen.add(key)
        if not keys:
            return RemoteTxnReply(msg.request_id, (), True)
        return PendingRemoteTxn(msg, client, snapshot, keys)

    def execute(self, pending: PendingRemoteTxn,
                object_states: List[ObjectState]) -> Sends:
        """Run a transaction on its gathered reads: the reply of a
        read-only or already committed one, else the prepare round."""
        msg = pending.request
        states = {key: state_from_dict(state.base)
                  for (key, _t), state in zip(pending.keys, object_states)}
        # Reads are taken from the materialised snapshot states.
        values = tuple(states[k].value() for k, _t in msg.reads)
        if not msg.updates:
            return [(pending.client,
                     RemoteTxnReply(msg.request_id, values, True))]
        # Prepare the updates against the snapshot.
        writes: List[WriteOp] = []
        for key, _type_name, method, args in msg.updates:
            writes.append(WriteOp(key, states[key].prepare(method, *args)))
        # Idempotent retries: a repeated (client, request) pair re-uses the
        # dot assigned the first time and just reports its commit stamp.
        request_key = (msg.client_id, msg.request_id)
        known_dot = self._request_dots.get(request_key)
        if known_dot is not None and self.log.dots.seen(known_dot):
            return [self._committed_reply(pending, values, known_dot)]
        if msg.dot is not None:
            dot = msg.dot
        else:
            # A duplicate that raced the first copy's commit re-uses the
            # dot assigned the first time, so both copies collapse onto
            # one transaction (journal appends dedupe by dot).  Else a
            # server-assigned Lamport dot: it orders after everything
            # this DC has applied, in a DC-scoped origin namespace.
            dot = known_dot or Dot(self.log.lamport.tick(),
                                   f"{self.node_id}/srv")
        self._request_dots[request_key] = dot
        if self.log.dots.seen(dot):
            return [self._committed_reply(pending, values, dot)]
        txn = Transaction(dot=dot, origin=msg.client_id,
                          snapshot=pending.snapshot, commit=CommitStamp(),
                          writes=tuple(writes), issuer=msg.issuer)
        # Two-phase commit across the touched shards (ClockSI style).
        shards = sorted(self.ring.partition(txn.keys))
        txid = self._next_txid
        self._next_txid += 1
        self._prepared[txid] = _Pending2PC(txn, shards, pending.client,
                                           msg.request_id, values)
        prepare = ShardPrepare(txid, txn.handoff())
        return [(shard, prepare) for shard in shards]

    def _committed_reply(self, pending: PendingRemoteTxn,
                         values: Tuple[Any, ...],
                         dot: Dot) -> Tuple[str, RemoteTxnReply]:
        """The reply for a request whose transaction the log has seen,
        held or retired: its commit entries either way."""
        return pending.client, RemoteTxnReply(
            pending.request.request_id, values, True,
            self.log.entries(dot))

    def on_vote(self, msg: ShardVote, shard: str) \
            -> Tuple[Optional[Transaction], Sends]:
        """Count a prepare vote.  Once every shard voted the transaction
        is sequenced into the log: returns it, for the DC to announce
        *before* it sends the commit round and the client's reply —
        unless the log already holds its dot, which is sequenced once."""
        pending = self._prepared.get(msg.txid)
        if pending is None:
            return None, []
        if not msg.ok:  # pragma: no cover - shards never refuse here
            del self._prepared[msg.txid]
            return None, [(pending.client, RemoteTxnReply(
                pending.request_id, pending.values, False,
                reason="aborted"))]
        pending.votes.add(shard)
        if not pending.votes >= set(pending.shards):
            return None, []
        del self._prepared[msg.txid]
        txn = pending.txn
        committed = self.log.sequence(txn) is txn
        # Refused: a duplicate request raced this copy's prepare round
        # and committed first.  Release the prepared copy and answer
        # with the entries the transaction already has.
        decision = ShardCommit(msg.txid, txn.handoff()) if committed \
            else ShardAbort(msg.txid)
        sends: Sends = [(shard_id, decision) for shard_id in pending.shards]
        sends.append((pending.client, RemoteTxnReply(
            pending.request_id, pending.values, True,
            self.log.entries(txn.dot))))
        return (txn if committed else None), sends
