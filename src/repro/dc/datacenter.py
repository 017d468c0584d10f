"""The data-centre actor: one SI zone, one tree root.

A DC (paper sections 3.4-3.6) is externally a *single sequential node*: its
commits are totally ordered by a sequencer, so one vector component per DC
suffices for causal metadata.  Internally it is a set of shard servers
behind a consistent-hash ring; interactive in-DC transactions commit with a
ClockSI-style two-phase commit across the touched shards.

The DC also:

* terminates edge sessions — tracks interest sets, seeds caches, assigns
  concrete commit timestamps to asynchronously committed edge transactions
  (section 3.7), and pushes K-stable updates back (section 3.8);
* geo-replicates its commit stream to sibling DCs (full mesh, FIFO) and
  tracks K-stability through gossiped acknowledgements;
* executes migrated transactions on behalf of resource-poor edge nodes
  (section 3.9) and serves the AntidoteDB-style baseline clients that have
  no cache at all (section 7.3).
"""

from __future__ import annotations

import bisect
import random
from typing import (Any, Callable, Dict, List, Optional, Set, Tuple,
                    Union)

from ..core.clock import LamportClock, VectorClock
from ..core.dot import Dot, DotTracker
from ..core.txn import CommitStamp, ObjectKey, Snapshot, Transaction, WriteOp
from ..crdt.base import state_from_dict
from ..obs.trace import DC_COMMIT, K_STABLE, REPLICATION
from ..security.enforcement import SecurityEnforcer
from ..sim.actor import Actor
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from .fanout import SessionFanout
from .interest import InterestGraph, Outcome, ShardMap, shards_of_mask
from .messages import (HEADER_BYTES, SKIP_MARKER_BYTES, CommitAck,
                       CommitReject, DCSyncPing, EdgeCommit,
                       EdgeCommitBatch, InterestAdvert, InterestChange,
                       ObjectRequest, ObjectResponse, RemoteTxnReply,
                       RemoteTxnRequest, ReplicateBatch,
                       ReplicateBatchAck, SessionAck, SessionOpen,
                       ShardApply, ShardApplyBatch, ShardBackfill,
                       ShardCommit, ShardCompactMsg, ShardPrepare,
                       ShardRead, ShardReadReply, ShardVote, UpdatePush,
                       vector_wire_size)
from .replog import (ReplLink, SkipRun, decode_stream_entry,
                     encode_stream_entry, well_formed_entries)
from .server import ShardServer
from .stability import Release, StabilityFrontier, delivery_order
from ..store.ring import HashRing


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

    def head(self) -> Any:
        return self._entries[self._head]

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


class _PendingRemoteTxn:
    """A remote transaction waiting for its shard reads."""

    def __init__(self, request: RemoteTxnRequest, client: str,
                 snapshot: Snapshot):
        self.request = request
        self.client = client
        self.snapshot = snapshot
        self.states: Dict[ObjectKey, Any] = {}
        self.waiting_reads: Set[int] = set()


class _Pending2PC:
    """A transaction in its prepare phase across shards."""

    def __init__(self, txn: Transaction, shards: List[str],
                 on_done: Callable[[bool], None]):
        self.txn = txn
        self.shards = shards
        self.votes: Set[str] = set()
        self.on_done = on_done


class DataCenter(Actor):
    """A core-cloud data centre."""

    #: CPU cost charged per client-facing request (remote transaction,
    #: edge commit, object fetch).  Requests queue behind one another, so
    #: the DC saturates under load like the paper's real servers do.
    SERVICE_TIME_MS = 0.25
    #: How often shard base versions are folded forward, and how far the
    #: fold frontier lags the stable vector (in-flight reads at older
    #: snapshots must still materialise).
    COMPACT_PERIOD_MS = 500.0
    #: Period of the heartbeat push: the only message a session outside
    #: every audience gets, and the gap detector after a lost push.
    KEEPALIVE_MS = 1000.0
    #: Anti-entropy between DCs: ping period and max resends per ping.
    SYNC_PERIOD_MS = 500.0
    SYNC_BATCH = 64
    #: Log shipping: Nagle-style flush window and frame cap.
    REPL_FLUSH_MS = 1.0
    REPL_BATCH_MAX = 256

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network] = None,
                 peer_dcs: Optional[List[str]] = None,
                 n_shards: int = 4, k_target: int = 1,
                 security: Optional[SecurityEnforcer] = None,
                 service_time_ms: Optional[float] = None,
                 rng: Optional[random.Random] = None,
                 shard_map: Optional[ShardMap] = None):
        super().__init__(node_id, loop, network, rng)
        self.peer_dcs: List[str] = list(peer_dcs or [])
        self.k_target = k_target
        self.security = security
        # Who wants which shard.  Without a map every DC is interested
        # in everything and no link ever prunes: full replication.
        self.interest = InterestGraph(node_id, self.peer_dcs, shard_map)
        self.service_time_ms = (self.SERVICE_TIME_MS
                                if service_time_ms is None
                                else service_time_ms)
        self._busy_until = 0.0
        self._compact_frontier = VectorClock.zero()
        self.every(self.COMPACT_PERIOD_MS, self._compact_shards,
                   jitter=25.0)
        self.every(self.KEEPALIVE_MS, self._keepalive, jitter=50.0)
        self.every(self.SYNC_PERIOD_MS, self._sync_peers, jitter=30.0)

        # -- shards -------------------------------------------------------
        self.ring = HashRing()
        self.shard_ids: List[str] = []
        self.shards: Dict[str, ShardServer] = {}
        for i in range(n_shards):
            shard_id = f"{node_id}/shard{i}"
            self.shards[shard_id] = ShardServer(shard_id, loop, network,
                                                rng=rng)
            self.ring.add_server(shard_id)
            self.shard_ids.append(shard_id)

        # -- commit state -----------------------------------------------------
        self._sequencer = 0
        # Dots for transactions executed *in* this DC (section 3.6/3.9)
        # come from a Lamport clock that observes every applied dot, so
        # dot order keeps extending happened-before.
        self.lamport = LamportClock()
        self.state_vector = VectorClock.zero()
        self.dots = DotTracker()
        self._txn_by_dot: Dict[Dot, Transaction] = {}
        # Per-origin-DC commit streams: ts -> dot, for stability frontiers.
        self._stream_dots: Dict[str, Dict[int, Dot]] = {node_id: {}}
        # Holder knowledge and the stable cut (see repro.dc.stability).
        self.stability = StabilityFrontier(
            node_id, k_target, self.interest, self._stream_dots,
            self._txn_by_dot, self.dots.seen, self._skip_covered)
        self.kstab = self.stability.kstab
        # Replication receive queues, one per sibling DC stream, kept
        # in origin-timestamp order.
        self._repl_queues: Dict[str, _ReplQueue] = {}
        # Log shipping: per-directed-link send state, a pending-flush
        # guard and the per-drain shard apply buffer.
        self._repl_links: Dict[str, ReplLink] = {}
        self._repl_flush_scheduled = False
        self._shard_apply_buf: Dict[str, List[dict]] = {}
        # Chain-encoded own-stream entries keyed by (previous *shipped*
        # entry ts, ts).  Pruning makes the predecessor link-dependent;
        # links that shipped the same predecessor — all of them on an
        # unbroken chain — share one encoding.
        self._entry_cache: Dict[Tuple[int, int], Tuple[dict, int]] = {}
        # Applied skip runs per origin, sorted by start (the flat
        # frontier covers them without a stored entry).
        self._skip_runs: Dict[str, List[SkipRun]] = {}
        self._skip_starts: Dict[str, List[int]] = {}

        # -- sessions / pending work -----------------------------------------------
        # Edge sessions, their interest index and per-session push
        # cursors (see repro.dc.fanout).
        self._fanout = SessionFanout()
        self.sessions = self._fanout.sessions
        self._next_request = 0
        self._read_gathers: Dict[int, Tuple[Set[int], Dict[int, dict],
                                            Callable[[List[dict]], None],
                                            List[int]]] = {}
        self._pending_2pc: Dict[int, _Pending2PC] = {}
        self._next_txid = 0
        self._remote_request_dots: Dict[Tuple[str, int], Dot] = {}

        # ``replicated_in`` counts remote transactions actually applied
        # (once each); duplicate or stale stream entries — anti-entropy
        # resends, migration copies — land in ``repl_dup_in`` instead.
        self.stats = {"committed": 0, "replicated_in": 0,
                      "edge_commits": 0, "remote_txns": 0,
                      "rejected": 0, "repl_batches_out": 0,
                      "repl_batches_in": 0, "repl_acks_out": 0,
                      "repl_acks_in": 0, "repl_dup_in": 0,
                      "repl_malformed_in": 0,
                      "repl_pruned_txns": 0, "repl_pruned_bytes": 0,
                      "repl_backfills_out": 0, "repl_backfills_in": 0,
                      "repl_adverts_in": 0,
                      "pushes_out": 0, "heartbeats_out": 0}

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Any, sender: str) -> None:
        if isinstance(message, (EdgeCommit, EdgeCommitBatch,
                                RemoteTxnRequest,
                                ObjectRequest)) and self.service_time_ms:
            # Client-facing work queues behind a single service pipeline.
            cost = self.service_time_ms
            if isinstance(message, EdgeCommitBatch):
                cost *= max(1, len(message.txns))
            self._busy_until = max(self._busy_until, self.now) + cost
            delay = self._busy_until - self.now
            self.loop.schedule(
                delay, lambda: self._dispatch(message, sender))
            return
        self._dispatch(message, sender)

    def _compact_shards(self) -> None:
        """Tell shards to fold bases up to a lagged stable frontier."""
        frontier = self._compact_frontier
        if len(frontier):
            message = ShardCompactMsg(frontier.to_dict())
            for shard in self.shard_ids:
                self.send(shard, message)
        self._compact_frontier = self.stable_vector

    def _dispatch(self, message: Any, sender: str) -> None:
        if isinstance(message, SessionOpen):
            self._on_session_open(message, sender)
        elif isinstance(message, InterestChange):
            self._on_interest_change(message, sender)
        elif isinstance(message, ObjectRequest):
            self._on_object_request(message, sender)
        elif isinstance(message, EdgeCommit):
            self._on_edge_commit(message, sender)
        elif isinstance(message, EdgeCommitBatch):
            for txn_dict in message.txns:
                self._on_edge_commit(EdgeCommit(txn_dict), sender)
        elif isinstance(message, RemoteTxnRequest):
            self._on_remote_txn(message, sender)
        elif isinstance(message, ReplicateBatch):
            self._on_replicate_batch(message, sender)
        elif isinstance(message, InterestAdvert):
            self._on_interest_advert(message, sender)
        elif isinstance(message, ShardBackfill):
            self._on_shard_backfill(message, sender)
        elif isinstance(message, ReplicateBatchAck):
            self._on_replicate_batch_ack(message, sender)
        elif isinstance(message, DCSyncPing):
            self._on_sync_ping(message, sender)
        elif isinstance(message, ShardReadReply):
            self._on_shard_read_reply(message, sender)
        elif isinstance(message, ShardVote):
            self._on_shard_vote(message, sender)
        else:
            raise TypeError(f"DC {self.node_id}: unexpected message"
                            f" {message!r}")

    # ------------------------------------------------------------------
    # sessions and interest sets
    # ------------------------------------------------------------------
    def _on_session_open(self, msg: SessionOpen, sender: str) -> None:
        # Causal-compatibility check (section 3.8): the edge state must be
        # included in ours, otherwise its transactions cannot be committed
        # here and the session is refused until the gap closes.
        edge_vector = VectorClock(msg.state_vector)
        deps = [Dot.from_dict(d) for d in msg.local_deps]
        compatible = edge_vector.leq(self.state_vector) and all(
            self.dots.seen(d) or d.origin == msg.edge_id for d in deps)
        if not compatible:
            self.send(sender, SessionAck(self.node_id, (), {},
                                         accepted=False,
                                         reason="causally-incompatible"))
            self.stats["rejected"] += 1
            return
        interest = {ObjectKey.from_dict(key_dict): type_name
                    for key_dict, type_name in msg.interest}
        self._carry_out(self.interest.release(
            self._fanout.open(msg.edge_id, interest)))
        self.interest.retain(interest)

        keys = list(interest.items())
        if not keys:
            seed_vector = self.stable_vector.merge(edge_vector)
            self._fanout.restart(msg.edge_id, seed_vector.to_dict())
            self.send(sender, SessionAck(self.node_id, (),
                                         seed_vector.to_dict()))
            return
        local_deps = msg.local_deps

        def fire() -> None:
            # Seed no older than what the edge already observed: after a
            # migration the edge may be ahead of our *stable* vector
            # (though within our state vector, as checked above).  The
            # cut is taken at fire time so a seed deferred on shard
            # backfill covers the freshly backfilled entries too — and
            # it is where the session's push chain restarts: what is
            # stable by now is in the seed, what becomes stable later
            # is pushed.
            seed_vector = self.stable_vector.merge(edge_vector)
            self._fanout.restart(msg.edge_id, seed_vector.to_dict())

            def done(states: List[dict]) -> None:
                self.send(sender, SessionAck(self.node_id, tuple(states),
                                             seed_vector.to_dict()))

            self._gather_reads(keys, seed_vector, local_deps, done)

        self._carry_out(self.interest.subscribe(
            (k for k, _t in keys), fire))

    def close_session(self, edge_id: str) -> None:
        self._carry_out(self.interest.release(self._fanout.close(edge_id)))

    def _carry_out(self, outcome: Outcome) -> None:
        """Do what an interest decision asks: run the reads it found
        ready, then advertise to every peer."""
        fires, adverts = outcome
        for fire in fires:
            fire()
        for advert in adverts:
            for peer in self.interest.peers:
                self.send(peer, advert)

    def _on_interest_change(self, msg: InterestChange, sender: str) -> None:
        if msg.edge_id not in self.sessions:
            return
        dropped = [key for key in map(ObjectKey.from_dict, msg.remove)
                   if self._fanout.drop_interest(msg.edge_id, key)]
        self._carry_out(self.interest.release(dropped))
        added = [(ObjectKey.from_dict(k), t) for k, t in msg.add]
        for key, type_name in added:
            self._fanout.add_interest(msg.edge_id, key, type_name)
        self.interest.retain(k for k, _t in added)
        if added:
            edge_vector = VectorClock(msg.state_vector)

            def fire() -> None:
                seed_vector = self.stable_vector.merge(edge_vector)

                def done(states: List[dict]) -> None:
                    self.send(sender, SessionAck(
                        self.node_id, tuple(states),
                        seed_vector.to_dict()))
                self._gather_reads(added, seed_vector, (), done)

            self._carry_out(self.interest.subscribe(
                (k for k, _t in added), fire))

    def _on_object_request(self, msg: ObjectRequest, sender: str) -> None:
        key = ObjectKey.from_dict(msg.key)
        client_vector = VectorClock(msg.state_vector)

        def fire() -> None:
            seed_vector = self.stable_vector.merge(client_vector)

            def done(states: List[dict]) -> None:
                self.send(sender, ObjectResponse(
                    dict(states[0]), seed_vector.to_dict()))

            self._gather_reads([(key, msg.type_name)], seed_vector, (),
                               done)

        self._carry_out(self.interest.subscribe([key], fire))

    # ------------------------------------------------------------------
    # shard read gathering
    # ------------------------------------------------------------------
    def _gather_reads(self, keys: List[Tuple[ObjectKey, str]],
                      vector: VectorClock, extra_dots: Tuple[dict, ...],
                      done: Callable[[List[dict]], None]) -> None:
        """Fetch object states (at ``vector``) from their owning shards."""
        request_ids: List[int] = []
        for key, type_name in keys:
            request_id = self._next_request
            self._next_request += 1
            request_ids.append(request_id)
            shard = self.ring.lookup(key)
            self.send(shard, ShardRead(request_id, key.to_dict(),
                                       type_name, vector.to_dict(),
                                       tuple(extra_dots)))
        waiting = set(request_ids)
        results: Dict[int, dict] = {}
        for request_id in request_ids:
            self._read_gathers[request_id] = (waiting, results, done,
                                              request_ids)

    def _on_shard_read_reply(self, msg: ShardReadReply, sender: str) -> None:
        gather = self._read_gathers.pop(msg.request_id, None)
        if gather is None:
            return
        waiting, results, done, order = gather
        waiting.discard(msg.request_id)
        results[msg.request_id] = msg.object_state
        if not waiting:
            done([results[r] for r in order])

    # ------------------------------------------------------------------
    # edge transaction commitment (section 3.7)
    # ------------------------------------------------------------------
    def _on_edge_commit(self, msg: EdgeCommit, sender: str) -> None:
        txn = Transaction.from_dict(msg.txn)
        self.stats["edge_commits"] += 1
        if self.dots.seen(txn.dot):
            # Duplicate (e.g. resent after migration, section 3.8): reply
            # with the already assigned equivalent commit stamp.
            known = self._txn_by_dot.get(txn.dot)
            if known is not None:
                self.send(sender, CommitAck(txn.dot.to_dict(),
                                            dict(known.commit.entries)))
            return
        if not txn.snapshot.satisfied_by(self.state_vector, self.dots):
            # The edge depends on transactions we have not yet received
            # (possible after migration); it must retry later.
            self.send(sender, CommitReject(txn.dot.to_dict(),
                                           "missing-dependencies"))
            self.stats["rejected"] += 1
            return
        self._commit_local(txn)
        self.send(sender, CommitAck(txn.dot.to_dict(),
                                    dict(txn.commit.entries)))

    def _commit_local(self, txn: Transaction,
                      notify_shards: bool = True) -> None:
        """Sequence a transaction into this DC's commit stream."""
        self._sequencer += 1
        ts = self._sequencer
        txn.commit.add_entry(self.node_id, ts)
        keys = txn.keys
        self._stream_dots.setdefault(self.node_id, {})[ts] = txn.dot
        self.interest.note_entry(txn.dot, self.node_id, keys, own_ts=ts)
        self.lamport.observe(txn.dot.counter)
        self.dots.observe(txn.dot)
        self._txn_by_dot[txn.dot] = txn
        self.state_vector = self.state_vector.advance(self.node_id, ts)
        self.stats["committed"] += 1
        if self.obs.enabled:
            self.obs.record(DC_COMMIT, txn.dot, self.node_id, self.now,
                            ts=ts)
        if notify_shards:
            # Already committed elsewhere (edge txn); store, no 2PC.
            for shard in self.ring.partition(keys):
                self.send(shard, ShardApply(txn.to_dict()))
        # K-stability bookkeeping and geo-replication.  The commit
        # stream itself is the send buffer: commits in the same flush
        # window ship together as ReplicateBatch frames.
        self.stability.record(txn.dot, {self.node_id})
        self._schedule_repl_flush()
        if self.required_k(txn.dot) <= 1:
            # With K > 1 a fresh local commit has a single holder, so it
            # cannot move the stable cut (nor unblock releases waiting on
            # our stream: those need this very dot stable first) — unless
            # we are the only replica interested in it, which makes it
            # stable at birth whatever the global K target.
            self._release_stable()

    # ------------------------------------------------------------------
    # remote (in-DC) transactions: baseline clients & migration (3.6/3.9)
    # ------------------------------------------------------------------
    def _on_remote_txn(self, msg: RemoteTxnRequest, sender: str) -> None:
        self.stats["remote_txns"] += 1
        if msg.snapshot is not None:
            # Migration primes the snapshot with the client's own state
            # (section 3.9); we raise it to at least our stable vector —
            # still a superset of the client's dependencies, and it keeps
            # shard reads above the compaction frontier.
            client_vector = VectorClock(msg.snapshot)
            snapshot = Snapshot(client_vector.merge(self.stable_vector),
                                [Dot.from_dict(d) for d in msg.local_deps])
            if not snapshot.satisfied_by(self.state_vector, self.dots):
                self.send(sender, RemoteTxnReply(
                    msg.request_id, (), False,
                    reason="missing-dependencies"))
                self.stats["rejected"] += 1
                return
        else:
            snapshot = Snapshot(self.state_vector)
        pending = _PendingRemoteTxn(msg, sender, snapshot)
        keys: List[Tuple[ObjectKey, str]] = []
        seen: Set[ObjectKey] = set()
        for key_dict, type_name in msg.reads:
            key = ObjectKey.from_dict(key_dict)
            if key not in seen:
                keys.append((key, type_name))
                seen.add(key)
        for key_dict, type_name, _method, _args in msg.updates:
            key = ObjectKey.from_dict(key_dict)
            if key not in seen:
                keys.append((key, type_name))
                seen.add(key)
        if not keys:
            self.send(sender, RemoteTxnReply(msg.request_id, (), True))
            return

        def done(states: List[dict]) -> None:
            for (key, _t), state in zip(keys, states):
                pending.states[key] = state_from_dict(state["base"])
            self._execute_remote_txn(pending)

        def fire() -> None:
            self._gather_reads(keys, snapshot.vector,
                               tuple(msg.local_deps), done)

        self._carry_out(self.interest.subscribe(
            (k for k, _t in keys), fire))

    def _execute_remote_txn(self, pending: _PendingRemoteTxn) -> None:
        msg = pending.request
        # Reads are taken from the materialised snapshot states.
        values = tuple(pending.states[ObjectKey.from_dict(k)].value()
                       for k, _t in msg.reads)
        if not msg.updates:
            self.send(pending.client,
                      RemoteTxnReply(msg.request_id, values, True))
            return
        # Prepare the updates against the snapshot (reading own writes).
        writes: List[WriteOp] = []
        for key_dict, type_name, method, args in msg.updates:
            key = ObjectKey.from_dict(key_dict)
            state = pending.states[key]
            op = state.prepare(method, *args)
            writes.append(WriteOp(key, op))
        # Idempotent retries: a repeated (client, request) pair re-uses the
        # dot assigned the first time and just reports its commit stamp.
        request_key = (msg.client_id, msg.request_id)
        known_dot = self._remote_request_dots.get(request_key)
        if known_dot is not None and self.dots.seen(known_dot):
            known = self._txn_by_dot.get(known_dot)
            entries = dict(known.commit.entries) if known else {}
            self.send(pending.client, RemoteTxnReply(
                msg.request_id, values, True, entries))
            return
        if msg.dot is not None:
            dot = Dot.from_dict(msg.dot)
        elif known_dot is not None:
            # A duplicate that raced the first copy's commit: re-use the
            # dot assigned the first time, so both copies collapse onto
            # one transaction (journal appends dedupe by dot).
            dot = known_dot
        else:
            # Server-assigned Lamport dot: orders after everything this DC
            # has applied, in a DC-scoped origin namespace.
            dot = Dot(self.lamport.tick(), f"{self.node_id}/srv")
        self._remote_request_dots[request_key] = dot
        txn = Transaction(dot=dot, origin=msg.client_id,
                          snapshot=pending.snapshot, commit=CommitStamp(),
                          writes=writes, issuer=msg.issuer)
        if self.dots.seen(dot):
            known = self._txn_by_dot.get(dot)
            entries = dict(known.commit.entries) if known else {}
            self.send(pending.client, RemoteTxnReply(
                msg.request_id, values, True, entries))
            return
        # Apply each prepared op to the snapshot buffer so that several
        # updates to one object within the transaction compose.
        for write in txn.tagged_writes():
            pending.states[write.key].apply(write.op)
        # Two-phase commit across the touched shards (ClockSI style).
        shards = sorted(self.ring.partition(txn.keys))
        txid = self._next_txid
        self._next_txid += 1

        def on_done(ok: bool) -> None:
            if ok:
                self._commit_local(txn, notify_shards=False)
                for shard in shards:
                    self.send(shard, ShardCommit(txid, txn.to_dict()))
                self.send(pending.client, RemoteTxnReply(
                    msg.request_id, values, True,
                    dict(txn.commit.entries)))
            else:  # pragma: no cover - shards never refuse in simulation
                self.send(pending.client, RemoteTxnReply(
                    msg.request_id, values, False, reason="aborted"))

        self._pending_2pc[txid] = _Pending2PC(txn, shards, on_done)
        for shard in shards:
            self.send(shard, ShardPrepare(txid, txn.to_dict()))

    def _on_shard_vote(self, msg: ShardVote, sender: str) -> None:
        pending = self._pending_2pc.get(msg.txid)
        if pending is None:
            return
        if not msg.ok:  # pragma: no cover - shards never refuse here
            del self._pending_2pc[msg.txid]
            pending.on_done(False)
            return
        pending.votes.add(sender)
        if pending.votes >= set(pending.shards):
            del self._pending_2pc[msg.txid]
            pending.on_done(True)

    # ------------------------------------------------------------------
    # geo-replication (sections 3.4, 3.6) and K-stability (3.8)
    # ------------------------------------------------------------------
    # -- log shipping (send side) ---------------------------------------
    def _link(self, peer: str) -> ReplLink:
        link = self._repl_links.get(peer)
        if link is None:
            link = self._repl_links[peer] = ReplLink(peer)
        return link

    def _schedule_repl_flush(self) -> None:
        """Arm the Nagle-style flush timer once per window."""
        if self._repl_flush_scheduled or not self.peer_dcs:
            return
        self._repl_flush_scheduled = True
        self.set_timer(self.REPL_FLUSH_MS, self._flush_repl_links)

    def _flush_repl_links(self) -> None:
        self._repl_flush_scheduled = False
        for dc in self.peer_dcs:
            self._flush_link(self._link(dc))

    def _flush_link(self, link: ReplLink,
                    limit: Optional[int] = None) -> None:
        """Ship the unsent suffix of our stream as contiguous frames.

        Each position of the window travels either as a full entry or,
        when its write-shard mask misses the peer's interest, inside a
        mask-homogeneous ``(count, mask)`` skip run.  Entries nobody
        can prune (mask 0: metadata-only, or full replication) always
        ship — they carry causal structure every replica needs.

        Full entries are chain-encoded: each snapshot vector is a delta
        against the previous entry *shipped on this link*, and the frame
        carries the vector just before its first entry as the base, so
        decoding is self-contained even across lost acks.  On an
        unbroken chain the predecessor is ``ts - 1`` for every link, so
        each entry is serialised exactly once and shared by all of them.
        """
        top = self._sequencer
        if limit is not None:
            top = min(top, link.sent_ts + limit)
        sender_vector = self.state_vector.to_dict()
        peer = link.peer
        wants = self.interest.wants
        stream_mask = self.interest.stream_mask
        while link.sent_ts < top:
            lo = link.sent_ts + 1
            hi = min(top, link.sent_ts + self.REPL_BATCH_MAX)
            base = self._chain_base(link.chain_ts)
            elements: List[Any] = []
            pruned = 0
            pruned_bytes = 0
            size = (HEADER_BYTES + len(self.node_id) + 8
                    + 8 * len(base) + 8 * len(sender_vector))
            chain_ts = link.chain_ts
            for ts in range(lo, hi + 1):
                if wants(peer, ts):
                    encoded, entry_size = self._encode_entry(chain_ts, ts)
                    elements.append(encoded)
                    size += entry_size
                    chain_ts = ts
                    continue
                mask = stream_mask(ts)
                last = elements[-1] if elements else None
                if type(last) is tuple and last[1] == mask:
                    elements[-1] = (last[0] + 1, mask)   # the run goes on
                else:
                    elements.append((1, mask))
                    size += SKIP_MARKER_BYTES
                pruned += 1
                # What the entry would have cost on the unbroken
                # chain — the honest measure of bytes saved.
                pruned_bytes += self._encode_entry(ts - 1, ts)[1]
            frame = ReplicateBatch(self.node_id, lo, base.to_dict(),
                                   tuple(elements), sender_vector)
            self.send(peer, frame, size_bytes=size)
            if self.obs.enabled:
                stream = self._stream_dots[self.node_id]
                for ts in range(lo, hi + 1):
                    if wants(peer, ts):
                        self.obs.record(REPLICATION, stream[ts],
                                        self.node_id, self.now,
                                        phase="ship", peer=peer, ts=ts)
            shipped = hi - lo + 1 - pruned
            link.sent_ts = hi
            link.chain_ts = chain_ts
            link.batches_sent += 1
            link.txns_sent += shipped
            link.bytes_sent += size
            link.txns_pruned += pruned
            link.pruned_bytes += pruned_bytes
            self.stats["repl_batches_out"] += 1
            self.stats["repl_pruned_txns"] += pruned
            self.stats["repl_pruned_bytes"] += pruned_bytes

    def _chain_base(self, prev_ts: int) -> VectorClock:
        """Snapshot vector of own stream entry ``prev_ts`` — what the
        entry shipped after it is encoded against (zero before 1)."""
        if prev_ts <= 0:
            return VectorClock.zero()
        prev = self._txn_by_dot[self._stream_dots[self.node_id][prev_ts]]
        return prev.snapshot.vector

    def _encode_entry(self, prev_ts: int, ts: int) -> Tuple[dict, int]:
        """Chain-encode own stream entry ``ts`` against ``prev_ts``,
        the last entry shipped before it; memoised per pair.

        Stream entries are immutable once sequenced, except that a
        migration duplicate may graft extra equivalent commit entries
        later — ``_adopt_commit_entries`` invalidates the cache then.
        """
        key = (prev_ts, ts)
        cached = self._entry_cache.get(key)
        if cached is None:
            txn = self._txn_by_dot[self._stream_dots[self.node_id][ts]]
            cached = self._entry_cache[key] = encode_stream_entry(
                txn, self.node_id, ts, self._chain_base(prev_ts))
        return cached

    # -- log shipping (receive side) ------------------------------------
    def _on_replicate_batch(self, msg: ReplicateBatch, sender: str) -> None:
        """Receive a frame: full entries and skip runs, in stream order.

        The flat stream cursor advances over both element kinds, so the
        state vector keeps meaning "every position up to here is
        *resolved*" — applied or deliberately pruned.  Skip runs whose
        mask intersects our interest reveal a stale sender view; they
        still advance the cursor (the stream must not stall) and the
        missing shards are healed through the backfill protocol.

        A malformed frame is dropped whole before it touches any state,
        and not acked: an honest sender's sync-ping rewind re-ships it.
        """
        if not well_formed_entries(msg.entries, self.interest.shard_space):
            self.stats["repl_malformed_in"] += 1
            return
        self.stats["repl_batches_in"] += 1
        # The sender applied everything its vector covers: that is the
        # coalesced stability gossip, and it must be noted *before* the
        # drain so apply-time holder counts see it.
        self.stability.note_peer_applied(
            sender, VectorClock(msg.sender_vector), self.state_vector)
        base = VectorClock(msg.base_vector)
        origin_dc = msg.origin_dc
        queue = self._repl_queues.setdefault(origin_dc, _ReplQueue())
        applied = False
        ts = msg.start_ts
        for element in msg.entries:
            # Fast path: with nothing queued ahead of it, an in-order
            # head that extends our frontier (an entry with a satisfied
            # snapshot, or a skip run) applies without a queue
            # round-trip.  Anything else (hole, stale resend, migration
            # duplicate) takes the queue and the generic drain sorts it
            # out.
            in_order = (not len(queue)
                        and ts == self.state_vector[origin_dc] + 1)
            if not isinstance(element, dict):
                count, mask = element
                run = SkipRun(ts, count, mask)
                if in_order:
                    self._apply_skip_run(origin_dc, run)
                    applied = True
                else:
                    queue.insert_run(run)
                ts += count
                continue
            txn = decode_stream_entry(element, origin_dc, ts, base)
            seen = self.dots.seen(txn.dot)
            if seen:
                # Stale resend or migration duplicate: account it as a
                # duplicate, never as fresh replication traffic.
                self.stats["repl_dup_in"] += 1
            # The chain continues from the entry just decoded.
            base = txn.snapshot.vector
            if (in_order and not seen
                    and self._snapshot_ready(origin_dc, txn)):
                self._apply_remote_txn(origin_dc, ts, txn)
                applied = True
            else:
                queue.insert(ts, txn)
            ts += 1
        if applied or len(queue):
            # Fast-path applies moved our frontier, so other streams may
            # have unblocked: rescan them all.  _process_repl_queues ends
            # with shard-apply flush and a stability sweep.
            self._process_repl_queues(moved=None if applied else origin_dc)
        self._send_batch_ack(sender)

    def _apply_skip_run(self, origin_dc: str, run: SkipRun) -> None:
        """Advance a stream frontier over positions the sender pruned.

        Safe because this DC never serves or pushes entries it does not
        hold: the flat frontier only asserts the stream is *resolved* up
        to here, and per-shard reads gate on interest plus backfill
        completion.  A mask that intersects our interest means the
        sender pruned on a stale view — request a backfill of those
        shards from the stream origin instead of losing data.
        """
        frontier = self.state_vector[origin_dc]
        start = max(run.start_ts, frontier + 1)
        if start > run.end_ts:
            return  # fully stale resend
        wrong = self.interest.audit_skip(origin_dc, run.mask)
        if wrong:
            self.send(origin_dc, self.interest.advert(wrong))
        self.state_vector = self.state_vector.advance(
            origin_dc, run.end_ts)
        # Materialise the stream dict even when every entry is pruned:
        # the stability sweep iterates it to hop the stable frontier
        # over skip-covered positions.
        self._stream_dots.setdefault(origin_dc, {})
        recorded = SkipRun(start, run.end_ts - start + 1, run.mask)
        runs = self._skip_runs.setdefault(origin_dc, [])
        starts = self._skip_starts.setdefault(origin_dc, [])
        index = bisect.bisect_right(starts, recorded.start_ts)
        runs.insert(index, recorded)
        starts.insert(index, recorded.start_ts)

    def _skip_covered(self, origin_dc: str, ts: int) -> Optional[SkipRun]:
        """The applied skip run covering ``(origin, ts)``, if any."""
        starts = self._skip_starts.get(origin_dc)
        if not starts:
            return None
        index = bisect.bisect_right(starts, ts) - 1
        if index < 0:
            return None
        run = self._skip_runs[origin_dc][index]
        return run if run.covers(ts) else None

    def _snapshot_ready(self, origin_dc: str, txn: Transaction) -> bool:
        """Snapshot check, exempting deps pruned from ``origin_dc``.

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
        snapshot = txn.snapshot
        if snapshot.satisfied_by(self.state_vector, self.dots):
            return True
        return (origin_dc in self._skip_runs
                and snapshot.vector.leq(self.state_vector))

    # -- interest adverts and shard backfill ----------------------------
    def _on_interest_advert(self, msg: InterestAdvert,
                            sender: str) -> None:
        self.stats["repl_adverts_in"] += 1
        changed = self.interest.fold_advert(sender, msg.shards_mask,
                                            msg.seq)
        for shard in msg.backfill:
            self._send_backfill(sender, shard)
        if changed:
            # A shrunk peer interest can lower required_k thresholds.
            self._release_stable()

    def _send_backfill(self, peer: str, shard: int) -> None:
        """Answer a catch-up request from our own commit stream.

        FIFO links make subscribe + backfill gap-free: ``upto`` is our
        sequencer at response time, and every later entry ships as a
        live frame that the peer's (already folded) interest keeps
        un-pruned.  The holder credit is optimistic — the requester's
        retry-on-ping loop re-requests a lost backfill, so the credit
        converges with reality.
        """
        bit = 1 << shard
        stream = self._stream_dots.get(self.node_id, {})
        stream_mask = self.interest.stream_mask
        entries = []
        size = HEADER_BYTES + 12
        for ts in range(1, self._sequencer + 1):
            if stream_mask(ts) & bit:
                txn = self._txn_by_dot[stream[ts]]
                entries.append((ts, txn.to_dict()))
                size += 8 + txn.byte_size()
        self.send(peer, ShardBackfill(shard, tuple(entries),
                                      self._sequencer),
                  size_bytes=size)
        self.stats["repl_backfills_out"] += 1
        credited = [self.stability.credit(stream[ts], peer)
                    for ts, _payload in entries]
        if any(credited):
            self._release_stable()

    def _on_shard_backfill(self, msg: ShardBackfill,
                           sender: str) -> None:
        self.stats["repl_backfills_in"] += 1
        stream = self._stream_dots.setdefault(sender, {})
        applied = False
        for ts, payload in msg.entries:
            txn = Transaction.from_dict(payload)
            if self.dots.seen(txn.dot):
                self.stats["repl_dup_in"] += 1
                self._adopt_commit_entries(txn)
                if ts not in stream:
                    stream[ts] = txn.dot
                    self.stability.fill(sender, ts, txn.dot)
                continue
            self._apply_offstream_entry(sender, ts, txn)
            applied = True
        if applied:
            self._flush_shard_applies()
            self._release_stable()
        self._carry_out(self.interest.backfilled(msg.shard, sender))

    def _apply_offstream_entry(self, origin_dc: str, ts: int,
                               txn: Transaction) -> None:
        """Store a full entry at a position the flat cursor already
        resolved (backfill, or a full resend racing a skip run).

        Everything ``_apply_remote_txn`` does except advancing the
        state vector — the position is covered, only the data was
        missing.
        """
        self.stats["replicated_in"] += 1
        if self.obs.enabled:
            self.obs.record(REPLICATION, txn.dot, self.node_id,
                            self.now, phase="apply", origin=origin_dc,
                            ts=ts, backfill=True)
        self.lamport.observe(txn.dot.counter)
        self.dots.observe(txn.dot)
        self._txn_by_dot[txn.dot] = txn
        self._stream_dots.setdefault(origin_dc, {})[ts] = txn.dot
        self.stability.fill(origin_dc, ts, txn.dot)
        self._store_remote(origin_dc, ts, txn)

    def _send_batch_ack(self, peer: str) -> None:
        self.stats["repl_acks_out"] += 1
        ack = ReplicateBatchAck(self.state_vector.to_dict())
        self.send(peer, ack,
                  size_bytes=HEADER_BYTES
                  + vector_wire_size(self.state_vector))

    def _on_replicate_batch_ack(self, msg: ReplicateBatchAck,
                                sender: str) -> None:
        self._link(sender).acks_in += 1
        self.stats["repl_acks_in"] += 1
        if self.stability.note_peer_applied(
                sender, VectorClock(msg.applied_vector), self.state_vector):
            self._release_stable()

    def required_k(self, dot: Dot) -> int:
        """Interested-replica stability threshold for ``dot``."""
        return self.interest.required_k(dot, self.k_target)

    def _process_repl_queues(self, moved: Optional[str] = None) -> None:
        """Apply queued remote transactions whose dependencies are met.

        When ``moved`` names the only queue whose frontier could have
        changed (a frame just landed on it), drain it first; if it made
        no progress, nothing changed globally and the full rescan is
        skipped.  If it did progress, other queues may have unblocked
        (cross-stream snapshot dependencies), so loop until quiescent.
        """
        if moved is not None:
            queue = self._repl_queues.get(moved)
            if queue is None or not self._drain_queue(moved, queue):
                self._flush_shard_applies()
                self._release_stable()
                return
        progress = True
        while progress:
            progress = False
            for origin_dc, queue in self._repl_queues.items():
                if self._drain_queue(origin_dc, queue):
                    progress = True
        self._flush_shard_applies()
        self._release_stable()

    def _drain_queue(self, origin_dc: str, queue: _ReplQueue) -> bool:
        """Drain one stream's queue; returns True if anything applied.

        Each stream is applied *contiguously*: the vector component for
        ``origin_dc`` asserts "we applied its stream up to here", so a
        head past ``frontier + 1`` must wait for the gap below it to be
        filled (anti-entropy resends it, because our advertised frontier
        still points at the hole).  Skipping ahead would advertise
        transactions we never received and stall replication forever.
        """
        progress = False
        while len(queue):
            head = queue.head()
            if isinstance(head, SkipRun):
                frontier = self.state_vector[origin_dc]
                if head.end_ts <= frontier:
                    queue.popleft()  # fully stale resend
                    progress = True
                    continue
                if head.start_ts > frontier + 1:
                    break  # hole below the run: wait for the resend
                queue.popleft()
                self._apply_skip_run(origin_dc, head)
                progress = True
                continue
            txn = head
            ts = txn.commit.entries[origin_dc]
            frontier = self.state_vector[origin_dc]
            if ts <= frontier:
                if not self.dots.seen(txn.dot):
                    # The position was skip-covered and the full entry
                    # arrived afterwards (our interest raced the
                    # sender's view): late-fill the data off-stream.
                    self._apply_offstream_entry(origin_dc, ts, txn)
                else:
                    # Stale resend of an entry we already cover.
                    self._adopt_commit_entries(txn)
                queue.popleft()
                progress = True
                continue
            if ts > frontier + 1:
                break  # hole below the head: wait for the resend
            if self.dots.seen(txn.dot):
                # Duplicate via another DC (migration); adopt the
                # extra equivalent commit entry (section 3.8).  The
                # head is exactly frontier + 1 here, so advancing the
                # single component is the merge.
                self._adopt_commit_entries(txn)
                self.state_vector = self.state_vector.advance(
                    origin_dc, ts)
                self._stream_dots.setdefault(
                    origin_dc, {})[ts] = txn.dot
                # The stream coordinate is new even if the dot is not:
                # peers whose vectors already cover it hold the txn.
                self.stability.record(
                    txn.dot, self.stability.known_holders(origin_dc, ts))
                queue.popleft()
                progress = True
                continue
            if not self._snapshot_ready(origin_dc, txn):
                break  # blocked on a third DC's stream
            queue.popleft()
            self._apply_remote_txn(origin_dc, ts, txn)
            progress = True
        return progress

    def _adopt_commit_entries(self, txn: Transaction) -> None:
        """Merge equivalent commit stamps from a duplicate copy."""
        known = self._txn_by_dot.get(txn.dot)
        if known is None:
            return
        changed = False
        for dc, entry_ts in txn.commit.entries.items():
            if dc not in known.commit.entries:
                known.commit.add_entry(dc, entry_ts)
                changed = True
        if changed:
            # A grafted equivalent entry invalidates the cached wire
            # encoding of our own stream position for this txn.
            own_ts = known.commit.entries.get(self.node_id)
            if own_ts is not None:
                for key in [key for key in self._entry_cache
                            if key[1] == own_ts]:
                    del self._entry_cache[key]

    def _apply_remote_txn(self, origin_dc: str, ts: int,
                          txn: Transaction) -> None:
        # The *only* place a remote transaction enters this DC's state:
        # counting here makes ``replicated_in`` exact (one per unique
        # transaction), immune to anti-entropy resend inflation.
        self.stats["replicated_in"] += 1
        if self.obs.enabled:
            self.obs.record(REPLICATION, txn.dot, self.node_id,
                            self.now, phase="apply", origin=origin_dc,
                            ts=ts)
        self.lamport.observe(txn.dot.counter)
        self.dots.observe(txn.dot)
        self._txn_by_dot[txn.dot] = txn
        self._stream_dots.setdefault(origin_dc, {})[ts] = txn.dot
        # Advance only the stream we received on: other equivalent commit
        # entries (section 3.8) belong to streams that ship separately, and
        # merging them here would claim transactions we have not applied.
        # Contiguity makes ts == frontier + 1, so a single-component
        # advance is the merge.
        self.state_vector = self.state_vector.advance(origin_dc, ts)
        self._store_remote(origin_dc, ts, txn)

    def _store_remote(self, origin_dc: str, ts: int,
                      txn: Transaction) -> None:
        """What a stream apply and an off-stream fill share: note the
        entry's shards, its holders, and buffer it for the stores."""
        keys = txn.keys
        self.interest.note_entry(txn.dot, origin_dc, keys)
        # Every peer whose applied vector already covers this coordinate
        # holds the transaction — that knowledge arrived coalesced on
        # batch acks rather than per-txn gossip.
        self.stability.record(
            txn.dot, self.stability.known_holders(origin_dc, ts, txn.dot))
        shards = self.ring.partition(keys)
        if not shards:
            return  # metadata-only txn: nothing for the stores
        payload = txn.to_dict()
        for shard in shards:
            self._shard_apply_buf.setdefault(shard, []).append(payload)

    def _flush_shard_applies(self) -> None:
        """Ship buffered remote applies, one frame per shard."""
        if not self._shard_apply_buf:
            return
        buffered, self._shard_apply_buf = self._shard_apply_buf, {}
        for shard, payloads in buffered.items():
            if len(payloads) == 1:
                only = payloads[0]
                self.send(shard, ShardApply(only))
            else:
                self.send(shard, ShardApplyBatch(tuple(payloads)))

    # -- anti-entropy: repair replication across partitions -----------------
    def _sync_peers(self) -> None:
        if not self.peer_dcs:
            return
        ping = DCSyncPing(self.state_vector.to_dict(),
                          self.stable_vector.to_dict(),
                          *self.interest.advertised())
        for dc in self.peer_dcs:
            self.send(dc, ping)

    def _on_sync_ping(self, msg: DCSyncPing, sender: str) -> None:
        """Repair the peer's view of our stream and of stability.

        The ping's state vector is stability gossip like any ack, and
        it rewinds the link's shipped frontier to the peer's advertised
        one, so lost frames are re-shipped as ordinary batches (capped
        at ``SYNC_BATCH`` entries per ping).

        A ping's advertised frontier is one RTT stale: frames shipped
        inside that window are still in flight, not lost.  Rewinding on
        every ping therefore resent the in-flight suffix each period —
        pure duplicate traffic that the receive queue's dedup set no
        longer filters once the entries have been applied and popped.
        The rewind now waits for evidence of loss: the peer advertising
        the *same* stalled frontier twice in a row.
        """
        self.stability.note_peer_applied(
            sender, VectorClock(msg.state_vector), self.state_vector)
        if msg.interest_mask is not None:
            self.interest.fold_advert(sender, msg.interest_mask,
                                      msg.interest_seq)
        owed = self.interest.owed(sender)
        if owed:
            # A backfill response was lost: ask again.
            self.send(sender, self.interest.advert(owed))
        link = self._link(sender)
        peer_has = msg.state_vector.get(self.node_id, 0)
        if peer_has > link.sent_ts:
            # The peer holds entries we never shipped on this link
            # (received via a third DC after a migration): skip them.
            link.sent_ts = peer_has
            link.chain_ts = peer_has
        elif peer_has < link.sent_ts \
                and peer_has <= link.last_advert:
            # Stalled across a full sync period: the in-flight
            # window has drained, so the gap is genuine loss.
            link.sent_ts = peer_has
            link.chain_ts = peer_has
            link.rewinds += 1
        link.last_advert = peer_has
        self._flush_link(link, limit=self.SYNC_BATCH)
        self._release_stable()

    def _release_stable(self) -> None:
        """Sweep the stable frontier (section 3.8) and carry out what
        it released: lifecycle spans, then the push round."""
        run = self.stability.advance()
        if run is None:
            return
        if self.obs.enabled:
            for origin_dc, ts, dot in run:
                self.obs.record(K_STABLE, dot, self.node_id, self.now,
                                origin=origin_dc, ts=ts)
        self._push_updates(run)

    # ------------------------------------------------------------------
    # pushing K-stable updates to edge sessions (sections 3.8, 4.2)
    # ------------------------------------------------------------------
    def _push_updates(self, run: List[Release]) -> None:
        """Send the newly K-stable ``run`` to the sessions it concerns.

        Only a round's audience is sent to, each session chained from
        its own cursor; everybody else learns the new stable cut from
        the next :meth:`_keepalive`.
        """
        if not self.sessions:
            return  # nobody to push to
        unique = [self._txn_by_dot[dot] for dot in delivery_order(run)]
        stable = self.stable_vector.to_dict()
        # Serialise each txn once and share the dict across its audience:
        # receivers rebuild Transaction objects and never mutate these.
        sends = self._fanout.route(
            ((t.keys, (t.to_dict(), t.byte_size())) for t in unique),
            stable)
        if self.crashed:
            # The audience's cursors moved and nothing was sent: to them
            # this round is a lost push, caught at their next message.
            return
        overhead = 16 + 8 * len(stable)
        for session, relevant, prev in sends:
            push = UpdatePush(tuple(p for p, _ in relevant), stable, prev)
            self.send(session.session_id, push,
                      size_bytes=sum(s for _, s in relevant) + overhead)
        self.stats["pushes_out"] += len(sends)

    def _keepalive(self) -> None:
        """Heartbeat: carry every session from its cursor to the stable
        cut.  A session whose last push was lost does not cover the
        ``prev`` this names and re-seeds; one outside every audience
        since the last tick catches up."""
        stable = self.stable_vector.to_dict()
        for prev, sessions in self._fanout.heartbeat(stable):
            push = UpdatePush((), stable, prev)
            size = push.wire_size()
            for session in sessions:
                self.send(session.session_id, push, size_bytes=size)
            self.stats["heartbeats_out"] += len(sessions)

    # ------------------------------------------------------------------
    # introspection for tests and benchmarks
    # ------------------------------------------------------------------
    def transaction(self, dot: Dot) -> Optional[Transaction]:
        return self._txn_by_dot.get(dot)

    def holds(self, dot: Dot) -> bool:
        """Has this DC received (applied) the transaction?"""
        return self.dots.seen(dot)

    def stable_transactions(self) -> List[Transaction]:
        """Every transaction inside this DC's stable cut."""
        return [self._txn_by_dot[dot] for dot in self.stability.stable_dots
                if dot in self._txn_by_dot]

    def stream_gaps(self) -> Dict[str, List[int]]:
        """Missing stream positions below each applied frontier.

        Contiguous application is a protocol invariant: every position
        ``1 .. state_vector[origin]`` must have a recorded dot.  A gap
        means the DC advertised transactions it never stored — exactly
        the failure batching must not introduce.  The chaos harness
        checkpoints this; an empty dict is healthy.
        """
        gaps: Dict[str, List[int]] = {}
        for origin in self.state_vector:
            stream = self._stream_dots.get(origin, {})
            missing = [ts
                       for ts in range(1, self.state_vector[origin] + 1)
                       if ts not in stream
                       and not self._skip_covered(origin, ts)]
            if missing:
                gaps[origin] = missing
        return gaps

    def shard_stream_gaps(self) -> Dict[str, List[int]]:
        """Skip-covered positions our interest set says we should hold.

        A position elided by a skip run whose mask intersects our
        current interest must eventually be filled by a backfill (or a
        racing full resend); shards with a backfill still in flight are
        excluded.  The chaos checker requires this empty — it is the
        per-shard analogue of :meth:`stream_gaps`.
        """
        expected = self.interest.mask & ~self.interest.pending_mask()
        gaps: Dict[str, List[int]] = {}
        for origin, runs in self._skip_runs.items():
            stream = self._stream_dots.get(origin, {})
            missing = []
            for run in runs:
                need = run.mask & expected
                if not need:
                    continue
                for ts in range(run.start_ts, run.end_ts + 1):
                    if ts not in stream:
                        missing.append(ts)
            if missing:
                gaps[origin] = missing
        return gaps

    def interest_shards(self) -> Tuple[int, ...]:
        """Sorted shard ids in this DC's current interest set."""
        return shards_of_mask(self.interest.mask)

    def repl_link_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-peer batch/byte counters of the outbound repl links."""
        return {peer: link.counters()
                for peer, link in self._repl_links.items()}

    def state_digest(self) -> Dict[ObjectKey, Any]:
        """Backend value of every stored key, for convergence checks.

        Reads each key's journal at its **owning** shard with no
        visibility filter: at quiescence this is the authoritative merged
        state every replica must agree with.  A shard applies a
        multi-shard transaction whole, so a shard that does not own a
        key can hold a partial journal of it — never a read's answer.
        """
        digest: Dict[ObjectKey, Any] = {}
        for shard_id, shard in self.shards.items():
            for key in shard.store.keys():
                if self.ring.lookup(key) != shard_id:
                    continue
                journal = shard.store.journal(key)
                if journal is not None:
                    digest[key] = journal.materialise(None).value()
        return digest

    @property
    def stable_vector(self) -> VectorClock:
        return self.stability.stable_vector

    @property
    def committed_count(self) -> int:
        return self.stats["committed"]
