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

This class is the wiring.  What the DC has sequenced and applied is one
value, the :class:`~repro.dc.commitlog.CommitLog`; the machines that
append to it, ship it, apply it and read it are sans-io values sharing
that log — :class:`~repro.dc.twopc.RemoteTxns`,
:class:`~repro.dc.replog.ReplSender`,
:class:`~repro.dc.replog.ReplReceiver` and
:class:`~repro.dc.stability.StabilityFrontier`, beside
:class:`~repro.dc.interest.InterestGraph` and
:class:`~repro.dc.fanout.SessionFanout`.  Their methods return what to
send and what happened; the methods here send it, arm the timers,
record the lifecycle spans and keep ``stats``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey, Transaction
from ..obs.trace import DC_COMMIT, K_STABLE, REPLICATION
from ..security.enforcement import SecurityEnforcer
from ..sim.actor import Actor
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from ..transport.codec import value_size, wire_size
from .commitlog import CommitLog
from .fanout import SessionFanout, session_refusal
from .interest import InterestGraph, Outcome, ShardMap, shards_of_mask
from .messages import (CommitAck, CommitReject, DCSyncPing,
                       EdgeCommit, EdgeCommitBatch, InterestAdvert,
                       InterestChange, ObjectRequest, ObjectResponse,
                       RemoteTxnReply, RemoteTxnRequest, ReplicateBatch,
                       ReplicateBatchAck, SessionAck, SessionOpen,
                       ShardApply, ShardApplyBatch, ShardBackfill,
                       ShardCompactMsg, ShardReadReply, ShardVote,
                       UpdatePush)
from .replog import Received, ReplLink, ReplReceiver, ReplSender
from .server import ShardServer
from .stability import Release, StabilityFrontier, delivery_order
from .twopc import RemoteTxns, Sends
from ..store.ring import HashRing


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

        # -- the commit log and the machines around it --------------------
        self.log = CommitLog(node_id)
        # Holder knowledge and the stable cut (see repro.dc.stability).
        self.stability = StabilityFrontier(node_id, k_target,
                                           self.interest, self.log)
        self.kstab = self.stability.kstab
        # Log shipping (see repro.dc.replog).  The commit stream itself
        # is the send buffer; the DC adds the pending-flush guard and
        # the per-drain shard apply buffer.
        self.sender = ReplSender(self.log, self.interest, wire_size,
                                 value_size)
        self.receiver = ReplReceiver(self.log, self.interest,
                                     self.stability)
        self._repl_flush_scheduled = False
        self._shard_apply_buf: Dict[str, List[Transaction]] = {}
        # Shard reads and in-DC transactions (see repro.dc.twopc).
        self.remote = RemoteTxns(self.log, self.ring)
        # Edge sessions, their interest index and per-session push
        # cursors (see repro.dc.fanout).
        self._fanout = SessionFanout()
        self.sessions = self._fanout.sessions

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
            self._on_edge_commit(message.txn, sender)
        elif isinstance(message, EdgeCommitBatch):
            for txn in message.txns:
                self._on_edge_commit(txn, sender)
        elif isinstance(message, RemoteTxnRequest):
            self._on_remote_txn(message, sender)
        elif isinstance(message, ReplicateBatch):
            self._on_repl_frame(message, sender)
        elif isinstance(message, InterestAdvert):
            self._on_interest_advert(message, sender)
        elif isinstance(message, ShardBackfill):
            self._on_shard_backfill(message, sender)
        elif isinstance(message, ReplicateBatchAck):
            self._on_repl_ack(message, sender)
        elif isinstance(message, DCSyncPing):
            self._on_sync_ping(message, sender)
        elif isinstance(message, ShardReadReply):
            gathered = self.remote.on_read_reply(message)
            if gathered is not None:
                done, states = gathered
                done(states)
        elif isinstance(message, ShardVote):
            self._carry_txn(*self.remote.on_vote(message, sender))
        else:
            raise TypeError(f"DC {self.node_id}: unexpected message"
                            f" {message!r}")

    # ------------------------------------------------------------------
    # sessions and interest sets
    # ------------------------------------------------------------------
    def _on_session_open(self, msg: SessionOpen, sender: str) -> None:
        refusal = session_refusal(self.node_id, msg, self.log.state_vector,
                                  self.log.dots.seen)
        if refusal is not None:
            self.send(sender, refusal)
            self.stats["rejected"] += 1
            return
        edge_vector = VectorClock(msg.state_vector)
        interest = dict(msg.interest)
        self._carry_out(self.interest.release(
            self._fanout.open(msg.edge_id, interest)))
        self.interest.retain(interest)

        # The session's push chain restarts at its seed's cut: what is
        # stable by then is in the seed, what becomes stable later is
        # pushed.
        self._seed(list(interest.items()), edge_vector,
                   lambda states, cut: self.send(sender, SessionAck(
                       self.node_id, tuple(states), cut.to_dict())),
                   session=msg.edge_id)

    def _seed(self, keys: List[Tuple[ObjectKey, str]],
              edge_vector: VectorClock,
              reply: Callable[[List[ObjectState], VectorClock], None],
              session: Optional[str] = None) -> None:
        """Once every shard of ``keys`` is caught up, read them at the
        stable cut and ``reply(states, cut)``; a ``session``'s push chain
        restarts at the cut.

        Seed no older than what the edge already observed: after a
        migration the edge may be ahead of our *stable* vector (though
        within our state vector, as the session check made sure).  The
        cut is taken when the reads fire, so a seed deferred on shard
        backfill covers the freshly backfilled entries too.

        A seed's base folds only what its cut covers, and not the
        dependencies an opener declares: the opener holds those and
        replays them on top of the base (``EdgeNode._install_seed``),
        while a base that folded them would show them as stable to every
        replica the opener seeds in turn (DESIGN §9, known failure 3(a)).
        """
        def fire() -> None:
            seed_vector = self.stable_vector.merge(edge_vector)
            if session is not None:
                self._fanout.restart(session, seed_vector.to_dict())
            self._gather_reads(keys, seed_vector, (),
                               lambda states: reply(states, seed_vector))

        self._carry_out(self.interest.subscribe(
            (k for k, _t in keys), fire))

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
        dropped = [key for key in msg.remove
                   if self._fanout.drop_interest(msg.edge_id, key)]
        self._carry_out(self.interest.release(dropped))
        for key, type_name in msg.add:
            self._fanout.add_interest(msg.edge_id, key, type_name)
        self.interest.retain(k for k, _t in msg.add)
        if msg.add:
            self._seed(list(msg.add), VectorClock(msg.state_vector),
                       lambda states, cut: self.send(sender, SessionAck(
                           self.node_id, tuple(states), cut.to_dict())))

    def _on_object_request(self, msg: ObjectRequest, sender: str) -> None:
        self._seed([(msg.key, msg.type_name)],
                   VectorClock(msg.state_vector),
                   lambda states, cut: self.send(sender, ObjectResponse(
                       states[0], cut.to_dict())))

    def _gather_reads(self, keys: List[Tuple[ObjectKey, str]],
                      vector: VectorClock, extra_dots: Tuple[Dot, ...],
                      done: Callable[[List[ObjectState]], None]) -> None:
        """Fetch object states (at ``vector``) from their owning shards."""
        for shard, read in self.remote.gather(keys, vector, extra_dots,
                                              done):
            self.send(shard, read)

    # ------------------------------------------------------------------
    # edge transaction commitment (section 3.7)
    # ------------------------------------------------------------------
    def _on_edge_commit(self, txn: Union[Transaction, dict],
                        sender: str) -> None:
        if type(txn) is not Transaction:
            # The ``to_dict()`` form, which drivers outside ``src/``
            # build by hand; the sender handed us the value otherwise.
            txn = Transaction.from_dict(txn)
        log = self.log
        self.stats["edge_commits"] += 1
        if log.dots.seen(txn.dot):
            # Duplicate (e.g. resent after migration, section 3.8): reply
            # with the already assigned equivalent commit stamp.
            known = log.txns.get(txn.dot)
            if known is not None:
                self.send(sender, CommitAck(txn.dot,
                                            dict(known.commit.entries)))
            return
        if not txn.snapshot.satisfied_by(log.state_vector, log.dots):
            # The edge depends on transactions we have not yet received
            # (possible after migration); it must retry later.
            self.send(sender, CommitReject(txn.dot,
                                           "missing-dependencies"))
            self.stats["rejected"] += 1
            return
        log.sequence(txn)
        self._committed(txn)
        self.send(sender, CommitAck(txn.dot, dict(txn.commit.entries)))

    def _committed(self, txn: Transaction,
                   notify_shards: bool = True) -> None:
        """Announce a transaction just sequenced into our stream."""
        ts = txn.commit.entries[self.node_id]
        keys = txn.keys
        self.interest.note_entry(txn.dot, self.node_id, keys, own_ts=ts)
        self.stats["committed"] += 1
        if self.obs.enabled:
            self.obs.record(DC_COMMIT, txn.dot, self.node_id, self.now,
                            ts=ts)
        if notify_shards:
            # Already committed elsewhere (edge txn); store, no 2PC.
            for shard in self.ring.partition(keys):
                self.send(shard, ShardApply(txn.handoff()))
        # K-stability bookkeeping and geo-replication.  The commit
        # stream itself is the send buffer: commits in the same flush
        # window ship together as ReplicateBatch frames.
        self.stability.record(txn.dot, {self.node_id})
        if not self._repl_flush_scheduled and self.peer_dcs:
            # Arm the Nagle-style flush timer once per window.
            self._repl_flush_scheduled = True
            self.set_timer(self.REPL_FLUSH_MS, self._flush_repl_links)
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
        pending = self.remote.open(msg, sender, self.stable_vector)
        if isinstance(pending, RemoteTxnReply):
            if not pending.committed:
                self.stats["rejected"] += 1
            self.send(sender, pending)
            return

        def done(states: List[ObjectState]) -> None:
            self._carry_txn(None, self.remote.execute(pending, states))

        def fire() -> None:
            self._gather_reads(pending.keys, pending.snapshot.vector,
                               msg.local_deps, done)

        self._carry_out(self.interest.subscribe(
            (k for k, _t in pending.keys), fire))

    def _carry_txn(self, committed: Optional[Transaction],
                   sends: Sends) -> None:
        """Do what the coordinator decided: announce the commit (no
        shard applies: the commit round below stores it), then send."""
        if committed is not None:
            self._committed(committed, notify_shards=False)
        for destination, message in sends:
            self.send(destination, message)

    # ------------------------------------------------------------------
    # geo-replication (sections 3.4, 3.6) and K-stability (3.8)
    # ------------------------------------------------------------------
    def _flush_repl_links(self) -> None:
        self._repl_flush_scheduled = False
        for dc in self.peer_dcs:
            self._ship(self.sender.link(dc))

    def _ship(self, link: ReplLink, limit: Optional[int] = None) -> None:
        """Send the unsent suffix of our stream on ``link``."""
        peer = link.peer
        stats = self.stats
        for frame, lo, hi, pruned, pruned_bytes in self.sender.flush(
                link, self.REPL_BATCH_MAX, limit):
            self.send(peer, frame)
            if self.obs.enabled:
                stream = self.log.streams[self.node_id]
                for ts in range(lo, hi + 1):
                    if self.interest.wants(peer, ts):
                        self.obs.record(REPLICATION, stream[ts],
                                        self.node_id, self.now,
                                        phase="ship", peer=peer, ts=ts)
            stats["repl_batches_out"] += 1
            stats["repl_pruned_txns"] += pruned
            stats["repl_pruned_bytes"] += pruned_bytes

    def _on_repl_frame(self, msg: ReplicateBatch, sender: str) -> None:
        got = self.receiver.receive(msg, sender)
        if got is None:
            self.stats["repl_malformed_in"] += 1
            return
        self.stats["repl_batches_in"] += 1
        self._take_in(got)
        self._flush_shard_applies()
        self._release_stable()
        self.stats["repl_acks_out"] += 1
        self.send(sender,
                  ReplicateBatchAck(self.log.state_vector.to_dict()))

    def _take_in(self, got: Received) -> None:
        """Carry out what the receiver did to the log: ask for the
        shards a skip run wrongly pruned, count, trace, and buffer the
        new transactions for the stores."""
        for peer, advert in got.adverts:
            self.send(peer, advert)
        stats = self.stats
        stats["repl_dup_in"] += got.dups
        for own_ts in got.grafted:
            self.sender.forget(own_ts)
        stats["replicated_in"] += len(got.applied)
        tracing = self.obs.enabled
        buffer = self._shard_apply_buf
        for origin, ts, txn, offstream in got.applied:
            if tracing:
                extra = {"backfill": True} if offstream else {}
                self.obs.record(REPLICATION, txn.dot, self.node_id,
                                self.now, phase="apply", origin=origin,
                                ts=ts, **extra)
            # Metadata-only transactions partition to no shard.
            for shard in self.ring.partition(txn.keys):
                buffer.setdefault(shard, []).append(txn)

    def _flush_shard_applies(self) -> None:
        """Ship buffered remote applies, one frame per shard."""
        if not self._shard_apply_buf:
            return
        buffered, self._shard_apply_buf = self._shard_apply_buf, {}
        for shard, txns in buffered.items():
            if len(txns) == 1:
                self.send(shard, ShardApply(txns[0].handoff()))
            else:
                self.send(shard, ShardApplyBatch(
                    tuple(txn.handoff() for txn in txns)))

    def _on_repl_ack(self, msg: ReplicateBatchAck,
                                sender: str) -> None:
        self.sender.link(sender).acks_in += 1
        self.stats["repl_acks_in"] += 1
        if self.stability.note_peer_applied(
                sender, VectorClock(msg.applied_vector),
                self.log.state_vector):
            self._release_stable()

    # -- interest adverts and shard backfill ----------------------------
    def _on_interest_advert(self, msg: InterestAdvert,
                            sender: str) -> None:
        self.stats["repl_adverts_in"] += 1
        changed = self.interest.fold_advert(sender, msg.shards_mask,
                                            msg.seq)
        for shard in msg.backfill:
            # The holder credit is optimistic — the requester's
            # retry-on-ping loop re-requests a lost backfill, so the
            # credit converges with reality.
            message, dots = self.sender.backfill(shard)
            self.send(sender, message)
            self.stats["repl_backfills_out"] += 1
            credited = [self.stability.credit(dot, sender) for dot in dots]
            if any(credited):
                self._release_stable()
        if changed:
            # A shrunk peer interest can lower required_k thresholds.
            self._release_stable()

    def _on_shard_backfill(self, msg: ShardBackfill,
                           sender: str) -> None:
        self.stats["repl_backfills_in"] += 1
        got = self.receiver.backfill(msg, sender)
        self._take_in(got)
        if got.applied:
            self._flush_shard_applies()
            self._release_stable()
        self._carry_out(self.interest.backfilled(msg.shard, sender))

    def required_k(self, dot: Dot) -> int:
        """Interested-replica stability threshold for ``dot``."""
        return self.interest.required_k(dot, self.k_target)

    # -- anti-entropy: repair replication across partitions -----------------
    def _sync_peers(self) -> None:
        if not self.peer_dcs:
            return
        ping = DCSyncPing(self.log.state_vector.to_dict(),
                          *self.interest.advertised())
        for dc in self.peer_dcs:
            self.send(dc, ping)

    def _on_sync_ping(self, msg: DCSyncPing, sender: str) -> None:
        """Repair the peer's view of our stream and of stability.

        The ping's state vector is stability gossip like any ack, and
        the sender rewinds the link's shipped frontier to the advertised
        one when it stalled (see ``ReplSender.heard``), so lost frames
        are re-shipped as ordinary batches, capped at ``SYNC_BATCH``
        entries per ping.
        """
        self.stability.note_peer_applied(
            sender, VectorClock(msg.state_vector), self.log.state_vector)
        if msg.interest_mask is not None:
            self.interest.fold_advert(sender, msg.interest_mask,
                                      msg.interest_seq)
        owed = self.interest.owed(sender)
        if owed:
            # A backfill response was lost: ask again.
            self.send(sender, self.interest.advert(owed))
        link = self.sender.heard(sender,
                                 msg.state_vector.get(self.node_id, 0))
        self._ship(link, limit=self.SYNC_BATCH)
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
        txns = self.log.txns
        unique = [txns[dot] for dot in delivery_order(run)]
        stable = self.stable_vector.to_dict()
        # Each session gets its own copy (``handoff()``), so no receiver
        # shares a stamp with us or with another session.
        sends = self._fanout.route(((t.keys, t) for t in unique), stable)
        if self.crashed:
            # The audience's cursors moved and nothing was sent: to them
            # this round is a lost push, caught at their next message.
            return
        for session, relevant, prev in sends:
            self.send(session.session_id,
                      UpdatePush(tuple(t.handoff() for t in relevant),
                                 stable, prev))
        self.stats["pushes_out"] += len(sends)

    def _keepalive(self) -> None:
        """Heartbeat: carry every session from its cursor to the stable
        cut.  A session whose last push was lost does not cover the
        ``prev`` this names and re-seeds; one outside every audience
        since the last tick catches up."""
        stable = self.stable_vector.to_dict()
        for prev, sessions in self._fanout.heartbeat(stable):
            push = UpdatePush((), stable, prev)
            for session in sessions:
                self.send(session.session_id, push)
            self.stats["heartbeats_out"] += len(sessions)

    # ------------------------------------------------------------------
    # introspection for tests and benchmarks
    # ------------------------------------------------------------------
    def transaction(self, dot: Dot) -> Optional[Transaction]:
        return self.log.txns.get(dot)

    def holds(self, dot: Dot) -> bool:
        """Has this DC received (applied) the transaction?"""
        return self.log.dots.seen(dot)

    def stable_transactions(self) -> List[Transaction]:
        """Every transaction inside this DC's stable cut."""
        txns = self.log.txns
        return [txns[dot] for dot in self.stability.stable_dots
                if dot in txns]

    def stream_gaps(self) -> Dict[str, List[int]]:
        """Missing stream positions below each applied frontier (see
        ``CommitLog.gaps``).  The chaos harness checkpoints this; an
        empty dict is healthy."""
        return self.log.gaps()

    def shard_stream_gaps(self) -> Dict[str, List[int]]:
        """Skip-covered positions our interest set says we should hold.

        A position elided by a skip run whose mask intersects our
        current interest must eventually be filled by a backfill (or a
        racing full resend); shards with a backfill still in flight are
        excluded.  The chaos checker requires this empty — it is the
        per-shard analogue of :meth:`stream_gaps`.
        """
        return self.log.shard_gaps(
            self.interest.mask & ~self.interest.pending_mask())

    def interest_shards(self) -> Tuple[int, ...]:
        """Sorted shard ids in this DC's current interest set."""
        return shards_of_mask(self.interest.mask)

    def repl_link_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-peer batch/byte counters of the outbound repl links."""
        return {peer: link.counters()
                for peer, link in self.sender.links.items()}

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
    def state_vector(self) -> VectorClock:
        return self.log.state_vector

    @property
    def stable_vector(self) -> VectorClock:
        return self.stability.stable_vector

    @property
    def committed_count(self) -> int:
        return self.stats["committed"]
