"""Peer groups: edge SI zones with a collaborative cache (paper section 5.1).

A peer group is a set of well-connected edge nodes.  Within the group:

* every member runs one ordering machine, an
  :class:`~repro.groups.ordering.Orderer`; the agreed order is the
  group's **visibility order** — transactions become visible group-wide
  in that sequence, making the group an SI zone;
* the *parent* member doubles as the group's **sync point**: it holds the
  only DC session (interest set = union of the members'), ships executed
  transactions to the DC in visibility order, and relays DC pushes and
  commit acknowledgements back into the group;
* members fetch uncached objects from the parent's collaborative cache
  before falling back to the DC (the peer-group hits of Figure 5), and
  pull missing transactions from neighbours by dot.

The commit variant (section 5.1.4 plus the Tiga extension) picks the
orderer once; this module calls only its interface:

* ``"async"`` (default, used in the paper's evaluation): a transaction
  commits locally at once; EPaxos orders it in the background;
* ``"psi"``: EPaxos on the critical path, and a transaction whose
  writes conflict with one ordered after its snapshot aborts (Parallel
  Snapshot Isolation).  The test reads commit stamps, which resolve at
  different times on different members: verdicts can differ (DESIGN §9).
* ``"tiga"``: a deadline-ordered fast path (:mod:`repro.epaxos.tiga`)
  over an EPaxos fallback, which stays the correctness baseline.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Set, Tuple, Union)

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.txn import ObjectKey, Transaction
from ..dc.messages import (CommitAck, EdgeCommit, ObjectResponse,
                           UpdatePush)
from ..edge.node import EdgeNode, _RunningTxn
from ..obs.trace import GROUP_ORDER
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from .messages import (GroupCommitAck, GroupFetch, GroupFetchReply,
                       GroupMsg, GroupRelayPush, GroupSeed,
                       InterestAnnounce, JoinGroup, LeaveGroup,
                       MembershipUpdate, TxnPull, TxnPushMsg)
from .ordering import (COMMIT_VARIANTS, NO_FAST_PATH, ORDERERS,
                       RECOVER_AFTER_MS, RESEND_AFTER_MS, Orderer, Wiring)


class GroupMember(EdgeNode):
    """An edge node that participates in a peer group."""

    #: Group traffic: dropped unread while the member is cut off from
    #: its group (``group_offline``).
    _GROUP_NAMES = {
        GroupMsg: "_on_group_msg",
        MembershipUpdate: "_on_membership",
        GroupSeed: "_on_group_seed",
        InterestAnnounce: "_on_interest_announce",
        GroupFetch: "_on_group_fetch",
        GroupFetchReply: "_on_group_fetch_reply",
        GroupRelayPush: "_on_relay_push",
        GroupCommitAck: "_on_commit_ack",
        TxnPull: "_on_txn_pull",
        TxnPushMsg: "_on_txn_push",
    }
    _DISPATCH_NAMES = {
        **EdgeNode._DISPATCH_NAMES,
        CommitAck: "_on_dc_commit_ack",
        JoinGroup: "_on_join",
        LeaveGroup: "_on_leave",
        **_GROUP_NAMES,
    }

    MAINTENANCE_MS = 100.0
    SHIP_RETRY_MS = 500.0

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network],
                 dc_id: str, group_id: str, parent_id: str,
                 commit_variant: str = "async",
                 cache_capacity: Optional[int] = None,
                 user: Optional[str] = None,
                 security_enabled: bool = False,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, loop, network, dc_id,
                         cache_capacity=cache_capacity, user=user,
                         security_enabled=security_enabled, rng=rng)
        if commit_variant not in COMMIT_VARIANTS:
            accepted = ", ".join(repr(v) for v in COMMIT_VARIANTS)
            raise ValueError(f"commit_variant must be one of {accepted}")
        self.group_id = group_id
        self.parent_id = parent_id
        self.commit_variant = commit_variant
        self._orderer_class = ORDERERS[commit_variant]
        self.epoch = 0
        self.members: Tuple[str, ...] = ()
        #: The group's ordering machine; None outside a group.
        self.orderer: Optional[Orderer] = None
        self.group_offline = False
        # Visibility pipeline: releases in order, each with its ``fast``
        # flag (the GROUP_ORDER span's ``fast_path``).
        self._exec_queue: Deque[Tuple[Transaction, Optional[bool]]] = \
            deque()
        self._exec_seen: Set[Dot] = set()
        self.visibility_log: List[Transaction] = []
        # Critical-path transactions (psi and tiga variants) awaiting
        # their visibility slot / fast-path verdict.
        self._psi_pending: Dict[Dot, Tuple[_RunningTxn, Any]] = {}
        # Sync-point state (active when self is the parent).
        self._ship_queue: "OrderedDict[Dot, Transaction]" = OrderedDict()
        self._ship_sent_at: Dict[Dot, float] = {}
        self._member_interest: Dict[str, Dict[ObjectKey, str]] = {}
        self._member_fetch_waiting: Dict[ObjectKey, List[str]] = {}
        # Liveness bookkeeping.
        self._pull_pending: Dict[Dot, float] = {}
        # Last time we asked the sync point for a lost commit stamp.
        self._ack_pull_at: Dict[Dot, float] = {}
        self._last_resync = -1e9
        #: Called with (kind, member) on join, leave and roster updates.
        self.on_group_event: Callable[[str, str], None] = \
            lambda kind, member: None
        self.every(self.MAINTENANCE_MS, self._group_maintenance,
                   jitter=20.0)

    # ------------------------------------------------------------------
    # roles
    # ------------------------------------------------------------------
    @property
    def is_parent(self) -> bool:
        return self.node_id == self.parent_id

    @property
    def in_group(self) -> bool:
        return self.orderer is not None

    def connect(self) -> None:
        # Only the sync point (parent) talks to the DC directly.
        if self.is_parent or not self.in_group:
            super().connect()

    def _awaiting(self) -> bool:
        # In a group a member's own duties are the parent's session and
        # fetches; the group ships and re-drives its commits.
        if not self.in_group:
            return super()._awaiting()
        return (self.is_parent and not self.session_open) \
            or bool(self._pending_fetches)

    def _retry_unacked(self) -> None:
        # Shipping (with retries) is the sync point's job, in visibility
        # order; the base per-node retry would break that order.
        if not self.in_group:
            super()._retry_unacked()
            return
        if self.offline:
            return
        if self.is_parent and not self.session_open:
            # Re-open a session lost to the network (see EdgeNode); the
            # ship queue resumes once the ack lands.
            self.connect()
            return
        # Fetches lost on the peer network (or to the parent's DC leg)
        # are re-driven; GroupFetch/seed installs are idempotent.
        self._retry_fetches()

    def _resend_pending(self, dc_id: str) -> None:
        if not self.in_group:
            super()._resend_pending(dc_id)
        elif self.is_parent:
            self._ship(dc_id, self._ship_queue.values())

    # ------------------------------------------------------------------
    # group bootstrap / membership
    # ------------------------------------------------------------------
    def init_group(self, members: Tuple[str, ...], epoch: int = 0) -> None:
        """Install the roster and start the group's orderer."""
        self.members = tuple(sorted(members))
        self.epoch = epoch
        if self.orderer is not None:
            self.orderer.set_members(self.members)
            return
        self.orderer = self._orderer_class(
            self.node_id, self.members,
            Wiring(send=self._send_consensus, release=self._execute,
                   committed=self._apply_psi_commit, clock=self.clock,
                   set_timer=self.set_timer, now=lambda: self.now))
        # Migrating in with pending commits (section 5.2): they stay
        # logged until they can be merged into the DC — order them in the
        # new group so its sync point ships them (dots are deduplicated).
        for txn in self.log.unacked.values():
            self.orderer.propose_committed(txn)

    def join_group(self) -> None:
        """Ask the group's parent to admit this node (section 5.1.1)."""
        self.send(self.parent_id, JoinGroup(self.node_id,
                                            self.cache.interest()))

    def leave_group(self) -> None:
        if self.orderer is not None:
            self.orderer.close()
        self.send(self.parent_id, LeaveGroup(self.node_id))
        self.members = ()
        self.orderer = None
        # Fall back to a direct DC session.
        self.connect()

    def _on_join(self, msg: JoinGroup, sender: str) -> None:
        if not self.is_parent:
            return
        if msg.node_id not in self.members:
            self.epoch += 1
            self.init_group(self.members + (msg.node_id,), self.epoch)
        self._to_members(MembershipUpdate(self.group_id, self.epoch,
                                          self.node_id, self.members))
        # Bootstrap the newcomer with the agreed consensus prefix.
        self.send(msg.node_id, GroupSeed(
            self.group_id, self.epoch, tuple(
                (instance_id, None if command is None else command.handoff(),
                 seq, deps)
                for instance_id, command, seq, deps
                in self.orderer.committed_instances()),
            self.vector.to_dict()))
        # Adopt (and forward to the DC) the newcomer's interest set.
        self._absorb_interest(msg.node_id, msg.interest)
        self.on_group_event("join", msg.node_id)

    def _on_leave(self, msg: LeaveGroup, sender: str) -> None:
        if not self.is_parent or msg.node_id not in self.members:
            return
        self.epoch += 1
        roster = tuple(m for m in self.members if m != msg.node_id)
        self.init_group(roster, self.epoch)
        self._member_interest.pop(msg.node_id, None)
        self._to_members(MembershipUpdate(self.group_id, self.epoch,
                                          self.node_id, roster))
        self.on_group_event("leave", msg.node_id)

    def _on_membership(self, msg: MembershipUpdate, sender: str) -> None:
        if msg.group_id != self.group_id or msg.epoch < self.epoch:
            return
        self.parent_id = msg.parent
        if self.node_id in msg.members:
            self.init_group(msg.members, msg.epoch)
        self.on_group_event("membership", sender)

    def _on_group_seed(self, msg: GroupSeed, sender: str) -> None:
        if self.orderer is not None:
            self._exec_seen.update(self.orderer.seed(msg.instances))

    def _on_interest_announce(self, msg: InterestAnnounce,
                              sender: str) -> None:
        self._absorb_interest(msg.member, msg.add)

    def _absorb_interest(self, member: str,
                         interest: Iterable[Tuple[ObjectKey, str]]) -> None:
        """Parent: union a member's interest into the DC session."""
        table = self._member_interest.setdefault(member, {})
        for key, type_name in interest:
            table[key] = type_name
            self.declare_interest(key, type_name)

    def _send_consensus(self, dst: str, payload: Any) -> None:
        if not self.group_offline:
            self.send(dst, GroupMsg(self.group_id, self.epoch, payload))

    def _to_members(self, message: Any) -> None:
        for member in self.members:
            if member != self.node_id:
                self.send(member, message)

    # ------------------------------------------------------------------
    # commit paths
    # ------------------------------------------------------------------
    def _ship_commit(self, txn: Transaction) -> None:
        """Variant "async": local commit done; order in the background.

        A group's commits reach the DC through the sync point, in
        visibility order — not straight from here, even on the parent.
        """
        if self.orderer is not None:
            self.orderer.propose_committed(txn)
        else:
            super()._ship_commit(txn)

    def _finish_txn(self, running: _RunningTxn, result: Any) -> None:
        if running.ctx.is_read_only or self.orderer is None \
                or not self.orderer.critical:
            super()._finish_txn(running, result)
            return
        # Ordering on the critical path of commitment: a consensus slot
        # (psi) or a deadline-stamped fast-path round (tiga).
        txn = self._new_txn(running.ctx)
        self._psi_pending[txn.dot] = (running, result)
        self.orderer.propose(txn)

    def _apply_psi_commit(self, txn: Transaction) -> None:
        """Apply an own critical-path transaction that committed: at its
        slot without conflict (psi), or at its fast quorum (tiga)."""
        running, result = self._psi_pending.pop(txn.dot)
        self._admit(txn, own=True)
        self._notify_subscribers(txn.keys)
        stats = self._record_stats(running.ctx)
        if running.on_done is not None:
            running.on_done(result, stats)

    def _abort_psi(self, txn: Transaction) -> None:
        pending = self._psi_pending.pop(txn.dot, None)
        if pending is None:
            return
        running, _result = pending
        self._record_stats(running.ctx, aborted=True)
        if running.on_abort is not None:
            running.on_abort(Exception("psi-conflict"))

    @property
    def tiga_stats(self) -> Dict[str, int]:
        """The orderer's counters (deadline path, work per release)."""
        return self.orderer.stats if self.orderer else dict(NO_FAST_PATH)

    # ------------------------------------------------------------------
    # visibility pipeline: release -> certification -> integration -> ship
    # ------------------------------------------------------------------
    def _execute(self, txn: Transaction,
                 fast: Optional[bool] = None) -> None:
        """Queue ``txn`` at its visibility slot, once per dot."""
        if txn.dot in self._exec_seen:
            return
        self._exec_seen.add(txn.dot)
        self._exec_queue.append((txn, fast))
        self._drain_exec_queue()

    def _drain_exec_queue(self) -> None:
        queue = self._exec_queue
        while queue:
            txn, fast = queue[0]
            if self.orderer is not None and not self.orderer.certify(txn):
                # PSI: a conflicting txn sits between this one's
                # snapshot and its visibility slot.
                queue.popleft()
                self._abort_psi(txn)
                continue
            if txn.dot in self._psi_pending:
                queue.popleft()
                self._log_visible(txn, fast)
                self._apply_psi_commit(txn)
            elif self.integrate_foreign_txn(txn):
                # Integrated now, or already held (own txn, or arrived
                # via a DC push).
                queue.popleft()
                self._log_visible(txn, fast)
            else:
                # Blocked on missing causal dependencies: pull them.
                self._request_missing(txn)
                return
            self._after_visible(txn)

    def _log_visible(self, txn: Transaction, fast: Optional[bool]) -> None:
        """Append to the group visibility order (the agreed outcome)."""
        self.visibility_log.append(txn)
        if self.orderer is not None:
            self.orderer.appended(txn)
        if self.obs.enabled:
            attrs: Dict[str, Any] = {"group": self.group_id,
                                     "slot": len(self.visibility_log)}
            if fast is not None:
                attrs["fast_path"] = fast
            self.obs.record(GROUP_ORDER, txn.dot, self.node_id,
                            self.now, **attrs)

    def _after_visible(self, txn: Transaction) -> None:
        """Sync point: ship in visibility order (section 5.1.3)."""
        if not self.is_parent:
            return
        known = self.log.txns.get(txn.dot, txn)
        if not known.commit.is_symbolic:
            return  # the DC already assigned its timestamp
        self._ship_queue[txn.dot] = known
        if self.session_open and not self.offline:
            self._ship(self.connected_dc, (known,))

    def _ship(self, dc_id: str, txns: Iterable[Transaction]) -> None:
        """Sync point: send queued commits to the DC (section 5.1.3)."""
        now = self.now
        for txn in txns:
            self.send(dc_id, EdgeCommit(txn.handoff()))
            self._ship_sent_at[txn.dot] = now

    def _request_missing(self, txn: Transaction) -> None:
        missing = [d for d in txn.snapshot.local_deps
                   if not self.log.dots.seen(d)]
        # A missing dependency may already sit later in our own execution
        # queue (consensus may order a causal child of a conflicting pair
        # first): integrate it directly — causal order is the binding
        # constraint, and its own slot later deduplicates by dot.
        by_dot = {queued.dot: queued for queued, _ in self._exec_queue}
        integrated = False
        for dot in list(missing):
            queued = by_dot.get(dot)
            if queued is not None and self.integrate_foreign_txn(queued):
                missing.remove(dot)
                integrated = True
        if integrated and not missing:
            self._drain_exec_queue()
            return
        now = self.now
        to_pull = [d for d in missing
                   if now - self._pull_pending.get(d, -1e9) > 200.0]
        if to_pull:
            self._pull(to_pull)

    def _pull(self, dots: List[Dot]) -> None:
        """Ask the sync point (at the sync point: two peers) by dot."""
        if self.is_parent:
            targets = [m for m in self.members if m != self.node_id][:2]
        else:
            targets = [self.parent_id]
        self._pull_pending.update(dict.fromkeys(dots, self.now))
        pull = TxnPull(self.node_id, tuple(dots))
        for target in targets:
            self.send(target, pull)

    # ------------------------------------------------------------------
    # collaborative cache (section 5.1.2)
    # ------------------------------------------------------------------
    def declare_interest(self, key: ObjectKey, type_name: str) -> None:
        already = key in self.cache
        super().declare_interest(key, type_name)
        if already or not self.in_group or self.is_parent \
                or self.group_offline:
            return
        # Publish the interest to the parent, which subscribes with the
        # DC on the whole group's behalf (section 5.1.2).
        self.send(self.parent_id, InterestAnnounce(
            self.node_id, add=((key, type_name),)))

    def fetch_object(self, key: ObjectKey, type_name: str, ctx) -> None:
        if self.is_parent or not self.in_group:
            super().fetch_object(key, type_name, ctx)
            return
        ctx.note_serving("peer")
        if not self.group_offline:
            self.send(self.parent_id,
                      GroupFetch(key, type_name, self.node_id))

    def _on_group_fetch(self, msg: GroupFetch, sender: str) -> None:
        key = msg.key
        # Serve only warm (seeded, hole-free) objects from the cache.
        if key in self.frontier.key_cut:
            self.send(msg.requester, GroupFetchReply(
                key, self._seed_state(key, msg.type_name),
                self.vector.to_dict(), True))
            return
        # Not cached here: escalate to the DC on the member's behalf.
        self._member_fetch_waiting.setdefault(key, []).append(msg.requester)
        self._fetch_for_below(key, msg.type_name)

    def _on_object_response(self, msg: ObjectResponse, sender: str) -> None:
        super()._on_object_response(msg, sender)
        state = msg.object_state
        for member in self._member_fetch_waiting.pop(state.key, []):
            self.send(member, GroupFetchReply(
                state.key, state, dict(msg.stable_vector), False))

    def _on_group_fetch_reply(self, msg: GroupFetchReply,
                              sender: str) -> None:
        key = msg.key
        if not msg.from_cache:
            for running in self._pending_fetches.get(key, ()):
                running.ctx.note_serving("dc")
        if msg.object_state is None:
            return
        reply_vector = VectorClock(msg.state_vector)
        self._install_seed(msg.object_state, reply_vector)
        # The vector waits for a whole warm-set resync (see
        # EdgeFrontier.fetch_reply).
        seed, resync = self.frontier.fetch_reply(key, reply_vector,
                                                 self._pending_fetches)
        if seed is not None:
            self._advance_to_seed(seed)
        elif resync:
            self._resync(resync)
        self._resume_fetches(key)
        self._drain_exec_queue()

    # ------------------------------------------------------------------
    # sync-point relays, transaction pulls
    # ------------------------------------------------------------------
    def _on_update_push(self, msg: UpdatePush, sender: str) -> None:
        super()._on_update_push(msg, sender)
        if self.is_parent and self.in_group and not self.group_offline:
            # Verbatim, gap or not: members share the sync point's chain
            # — each with copies of its own (we keep what we received).
            stable, prev = dict(msg.stable_vector), dict(msg.prev_vector)
            for member in self.members:
                if member != self.node_id:
                    self.send(member, GroupRelayPush(
                        tuple(txn.handoff() for txn in msg.txns),
                        stable, prev))
        self._drain_exec_queue()

    def _on_relay_push(self, msg: GroupRelayPush, sender: str) -> None:
        self._apply_push(msg.txns, msg.stable_vector, msg.prev_vector,
                         sender)
        self._drain_exec_queue()

    def _handle_push_gap(self, sender: str) -> None:
        """A missed delta: members re-seed from the parent's cache."""
        if self.is_parent or not self.in_group:
            super()._handle_push_gap(sender)
        else:
            self._resync_from_parent()

    def _resync_from_parent(self) -> None:
        now = self.now
        if now - self._last_resync < 500.0:
            return
        self._last_resync = now
        if self.group_offline:
            return
        keys = self.frontier.resync_keys(self._pending_fetches,
                                         self.cache.keys())
        if keys:
            self._resync(keys)

    def _resync(self, keys: Set[ObjectKey]) -> None:
        """Fetch ``keys`` from the sync point; the vector waits for every
        reply (see ``EdgeFrontier.fetch_reply``)."""
        self.frontier.start_resync(keys, self.now)
        for key in keys:
            # A resync fetches warm keys and those a fetch is parked on,
            # which an eviction may have dropped.
            journal = self.cache.journal(key)
            type_name = journal.type_name if journal is not None \
                else self._pending_fetches[key][0].fetch_type
            self.send(self.parent_id,
                      GroupFetch(key, type_name, self.node_id))

    def _on_dc_commit_ack(self, msg: CommitAck, sender: str) -> None:
        """The sync point relays the DC's ack to every member, whose
        copy of a ``GroupCommitAck`` goes to the same handler."""
        self._on_commit_ack(msg, sender)
        if self.is_parent and self.in_group:
            self._ship_queue.pop(msg.dot, None)
            self._ship_sent_at.pop(msg.dot, None)
            self._to_members(GroupCommitAck(msg.dot, dict(msg.entries)))

    def _on_txn_pull(self, msg: TxnPull, sender: str) -> None:
        queued = {txn.dot: txn for txn, _ in self._exec_queue}
        found = [txn for txn in (self.log.txns.get(dot)
                                 or queued.get(dot) for dot in msg.dots)
                 if txn is not None]
        if found:
            self.send(msg.requester, TxnPushMsg(
                tuple(txn.handoff() for txn in found)))

    def _on_txn_push(self, msg: TxnPushMsg, sender: str) -> None:
        for txn in msg.txns:
            self._pull_pending.pop(txn.dot, None)
            # A copy of one we hold may carry a commit stamp we missed
            # (the ack relay can be lost): adopt it.
            if self._adopt(txn.dot, txn.commit.entries) is None:
                self.integrate_foreign_txn(txn)
        self._drain_exec_queue()

    # ------------------------------------------------------------------
    # connectivity injection (benchmark scenarios), liveness, dispatch
    # ------------------------------------------------------------------
    @property
    def pipeline_idle(self) -> bool:
        """Group pipelines drained too (chaos-harness quiescence probe)."""
        return (super().pipeline_idle and not self._exec_queue
                and not self._ship_queue and not self._pull_pending
                and not self._psi_pending
                and not self.frontier.resync_expect
                and (self.orderer is None or self.orderer.idle))

    def disconnect_from_group(self) -> None:
        """Drop out of the group's network (Figure 6 scenario)."""
        self.group_offline = True

    def reconnect_to_group(self) -> None:
        self.group_offline = False
        # Re-drive the order for anything we proposed while away, and
        # re-seed the cache: relays sent meanwhile were lost.
        if self.orderer is not None:
            self.orderer.reconnect()
        self._last_resync = -1e9
        self._resync_from_parent()

    def _group_maintenance(self) -> None:
        if self.orderer is None or self.group_offline:
            return
        now = self.now
        # Settled: released here, and the stamp resolved through the
        # sync point's DC trip.
        self.orderer.tick(now, lambda dot: dot not in self._psi_pending
                          and dot not in self.log.unacked)
        # An own commit still unacked after a lost GroupCommitAck is
        # re-queried from the sync point, whose copy carries the resolved
        # stamp (served via the pull path).  (A stamp that resolved some
        # other way already left ``unacked``: ``EdgeLog.adopt``.)
        if not self.is_parent:
            for dot in list(self.log.unacked):
                last = self._ack_pull_at.get(dot, -1e9)
                if now - last > RECOVER_AFTER_MS:
                    self._ack_pull_at[dot] = now
                    self.send(self.parent_id, TxnPull(self.node_id, (dot,)))
        # Stale pulls: a dependency that arrived via another path (relay,
        # resync, stable push) leaves its pull entry behind, and a pull
        # or push lost to churn would stall forever.  Drop satisfied
        # entries; re-drive the rest.
        for dot in [d for d in self._pull_pending
                    if self.log.dots.seen(d)]:
            del self._pull_pending[dot]
        stale = [d for d, at in self._pull_pending.items()
                 if now - at > RESEND_AFTER_MS]
        if stale:
            self._pull(stale)
        # Re-drive a stalled warm-set resync (lost fetch replies).
        expect = self.frontier.resync_expect
        if expect and now - self.frontier.resync_started > 1500.0:
            self._resync(expect)
        if self.is_parent and self.session_open and not self.offline:
            self._ship(self.connected_dc, [
                txn for dot, txn in self._ship_queue.items()
                if now - self._ship_sent_at.get(dot, -1e9)
                > self.SHIP_RETRY_MS])
        if self._exec_queue:
            self._drain_exec_queue()

    def on_message(self, message: Any, sender: str) -> None:
        if self.group_offline and type(message) in self._GROUP_NAMES:
            return  # dropped: the member is cut off from its group
        super().on_message(message, sender)

    def _on_group_msg(self, msg: GroupMsg, sender: str) -> None:
        if self.orderer is not None \
                and self.orderer.handle(msg.payload, sender):
            self._drain_exec_queue()


def form_group(members: List[GroupMember]) -> None:
    """Bootstrap a peer group out-of-band (initial deployment).

    All nodes must share ``group_id`` and agree on the parent and the
    commit variant; the parent learns every member's interest set and
    opens the DC session.
    """
    if not members:
        raise ValueError("a group needs at least one member")
    first = members[0]
    roster = tuple(sorted(m.node_id for m in members))
    parent = None
    for member in members:
        if (member.group_id, member.parent_id, member.commit_variant) != (
                first.group_id, first.parent_id, first.commit_variant):
            raise ValueError("members disagree on group configuration")
        member.init_group(roster)
        if member.is_parent:
            parent = member
    if parent is None:
        raise ValueError("the parent must be one of the members")
    for member in members:
        parent._absorb_interest(member.node_id, member.cache.interest())
    parent.connect()
