"""The edge node: local-first client replica (paper sections 3.7, 4.2).

An edge node caches its interest set, executes transactions locally against
a TCC+ snapshot, commits *asynchronously* (the commit timestamp stays
symbolic until the connected DC acknowledges), and keeps working while
disconnected.  Visibility of remote transactions is gated by the DC on
K-stability; the node's own transactions are always visible to itself
(read-my-writes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Set, Tuple, Union)

from ..core.clock import VectorClock
from ..core.dot import EMPTY_MAP, Dot, DotTracker
from ..core.journal import ObjectState
from ..core.txn import CommitStamp, ObjectKey, Snapshot, Transaction
from ..crdt.base import OpBasedCRDT, new_crdt
from ..obs.trace import EDGE_SUBMIT, SYMBOLIC_COMMIT, VISIBLE
from ..dc.messages import (CommitAck, CommitReject, EdgeCommit,
                           EdgeCommitBatch, InterestChange, ObjectRequest,
                           ObjectResponse,
                           RemoteTxnReply, RemoteTxnRequest, SessionAck,
                           SessionOpen, UpdatePush)
from ..security.enforcement import (ACL_OBJECT, RI_OBJECTS, RI_USERS,
                                    SECURITY_OBJECTS, SecurityEnforcer)
from ..sim.actor import Actor
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from ..store.kv import VersionedStore
from .replica import EdgeFrontier, EdgeLog
from .txn_context import (AbortTransaction, ReadIntent, TransactionContext,
                          UpdateIntent)


@dataclass(eq=False, slots=True)
class TxnStats:
    """One record per finished transaction, for the benchmarks."""

    start: float
    end: float
    served_by: str
    read_only: bool
    aborted: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass(eq=False, slots=True)
class SessionRead:
    """One traced transaction completion: the session's read frontier.

    Recorded only while ``trace_sessions`` is enabled (the chaos harness
    turns it on); the invariant checker replays the log to verify the
    session guarantees — monotonic reads and read-my-writes.
    """

    time: float
    started_at: float
    node_vector: VectorClock
    snapshot_vector: VectorClock
    local_deps: FrozenSet[Dot]
    own_before: int
    aborted: bool


@dataclass(eq=False)
class _RunningTxn:
    """A suspended interactive transaction awaiting an object fetch.

    When the fetch completes the transaction *restarts* from scratch with
    a fresh snapshot that covers the fetched state, so all its reads come
    from one consistent cut.  Bodies must therefore be pure up to commit
    (re-executable), as in any STM-style retry loop.
    """

    body: Callable[[TransactionContext], Any]
    gen: Any
    ctx: TransactionContext
    on_done: Optional[Callable[[Any, TxnStats], None]]
    on_abort: Optional[Callable[[Exception], None]]
    #: The type of the object a parked fetch asked for: a retry asks
    #: for it again even after the key was evicted.
    fetch_type: str = ""

    def restart(self, snapshot: Snapshot) -> None:
        served = self.ctx.served_by
        started = self.ctx.started_at
        self.ctx = TransactionContext(snapshot)
        self.ctx.started_at = started
        self.ctx.served_by = served
        self.gen = self.body(self.ctx)


class EdgeNode(Actor):
    """A far-edge device (or border node) running the Colony client.

    Slotted, and what an idle session never fills — the security state
    without security, fetches, subscriptions, migrated transactions, the
    session trace — is made when first needed (DESIGN §17)."""

    __slots__ = ("connected_dc", "user", "writeback_ms", "log", "frontier",
                 "cache", "_session_interest",
                 "session_open", "offline", "security_enabled", "enforcer",
                 "_pending_fetches", "_compact_tick", "_subscriptions",
                 "txn_stats", "session_log", "_own_commit_log",
                 "_next_remote_request", "_remote_pending", "_retry_epoch",
                 "_retry_mark")

    RETRY_INTERVAL_MS = 500.0

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network],
                 dc_id: str, cache_capacity: Optional[int] = None,
                 user: Optional[str] = None, security_enabled: bool = False,
                 writeback_ms: Optional[float] = None,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, loop, network, rng)
        self.connected_dc = dc_id
        self.user = user or node_id
        # Cache write policy (section 6.1 "e.g. LRU, writeback"): with a
        # writeback interval, commits are shipped in periodic batches
        # instead of eagerly — fewer uplink messages, higher staleness.
        self.writeback_ms = writeback_ms
        if writeback_ms is not None:
            self.every(writeback_ms, self._flush_writeback,
                       jitter=writeback_ms * 0.1)
        #: What the replica holds and what it shows (sans-io values).
        self.log = EdgeLog(node_id)
        self.frontier = EdgeFrontier(self.log)
        #: What the replica holds: key -> journal, its interest set.
        self.cache = VersionedStore(cache_capacity)
        # Keys the *current session's* DC has been told about, tracked
        # separately from the local interest cache: a late SessionAck
        # can re-warm a key locally after a retract, and a subsequent
        # re-declare must still reach the DC or its interest set (and,
        # under partial replication, its shard subscriptions) would
        # diverge from ours for good.
        self._session_interest: Set[ObjectKey] = set()
        self.session_open = False
        self.offline = False
        self.security_enabled = security_enabled
        self.enforcer: Optional[SecurityEnforcer] = \
            SecurityEnforcer() if security_enabled else None
        # Transactions suspended on a fetch, by the key they wait for.
        self._pending_fetches: Dict[ObjectKey, List[_RunningTxn]] = EMPTY_MAP
        self._compact_tick = 0
        self._subscriptions: Dict[ObjectKey,
                                  List[Callable[[ObjectKey], None]]] = \
            EMPTY_MAP
        self.txn_stats: List[TxnStats] = []
        # Invariant-checker instrumentation (``trace_sessions``): the
        # logs exist only while it is on.
        self.session_log: Optional[List[SessionRead]] = None
        self._own_commit_log: Optional[List[Tuple[Dot, float]]] = None
        # Migrated (in-DC) transactions awaiting their reply (section 3.9).
        self._next_remote_request = 0
        self._remote_pending: Dict[int, Tuple] = EMPTY_MAP
        #: The timer epoch the retry timer is armed in (any other value
        #: means it is parked: a crash bumps the epoch), and the Lamport
        #: time it was armed at, which bounds the own commits a fire
        #: re-sends (DESIGN §9).
        self._retry_epoch = -1
        self._retry_mark = 0
        if security_enabled:
            for key, type_name in SECURITY_OBJECTS.items():
                self._declare_interest_local(key, type_name)

    @property
    def vector(self) -> VectorClock:
        return self.frontier.vector

    @property
    def dots(self) -> DotTracker:
        return self.log.dots

    @property
    def unacked(self) -> Mapping[Dot, Transaction]:
        return self.log.unacked

    @property
    def trace_sessions(self) -> bool:
        """Invariant-checker instrumentation (see repro.chaos): while on,
        every finished transaction logs its read frontier in
        ``session_log`` and every local commit its dot with a timestamp
        in ``_own_commit_log``."""
        return self.session_log is not None

    @trace_sessions.setter
    def trace_sessions(self, on: bool) -> None:
        if on != self.trace_sessions:
            self.session_log, self._own_commit_log = \
                ([], []) if on else (None, None)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open (or re-open) the session with the connected DC."""
        if self.offline:
            return
        self._session_interest = self.cache.keys()
        # Declare only dependencies the DC must already have: transactions
        # still carrying symbolic commits will be (re)shipped by us right
        # after the session opens, so they must not block compatibility.
        deps = tuple(d for d, t in self.frontier.uncovered.items()
                     if not t.commit.is_symbolic)
        self.send(self.connected_dc,
                  SessionOpen(self.node_id, self.cache.interest(),
                              self.vector.to_dict(), deps))
        self._arm_retry()

    def go_offline(self) -> None:
        """Lose connectivity; local operation continues (section 7.3.1)."""
        self.offline = True
        self.session_open = False

    def go_online(self) -> None:
        self.offline = False
        self.connect()
        self._arm_retry()   # what parked while offline, if not connecting

    def migrate_to(self, dc_id: str) -> None:
        """Switch the connected DC (tree migration, section 3.8)."""
        self.session_open = False
        self.connected_dc = dc_id
        self.connect()

    # ------------------------------------------------------------------
    # interest sets
    # ------------------------------------------------------------------
    def _declare_interest_local(self, key: ObjectKey,
                                type_name: str) -> None:
        for victim in self.cache.hold(key, type_name):
            self._on_evict(victim)

    def declare_interest(self, key: ObjectKey, type_name: str) -> None:
        if key not in self.cache:
            self._declare_interest_local(key, type_name)
        # Dedup against what the *session* knows, not the local cache: a
        # stale SessionAck may have re-warmed the key locally after a
        # retract, but the DC still saw the retract and dropped it.
        if self.session_open and key not in self._session_interest:
            self._session_interest.add(key)
            self.send(self.connected_dc, InterestChange(
                self.node_id, add=((key, type_name),),
                state_vector=self.vector.to_dict()))

    def retract_interest(self, key: ObjectKey) -> None:
        self.cache.drop(key)
        self._on_evict(key)

    def _on_evict(self, key: ObjectKey) -> None:
        """Unsubscribe from ``key``, which the store no longer holds: a
        retract, or the cache evicting it (section 5.1.2)."""
        self.frontier.key_cut.pop(key, None)   # cold again
        self._session_interest.discard(key)
        if self.session_open:
            self.send(self.connected_dc, InterestChange(
                self.node_id, remove=(key,),
                state_vector=self.vector.to_dict()))

    def subscribe(self, key: ObjectKey,
                  callback: Callable[[ObjectKey], None]) -> None:
        """Reactive programming: run ``callback`` on visible updates."""
        if self._subscriptions is EMPTY_MAP:
            self._subscriptions = {}
        self._subscriptions.setdefault(key, []).append(callback)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    #: Message type -> handler method name.  A subclass extends it with
    #: the types it adds; each class resolves its own table (so
    #: overrides win) into ``_msg_dispatch``.
    _DISPATCH_NAMES: Dict[type, str] = {
        SessionAck: "_on_session_ack",
        UpdatePush: "_on_update_push",
        CommitAck: "_on_commit_ack",
        # CommitReject is a deliberate no-op: the transaction stays in
        # ``unacked`` and the retry timer resends it.
        CommitReject: "_ignore_message",
        ObjectResponse: "_on_object_response",
        RemoteTxnReply: "_on_remote_reply",
    }

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._build_dispatch()

    @classmethod
    def _build_dispatch(cls) -> None:
        cls._msg_dispatch = {message_type: getattr(cls, name)
                             for message_type, name
                             in cls._DISPATCH_NAMES.items()}

    def _ignore_message(self, message: Any, sender: str) -> None:
        pass

    def on_message(self, message: Any, sender: str) -> None:
        # Type-keyed dispatch: pushes arrive once per stability round
        # per edge, so at scale this lookup runs millions of times.
        # Wire types are final (never subclassed), so the exact type is
        # the whole test.
        handler = self._msg_dispatch.get(type(message))
        if handler is None:
            raise TypeError(f"edge {self.node_id}: unexpected message"
                            f" {message!r}")
        handler(self, message, sender)

    def _on_session_ack(self, msg: SessionAck, sender: str) -> None:
        if not msg.accepted:
            # Causally incompatible with the DC (section 3.8): stay
            # effectively disconnected; the retry timer re-opens until
            # repaired.
            return
        seeded: List[ObjectKey] = []
        seed_vector = VectorClock(msg.stable_vector)
        for state in msg.objects:
            if state.key not in self.cache:
                # The ack answers an interest add we have since
                # retracted; installing it would re-warm the key and
                # poison its seed cut without the DC pushing updates.
                continue
            self._install_seed(state, seed_vector)
            seeded.append(state.key)
        self._advance_to_seed(seed_vector)
        if not self.session_open:
            self.session_open = True
            # Interest declared while the SessionOpen round-trip was in
            # flight missed both the open and the live-session path.
            missing = tuple((k, t) for k, t in self.cache.interest()
                            if k not in self._session_interest)
            if missing:
                self._session_interest.update(k for k, _ in missing)
                self.send(sender, InterestChange(
                    self.node_id, add=missing,
                    state_vector=self.vector.to_dict()))
            self._resend_pending(sender)
        # Transactions suspended on fetches that were lost while we were
        # disconnected can resume from the fresh seeds.
        for key in seeded:
            if key in self._pending_fetches:
                self._resume_fetches(key)

    def _resend_pending(self, dc_id: str) -> None:
        """Resend transactions the (possibly new) DC may lack."""
        for txn in self.log.unacked.values():
            self.send(dc_id, EdgeCommit(txn.handoff()))

    def _install_seed(self, state: ObjectState,
                      seed_vector: VectorClock) -> None:
        """Install a remote object snapshot without losing newer state.

        A seed taken at ``seed_vector`` may arrive *after* this node has
        moved past it (a slow fetch racing a session re-seed, or pushes
        landing meanwhile).  Installing it blindly would erase journal
        entries the seed does not contain, so a stale one is dropped
        (``EdgeFrontier.take_seed``); otherwise the seed base replaces
        the journal, and both our uncovered transactions and the
        previously journalled entries are replayed on top (appends
        deduplicate by dot).  What the journal folded into its base
        cannot be replayed, so a seed lacking any of it is stale too,
        whatever its cut.
        """
        journal = state.journal()
        key = journal.key
        if key not in self.cache:
            self._declare_interest_local(key, journal.type_name)
        previous = self.cache.journal(key)
        if previous is not None and not all(
                journal.has(dot) for dot in previous.base_dots):
            return
        if not self.frontier.take_seed(key, seed_vector):
            return
        self.log.fold(journal.base_dots)
        self.cache.install(journal)
        if previous is not None:
            for entry in previous.entries():
                journal.append(entry.txn)
        for txn in self.frontier.uncovered.values():
            if txn.touches(key):
                journal.append(txn)
        self._notify_subscribers([key])

    def _seed_state(self, key: ObjectKey,
                    type_name: Optional[str] = None) -> ObjectState:
        """The seed this replica serves for a warm ``key`` to whoever
        hangs below it — a PoP child, a group member: the key's state
        at our vector.

        Seeds cut a pure-vector view (no local deps, no masking), so
        they use their own cached-view scope: every seed cut at the same
        stable vector reuses one materialisation.
        """
        type_name = type_name or self.cache.journal(key).type_name
        state, dots = self.cache.read_with_dots(
            key, EdgeFrontier.filter(self.vector), scope="seed")
        return ObjectState.of(key, type_name, state, dots)

    def _on_update_push(self, msg: UpdatePush, sender: str) -> None:
        """Apply a push — or a heartbeat, which is a push of nothing.

        A transaction may also come in its ``to_dict()`` form, which
        drivers outside ``src/`` build by hand.
        """
        self._apply_push(
            [t if type(t) is Transaction else Transaction.from_dict(t)
             for t in msg.txns], msg.stable_vector, msg.prev_vector, sender)

    def _apply_push(self, txns: List[Transaction],
                    stable_vector: Mapping[str, int],
                    prev_vector: Mapping[str, int], sender: str) -> None:
        """Take in pushed transactions — each this replica's own copy —
        and advance to ``stable_vector``, if our vector covers the cut
        ``prev_vector`` the push starts from."""
        if not self.frontier.follows(prev_vector):
            self._handle_push_gap(sender)
            return
        touched: List[ObjectKey] = []
        for txn in txns:
            if self._admit(txn, pushed=True):
                touched.extend(txn.keys)
                if self.obs.enabled:
                    self.obs.record(VISIBLE, txn.dot, self.node_id,
                                    self.now, via="push", frm=sender)
            else:
                # A copy held with a symbolic stamp (our own commit, or
                # one the group brought first) takes the pushed stamp:
                # the push covers it, and the ack may come later or never.
                self._adopt(txn.dot, txn.commit.entries, symbolic_only=True)
        self.frontier.advance(stable_vector)
        self._after_advance()
        self._notify_subscribers(touched)

    def _handle_push_gap(self, sender: str) -> None:
        """A missed delta: re-open the session for a full re-seed."""
        self.session_open = False
        self.connect()

    def _advance_to_seed(self, seed_vector: VectorClock) -> None:
        # A seed changes what the node holds even when the vector stays.
        self.frontier.advance_to_seed(seed_vector)
        self._after_advance()

    def _after_advance(self) -> None:
        """Housekeeping run after every push and every seed."""
        if self.security_enabled:
            self._refresh_security()
        # Periodically fold the covered journal prefix into base versions.
        # Safe because transactions restart with fresh snapshots after any
        # suspension, so no reader holds a snapshot older than the fold.
        # Only *warm* (seeded, hole-free) journals may be folded; pushes
        # can land in a declared-but-unseeded journal, which then misses
        # earlier history until its seed arrives.  Skipped under security:
        # masking must stay reversible.
        self._compact_tick += 1
        if not self.security_enabled and self._compact_tick % 32 == 0:
            stable = EdgeFrontier.filter(self.vector)
            for key in self.frontier.key_cut:
                journal = self.cache.journal(key)
                if journal is not None:
                    journal.advance_base(stable)

    def _on_commit_ack(self, msg: CommitAck, sender: str) -> None:
        self._adopt(msg.dot, msg.entries)

    def _adopt(self, dot: Dot, entries: Mapping[str, int],
               symbolic_only: bool = False) -> Optional[Transaction]:
        """Adopt the stamp another copy of ``dot`` carries (see
        ``EdgeLog.adopt``); the held transaction, if it adopted."""
        txn = self.log.adopt(dot, entries, symbolic_only)
        if txn is not None:
            self.frontier.settle(txn)
        return txn

    # ------------------------------------------------------------------
    # the retry timer (DESIGN §9): armed while something is outstanding
    # ------------------------------------------------------------------
    def _awaiting(self) -> bool:
        """Something only the retry timer re-drives: the session is not
        open, or a fetch, a remote request or an own commit is
        outstanding."""
        return (not self.session_open or bool(self._pending_fetches)
                or bool(self._remote_pending) or bool(self.log.unacked))

    def _arm_retry(self) -> None:
        """Arm the retry timer ``RETRY_INTERVAL_MS`` from now, unless it
        is armed, the node is offline or nothing is outstanding.  Due
        times follow each session's own requests, so sessions do not
        retry in phase and no jitter is drawn."""
        if self._retry_epoch == self._timer_epoch or self.offline \
                or not self._awaiting():
            return
        self._retry_epoch = self._timer_epoch
        self._retry_mark = self.log.lamport.time
        self.set_timer(self.RETRY_INTERVAL_MS, self._on_retry_timer)

    def _on_retry_timer(self) -> None:
        self._retry_epoch = -1
        self._retry_unacked()
        self._arm_retry()

    def recover(self) -> None:
        """Back up: the pre-crash retry timer is dead, so re-arm it if
        something is still outstanding."""
        if self.crashed:
            super().recover()
            self._arm_retry()

    def _retry_unacked(self) -> None:
        if self.offline:
            return
        if not self.session_open:
            # A lost SessionOpen (or one sent into a partition during a
            # migration) would otherwise stall the session forever: the
            # new DC does not know this node exists, so no keepalive ever
            # triggers gap recovery.  Re-opening is idempotent — the DC
            # re-seeds and the edge installs seeds monotonically.
            self.connect()
            return
        self._retry_fetches()
        for request_id in list(self._remote_pending):
            # Lost remote requests/replies; the DC dedupes by
            # (client, request_id), so resending is at-most-once.
            self._send_remote(request_id)
        if not self.log.unacked:
            return
        if self.writeback_ms is not None:
            self._flush_writeback()
            return
        # Only commits that have waited a whole interval: under a
        # fixed-period workload a fresh one would fall on every due time.
        for txn in self.log.unacked.values():
            if txn.dot.counter <= self._retry_mark:
                self.send(self.connected_dc, EdgeCommit(txn.handoff()))

    def _retry_fetches(self) -> None:
        """Re-drive object fetches whose request or response was lost."""
        for key, waiting in list(self._pending_fetches.items()):
            if waiting:
                self.fetch_object(key, waiting[0].fetch_type,
                                  waiting[0].ctx)

    def _flush_writeback(self) -> None:
        """Writeback policy: ship the buffered commits as one batch."""
        if self.offline or not self.session_open \
                or not self.log.unacked:
            return
        self.send(self.connected_dc, EdgeCommitBatch(
            tuple(txn.handoff() for txn in self.log.unacked.values())))

    # ------------------------------------------------------------------
    # reading: snapshot materialisation
    # ------------------------------------------------------------------
    def _read_cached(self, key: ObjectKey,
                     snapshot: Snapshot) -> Optional[OpBasedCRDT]:
        """Materialise through the store's incremental cache.

        The view — the read vector, the symbolic local dependencies and
        the security window — is a value and its own token, so the
        materialisation cache recognises an unchanged frontier without
        evaluating it, and a widened one by testing only the entries it
        has not applied.  The returned state is the cache's own, valid
        until the next read of ``key`` (see :mod:`repro.store.matcache`);
        the transaction buffer never mutates it.
        """
        masked = self.enforcer.masked_dots if self.enforcer is not None \
            else frozenset()
        vector = self.frontier.read_vector(snapshot.vector, key)
        return self.cache.read_held(
            key, EdgeFrontier.filter(vector, snapshot.local_deps, masked))

    def read_value(self, key: ObjectKey, type_name: str) -> Any:
        """Read outside a transaction (current snapshot); cache-only."""
        state = self._read_cached(key, self.frontier.current_snapshot())
        if state is None:
            return None
        return state.value()

    # ------------------------------------------------------------------
    # replica introspection (invariant checking, see repro.chaos)
    # ------------------------------------------------------------------
    def state_digest(self) -> Dict[ObjectKey, Any]:
        """Visible value of every warm key, for convergence checks."""
        return {key: self.read_value(key, type_name)
                for key, type_name in self.cache.interest()
                if key in self.frontier.key_cut}

    def own_transaction(self, dot: Dot) -> Optional[Transaction]:
        return self.log.txns.get(dot)

    @property
    def pipeline_idle(self) -> bool:
        """Nothing in flight from this node (quiescence probe)."""
        return (not self.log.unacked and not self._pending_fetches
                and not self._remote_pending)

    # ------------------------------------------------------------------
    # interactive transactions (generator protocol)
    # ------------------------------------------------------------------
    def run_transaction(self, body: Callable[[TransactionContext], Any],
                        on_done: Optional[Callable[[Any, TxnStats],
                                                   None]] = None,
                        on_abort: Optional[Callable[[Exception],
                                                    None]] = None) -> None:
        """Execute ``body`` (a generator function) as a transaction."""
        ctx = TransactionContext(self.frontier.current_snapshot())
        ctx.started_at = self.now
        if self.trace_sessions:
            # Own commits before this point must be in the snapshot
            # (read-my-writes); the checker slices the commit log here.
            ctx.own_before = len(self._own_commit_log)
        gen = body(ctx)
        if not hasattr(gen, "send"):
            raise TypeError("transaction bodies must be generator"
                            " functions (use `yield tx.read(...)`)")
        running = _RunningTxn(body, gen, ctx, on_done, on_abort)
        self._step_txn(running, first=True)

    def _step_txn(self, running: _RunningTxn, first: bool = False,
                  value: Any = None) -> None:
        gen, ctx = running.gen, running.ctx
        try:
            while True:
                intent = gen.send(None if first else value)
                first = False
                if isinstance(intent, ReadIntent):
                    if not self._ensure_state(running, intent.key,
                                              intent.type_name):
                        return  # suspended on a fetch
                    value = ctx.resolve_read(intent.key)
                elif isinstance(intent, UpdateIntent):
                    if not self._ensure_state(running, intent.key,
                                              intent.type_name):
                        return
                    ctx.apply_update(intent, len(ctx.writes),
                                     (self.log.lamport.time + 1,
                                      self.node_id))
                    value = None
                else:
                    raise TypeError(
                        f"transaction bodies must yield read/update"
                        f" intents, got {intent!r}")
        except StopIteration as stop:
            self._finish_txn(running, stop.value)
        except AbortTransaction as abort:
            self._record_stats(ctx, aborted=True)
            if running.on_abort is not None:
                running.on_abort(abort)

    def _ensure_state(self, running: _RunningTxn, key: ObjectKey,
                      type_name: str) -> bool:
        """Materialise ``key`` into the txn buffer; False if suspended."""
        ctx = running.ctx
        if key in ctx.states:
            return True
        if key not in self.cache:
            self.declare_interest(key, type_name)
        if key in self.frontier.key_cut:
            state = self._read_cached(key, ctx.snapshot)
            if state is not None:
                ctx.states[key] = state
                # The read may have seen the key's cut ahead of the
                # snapshot; the declared snapshot must cover it so
                # receivers wait for every dependency the read observed.
                snapshot = ctx.snapshot
                vector = self.frontier.read_vector(snapshot.vector, key)
                if not vector.leq(snapshot.vector):
                    ctx.snapshot = Snapshot(vector, snapshot.local_deps)
                return True
        # Cache miss (or declared-but-never-seeded): fetch, then resume.
        if self._pending_fetches is EMPTY_MAP:
            self._pending_fetches = {}
        self._pending_fetches.setdefault(key, []).append(running)
        running.fetch_type = type_name
        self.fetch_object(key, type_name, ctx)
        self._arm_retry()
        return False

    def fetch_object(self, key: ObjectKey, type_name: str,
                     ctx: TransactionContext) -> None:
        """Request an uncached object; subclasses try peers first."""
        ctx.note_serving("dc")
        if not self.offline:
            self._request_object(key, type_name)
        # When offline, the fetch stays pending: the transaction cannot
        # proceed (availability limit, section 4.2) until reconnection.

    def _request_object(self, key: ObjectKey, type_name: str) -> None:
        self.send(self.connected_dc, ObjectRequest(
            self.node_id, key, type_name, self.vector.to_dict()))

    def _fetch_for_below(self, key: ObjectKey, type_name: str) -> None:
        """Fetch ``key`` from our DC for whoever hangs below us (a PoP
        child, a group member), which also needs our interest in it."""
        self.declare_interest(key, type_name)
        if self.session_open and not self.offline:
            self._request_object(key, type_name)

    def _on_object_response(self, msg: ObjectResponse, sender: str) -> None:
        seed_vector = VectorClock(msg.stable_vector)
        self._install_seed(msg.object_state, seed_vector)
        self._advance_to_seed(seed_vector)
        self._resume_fetches(msg.object_state.key)

    def _resume_fetches(self, key: ObjectKey) -> None:
        if key not in self._pending_fetches:
            return
        waiting = self._pending_fetches.pop(key)
        for running in waiting:
            # Restart with a fresh snapshot that covers the fetched state:
            # every read of the retried body sees one consistent cut.
            running.restart(self.frontier.current_snapshot())
            if self.trace_sessions:
                running.ctx.own_before = len(self._own_commit_log)
            self._step_txn(running, first=True)

    # ------------------------------------------------------------------
    # commit (asynchronous, section 3.7)
    # ------------------------------------------------------------------
    def _finish_txn(self, running: _RunningTxn, result: Any) -> None:
        ctx = running.ctx
        if not ctx.is_read_only:
            self._commit_local(ctx)
        stats = self._record_stats(ctx)
        if running.on_done is not None:
            running.on_done(result, stats)

    def _new_txn(self, ctx: TransactionContext) -> Transaction:
        """An own transaction of ``ctx``'s writes, stamp still symbolic."""
        return Transaction(dot=Dot(self.log.lamport.tick(), self.node_id),
                           origin=self.node_id, snapshot=ctx.snapshot,
                           commit=CommitStamp(), writes=tuple(ctx.writes),
                           issuer=self.user)

    def _commit_local(self, ctx: TransactionContext) -> None:
        txn = self._new_txn(ctx)
        dot = txn.dot
        self._admit(txn, own=True)
        if self.obs.enabled:
            # Submit is stamped at transaction *start*: the gap to the
            # symbolic commit is the edge execution time (reads, waits).
            self.obs.record(EDGE_SUBMIT, dot, self.node_id,
                            ctx.started_at)
            self.obs.record(SYMBOLIC_COMMIT, dot, self.node_id, self.now)
        if self.trace_sessions:
            self._own_commit_log.append((dot, self.now))
        # Propagate (ship, or propose to group consensus) *before*
        # notifying subscribers: a subscriber may commit a reaction
        # reentrantly, and proposal order must match commit (and thus
        # causal) order.
        self._ship_commit(txn)
        self._notify_subscribers(txn.keys)

    def _ship_commit(self, txn: Transaction) -> None:
        """Send an own commit to the DC; the writeback policy leaves it
        to its timer, a peer-group member to its group."""
        if self.session_open and not self.offline \
                and self.writeback_ms is None:
            self.send(self.connected_dc, EdgeCommit(txn.handoff()))

    def _admit(self, txn: Transaction, own: bool = False,
               pushed: bool = False) -> bool:
        """Journal ``txn``: the one way a transaction enters this
        replica (``EdgeLog.admit``); False for a dot already held."""
        if not self.log.admit(txn, own):
            return False
        self.cache.apply_held(txn)
        self.frontier.note(txn, pushed)
        if own:
            self._arm_retry()   # unacked until the DC stamps it
        return True

    def _record_stats(self, ctx: TransactionContext,
                      aborted: bool = False) -> TxnStats:
        stats = TxnStats(ctx.started_at, self.now, ctx.served_by,
                         ctx.is_read_only, aborted)
        self.txn_stats.append(stats)
        if self.trace_sessions:
            self.session_log.append(SessionRead(
                self.now, ctx.started_at, self.vector,
                ctx.snapshot.vector, ctx.snapshot.local_deps,
                getattr(ctx, "own_before", 0), aborted))
        return stats

    # ------------------------------------------------------------------
    # foreign transactions (from a peer group)
    # ------------------------------------------------------------------
    def integrate_foreign_txn(self, txn: Transaction) -> bool:
        """Journal and admit a transaction received outside the DC path.

        Returns False when causal dependencies are missing (the caller
        should retry once more state arrives).
        """
        self.log.lamport.observe(txn.dot.counter)
        if self.log.dots.seen(txn.dot):
            return True
        if not self.frontier.ready(txn):
            return False
        self._admit(txn)
        self._notify_subscribers(txn.keys)
        return True

    # ------------------------------------------------------------------
    # security & subscriptions
    # ------------------------------------------------------------------
    def _refresh_security(self) -> None:
        enforcer = self.enforcer
        if enforcer is None:
            return
        snapshot = self.frontier.current_snapshot()
        raw = EdgeFrontier.filter(snapshot.vector, snapshot.local_deps)

        def read(key: ObjectKey, type_name: str):
            # Security metadata is read unmasked; scope the cached view
            # separately so it never thrashes the masked reads.
            state = self.cache.read_held(key, raw, scope="raw")
            return state if state is not None else new_crdt(type_name)

        acl_set = read(ACL_OBJECT, "orset").value()
        obj_ri = {k: v for k, v in read(RI_OBJECTS, "gmap").value().items()}
        user_ri = {k: v for k, v in read(RI_USERS, "gmap").value().items()}
        enforcer.load_from_values(acl_set, obj_ri, user_ri)
        enforcer.recompute(self.log.txns.values())

    def _notify_subscribers(self, keys: Iterable[ObjectKey]) -> None:
        """Run the callbacks subscribed to those of ``keys`` we hold."""
        for key in [k for k in keys if k in self.cache]:
            for callback in self._subscriptions.get(key, ()):
                callback(key)

    # ------------------------------------------------------------------
    # transaction migration (section 3.9)
    # ------------------------------------------------------------------
    REMOTE_RETRY_MS = 400.0
    REMOTE_MAX_RETRIES = 8

    def run_remote_transaction(self, reads=(), updates=(),
                               on_done: Optional[Callable[[Any, TxnStats],
                                                          None]] = None,
                               on_fail: Optional[Callable[[str],
                                                          None]] = None) \
            -> None:
        """Migrate a (resource-hungry) transaction to the core cloud.

        The snapshot is primed with this node's state vector so the
        migrated transaction has the same effect as if it ran here; the
        DC must first hold our local transactions, so a
        "missing-dependencies" rejection is retried while our unacked
        stream drains (section 5.1.3 accelerates exactly this).
        """
        request_id = self._next_remote_request
        self._next_remote_request += 1
        request = RemoteTxnRequest(
            client_id=self.node_id, request_id=request_id,
            reads=tuple((k, t) for k, t in reads),
            updates=tuple((k, t, m, tuple(a)) for k, t, m, a in updates),
            snapshot=self.vector.to_dict(),
            local_deps=tuple(self.frontier.uncovered), issuer=self.user)
        if self._remote_pending is EMPTY_MAP:
            self._remote_pending = {}
        self._remote_pending[request_id] = (self.now, request, on_done,
                                            on_fail, 0)
        self._send_remote(request_id)
        self._arm_retry()

    def _send_remote(self, request_id: int) -> None:
        pending = self._remote_pending.get(request_id)
        if pending is None or self.offline:
            return
        self.send(self.connected_dc, pending[1])

    def _on_remote_reply(self, msg: RemoteTxnReply, sender: str) -> None:
        pending = self._remote_pending.get(msg.request_id)
        if pending is None:
            return
        start, request, on_done, on_fail, attempts = pending
        if not msg.committed and msg.reason == "missing-dependencies":
            # Our local transactions have not all reached the DC yet;
            # the retry timer for unacked commits is draining them.
            if attempts + 1 >= self.REMOTE_MAX_RETRIES:
                del self._remote_pending[msg.request_id]
                if on_fail is not None:
                    on_fail(msg.reason)
                return
            self._remote_pending[msg.request_id] = (
                start, request, on_done, on_fail, attempts + 1)
            self.set_timer(self.REMOTE_RETRY_MS,
                           lambda: self._send_remote(msg.request_id))
            return
        del self._remote_pending[msg.request_id]
        if not msg.committed:
            if on_fail is not None:
                on_fail(msg.reason or "aborted")
            return
        stats = TxnStats(start, self.now, "dc",
                         read_only=not msg.commit_entries)
        self.txn_stats.append(stats)
        if on_done is not None:
            on_done(msg.values, stats)

    # ------------------------------------------------------------------
    # one-shot transactions (``serve.workload.run_op``, the API's batches)
    # ------------------------------------------------------------------
    def execute(self, reads: List[Tuple[ObjectKey, str]] = (),
                updates: List[Tuple[ObjectKey, str, str, tuple]] = (),
                on_done: Optional[Callable[[Any, TxnStats], None]] = None,
                on_abort: Optional[Callable[[Exception], None]] = None) \
            -> None:
        """Run a batch transaction: all reads, then all updates."""
        def body(tx: TransactionContext):
            values = []
            for key, type_name in reads:
                values.append((yield tx.read(key, type_name)))
            for key, type_name, method, args in updates:
                yield tx.update(key, type_name, method, *args)
            return tuple(values)
        self.run_transaction(body, on_done=on_done, on_abort=on_abort)


# Subclasses build their table as they are defined; this class's own
# needs its methods to exist first.
EdgeNode._build_dispatch()
