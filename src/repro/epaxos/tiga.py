"""Tiga-style deadline-ordered fast path (``commit_variant="tiga"``),
sans-io like :class:`~repro.epaxos.replica.EPaxosReplica`: the caller
binds ``send`` and timers, feeds :meth:`TigaSequencer.handle`, and owns
what a commit and a release do (:mod:`repro.groups.ordering` composes it
with an EPaxos fallback).

Instead of agreeing on a dependency graph (EPaxos), the coordinator of a
transaction *predicts* its position in the group's visibility order: it
stamps the transaction with a future HLC deadline and broadcasts it once.
A member acks when the deadline arrives "in the future and in order" —
strictly ahead of its local clock and above everything it has already
released — and speculatively queues the transaction for release at the
deadline.  A simple majority of acks commits: the timestamp itself is
the total order, so unlike EPaxos there are no attributes to merge and
no fast-quorum supermajority to collect, and the commit point is the
round trip to the ``majority - 1``-th nearest peer.

Safety rests on two rules enforced here:

* a member never releases below ``_released_max``: once something was
  released at deadline *d*, any proposal at or below *d* is nacked, so
  a commit certificate (majority of acks) pins the transaction's slot;
* every deadline seen is merged into the HLC, and a new deadline is
  the later of a lead past the physical clock and a fresh HLC reading,
  so deadlines extend happened-before: a transaction that read
  another's writes always carries a higher deadline.

Liveness is by fallback, not retry: a coordinator that cannot reach a
majority (skewed clocks, loss, partition) withdraws the round and
re-proposes through EPaxos, which remains the correctness baseline.  A
member stuck behind a pending entry past its deadline queries the
coordinator (TigaStatus) and is answered with the round's outcome.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim.clock import HlcTimestamp, HybridLogicalClock, SkewedClock
from .messages import (TigaAck, TigaCommit, TigaPropose, TigaStatus,
                       TigaWithdraw)

#: Round key: the transaction's dot as a hashable (counter, origin).
RoundKey = Tuple[int, str]

PENDING = "pending"
COMMITTED = "committed"
WITHDRAWN = "withdrawn"


def _key(dot: dict) -> RoundKey:
    return (dot["counter"], dot["origin"])


@dataclass(slots=True, eq=False)
class _Round:
    """Coordinator-side state of one fast-path attempt."""

    dot: dict
    txn: Any
    deadline: HlcTimestamp
    sent_at: float
    acks: Set[str] = field(default_factory=set)
    nacks: Set[str] = field(default_factory=set)
    state: str = PENDING


@dataclass(slots=True, eq=False)
class _Spec:
    """Member-side speculative entry awaiting its deadline."""

    dot: dict
    command: Any
    deadline: HlcTimestamp
    committed: bool = False
    queried_at: float = -1e9


class TigaSequencer:
    """Deadline sequencing for one group member (both roles)."""

    #: Starting deadline lead; adapts to 1.5× the worst observed one-way
    #: delay (plus slack) and grows further on late-arrival nacks.
    INITIAL_LEAD_MS = 25.0
    LEAD_MULTIPLIER = 1.5
    LEAD_SLACK_MS = 2.0
    MAX_LEAD_MS = 500.0
    #: Coordinator abandons the fast path after this long without a
    #: quorum; the transaction falls back to EPaxos.
    ROUND_TIMEOUT_MS = 400.0
    #: Member queries a pending entry this long after its deadline.
    QUERY_AFTER_MS = 150.0

    def __init__(self, node_id: str, members, clock: SkewedClock,
                 hlc: HybridLogicalClock, *,
                 send: Callable[[str, Any], None],
                 on_commit: Callable[[RoundKey, HlcTimestamp], None],
                 on_release: Callable[[Any, HlcTimestamp, bool], None],
                 on_fallback: Callable[[RoundKey], None],
                 set_timer: Callable[[float, Callable[[], None]], Any],
                 now_fn: Callable[[], float]):
        self.node_id = node_id
        self.members = sorted(members)
        self.clock = clock
        self.hlc = hlc
        self.send = send
        self.on_commit = on_commit
        self.on_release = on_release
        self.on_fallback = on_fallback
        self.set_timer = set_timer
        self.now_fn = now_fn                  # true (loop) time: timeouts
        self._rounds: Dict[RoundKey, _Round] = {}
        self._spec: Dict[RoundKey, _Spec] = {}
        self._heap: List[Tuple[HlcTimestamp, RoundKey]] = []
        self._resolved: Set[RoundKey] = set()
        self._released_max: HlcTimestamp = (-1.0, 0, "")
        self._owd_ms: Dict[str, float] = {}
        self._lead_floor = self.INITIAL_LEAD_MS
        self._timer_due: Optional[float] = None
        # Counters surfaced through the member's tiga_stats.
        self.fast_commits = 0
        self.fallbacks = 0
        self.acks_sent = 0
        self.nacks_sent = 0

    # -- roster --------------------------------------------------------
    def set_members(self, members) -> None:
        self.members = sorted(members)

    def peers(self):
        return [m for m in self.members if m != self.node_id]

    def _broadcast(self, message: Any) -> None:
        for peer in self.peers():
            self.send(peer, message)

    @staticmethod
    def _certificate(round_: _Round) -> TigaCommit:
        return TigaCommit(dict(round_.dot), round_.deadline, round_.txn)

    @property
    def quorum(self) -> int:
        """Simple majority, counting the coordinator itself."""
        return len(self.members) // 2 + 1

    @property
    def lead_ms(self) -> float:
        lead = self._lead_floor
        if self._owd_ms:
            lead = max(lead, self.LEAD_MULTIPLIER * max(self._owd_ms.values())
                       + self.LEAD_SLACK_MS)
        return min(lead, self.MAX_LEAD_MS)

    @property
    def idle(self) -> bool:
        """No unresolved rounds and nothing awaiting release."""
        return not self._spec and not any(
            r.state == PENDING for r in self._rounds.values())

    # -- coordinator role ----------------------------------------------
    def propose(self, txn: dict) -> HlcTimestamp:
        """Stamp an own transaction and start its fast-path round."""
        dot = dict(txn["dot"])
        key = _key(dot)
        # A lead past the physical clock, and above every deadline seen
        # (the HLC has merged them all).  Not a lead past the HLC: that
        # holds the last deadline seen, so each deadline would be a
        # whole lead above the one before, one release per lead.
        deadline = max((self.clock.now() + self.lead_ms, 0, self.node_id),
                       self.hlc.now())
        self.hlc.observe(deadline)
        round_ = _Round(dot, txn, deadline, self.now_fn())
        self._rounds[key] = round_
        self._enqueue(key, dot, txn, deadline)
        if len(round_.acks) + 1 >= self.quorum:   # singleton group
            self._fast_commit(round_)
        else:
            self._broadcast(TigaPropose(dot, deadline, txn))
        return deadline

    def _fast_commit(self, round_: _Round) -> None:
        round_.state = COMMITTED
        key = _key(round_.dot)
        entry = self._spec.get(key)
        if entry is not None:
            entry.committed = True
        self.fast_commits += 1
        self.on_commit(key, round_.deadline)
        self._broadcast(self._certificate(round_))
        self._pump()

    def _fail_round(self, round_: _Round) -> None:
        round_.state = WITHDRAWN
        key = _key(round_.dot)
        self._spec.pop(key, None)
        self._resolved.add(key)
        self.fallbacks += 1
        self._broadcast(TigaWithdraw(dict(round_.dot)))
        self.on_fallback(key)
        self._pump()

    def _on_ack(self, msg: TigaAck, sender: str) -> None:
        round_ = self._rounds.get(_key(msg.dot))
        if round_ is None:
            return
        sample = (self.now_fn() - round_.sent_at) / 2.0
        if sample > self._owd_ms.get(sender, 0.0):
            self._owd_ms[sender] = sample
        if round_.state != PENDING:
            return
        if msg.ok:
            round_.acks.add(sender)
            if len(round_.acks) + 1 >= self.quorum:
                self._fast_commit(round_)
        else:
            round_.nacks.add(sender)
            # A late arrival tells us how short the lead fell; widen it.
            shortfall = msg.local_ms - msg.deadline[0]
            if shortfall > 0:
                self._lead_floor = min(
                    self._lead_floor + shortfall + self.LEAD_SLACK_MS,
                    self.MAX_LEAD_MS)
            if len(self.members) - len(round_.nacks) < self.quorum:
                self._fail_round(round_)

    def _on_status(self, msg: TigaStatus, sender: str) -> None:
        round_ = self._rounds.get(_key(msg.dot))
        if round_ is None or round_.state == WITHDRAWN:
            self.send(msg.requester, TigaWithdraw(dict(msg.dot)))
        elif round_.state == COMMITTED:
            self.send(msg.requester, self._certificate(round_))
        # else: still deciding; the member will query again.

    # -- member role ---------------------------------------------------
    def _on_propose(self, msg: TigaPropose, sender: str) -> None:
        self.hlc.observe(msg.deadline)
        key = _key(msg.dot)
        if key in self._spec or key in self._resolved:
            ok = True                          # duplicate: re-ack verdict
        else:
            ok = (msg.deadline[0] > self.clock.now()
                  and msg.deadline > self._released_max)
            if ok:
                self._enqueue(key, dict(msg.dot), msg.command, msg.deadline)
        if ok:
            self.acks_sent += 1
        else:
            self.nacks_sent += 1
        self.send(sender, TigaAck(dict(msg.dot), msg.deadline, ok,
                                  self.clock.now()))

    def _on_commit(self, msg: TigaCommit, sender: str) -> None:
        self.hlc.observe(msg.deadline)
        key = _key(msg.dot)
        if key in self._resolved:
            return
        if msg.deadline <= self._released_max:
            # We nacked (or missed) the propose and the round still won:
            # the in-order slot is gone, apply at the current position.
            # Op-based writes commute, so convergence is unaffected.
            self._resolved.add(key)
            self._spec.pop(key, None)
            self.on_release(msg.command, msg.deadline, False)
            return
        entry = self._spec.get(key)
        if entry is None:
            entry = self._enqueue(key, dict(msg.dot), msg.command,
                                  msg.deadline)
        entry.committed = True
        self._pump()

    def _on_withdraw(self, msg: TigaWithdraw, sender: str) -> None:
        key = _key(msg.dot)
        self._resolved.add(key)
        self._spec.pop(key, None)
        self._pump()

    def handle(self, message: Any, sender: str) -> None:
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise TypeError(f"unexpected tiga message {message!r}")
        handler(self, message, sender)

    # -- deadline-ordered release --------------------------------------
    def _enqueue(self, key: RoundKey, dot: dict, command: Any,
                 deadline: HlcTimestamp) -> _Spec:
        entry = _Spec(dot, command, deadline)
        self._spec[key] = entry
        heapq.heappush(self._heap, (deadline, key))
        self._arm_timer(deadline[0])
        return entry

    def _arm_timer(self, deadline_ms: float) -> None:
        """One re-check timer at a time, for the earliest deadline."""
        local = self.clock.now()
        rate = max(1.0 + self.clock.drift, 0.01)
        delay = max((deadline_ms - local) / rate, 0.01)
        due = self.now_fn() + delay
        if self._timer_due is not None and due >= self._timer_due:
            return
        self._timer_due = due
        def fire() -> None:
            self._timer_due = None
            self._pump()
        self.set_timer(delay, fire)

    def _pump(self) -> None:
        """Release committed entries whose deadline has passed, in
        deadline order; query the coordinator of a stalled head."""
        while self._heap:
            deadline, key = self._heap[0]
            entry = self._spec.get(key)
            if entry is None or entry.deadline != deadline:
                heapq.heappop(self._heap)     # withdrawn or stale
                continue
            if self.clock.now() < deadline[0]:
                self._arm_timer(deadline[0])
                break
            if entry.committed:
                heapq.heappop(self._heap)
                del self._spec[key]
                self._resolved.add(key)
                if deadline > self._released_max:
                    self._released_max = deadline
                self.on_release(entry.command, deadline, True)
                continue
            # Pending past its deadline: the commit or withdraw got
            # lost, or the coordinator is still collecting acks.
            now = self.now_fn()
            if key[1] != self.node_id \
                    and now - entry.queried_at > self.QUERY_AFTER_MS:
                entry.queried_at = now
                self.send(key[1], TigaStatus(dict(entry.dot), self.node_id))
            self._arm_timer(self.clock.now() + self.QUERY_AFTER_MS)
            break

    # -- liveness ------------------------------------------------------
    def maintenance(self) -> None:
        """Periodic: time out stalled own rounds, drive the queue."""
        now = self.now_fn()
        for round_ in list(self._rounds.values()):
            if round_.state == PENDING \
                    and now - round_.sent_at > self.ROUND_TIMEOUT_MS:
                self._fail_round(round_)
        self._pump()

    def fail_pending(self) -> None:
        """Abandon every unresolved own round (group reconnection: the
        fast path was lost to the outage; EPaxos carries them)."""
        for round_ in list(self._rounds.values()):
            if round_.state == PENDING:
                self._fail_round(round_)

    def rebroadcast_commit(self, key: RoundKey) -> None:
        """Re-send the commit certificate for an own committed round
        whose stamp has not resolved (a member may have missed it)."""
        round_ = self._rounds.get(key)
        if round_ is not None and round_.state == COMMITTED:
            self._broadcast(self._certificate(round_))

    def prune(self, is_settled: Callable[[RoundKey], bool]) -> None:
        """Drop bookkeeping for resolved rounds the member no longer
        tracks (commit stamp resolved through the DC round trip)."""
        for key, round_ in list(self._rounds.items()):
            if round_.state != PENDING and is_settled(key):
                del self._rounds[key]

    _HANDLERS = {TigaPropose: _on_propose, TigaAck: _on_ack,
                 TigaCommit: _on_commit, TigaWithdraw: _on_withdraw,
                 TigaStatus: _on_status}
