"""How a peer group orders its transactions (paper section 5.1.4), sans-io.

A group's visibility order comes from one ordering machine per member,
behind one interface, :class:`Orderer`.  ``GroupMember`` builds exactly
one when it joins a group, picking the class from its commit variant in
:data:`ORDERERS`, and from then on calls only the interface.  The
machines send nothing themselves and arm no timer of their own: the
member binds sending, timers and what a release does (:class:`Wiring`).
After Sutra & Shapiro, a member's replica is one log — the member's
visibility log — plus the machine that appends to it:

* :class:`ConsensusOrder` (``"async"``): an
  :class:`~repro.epaxos.replica.EPaxosReplica` with its liveness —
  own instances re-sent until settled, blocked dependencies recovered —
  and the bootstrap of a joining member.  An own commit happens at once;
  the order follows in the background.
* :class:`CertifiedOrder` (``"psi"``): the same order on the commit's
  critical path, plus PSI certification
  (:class:`~repro.groups.certification.LogWriters`), the filter the
  member asks at the head of its execution queue.
* :class:`DeadlineOrder` (``"tiga"``): a
  :class:`~repro.epaxos.tiga.TigaSequencer` composed with a
  :class:`ConsensusOrder` that carries every round the fast path
  withdraws.

Releases come back in order through ``Wiring.release(txn, fast)``, where
``fast`` says whether a deadline release came in deadline order (None
without a deadline path), and an own fast commit is signalled ahead of
its release through ``Wiring.committed(txn)``.  Consensus commands are
the transactions themselves, as :class:`~repro.core.txn.Transaction`
records, handed off at both ends: a proposal carries the stamp as it
stood then, and each member releases a transaction of its own, whose
stamp only that member grows.  A
deadline round's command is ``{"dot": ..., "txn": ...}``: the sequencer
names its rounds by the dot's dict form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.dot import Dot
from ..core.txn import Transaction
from ..epaxos.messages import InstanceId, TigaMessage
from ..epaxos.replica import NOOP, EPaxosReplica
from ..epaxos.tiga import RoundKey, TigaSequencer
from ..sim.clock import HlcTimestamp, HybridLogicalClock, SkewedClock
from .certification import LogWriters

#: An own proposal not settled this long is re-broadcast.
RESEND_AFTER_MS = 250.0
#: A dependency blocking execution this long is recovered, and an own
#: fast commit whose stamp is still symbolic re-broadcasts its
#: certificate as often.
RECOVER_AFTER_MS = 800.0

#: The member's test that an own transaction's commit stamp resolved —
#: which proves the sync point executed, hence received, it.
Settled = Callable[[Dot], bool]
#: A committed instance as ``GroupSeed`` carries it.
SeedInstance = Tuple[InstanceId, Optional[Transaction], int,
                     Tuple[InstanceId, ...]]

#: The deadline-path counters every orderer reports (zero without one),
#: named as :class:`TigaSequencer` names them.
NO_FAST_PATH = {"fast_commits": 0, "fallbacks": 0,
                "acks_sent": 0, "nacks_sent": 0}


@dataclass(frozen=True)
class Wiring:
    """What a member binds its orderer to."""

    send: Callable[[str, Any], None]
    release: Callable[[Transaction, Optional[bool]], None]
    committed: Callable[[Transaction], None]
    clock: SkewedClock
    set_timer: Callable[[float, Callable[[], None]], Any]
    now: Callable[[], float]


class Orderer:
    """The one interface a member orders its group's transactions
    through; the defaults are an order that certifies nothing."""

    #: Does an own commit wait for its place in the order (psi, tiga)?
    critical = False
    #: Nothing in flight beyond what the member's own queues hold
    #: (unacked commits, the execution queue)?
    idle = True

    def propose(self, txn: Transaction) -> None:
        """Order an own transaction whose commit waits for it."""

    def propose_committed(self, txn: Transaction) -> None:
        """Order an own transaction that committed already (async, or
        carried in by a member migrating with pending commits)."""

    def handle(self, payload: Any, sender: str) -> bool:
        """Take a consensus payload; True when the member should retry
        the head of its execution queue."""

    def set_members(self, roster: Sequence[str]) -> None:
        """Adopt a new roster."""

    def tick(self, now: float, settled: Settled) -> None:
        """Periodic liveness: resends, timeouts, recovery."""

    def reconnect(self) -> None:
        """The member is back on the group network."""

    def close(self) -> None:
        """The member leaves the group."""

    def certify(self, txn: Transaction) -> bool:
        """May ``txn``, at the head of the execution queue, be visible?"""
        return True

    def appended(self, txn: Transaction) -> None:
        """``txn`` joined the visibility log."""

    def committed_instances(self) -> Tuple[SeedInstance, ...]:
        """The agreed prefix, to bootstrap a joining member."""

    def seed(self, instances: Sequence[SeedInstance]) -> List[Dot]:
        """Install an agreed prefix; the dots it holds."""

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: the deadline path and the work done per release."""


class ConsensusOrder(Orderer):
    """EPaxos order off the commit's critical path (``"async"``)."""

    def __init__(self, node_id: str, members: Sequence[str],
                 wiring: Wiring):
        self.replica = EPaxosReplica(
            node_id, list(members), keys_of=lambda txn: txn.key_set,
            on_execute=self._on_execute, send=wiring.send)
        self._release = wiring.release
        self._now = wiring.now
        # Own instances -> (last (re)send, command).  They stay past
        # local execution: a Commit lost on a lossy link would otherwise
        # strand peers at preaccepted with nobody left to resend (recovery
        # only fires for dependencies of *committed* instances).
        self._own: Dict[InstanceId, Tuple[float, Transaction]] = {}
        self._blocked_since: Dict[InstanceId, float] = {}

    def propose(self, txn: Transaction) -> None:
        self._propose(txn.handoff())

    def _propose(self, command: Transaction) -> None:
        instance_id = self.replica.propose(command)
        self._own[instance_id] = (self._now(), command)

    propose_committed = propose

    def _on_execute(self, command: Transaction,
                    instance_id: InstanceId) -> None:
        self._blocked_since.pop(instance_id, None)
        self._release(command.handoff(), None)

    def handle(self, payload: Any, sender: str) -> bool:
        self.replica.handle(payload, sender)
        return True

    def set_members(self, roster: Sequence[str]) -> None:
        self.replica.set_members(list(roster))

    def tick(self, now: float, settled: Settled) -> None:
        self._resend_own(now, settled)
        self._recover_blocked(now)

    def _resend_own(self, now: float, settled: Settled) -> None:
        """Re-drive own instances until committed here with their stamp
        resolved; order again a command whose instance a peer's recovery
        finalised as a no-op, since no member can execute it there."""
        instances = self.replica.instances
        for instance_id, (sent_at, command) in list(self._own.items()):
            inst = instances.get(instance_id)
            committed = inst is not None and inst.is_committed
            if committed and inst.command is NOOP:
                del self._own[instance_id]
                self._propose(command)
            elif committed and settled(command.dot):
                del self._own[instance_id]
            elif now - sent_at > RESEND_AFTER_MS:
                self.replica.resend(instance_id)
                self._own[instance_id] = (now, command)

    def _recover_blocked(self, now: float) -> None:
        blocked = self.replica.uncommitted_dependencies()
        for instance_id in blocked:
            since = self._blocked_since.setdefault(instance_id, now)
            if now - since > RECOVER_AFTER_MS:
                self.replica.recover(instance_id)
                self._blocked_since[instance_id] = now
        for instance_id in list(self._blocked_since):
            if instance_id not in blocked:
                del self._blocked_since[instance_id]

    def reconnect(self) -> None:
        for instance_id in list(self._own):
            self.replica.resend(instance_id)

    def committed_instances(self) -> Tuple[SeedInstance, ...]:
        return tuple((instance_id, command, seq, tuple(sorted(deps)))
                     for instance_id, command, seq, deps
                     in self.replica.committed_instances())

    def seed(self, instances: Sequence[SeedInstance]) -> List[Dot]:
        dots = []
        for instance_id, command, seq, deps in instances:
            self.replica.seed_committed(
                tuple(instance_id), command, seq,
                frozenset(tuple(d) for d in deps), executed=True)
            if command is not None:
                dots.append(command.dot)
        return dots

    @property
    def stats(self) -> Dict[str, int]:
        return {**NO_FAST_PATH,
                "execute_visits": self.replica.execute_visits,
                "examined": 0}


class CertifiedOrder(ConsensusOrder):
    """EPaxos order on the commit's critical path, with PSI
    certification (``"psi"``).

    A transaction aborts when a conflicting one sits between its snapshot
    and its slot: some earlier entry of the visibility log wrote one of
    its keys and is covered neither by its ``local_deps`` nor by its
    snapshot vector.  The test reads commit stamps, which resolve at
    different times on different members, so two members can reach
    different verdicts on one transaction (DESIGN §9, known failure 3(c)).
    """

    critical = True

    def __init__(self, node_id: str, members: Sequence[str],
                 wiring: Wiring):
        super().__init__(node_id, members, wiring)
        self._writers = LogWriters()
        #: Dots this member's certification aborted.
        self.aborted: Set[Dot] = set()

    def certify(self, txn: Transaction) -> bool:
        if not self._writers.conflicts(txn):
            return True
        self.aborted.add(txn.dot)
        return False

    def appended(self, txn: Transaction) -> None:
        self._writers.add(txn)

    @property
    def stats(self) -> Dict[str, int]:
        return {**super().stats, "examined": self._writers.examined}


class DeadlineOrder(Orderer):
    """Tiga's deadline order (``"tiga"``): a fast path composed with an
    EPaxos fallback."""

    critical = True

    def __init__(self, node_id: str, members: Sequence[str],
                 wiring: Wiring):
        release = wiring.release
        self.fallback = fallback = ConsensusOrder(node_id, members, replace(
            wiring, release=lambda txn, fast: release(txn, False)))
        # The agreed prefix a joining member bootstraps from is EPaxos's.
        self.committed_instances = fallback.committed_instances
        self.seed = fallback.seed
        self.tiga = TigaSequencer(
            node_id, members, wiring.clock,
            HybridLogicalClock(wiring.clock, node_id), send=wiring.send,
            on_commit=self._on_fast_commit, on_release=self._on_release,
            on_fallback=self._on_fallback, set_timer=wiring.set_timer,
            now_fn=wiring.now)
        self._release = release
        self._committed = wiring.committed
        self._now = wiring.now
        # Own rounds still deciding: what a withdrawn one re-proposes.
        self._deciding: Dict[RoundKey, Transaction] = {}
        # Own fast commits -> last certificate broadcast, until settled:
        # the sync point (or another member) may have lost it, and
        # nothing else would resend.
        self._recommit_at: Dict[Dot, float] = {}

    def propose(self, txn: Transaction) -> None:
        self._deciding[(txn.dot.counter, txn.dot.origin)] = txn
        self.tiga.propose({"dot": txn.dot.to_dict(), "txn": txn.handoff()})

    def propose_committed(self, txn: Transaction) -> None:
        self.fallback.propose(txn)

    def _on_fast_commit(self, key: RoundKey,
                        deadline: HlcTimestamp) -> None:
        """The deadline slot is durable on a majority: the transaction
        commits now, its release follows at the deadline."""
        txn = self._deciding.pop(key)
        self._recommit_at[txn.dot] = self._now()
        self._committed(txn)

    def _on_release(self, command: dict, deadline: HlcTimestamp,
                    in_order: bool) -> None:
        self._release(command["txn"].handoff(), in_order)

    def _on_fallback(self, key: RoundKey) -> None:
        """Fast path abandoned (late deadline, loss, outage): EPaxos
        carries the transaction to the same outcome."""
        self.fallback.propose(self._deciding.pop(key))

    def handle(self, payload: Any, sender: str) -> bool:
        # Routed before the EPaxos replica, which rejects unknown types.
        if isinstance(payload, TigaMessage):
            self.tiga.handle(payload, sender)
            return False
        return self.fallback.handle(payload, sender)

    def set_members(self, roster: Sequence[str]) -> None:
        self.fallback.set_members(roster)
        self.tiga.set_members(roster)

    def tick(self, now: float, settled: Settled) -> None:
        self.fallback._resend_own(now, settled)
        self.tiga.maintenance()
        for dot, last in list(self._recommit_at.items()):
            if settled(dot):
                del self._recommit_at[dot]
            elif now - last > RECOVER_AFTER_MS:
                self._recommit_at[dot] = now
                self.tiga.rebroadcast_commit((dot.counter, dot.origin))
        self.tiga.prune(lambda key: settled(Dot(key[0], key[1])))
        self.fallback._recover_blocked(now)

    def reconnect(self) -> None:
        self.fallback.reconnect()
        # Rounds started while cut off can never have gathered a quorum.
        self.tiga.fail_pending()

    def close(self) -> None:
        # Unresolved rounds re-propose through EPaxos before it goes.
        self.tiga.fail_pending()

    @property
    def idle(self) -> bool:
        return self.tiga.idle

    @property
    def stats(self) -> Dict[str, int]:
        return {**self.fallback.stats,
                **{name: getattr(self.tiga, name) for name in NO_FAST_PATH}}


#: The orderer of each commit variant.
ORDERERS: Dict[str, Callable[[str, Sequence[str], Wiring], Orderer]] = {
    "async": ConsensusOrder, "psi": CertifiedOrder, "tiga": DeadlineOrder}
#: The accepted ``commit_variant`` values (single source of truth for
#: validation, CLIs and benchmarks).
COMMIT_VARIANTS: Tuple[str, ...] = tuple(ORDERERS)
