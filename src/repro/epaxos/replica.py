"""EPaxos replica state machine (sans-io).

One replica per peer-group member.  The replica is transport-agnostic: the
caller supplies a ``send(dst, message)`` function and feeds incoming
messages to :meth:`handle`.  Committed commands are *executed* — delivered
to ``on_execute`` — in the agreed dependency order (see
:mod:`repro.epaxos.graph`), identically at every replica.

We implement the *simple* EPaxos variant of Moraru et al.: the fast path
needs ~2F participants with unchanged attributes, interference falls back
to a Paxos-Accept round, and recovery (explicit prepare) handles command
leaders that crash mid-protocol.  The recovery rule for pre-accepted
instances follows the simple variant: a value is re-proposed through the
Accept phase only when at least F replies report it identically; otherwise
the recovering replica restarts the instance (or commits a no-op when
nobody knows the command).

Dependencies are kept the way the reference implementation keeps them:
at most one entry per replica.  An entry ``(r, s)`` in an instance's
``deps`` stands for every instance of ``r`` at a slot ``<= s`` whose
command interferes, so a replica records, per replica, the highest slot
it knows to interfere, and merging two sets takes the higher slot per
replica.  The set covers every interfering instance a replica knows of,
which is what EPaxos's safety needs, and its size is bounded by the
roster rather than by the history.  Execution expands an entry through
the instances not executed yet; it waits until every slot the entry
covers is known, and each uncommitted one holds a command known not to
interfere, since any other slot may yet commit one that does.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable,
                    List, Optional, Set, Tuple, Union)

from .graph import execution_order
from .instance import (ACCEPTED, COMMITTED, EXECUTED, PREACCEPTED, Instance,
                       status_at_least)
from .messages import (Accept, AcceptReply, Ballot, Commit, InstanceId,
                       PreAccept, PreAcceptReply, Prepare, PrepareReply,
                       initial_ballot)

# Type of the function extracting conflict keys from a command.
KeysOf = Callable[[Any], Iterable[Hashable]]
SendFn = Callable[[str, Any], None]
ExecuteFn = Callable[[Any, InstanceId], None]

NOOP = None


class EPaxosReplica:
    """One member's consensus state for a peer group."""

    def __init__(self, replica_id: str, members: List[str],
                 keys_of: KeysOf, on_execute: ExecuteFn, send: SendFn):
        if replica_id not in members:
            raise ValueError("replica must be one of the members")
        self.replica_id = replica_id
        self.members = sorted(members)
        self.keys_of = keys_of
        self.on_execute = on_execute
        self.send = send
        self._next_slot = 0
        self.instances: Dict[InstanceId, Instance] = {}
        # The instances not executed yet, in creation order like
        # ``instances``: what execution and the liveness scans walk, so
        # their cost follows the work in flight, not the history.
        self._unexecuted: Dict[InstanceId, Instance] = {}
        #: Instances looked at by ``_try_execute`` so far (the tier-1
        #: growth guard reads it).
        self.execute_visits = 0
        # conflict key -> {replica: highest committed slot touching it},
        # and the highest seq committed on it.  Instances still deciding
        # are picked out of ``_unexecuted``, which keeps an instance's
        # own entry out of its attributes.
        self._key_index: Dict[Hashable, Dict[str, int]] = {}
        self._key_seq: Dict[Hashable, int] = {}
        # replica -> highest slot s such that all its slots <= s are known.
        self._known: Dict[str, int] = {}

    # -- quorum arithmetic --------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def f(self) -> int:
        return (self.n - 1) // 2

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    @property
    def fast_quorum_replies(self) -> int:
        """PreAccept replies needed before deciding fast vs slow path."""
        if self.n == 1:
            return 0
        return max(2 * self.f - 1, self.majority - 1, 1)

    def peers(self) -> List[str]:
        return [m for m in self.members if m != self.replica_id]

    def _broadcast(self, message: Any) -> None:
        for peer in self.peers():
            self.send(peer, message)

    # -- helpers -----------------------------------------------------------------
    def _instance(self, instance_id: InstanceId) -> Instance:
        inst = self.instances.get(instance_id)
        if inst is None:
            inst = Instance(instance_id, initial_ballot(instance_id[0]))
            self.instances[instance_id] = inst
            self._unexecuted[instance_id] = inst
            replica, slot = instance_id
            known = self._known.get(replica, -1)
            if slot == known + 1:
                while (replica, known + 1) in self.instances:
                    known += 1
                self._known[replica] = known
        return inst

    def _keys(self, command: Any) -> FrozenSet[Hashable]:
        return frozenset(() if command is NOOP else self.keys_of(command))

    def _adopt(self, inst: Instance, command: Any, seq: int,
               deps: FrozenSet[InstanceId], status: str) -> None:
        """Take ``command`` with its attributes, at ``status``."""
        inst.promote(status)
        if not inst.is_committed and command is not inst.command:
            # A command once seen counts until the instance commits: a
            # recovery's no-op may yet lose to it.
            inst.keys |= self._keys(command)
        inst.command, inst.seq, inst.deps = command, seq, deps
        inst.accepted_ballot = inst.ballot
        if inst.is_committed:
            inst.end_round()
            inst.keys = self._keys(command)
            replica, slot = inst.instance_id
            for key in inst.keys:
                slots = self._key_index.setdefault(key, {})
                if slots.get(replica, -1) < slot:
                    slots[replica] = slot
                if self._key_seq.get(key, 0) < seq:
                    self._key_seq[key] = seq

    @staticmethod
    def _merge_deps(deps: FrozenSet[InstanceId],
                    more: FrozenSet[InstanceId]) -> FrozenSet[InstanceId]:
        """Deps covering both sets: the higher slot per replica."""
        latest = dict(deps)
        for replica, slot in more:
            if latest.get(replica, -1) < slot:
                latest[replica] = slot
        return frozenset(latest.items())

    def _attributes_for(self, command: Any, instance_id: InstanceId) \
            -> Tuple[int, FrozenSet[InstanceId]]:
        """(seq, deps) relative to this replica's current knowledge: one
        past the highest interfering seq, and per replica the highest
        interfering slot, ``instance_id`` itself left out."""
        keys = self._keys(command)
        latest: Dict[str, int] = {}
        max_seq = 0
        for key in keys:
            slots = self._key_index.get(key)
            if slots is None:
                continue
            max_seq = max(max_seq, self._key_seq[key])
            for replica, slot in slots.items():
                if latest.get(replica, -1) < slot:
                    latest[replica] = slot
        for other_id, other in self._unexecuted.items():
            if other.status in (PREACCEPTED, ACCEPTED) \
                    and other_id != instance_id \
                    and not keys.isdisjoint(other.keys):
                replica, slot = other_id
                if latest.get(replica, -1) < slot:
                    latest[replica] = slot
                max_seq = max(max_seq, other.seq)
        return max_seq + 1, frozenset(latest.items())

    # -- proposing ------------------------------------------------------------------
    def propose(self, command: Any) -> InstanceId:
        """Become command leader for ``command``; returns the instance id."""
        instance_id = (self.replica_id, self._next_slot)
        self._next_slot += 1
        seq, deps = self._attributes_for(command, instance_id)
        inst = self._instance(instance_id)
        self._adopt(inst, command, seq, deps, PREACCEPTED)
        inst.restart_preaccept()
        if self.n == 1:
            self._commit(instance_id, command, seq, deps)
        else:
            self._broadcast(PreAccept(instance_id, inst.ballot, command,
                                      seq, deps))
        return instance_id

    # -- message handling --------------------------------------------------------------
    def handle(self, message: Any, sender: str) -> None:
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise TypeError(f"unexpected message {message!r}")
        handler(self, message, sender)

    # .. PreAccept phase ..........................................................
    def _on_preaccept(self, msg: PreAccept, sender: str) -> None:
        inst = self._instance(msg.instance)
        if msg.ballot < inst.ballot:
            self.send(sender, PreAcceptReply(
                msg.instance, inst.ballot, False, inst.seq, inst.deps))
            return
        if inst.is_committed:
            # Stale retransmission; the commit broadcast will reach the
            # leader (or already did).
            return
        if inst.status == ACCEPTED:
            # A recovery restarts the round at a higher ballot (on a FIFO
            # link an Accept never overtakes its own round's PreAccept).
            inst.status = PREACCEPTED
        inst.ballot = msg.ballot
        local_seq, local_deps = self._attributes_for(msg.command,
                                                     msg.instance)
        seq = max(msg.seq, local_seq)
        deps = self._merge_deps(msg.deps, local_deps)
        self._adopt(inst, msg.command, seq, deps, PREACCEPTED)
        self.send(sender, PreAcceptReply(msg.instance, msg.ballot, True,
                                         seq, deps))

    @staticmethod
    def _outbid(inst: Instance,
                msg: Union[PreAcceptReply, AcceptReply]) -> bool:
        """A NACK: adopt the higher ballot it names, so the next
        ``resend`` takes the instance over (``recover``) rather than
        re-sending a round no replica accepts any more."""
        if not msg.ok and msg.ballot > inst.ballot \
                and not inst.is_committed:
            inst.ballot = msg.ballot
        return not msg.ok

    def _on_preaccept_reply(self, msg: PreAcceptReply, sender: str) -> None:
        inst = self.instances.get(msg.instance)
        if inst is None or self._outbid(inst, msg) \
                or inst.status != PREACCEPTED or msg.ballot != inst.ballot \
                or inst.preaccept_repliers is None:
            return  # a NACK, a stale reply (already moved on), not ours
        inst.preaccept_repliers.add(sender)
        if msg.seq != inst.seq or msg.deps != inst.deps:
            inst.preaccept_unanimous = False
        inst.merged_seq = max(inst.merged_seq, msg.seq)
        inst.merged_deps = self._merge_deps(inst.merged_deps, msg.deps)
        if len(inst.preaccept_repliers) < self.fast_quorum_replies:
            return
        if inst.preaccept_unanimous:
            self._commit(msg.instance, inst.command, inst.seq, inst.deps)
        else:
            self._start_accept(msg.instance, inst.command,
                               inst.merged_seq, inst.merged_deps,
                               inst.ballot)

    # .. Accept phase .................................................................
    def _start_accept(self, instance_id: InstanceId, command: Any,
                      seq: int, deps: FrozenSet[InstanceId],
                      ballot: Ballot) -> None:
        inst = self._instance(instance_id)
        inst.ballot = ballot
        inst.accept_repliers = set()
        self._adopt(inst, command, seq, deps, ACCEPTED)
        if self.majority - 1 == 0:
            self._commit(instance_id, command, seq, deps)
        else:
            self._broadcast(Accept(instance_id, ballot, command, seq, deps))

    def _on_accept(self, msg: Accept, sender: str) -> None:
        inst = self._instance(msg.instance)
        if msg.ballot < inst.ballot:
            self.send(sender, AcceptReply(msg.instance, inst.ballot, False))
            return
        if inst.is_committed:
            return
        inst.ballot = msg.ballot
        self._adopt(inst, msg.command, msg.seq, msg.deps, ACCEPTED)
        self.send(sender, AcceptReply(msg.instance, msg.ballot, True))

    def _on_accept_reply(self, msg: AcceptReply, sender: str) -> None:
        inst = self.instances.get(msg.instance)
        if inst is None or self._outbid(inst, msg) \
                or inst.status != ACCEPTED or msg.ballot != inst.ballot \
                or inst.accept_repliers is None:
            return
        inst.accept_repliers.add(sender)
        if len(inst.accept_repliers) >= self.majority - 1:
            self._commit(msg.instance, inst.command, inst.seq, inst.deps)

    # .. Commit ...........................................................................
    def _commit(self, instance_id: InstanceId, command: Any, seq: int,
                deps: FrozenSet[InstanceId]) -> None:
        inst = self._instance(instance_id)
        if inst.is_committed:
            return
        self._adopt(inst, command, seq, deps, COMMITTED)
        self._broadcast(Commit(instance_id, command, seq, deps))
        self._try_execute()

    def _on_commit(self, msg: Commit, sender: str) -> None:
        inst = self._instance(msg.instance)
        if inst.is_committed:
            return
        self._adopt(inst, msg.command, msg.seq, msg.deps, COMMITTED)
        self._try_execute()

    # -- execution ------------------------------------------------------------------------
    def _try_execute(self) -> None:
        """Execute every committed instance whose closure is committed."""
        progress = True
        while progress:
            progress = False
            for instance_id, inst in list(self._unexecuted.items()):
                self.execute_visits += 1
                if inst.status != COMMITTED:
                    continue
                closure = self._committed_closure(instance_id)
                if closure is None:
                    continue
                self._execute_closure(closure)
                progress = True

    def _committed_closure(self, root: InstanceId) \
            -> Optional[Dict[InstanceId,
                             Tuple[int, Tuple[InstanceId, ...]]]]:
        """Transitive non-executed dependencies; None if any not committed.

        An entry ``(r, s)`` of ``deps`` stands for every instance of
        ``r`` at a slot ``<= s`` that interferes: executed ones need no
        visit, so it is expanded through the unexecuted set alone, once
        every slot of ``r`` up to ``s`` is known and committed or holds
        a command known not to interfere.  Each expansion is sorted, so
        Tarjan walks the same graph the same way everywhere.
        """
        closure: Dict[InstanceId, Tuple[int, Tuple[InstanceId, ...]]] = {}
        unexecuted = self._unexecuted
        stack = [root]
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            inst = unexecuted[node]
            if inst.status != COMMITTED:
                return None
            edges = self._expand(inst)
            if edges is None:
                return None  # uncommitted or unknown dependency
            closure[node] = (inst.seq, edges)
            stack.extend(edges)
        return closure

    def _expand(self, inst: Instance,
                blocked: Optional[Set[InstanceId]] = None) \
            -> Optional[Tuple[InstanceId, ...]]:
        """The unexecuted committed instances ``inst.deps`` stands for.

        None at the first dependency that is unknown, or uncommitted
        and not known to hold a disjoint command, or — when ``blocked``
        is given — each of them added to it instead.  An uncommitted
        instance with no keys (unknown, or a no-op a recovery proposed)
        may yet commit a command that interferes, so it blocks too.
        """
        keys = inst.keys
        if not keys or not inst.deps:
            return ()
        latest: Dict[str, int] = {}
        for replica, slot in inst.deps:
            if latest.get(replica, -1) < slot:
                latest[replica] = slot
        for replica, slot in latest.items():
            known = self._known.get(replica, -1)
            if known < slot:
                if blocked is None:
                    return None
                blocked.update(
                    (replica, missing) for missing in range(known + 1,
                                                            slot + 1)
                    if (replica, missing) not in self.instances)
        edges = []
        for other_id, other in self._unexecuted.items():
            bound = latest.get(other_id[0])
            if bound is None or other_id[1] > bound or other is inst:
                continue
            interferes = not keys.isdisjoint(other.keys)
            if other.status != COMMITTED \
                    and (interferes or not other.keys):
                if blocked is None:
                    return None
                blocked.add(other_id)
            elif interferes:
                edges.append(other_id)
        edges.sort()
        return tuple(edges)

    def _execute_closure(self, closure) -> None:
        for instance_id in execution_order(closure):
            inst = self.instances[instance_id]
            if inst.is_executed:
                continue
            inst.promote(EXECUTED)
            del self._unexecuted[instance_id]
            if inst.command is not NOOP:
                self.on_execute(inst.command, instance_id)

    def uncommitted_dependencies(self) -> Set[InstanceId]:
        """Dependencies blocking execution; candidates for recovery."""
        blocked: Set[InstanceId] = set()
        for inst in self._unexecuted.values():
            if inst.status == COMMITTED:
                self._expand(inst, blocked)
        return blocked

    # -- liveness helpers ------------------------------------------------------
    def resend(self, instance_id: InstanceId) -> None:
        """Re-broadcast the current round of an own stalled instance.

        Receivers treat repeated PreAccept/Accept/Commit idempotently, so
        this is safe after message loss or a temporary disconnection.  A
        round is only ours to re-send at our own ballot: once a peer's
        recovery holds the instance, we take it over instead.
        """
        inst = self.instances.get(instance_id)
        if inst is None:
            return
        if not inst.is_committed and inst.ballot[1] != self.replica_id:
            self.recover(instance_id)
            return
        if inst.status == PREACCEPTED:
            inst.restart_preaccept()
            message: Any = PreAccept(instance_id, inst.ballot, inst.command,
                                     inst.seq, inst.deps)
        elif inst.status == ACCEPTED:
            inst.accept_repliers = set()
            message = Accept(instance_id, inst.ballot, inst.command,
                             inst.seq, inst.deps)
        elif inst.is_committed:
            message = Commit(instance_id, inst.command, inst.seq, inst.deps)
        else:
            return
        self._broadcast(message)

    def seed_committed(self, instance_id: InstanceId, command: Any,
                       seq: int, deps: FrozenSet[InstanceId],
                       executed: bool = False) -> None:
        """Install an already-agreed instance (joining-member bootstrap)."""
        inst = self._instance(instance_id)
        if inst.is_committed:
            return
        self._adopt(inst, command, seq, frozenset(deps),
                    EXECUTED if executed else COMMITTED)
        if executed:
            del self._unexecuted[instance_id]
        else:
            self._try_execute()

    def committed_instances(self):
        """(id, command, seq, deps) of every committed/executed instance."""
        out = []
        for instance_id, inst in self.instances.items():
            if inst.is_committed:
                out.append((instance_id, inst.command, inst.seq,
                            inst.deps))
        return out

    def set_members(self, members) -> None:
        """Adopt a new roster (epoch-based group reconfiguration)."""
        if self.replica_id not in members:
            raise ValueError("cannot remove self from the roster")
        self.members = sorted(members)

    # -- recovery (explicit prepare) -----------------------------------------------------------
    def recover(self, instance_id: InstanceId) -> None:
        """Take over a stalled instance with a higher ballot."""
        inst = self._instance(instance_id)
        if inst.is_committed:
            return
        epoch = inst.ballot[0] + 1
        ballot: Ballot = (epoch, self.replica_id)
        inst.ballot = ballot
        # Count our own knowledge as a reply.
        own = PrepareReply(instance_id, ballot, True, inst.status,
                           inst.accepted_ballot, inst.command, inst.seq,
                           inst.deps)
        inst.prepare_replies = [(self.replica_id, own)]
        self._broadcast(Prepare(instance_id, ballot))
        self._maybe_finish_recovery(instance_id)

    def _on_prepare(self, msg: Prepare, sender: str) -> None:
        inst = self._instance(msg.instance)
        ok = msg.ballot >= inst.ballot
        if ok:
            inst.ballot = msg.ballot
        self.send(sender, PrepareReply(
            msg.instance, msg.ballot, ok, inst.status, inst.accepted_ballot,
            inst.command, inst.seq, inst.deps))

    def _on_prepare_reply(self, msg: PrepareReply, sender: str) -> None:
        inst = self.instances.get(msg.instance)
        if inst is None or inst.prepare_replies is None \
                or msg.ballot != inst.ballot:
            return
        if not msg.ok or inst.is_committed:
            # Someone with a higher ballot won, or a Commit overtook the
            # recovery: nothing is left to decide.
            inst.prepare_replies = None
            return
        inst.prepare_replies.append((sender, msg))
        self._maybe_finish_recovery(msg.instance)

    def _maybe_finish_recovery(self, instance_id: InstanceId) -> None:
        inst = self.instances[instance_id]
        replies = inst.prepare_replies
        if replies is None or len(replies) < self.majority:
            return
        inst.prepare_replies = None
        ballot = inst.ballot
        committed = [r for _, r in replies
                     if status_at_least(r.status, COMMITTED)]
        if committed:
            best = committed[0]
            self._commit(instance_id, best.command, best.seq, best.deps)
            return
        accepted = [r for _, r in replies if r.status == ACCEPTED]
        if accepted:
            best = max(accepted, key=lambda r: r.accepted_ballot or (0, ""))
            self._start_accept(instance_id, best.command, best.seq,
                               best.deps, ballot)
            return
        preaccepted = [r for _, r in replies if r.status == PREACCEPTED]
        if preaccepted:
            # A value pre-accepted identically at one ballot by >= F
            # replicas other than that ballot's leader may have
            # fast-committed: it must go through Accept unchanged.  The
            # leader's own state is no such vote — and as it replied
            # uncommitted, it commits nothing at that ballot any more.
            votes: Dict[Tuple[Ballot, int, FrozenSet[InstanceId]], int] = {}
            for replier, reply in replies:
                at = reply.accepted_ballot
                if reply.status == PREACCEPTED and at is not None \
                        and replier != at[1]:
                    attrs = (at, reply.seq, reply.deps)
                    votes[attrs] = votes.get(attrs, 0) + 1
            chosen = max(votes, key=votes.__getitem__, default=None)
            command = preaccepted[0].command
            if chosen is not None and votes[chosen] >= max(self.f, 1):
                self._start_accept(instance_id, command, chosen[1],
                                   chosen[2], ballot)
            else:
                # Cannot have fast-committed; restart from PreAccept.
                seq, deps = self._attributes_for(command, instance_id)
                inst.status = PREACCEPTED
                self._adopt(inst, command, seq, deps, PREACCEPTED)
                inst.restart_preaccept()
                self._broadcast(PreAccept(instance_id, ballot, command, seq,
                                          deps))
            return
        # Nobody knows the command: finalise the slot as a no-op.
        self._start_accept(instance_id, NOOP, 0, frozenset(), ballot)

    _HANDLERS = {PreAccept: _on_preaccept,
                 PreAcceptReply: _on_preaccept_reply, Accept: _on_accept,
                 AcceptReply: _on_accept_reply, Commit: _on_commit,
                 Prepare: _on_prepare, PrepareReply: _on_prepare_reply}
