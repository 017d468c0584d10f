"""An edge replica's two values wired by hand: no node, no simulator.

:class:`Replica` holds an :class:`~repro.edge.replica.EdgeLog` and an
:class:`~repro.edge.replica.EdgeFrontier` and takes each message the way
``EdgeNode`` and ``GroupMember`` do — a push through the gap test,
admission and stamp adoption, then the advance; a seed through
``take_seed`` and the log's fold, then the bounded advance (a group
fetch reply through the resync gate instead); an ack or a pulled copy
through ``adopt`` — so a test states what the frontier promises with
nothing in between.  The journals are the actor's and are not here: a
seed names the dots its base folded.
"""

from typing import Iterable, Mapping, Optional, Sequence, Set

from repro.core import (CommitStamp, Dot, JournalEntry, ObjectKey,
                        Transaction, VectorClock, Visibility, WriteOp)
from repro.crdt import Counter
from repro.edge.replica import EdgeFrontier, EdgeLog


class Replica:
    def __init__(self, node_id: str = "e"):
        self.log = EdgeLog(node_id)
        self.frontier = EdgeFrontier(self.log)

    # -- the ways in ----------------------------------------------------------
    def admit(self, txn: Transaction, own: bool = False,
              pushed: bool = False) -> bool:
        if not self.log.admit(txn, own):
            return False
        self.frontier.note(txn, pushed)
        return True

    def integrate(self, txn: Transaction) -> bool:
        """A transaction from outside the push chain (a peer group):
        False while its dependencies are missing."""
        self.log.lamport.observe(txn.dot.counter)
        if self.log.dots.seen(txn.dot):
            return True
        if not self.frontier.ready(txn):
            return False
        return self.admit(txn)

    def commit_own(self, key: ObjectKey) -> Transaction:
        """One own update of ``key``; its stamp stays symbolic."""
        me = self.log.node_id
        own = Transaction(Dot(self.log.lamport.tick(), me), me,
                          self.frontier.current_snapshot(), CommitStamp(),
                          (WriteOp(key, Counter().prepare("increment", 1)),))
        self.admit(own, own=True)
        return own

    def adopt(self, dot: Dot, entries: Mapping[str, int],
              symbolic_only: bool = False) -> Optional[Transaction]:
        held = self.log.adopt(dot, entries, symbolic_only)
        if held is not None:
            self.frontier.settle(held)
        return held

    def pulled(self, copy: Transaction) -> None:
        """A copy pulled from a peer: adopt its stamp, or integrate it."""
        if self.adopt(copy.dot, copy.commit.entries) is None:
            self.integrate(copy)

    def push(self, txns: Sequence[Transaction], stable: Mapping[str, int],
             prev: Optional[Mapping[str, int]] = None) -> bool:
        """A push (or a group relay) of this replica's own copies, chained
        from ``prev`` (default: our vector); False on a gap."""
        if prev is not None and not self.frontier.follows(prev):
            return False
        for txn in txns:
            if not self.admit(txn, pushed=True):
                self.adopt(txn.dot, txn.commit.entries, symbolic_only=True)
        self.frontier.advance(stable)
        return True

    def seed(self, key: ObjectKey, cut: VectorClock,
             folded: Iterable[Dot] = ()) -> bool:
        """Install a seed of ``key`` cut at ``cut`` whose base folded
        ``folded``; False for a stale one.  No advance (see
        :meth:`seeded`)."""
        if not self.frontier.take_seed(key, cut):
            return False
        self.log.fold(folded)
        return True

    def seeded(self, seeds: Mapping[ObjectKey, Iterable[Dot]],
               cut: VectorClock) -> None:
        """The ack of a session (re)open, or a one-key seed: every seed,
        then the bounded advance."""
        for key, folded in seeds.items():
            self.seed(key, cut, folded)
        self.frontier.advance_to_seed(cut)

    def fetch_reply(self, key: ObjectKey, cut: VectorClock,
                    folded: Iterable[Dot] = (),
                    fetching: Iterable[ObjectKey] = ()) -> Set[ObjectKey]:
        """A group member's fetch reply; returns the keys a warm-set
        resync it starts must fetch (the member sends those)."""
        self.seed(key, cut, folded)
        seed, resync = self.frontier.fetch_reply(key, cut, fetching)
        if seed is not None:
            self.frontier.advance_to_seed(seed)
        return resync

    # -- what a reader sees ---------------------------------------------------
    def view(self, key: ObjectKey) -> Visibility:
        """The view of a read of ``key`` at the current snapshot — its
        own cache token — as ``EdgeNode._read_cached`` builds it (no
        security)."""
        snapshot = self.frontier.current_snapshot()
        vector = self.frontier.read_vector(snapshot.vector, key)
        return EdgeFrontier.filter(vector, snapshot.local_deps)

    def visible(self, txn: Transaction, key: ObjectKey) -> bool:
        return self.view(key)(JournalEntry(txn, []))

    @property
    def deps(self):
        return self.frontier.current_snapshot().local_deps
