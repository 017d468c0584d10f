"""Group orderers wired to each other by hand: no simulator, no network.

:class:`OrderGroup` builds one orderer per member and keeps every
payload they send in ``in_flight`` until a test delivers or drops it.
Links are FIFO, as the simulator's and TCP's are: what a link can
deliver next is its oldest message (:meth:`OrderGroup.heads`), and the
links interleave in any order.  Time moves only through
:meth:`OrderGroup.advance`, which
fires the timers the orderers armed; :meth:`OrderGroup.tick` runs their
periodic liveness.  What a member releases is recorded per member, in
release order, with its ``fast`` flag.
"""

import heapq
import itertools
from typing import Any, Dict, List, Tuple

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter
from repro.groups.ordering import Wiring
from repro.sim.clock import SkewedClock

KEYS = [ObjectKey("b", f"k{i}") for i in range(2)]


def txn(counter: int, origin: str, key: ObjectKey = KEYS[0]) -> Transaction:
    """An own transaction of ``origin`` writing ``key``, stamp symbolic."""
    op = Counter().prepare("increment", 1)
    return Transaction(dot=Dot(counter, origin), origin=origin,
                       snapshot=Snapshot(VectorClock({}), ()),
                       commit=CommitStamp(), writes=[WriteOp(key, op)])


class _Loop:
    """The true time a :class:`SkewedClock` reads."""

    now = 0.0


class OrderGroup:
    """One ``cls`` orderer per member, messages held until delivered."""

    def __init__(self, names: List[str], cls: type):
        self.names = list(names)
        self.loop = _Loop()
        self.in_flight: List[Tuple[str, str, Any]] = []
        self.released: Dict[str, List[Tuple[Dot, Any]]] = {
            n: [] for n in names}
        self.committed: Dict[str, List[Dot]] = {n: [] for n in names}
        self.proposed: Dict[Dot, Transaction] = {}
        self._timers: List[Tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._slots = {n: itertools.count(1) for n in names}
        self.orders = {n: cls(n, self.names, self._wiring(n)) for n in names}

    def _wiring(self, name: str) -> Wiring:
        return Wiring(
            send=lambda dst, payload: self.in_flight.append(
                (name, dst, payload)),
            release=lambda txn, fast: self.released[name].append(
                (txn.dot, fast)),
            committed=lambda txn: self.committed[name].append(txn.dot),
            clock=SkewedClock(self.loop), set_timer=self._set_timer,
            now=lambda: self.loop.now)

    def _set_timer(self, delay: float, callback) -> None:
        heapq.heappush(self._timers,
                       (self.loop.now + delay, next(self._seq), callback))

    # -- driving -------------------------------------------------------
    def propose(self, name: str, key: ObjectKey = KEYS[0]) -> Dot:
        """``name`` orders a new own transaction on ``key``."""
        own = txn(next(self._slots[name]), name, key)
        self.proposed[own.dot] = own
        self.orders[name].propose(own)
        return own.dot

    def heads(self) -> List[int]:
        """The index of each link's oldest message in ``in_flight``."""
        first: Dict[Tuple[str, str], int] = {}
        for index, (src, dst, _payload) in enumerate(self.in_flight):
            first.setdefault((src, dst), index)
        return sorted(first.values())

    def deliver(self, index: int = 0) -> None:
        src, dst, payload = self.in_flight.pop(index)
        self.orders[dst].handle(payload, src)

    def drop(self, index: int = 0) -> None:
        self.in_flight.pop(index)

    def deliver_all(self, allowed=lambda src, dst, payload: True) -> None:
        """Deliver in order, and what that sends, while ``allowed``;
        drop the rest."""
        while self.in_flight:
            src, dst, payload = self.in_flight.pop(0)
            if allowed(src, dst, payload):
                self.orders[dst].handle(payload, src)

    def advance(self, ms: float) -> None:
        """Move time on by ``ms``, firing due timers in order."""
        until = self.loop.now + ms
        while self._timers and self._timers[0][0] <= until:
            due, _, callback = heapq.heappop(self._timers)
            self.loop.now = max(self.loop.now, due)
            callback()
        self.loop.now = until

    def settled(self, dot: Dot) -> bool:
        """Released everywhere: what a resolved commit stamp proves."""
        return all(dot in self.dots(n) for n in self.names)

    def tick(self, names=None) -> None:
        for name in names or self.names:
            self.orders[name].tick(self.loop.now, self.settled)

    def settle(self, rounds: int = 60) -> None:
        """Heal: deliver everything, then let liveness run its course."""
        for _ in range(rounds):
            self.deliver_all()
            self.advance(100.0)
            self.tick()
        self.deliver_all()

    # -- reading -------------------------------------------------------
    def dots(self, name: str) -> List[Dot]:
        """What ``name`` released, in release order."""
        return [dot for dot, _fast in self.released[name]]
