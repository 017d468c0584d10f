"""Property: an edge replica shows only what it holds and what is K-stable.

No world: a model DC — one data centre, K = 1, so K-stable means inside
its stable prefix — and a model peer group talk to one edge replica,
the ``EdgeLog`` and ``EdgeFrontier`` wired as ``EdgeNode`` wires them
(``tests/replicas.py``), through one bag of messages in flight that
hypothesis delivers in any order, duplicates or drops:

* pushes of the stable transactions the session's interest touches,
  each chained ``prev -> stable`` from the session's cursor, and
  heartbeats (the same with nothing routed); a group relay is another
  copy of a push;
* acks of the replica's own commits, which reach the DC as commits;
* pulls of a group peer's transactions, before and after the DC stamped
  them;
* one-key seeds (an interest add or a fetch) and whole-warm-set seeds
  (the ack of a reopen), cut at the DC's stable vector.  A group member
  takes its seeds as fetch replies through the resync gate instead and,
  on a gap, resyncs its warm set where an edge reopens its session.

After every step:

* the frontier never covers, on a warm key, a transaction the log does
  not hold;
* every dot in ``exposed_dots`` is one the model made K-stable;
* ``unacked`` is a subset of the uncovered dots.
"""

from typing import Dict, List, Optional, Set

from hypothesis import given, strategies as st

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter

from ..replicas import Replica

DC = "dc0"
KEYS = [ObjectKey("b", name) for name in "xyz"]


def cut(position: int) -> VectorClock:
    return VectorClock({DC: position})


def write(dot: Dot, keys, snapshot: VectorClock) -> Transaction:
    op = Counter().prepare("increment", 1)
    return Transaction(dot, dot.origin, Snapshot(snapshot), CommitStamp(),
                       tuple(WriteOp(key, op) for key in keys))


class World:
    """The model DC, the group peer and the network around one replica."""

    def __init__(self, member: bool):
        self.member = member
        self.edge = Replica("e")
        #: The session's interest set, at the DC and at the edge.
        self.interest: Set[ObjectKey] = set()
        #: The DC's stream: position i + 1 holds ``log[i]``.
        self.log: List[Transaction] = []
        self.position: Dict[Dot, int] = {}
        self.stable = 0
        self.made_stable: Set[Dot] = set()
        #: The session's push cursor; None until its first seed.
        self.cursor: Optional[int] = None
        #: The peer's transactions as the group knows them.
        self.peers: List[Transaction] = []
        self.counters = {"w": 0, "p": 0}
        self.in_flight: List[tuple] = []

    # -- the DC ---------------------------------------------------------------
    def sequence(self, txn: Transaction) -> int:
        """The DC commits ``txn`` (once per dot); its stream position."""
        if txn.dot not in self.position:
            stamped = Transaction(txn.dot, txn.origin, txn.snapshot,
                                  CommitStamp({DC: len(self.log) + 1}),
                                  txn.writes)
            self.log.append(stamped)
            self.position[txn.dot] = len(self.log)
        return self.position[txn.dot]

    def folded(self, key: ObjectKey) -> List[Dot]:
        """The dots a seed of ``key`` cut at the stable vector folds."""
        return [t.dot for t in self.log[:self.stable] if t.touches(key)]

    def seed_of(self, key: ObjectKey) -> tuple:
        kind = "reply" if self.member else "seed"
        return (kind, key, self.stable, self.folded(key))

    def on_uplink(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "commit":
            txn = msg[1]
            self.in_flight.append(("ack", txn.dot,
                                   {DC: self.sequence(txn)}))
        elif kind == "reopen":
            self.cursor = self.stable
            self.in_flight.append(
                ("open", {k: self.folded(k) for k in self.interest},
                 self.stable))
        elif kind == "fetch":
            self.in_flight.append(self.seed_of(msg[1]))

    # -- the edge -------------------------------------------------------------
    def on_downlink(self, msg: tuple) -> None:
        edge, kind = self.edge, msg[0]
        if kind == "push":
            _, txns, stable, prev = msg
            copies = [t.handoff() for t in txns]
            if not edge.push(copies, cut(stable).to_dict(),
                             cut(prev).to_dict()):
                self.on_gap()
        elif kind == "seed":
            edge.seeded({msg[1]: msg[3]}, cut(msg[2]))
        elif kind == "open":
            edge.seeded(msg[1], cut(msg[2]))
        elif kind == "reply":
            self.resync(edge.fetch_reply(msg[1], cut(msg[2]), msg[3]))
        elif kind == "ack":
            edge.adopt(msg[1], msg[2])
        elif kind == "pull":
            edge.pulled(msg[1].handoff())

    def on_gap(self) -> None:
        if not self.member:
            self.in_flight.append(("reopen",))
        elif not self.edge.frontier.resync_expect:
            self.resync(self.edge.frontier.resync_keys(()))

    def resync(self, keys: Set[ObjectKey]) -> None:
        if keys:
            self.edge.frontier.start_resync(keys, 0.0)
            self.in_flight.extend(("fetch", key) for key in sorted(
                keys, key=repr))

    # -- the steps hypothesis draws -------------------------------------------
    def step(self, name: str, arg: int) -> None:
        key = KEYS[arg % len(KEYS)]
        if name == "write":
            self.counters["w"] += 1
            keys = [k for i, k in enumerate(KEYS) if (arg + 1) >> i & 1]
            self.sequence(write(Dot(self.counters["w"], "w"), keys,
                                cut(self.stable)))
        elif name == "stabilise":
            self.stable = len(self.log)
            self.made_stable.update(t.dot for t in self.log)
        elif name in ("round", "heartbeat") and self.cursor is not None:
            routed = [t for t in self.log[self.cursor:self.stable]
                      if t.key_set & self.interest]
            if routed or name == "heartbeat":
                self.in_flight.append(("push", routed, self.stable,
                                       self.cursor))
                self.cursor = self.stable
        elif name == "declare" and key not in self.interest:
            self.interest.add(key)
            self.in_flight.append(self.seed_of(key))
        elif name == "refetch" and key in self.interest \
                and key not in self.edge.frontier.key_cut:
            self.in_flight.append(("fetch", key))
        elif name == "own" and key in self.interest:
            own = self.edge.commit_own(key)
            self.in_flight.append(("commit", own.handoff()))
        elif name == "peer":
            self.counters["p"] += 1
            self.peers.append(write(Dot(self.counters["p"], "p"), [key],
                                    cut(self.stable)))
        elif name == "ship" and self.peers:
            peer = self.peers[arg % len(self.peers)]
            peer.commit = CommitStamp({DC: self.sequence(peer)})
        elif name == "pull" and self.peers:
            peer = self.peers[arg % len(self.peers)]
            self.in_flight.append(("pull", peer.handoff()))
        elif name == "redrive":
            self.resync(set(self.edge.frontier.resync_expect))
        elif name in ("deliver", "overtake", "drop", "relay") \
                and self.in_flight:
            # ``overtake`` delivers from the newest end: reordering.
            index = arg % len(self.in_flight)
            if name == "overtake":
                index = -1 - index
            msg = self.in_flight[index]
            if name == "relay":
                if msg[0] == "push":
                    self.in_flight.append(msg)
                return
            del self.in_flight[index]
            if name == "drop":
                return
            if msg[0] in ("commit", "reopen", "fetch"):
                self.on_uplink(msg)
            else:
                self.on_downlink(msg)

    # -- what must hold -------------------------------------------------------
    def check(self) -> None:
        frontier, log = self.edge.frontier, self.edge.log
        for txn in self.log:
            if txn.commit.included_in(frontier.vector) and any(
                    k in frontier.key_cut for k in txn.key_set):
                assert log.dots.seen(txn.dot), (
                    f"{frontier.vector} covers {txn.dot} on a warm key"
                    " the replica does not hold")
        exposed = frontier.exposed_dots()
        assert exposed <= self.made_stable, exposed - self.made_stable
        assert set(log.unacked) <= set(frontier.uncovered)


STEPS = ["write", "stabilise", "round", "heartbeat", "declare",
         "refetch", "own", "peer", "ship", "pull", "redrive",
         "deliver", "deliver", "overtake", "drop", "relay"]


@given(member=st.booleans(),
       steps=st.lists(st.tuples(st.sampled_from(STEPS),
                                st.integers(0, 15)),
                      min_size=40, max_size=160))
def test_the_frontier_shows_only_what_is_held_and_k_stable(member, steps):
    world = World(member)
    world.step("declare", 0)
    if member:
        world.cursor = 0    # the sync point's chain, which it relays
    else:
        world.on_uplink(("reopen",))
    while world.in_flight:
        world.step("deliver", 0)
    for name, arg in steps:
        world.step(name, arg)
        world.check()
