"""Property: ``StabilityFrontier`` is the stability code it replaced.

The parent commit's ``DataCenter._note_peer_applied``, ``_known_holders``,
``_advance_stability`` and the collection half of ``_push_updates`` are
kept here **verbatim** as the oracle (``HeadDC``; ``_push_updates`` is
cut where it starts to talk to the fan-out).  The oracle and the
frontier read the same ``CommitLog`` (streams, transactions, dot
tracker, skip ledger) and ``InterestGraph`` — the driver writes the log
through the ways in the sequencer and the replication receiver use —
and each keeps its own
holder sets, peer vectors, stable dots and stable vector.  The oracle
also keeps the collection cursor; the frontier returns the released run
instead, and what the DC pushes from it (``delivery_order``) must be
what the cursor scan collected.

Any sequence of {local commit, remote apply on a stream, applied vector
from a peer, backfill credit, skip run, late fill of a skip-covered
position, duplicate of a held dot on another stream, interest advert
that changes a peer's mask} must leave both with equal stable vectors,
peer vectors, release order, sweep outcomes and collected pushes
**after every step** — under no shard map, a map under which everybody
is interested in everything, and a pruning map.  The frontier keeps no
released dots and drops a holder set at release, so every held dot must
be ``released`` exactly when the oracle's ``_stable_dots`` has it, and
the holder sets must be equal over the dots not yet released.

The two part at one kind of step only: a stream head holding a dot the
oracle already counts as stable (a duplicate of a dot that entered the
cut by a fill, or before its threshold rose).  The oracle gates it on K
holders again but credits none to a stable dot, so it can wait there
forever; the frontier passes it.  There the example asserts that the
frontier moved past every such head, and ends.
"""

from typing import List, Optional, Set

import pytest
from hypothesis import given, strategies as st

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.core.kstable import KStabilityTracker
from repro.crdt import Counter
from repro.dc.commitlog import CommitLog
from repro.dc.interest import InterestGraph, ShardMap
from repro.dc.replog import SkipRun
from repro.dc.stability import StabilityFrontier, delivery_order
from repro.obs.trace import K_STABLE

NODE = "dc0"
PEERS = ["dc1", "dc2", "dc3"]
DCS = [NODE] + PEERS
KEYS = [ObjectKey("b", f"k{i}") for i in range(6)]
N_SHARDS = 4
GHOST = Dot(999, "ghost")       # a dependency nobody ever applied

SHARD_MAPS = {
    "no-map": lambda: None,
    "all-interested": lambda: ShardMap(N_SHARDS, DCS),
    "pruning": lambda: ShardMap(N_SHARDS, DCS, replica_factor=2),
}


class World:
    """The commit log: what the sequencer and the replication receiver
    write and the stability code only reads."""

    def __init__(self, shard_map):
        self.interest = InterestGraph(NODE, PEERS, shard_map)
        self.log = CommitLog(NODE)
        self.streams = self.log.streams
        self.txns = self.log.txns
        self.dots = self.log.dots
        self.skip_covered = self.log.covered
        self.skips = {}             # origin -> [(first, last)]
        self.minted = 0

    @property
    def state_vector(self):
        return self.log.state_vector

    def mint(self, origin, keys, snapshot, stamp):
        self.minted += 1
        dot = Dot(self.minted, f"e-{origin}")
        return Transaction(
            dot, dot.origin, snapshot, CommitStamp(stamp),
            [WriteOp(key, Counter().prepare("increment", 1))
             for key in keys])

    def copyable(self, origin):
        """Held dots that ``origin`` has not committed: a DC gives a dot
        at most one position of its stream."""
        return sorted(dot for dot, txn in self.txns.items()
                      if origin not in txn.commit.entries)

    def copy_at(self, dot, origin, ts):
        """Another copy of a held transaction, committed at
        ``(origin, ts)``: what a migration duplicate looks like."""
        held = self.txns[dot]
        return Transaction(dot, held.origin, held.snapshot,
                           CommitStamp({origin: ts}), held.writes)


class Spans:
    """Stands in for ``Actor.obs``: keeps the K_STABLE release order."""

    enabled = True

    def __init__(self):
        self.released = []

    def record(self, kind, dot, node, now, origin, ts):
        assert kind == K_STABLE
        self.released.append((origin, ts, dot))


class HeadDC:
    """The state the parent's stability methods touch, then the methods."""

    now = 0.0
    sessions = True                 # somebody to push to: collect

    def __init__(self, world: World, k_target: int):
        self.world = world
        self.node_id = NODE
        self.k_target = k_target
        self.interest = world.interest
        self.dots = world.dots
        self.obs = Spans()
        self._stream_dots = world.streams
        self._txn_by_dot = world.txns
        self._skip_covered = world.skip_covered
        self.kstab = KStabilityTracker(k_target)
        self.stable_vector = VectorClock.zero()
        self._stable_dots: Set[Dot] = set()
        self._peer_applied = {}
        self._pushed_stable = VectorClock.zero()
        self.pushes = []

    @property
    def state_vector(self):
        return self.world.state_vector

    @property
    def _sequencer(self):
        return self.world.state_vector[NODE]

    # -- verbatim from the parent commit's dc/datacenter.py ---------------
    def _note_peer_applied(self, peer: str,
                           vector: VectorClock) -> bool:
        """Fold a peer's applied vector into holder knowledge.

        A peer holds every transaction its applied vector covers, so
        each newly covered (origin, ts) we know the dot of is recorded
        with the K-stability tracker.  Entries past our own applied
        frontier are picked up at apply time via ``_known_holders``.
        Returns True when the peer's known frontier advanced (holder
        counts may have changed), False on a stale vector.
        """
        known = self._peer_applied.get(peer, VectorClock.zero())
        if vector.leq(known):
            return False
        merged = known.merge(vector)
        self._peer_applied[peer] = merged
        holds = self.interest.peer_holds
        for origin in merged:
            new = merged[origin]
            old = known[origin]
            if new <= old:
                continue
            stream = self._stream_dots.get(origin)
            if not stream:
                continue
            cap = (self._sequencer if origin == self.node_id
                   else self.state_vector[origin])
            for ts in range(old + 1, min(new, cap) + 1):
                dot = stream.get(ts)
                # Holder sets only gate stability; once a dot is inside
                # the stable cut, further holders are of no consequence.
                # A covered position only proves the peer *resolved*
                # it — holder credit additionally needs the peer's
                # interest to intersect the entry's shards.
                if (dot is not None and dot not in self._stable_dots
                        and holds(peer, dot)):
                    self.kstab.record(dot, (peer,))
        return True

    def _known_holders(self, origin_dc: str, ts: int,
                       dot: Optional[Dot] = None) -> Set[str]:
        """Us plus every peer whose applied vector covers (origin, ts)."""
        holders = {self.node_id}
        for peer, vec in self._peer_applied.items():
            if vec[origin_dc] >= ts and (
                    dot is None or self.interest.peer_holds(peer, dot)):
                holders.add(peer)
        return holders

    def _advance_stability(self) -> None:
        """Move per-stream stable frontiers; push newly stable updates.

        The stable vector must stay a *causally closed* cut: a transaction
        is released only when it is K-stable AND all its dependencies are
        already inside the cut (its snapshot vector is covered and its
        symbolic dependencies were released).  Without this, an edge could
        receive a transaction before its causal ancestors — exactly the
        incompatibility K-stability exists to prevent (section 3.8).
        """
        advanced = False
        # Work on a plain dict: releasing a long run would otherwise
        # rebuild an immutable clock per released transaction.
        stable = self.stable_vector.to_dict()
        required_k = self.interest.required_k
        k_target = self.k_target
        progress = True
        while progress:
            progress = False
            for origin_dc, stream in self._stream_dots.items():
                frontier = stable.get(origin_dc, 0)
                while True:
                    dot = stream.get(frontier + 1)
                    if dot is None:
                        # A position covered by a skip run (applied, so
                        # within our frontier) holds nothing to release:
                        # the stable frontier hops over it.
                        if self._skip_covered(origin_dc,
                                              frontier + 1) is None:
                            break
                        frontier += 1
                        stable[origin_dc] = frontier
                        progress = True
                        advanced = True
                        continue
                    if self.kstab.count(dot) < required_k(dot, k_target):
                        break
                    txn = self._txn_by_dot.get(dot)
                    if txn is None:  # pragma: no cover - defensive
                        break
                    if any(v > stable.get(k, 0) for k, v
                           in txn.snapshot.vector.items()):
                        break  # blocked on another stream's frontier
                    # A dependency never seen was pruned from the
                    # stream that carried it: nothing to wait for.
                    if not all(d in self._stable_dots
                               or not self.dots.seen(d)
                               for d in txn.snapshot.local_deps):
                        break
                    frontier += 1
                    stable[origin_dc] = frontier
                    self._stable_dots.add(dot)
                    if self.obs.enabled:
                        self.obs.record(K_STABLE, dot, self.node_id,
                                        self.now, origin=origin_dc,
                                        ts=frontier)
                    progress = True
                    advanced = True
        if advanced:
            self.stable_vector = VectorClock(stable)
            self._push_updates()

    def _push_updates(self) -> None:
        """Send newly K-stable transactions to the sessions they concern.

        Only a round's audience is sent to, each session chained from
        its own cursor; everybody else learns the new stable cut from
        the next :meth:`_keepalive`.
        """
        if not self.sessions:
            # Nobody to push to: just move the cursor, skip collection.
            self._pushed_stable = self.stable_vector
            return
        new_txns: List[Transaction] = []
        for origin_dc, stream in self._stream_dots.items():
            start = self._pushed_stable[origin_dc]
            end = self.stable_vector[origin_dc]
            for ts in range(start + 1, end + 1):
                dot = stream.get(ts)
                if dot is None:
                    continue
                txn = self._txn_by_dot.get(dot)
                if txn is not None:
                    new_txns.append(txn)
        self._pushed_stable = self.stable_vector
        # Dot order linearly extends causality: safe delivery order.
        new_txns.sort(key=lambda t: t.dot.as_tuple())
        seen: Set[Dot] = set()
        unique = []
        for txn in new_txns:
            if txn.dot not in seen:
                seen.add(txn.dot)
                unique.append(txn)
        self.pushes.append(unique)


class Pair:
    """The oracle and the frontier, driven in lockstep."""

    def __init__(self, shard_map, k_target):
        self.world = World(shard_map)
        self.head = HeadDC(self.world, k_target)
        self.new = StabilityFrontier(
            NODE, k_target, self.world.interest, self.world.log)
        self.released = []
        self.pushes = []

    def record(self, dot, holders=None, at=None, checked=True):
        """Note the holders of ``dot``: given, or whoever covers ``at``."""
        if at is not None:
            subject = dot if checked else None
            holders = self.head._known_holders(*at, subject)
            assert self.new.known_holders(*at, subject) == holders
        self.head.kstab.record(dot, set(holders))
        self.new.record(dot, set(holders))

    def fill(self, origin, ts, dot):
        """The parent marked a dot stored at a hopped position stable by
        hand; the frontier reads it off the stamp."""
        if ts <= self.head.stable_vector[origin]:
            self.head._stable_dots.add(dot)

    def sweep(self):
        self.head._advance_stability()
        run = self.new.advance()
        if run is not None:
            self.released.extend(run)
            self.pushes.append([self.world.txns[dot]
                                for dot in delivery_order(run)])

    def parent_stalls(self):
        """Stream heads at which the parent waits on a dot already in its
        cut: a duplicate of a dot that entered the cut by a fill or
        before its threshold rose.  The parent gates the position on K
        holders again but credits none to a stable dot, so it can wait
        forever; the frontier passes a released dot."""
        head = self.head
        return [(origin, ts) for origin, stream in self.world.streams.items()
                for ts in (head.stable_vector[origin] + 1,)
                if stream.get(ts) in head._stable_dots]

    def check(self):
        head, new = self.head, self.new
        assert new.stable_vector == head.stable_vector
        # Release is read off the stamp: the dots the parent marked.
        for dot in self.world.txns:
            assert new.released(dot) == (dot in head._stable_dots), dot
        # Holder sets end at release: compared over unreleased dots.
        assert {dot: holders for dot, holders in new._holders.items()
                if not new.released(dot)} == {
            dot: holders for dot, holders in head.kstab._holders.items()
            if dot not in head._stable_dots}
        assert new._peer_applied == head._peer_applied
        assert self.released == head.obs.released
        assert self.pushes == head.pushes


# -- steps: indices are folded onto whatever exists when they run ---------

_small = st.integers(0, 7)
_keys = st.lists(st.sampled_from(KEYS), max_size=2)
_parts = st.lists(st.integers(0, 9), min_size=len(DCS), max_size=len(DCS))

STEPS = st.one_of(
    st.tuples(st.just("commit"), _keys, _parts, _small),
    st.tuples(st.just("apply"), _small, _keys, _parts, _small),
    st.tuples(st.just("vector"), _small, _parts, st.booleans()),
    st.tuples(st.just("credit"), _small, _small),
    st.tuples(st.just("skip"), _small, st.integers(1, 3)),
    st.tuples(st.just("fill"), _small, _small, st.booleans()),
    st.tuples(st.just("dup"), _small, _small),
    st.tuples(st.just("advert"), _small, st.integers(0, 2 ** N_SHARDS - 1)),
)


def snapshot_for(world, parts, dep):
    """A snapshot the state vector covers (what an applied transaction
    had to have), with no, a held or a never-applied local dependency."""
    vector = VectorClock({dc: part * world.state_vector[dc] // 9
                          for dc, part in zip(DCS, parts)})
    held = sorted(world.txns)
    deps = [] if dep < 3 or not held else \
        [GHOST] if dep == 3 else [held[dep % len(held)]]
    return Snapshot(vector, deps)


def run_step(pair: Pair, step, seq: int) -> None:
    world = pair.world
    kind = step[0]
    if kind == "commit":
        _, keys, parts, dep = step
        txn = world.mint(NODE, keys, snapshot_for(world, parts, dep), {})
        ts = world.log.sequence(txn).commit.entries[NODE]
        world.interest.note_entry(txn.dot, NODE, txn.keys, own_ts=ts)
        pair.record(txn.dot, {NODE})
        if world.interest.required_k(txn.dot, pair.head.k_target) <= 1:
            pair.sweep()
    elif kind == "apply":
        _, peer, keys, parts, dep = step
        origin = PEERS[peer % len(PEERS)]
        ts = world.state_vector[origin] + 1
        txn = world.mint(origin, keys, snapshot_for(world, parts, dep),
                         {origin: ts})
        world.log.admit(origin, ts, txn)
        world.interest.note_entry(txn.dot, origin, txn.keys)
        pair.record(txn.dot, at=(origin, ts))
        pair.sweep()
    elif kind == "vector":
        _, peer, parts, always_sweep = step
        peer = PEERS[peer % len(PEERS)]
        # Up to two positions past what we applied ourselves.
        vector = VectorClock({dc: part * (world.state_vector[dc] + 2) // 9
                              for dc, part in zip(DCS, parts)})
        changed = pair.head._note_peer_applied(peer, vector)
        assert pair.new.note_peer_applied(
            peer, vector, world.state_vector) == changed
        if changed or always_sweep:
            pair.sweep()
    elif kind == "credit":
        _, peer, picks = step
        peer = PEERS[peer % len(PEERS)]
        credited = False
        for ts, dot in world.streams[NODE].items():
            if (ts + picks) % 3:
                continue
            wanted = dot not in pair.head._stable_dots
            if wanted:
                pair.head.kstab.record(dot, (peer,))
                credited = True
            assert pair.new.credit(dot, peer) == wanted
        if credited:
            pair.sweep()
    elif kind == "skip":
        _, peer, count = step
        origin = PEERS[peer % len(PEERS)]
        first = world.state_vector[origin] + 1
        last = first + count - 1
        world.log.skip(origin, SkipRun(first, count, 0b1))
        world.skips.setdefault(origin, []).append((first, last))
        pair.sweep()
    elif kind == "fill":
        _, peer, pick, held = step
        origin = PEERS[peer % len(PEERS)]
        stream = world.streams.get(origin, {})
        holes = [ts for first, last in world.skips.get(origin, ())
                 for ts in range(first, last + 1) if ts not in stream]
        if not holes:
            return
        ts = holes[pick % len(holes)]
        dots = world.copyable(origin)
        if held and dots:
            # A backfill of a dot we hold through another stream.
            dot = dots[pick % len(dots)]
            copy = world.copy_at(dot, origin, ts)
            world.log.adopt(copy)
            world.log.admit(origin, ts, copy, advance=False)
            pair.fill(origin, ts, dot)
            return
        txn = world.mint(origin, [KEYS[pick % len(KEYS)]],
                         Snapshot(VectorClock.zero()), {origin: ts})
        world.log.admit(origin, ts, txn, advance=False)
        pair.fill(origin, ts, txn.dot)
        world.interest.note_entry(txn.dot, origin, txn.keys)
        pair.record(txn.dot, at=(origin, ts))
        pair.sweep()
    elif kind == "dup":
        _, peer, pick = step
        origin = PEERS[peer % len(PEERS)]
        dots = world.copyable(origin)
        if not dots:
            return
        dot = dots[pick % len(dots)]
        ts = world.state_vector[origin] + 1
        copy = world.copy_at(dot, origin, ts)
        world.log.adopt(copy)
        world.log.admit(origin, ts, copy)
        pair.record(dot, at=(origin, ts), checked=False)
        pair.sweep()
    elif kind == "advert":
        _, peer, mask = step
        peer = PEERS[peer % len(PEERS)]
        if world.interest.fold_advert(peer, mask, seq):
            pair.sweep()


@pytest.mark.parametrize("shard_map", list(SHARD_MAPS))
@given(k_target=st.integers(1, len(DCS) + 1),
       steps=st.lists(STEPS, max_size=40))
def test_frontier_matches_the_code_it_replaced(shard_map, k_target, steps):
    pair = Pair(SHARD_MAPS[shard_map](), k_target)
    for seq, step in enumerate(steps, start=1):
        run_step(pair, step, seq)
        stalls = pair.parent_stalls()
        if stalls:
            # The one place the two part: from here on only the
            # frontier moves on, past every such head.
            pair.sweep()
            for origin, ts in stalls:
                assert pair.new.stable_vector[origin] >= ts
            return
        pair.check()
