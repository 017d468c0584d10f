"""Shard interest sets for partial geo-replication.

Partial replication (Sutra & Shapiro; PaRiS) prunes the full mesh into
an interest graph: every object key hashes into one of ``n_shards``
global shards, each DC *serves* a deterministic subset of shards (the
home assignment, round-robin by replica factor), and a DC's **interest
set** is the union of the shards it serves and the shards its attached
edge sessions subscribe to.  Replication links then ship only stream
entries whose write set intersects the receiver's interest; everything
else travels as a skip marker.

Shard sets are represented as bitmasks (``n_shards <= 64``): interest
tests on the replication hot path are single ``&`` operations, and skip
runs on the wire carry the mask of the entries they elide so receivers
can audit (and heal) wrongly pruned positions.

The map is *shared configuration*: every DC of a cluster is built from
the same ``ShardMap``, so peers can derive each other's served shards
without a bootstrap exchange — only session-driven subscriptions need
the interest-advert protocol.
"""

from __future__ import annotations

import hashlib
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..core.dot import Dot
from ..core.txn import ObjectKey
from .messages import InterestAdvert

#: Bitmask representation caps the global shard count.
MAX_SHARDS = 64


def shard_of(key: ObjectKey, n_shards: int) -> int:
    """Stable global shard of a key (md5, like the intra-DC ring)."""
    digest = hashlib.md5(f"{key.bucket}/{key.key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def mask_of(shards: Iterable[int]) -> int:
    """Bitmask of a shard collection."""
    mask = 0
    for shard in shards:
        mask |= 1 << shard
    return mask


def shards_of_mask(mask: int) -> Tuple[int, ...]:
    """Sorted shard ids set in a bitmask."""
    shards = []
    shard = 0
    while mask:
        if mask & 1:
            shards.append(shard)
        mask >>= 1
        shard += 1
    return tuple(shards)


class ShardMap:
    """Global shard space plus the deterministic home assignment.

    ``dc_ids`` must list every DC of the cluster (sorted internally, so
    any construction order yields the same assignment).  Shard ``s`` is
    homed at ``replica_factor`` consecutive DCs starting at
    ``s % len(dc_ids)`` — round-robin, so homes spread evenly and every
    DC serves ``ceil(n_shards * rf / n_dcs)``-ish shards.
    """

    def __init__(self, n_shards: int, dc_ids: Iterable[str],
                 replica_factor: Optional[int] = None):
        if not 1 <= n_shards <= MAX_SHARDS:
            raise ValueError(
                f"n_shards must be in 1..{MAX_SHARDS}, got {n_shards}")
        self.n_shards = n_shards
        self.dc_ids: List[str] = sorted(dc_ids)
        if not self.dc_ids:
            raise ValueError("ShardMap needs at least one DC")
        if replica_factor is None:
            replica_factor = len(self.dc_ids)
        if not 1 <= replica_factor <= len(self.dc_ids):
            raise ValueError(
                f"replica_factor must be in 1..{len(self.dc_ids)}, "
                f"got {replica_factor}")
        self.replica_factor = replica_factor
        self._served: Dict[str, int] = {dc: 0 for dc in self.dc_ids}
        for shard in range(n_shards):
            for dc in self.homes(shard):
                self._served[dc] |= 1 << shard

    def shard_of(self, key: ObjectKey) -> int:
        return shard_of(key, self.n_shards)

    def mask_of_keys(self, keys: Iterable[ObjectKey]) -> int:
        """Interest mask of a transaction's write set (0 if no writes)."""
        mask = 0
        for key in keys:
            mask |= 1 << self.shard_of(key)
        return mask

    def homes(self, shard: int) -> Tuple[str, ...]:
        """The DCs serving ``shard``, in assignment order."""
        n = len(self.dc_ids)
        return tuple(self.dc_ids[(shard + j) % n]
                     for j in range(self.replica_factor))

    def served(self, dc_id: str) -> int:
        """Bitmask of the shards ``dc_id`` serves (0 for unknown DCs)."""
        return self._served.get(dc_id, 0)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_shards) - 1

    def all_interested(self) -> bool:
        """True when every DC serves every shard (the full baseline)."""
        full = self.full_mask
        return all(mask == full for mask in self._served.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardMap(n_shards={self.n_shards}, "
                f"dcs={len(self.dc_ids)}, rf={self.replica_factor})")


#: What an :class:`InterestGraph` decision asks its DC to do: callbacks
#: to run now, then adverts to send to every peer — in that order.
Outcome = Tuple[Sequence[Callable[[], None]], Sequence[InterestAdvert]]


class InterestGraph:
    """One DC's view of which replica wants which shard (sans-io).

    Owns the DC's own interest mask and advert sequence number, the
    masks its peers advertised, the per-shard refcounts of its edge
    sessions, the backfills peers still owe it, the reads deferred on
    them, and the shard mask of every stream entry that touches data.
    The DC asks it questions (:meth:`wants`, :meth:`peer_holds`,
    :meth:`required_k`) and carries out what its decisions return.

    An entry whose mask is 0 concerns everyone: it ships on every link,
    every covering peer holds it and it needs the full ``k_target``.
    Without a ``shard_map`` — or with one under which every DC serves
    every shard — every entry is such an entry, because nothing can
    ever be pruned: full replication is not a second protocol but that
    configuration, in which no key is hashed and no mask recorded.
    """

    def __init__(self, node_id: str, peers: Iterable[str],
                 shard_map: Optional[ShardMap] = None):
        self.node_id = node_id
        self.peers: List[str] = sorted(peers)
        self.shard_map = shard_map
        #: Can any link of this cluster ever elide an entry?
        self.prunes = (shard_map is not None
                       and not shard_map.all_interested())
        #: Every bit a shard mask of this cluster may carry.
        self.shard_space = shard_map.full_mask if shard_map else 0
        # Shards we serve: permanent interest.
        self._served = shard_map.served(node_id) if shard_map else 0
        #: Shards we serve or sessions subscribed us to.
        self.mask = self._served
        self.seq = 0
        self._peer_mask: Dict[str, int] = {
            peer: shard_map.served(peer) if shard_map else 0
            for peer in self.peers}
        self._peer_seq: Dict[str, int] = {}
        # Session-driven interest refcounts per shard.
        self._refs: Dict[int, int] = {}
        # Shard -> peers still owing a ShardBackfill response.
        self._owed: Dict[int, Set[str]] = {}
        # Reads blocked on backfill: (needed mask, fire).
        self._deferred: List[Tuple[int, Callable[[], None]]] = []
        # (shard mask, stream origin) of every held entry with a
        # non-zero mask, and the mask of each own-stream position.
        self._entries: Dict[Dot, Tuple[int, str]] = {}
        self._stream_masks: Dict[int, int] = {}
        # Shards every peer serves (the masks peers start with): no peer
        # ever asks us to backfill one.
        self._served_everywhere = self.shard_space
        for mask in self._peer_mask.values():
            self._served_everywhere &= mask

    # -- entries -------------------------------------------------------------
    def note_entry(self, dot: Dot, origin: str,
                   keys: Iterable[ObjectKey],
                   own_ts: Optional[int] = None) -> None:
        """Record the mask of an entry entering this DC's streams
        (``own_ts``: its position when sequenced into our own)."""
        if not self.prunes:
            return
        mask = self.shard_map.mask_of_keys(keys)
        if mask:
            self._entries[dot] = (mask, origin)
            if own_ts is not None:
                self._stream_masks[own_ts] = mask

    def forget(self, dot: Dot, own_ts: Optional[int]) -> None:
        """The log retired ``dot`` (at own position ``own_ts``, if any):
        its records leave with it."""
        self._entries.pop(dot, None)
        if own_ts is not None:
            self._stream_masks.pop(own_ts, None)

    def askable(self, ts: int) -> bool:
        """Might a peer still ask for own-stream position ``ts`` in a
        backfill?  Only where its mask names a shard some peer does not
        serve: a peer asks for the shards it subscribes to or missed in
        a skip run, never one it serves."""
        return bool(self._stream_masks.get(ts, 0)
                    & ~self._served_everywhere)

    def stream_mask(self, ts: int) -> int:
        """Shard mask of own-stream position ``ts``."""
        return self._stream_masks.get(ts, 0)

    def wants(self, peer: str, ts: int) -> bool:
        """Does own-stream entry ``ts`` ship to ``peer`` in full?"""
        mask = self._stream_masks.get(ts)
        return not mask or bool(mask & self._peer_mask.get(peer, 0))

    def peer_holds(self, peer: str, dot: Dot) -> bool:
        """Would the peer have stored (not skip-covered) this entry?"""
        meta = self._entries.get(dot)
        if meta is None:
            return True
        mask, origin = meta
        return origin == peer or bool(mask & self._peer_mask.get(peer, 0))

    def required_k(self, dot: Dot, k_target: int) -> int:
        """Stability threshold for ``dot``: replicas that can hold it.

        Only replicas whose interest intersects the entry's shards
        count, the stream origin always among them.  The clamp applies
        only where pruning shrank that set: an entry everybody is
        interested in needs ``k_target`` as given, so a target above
        the cluster size never stabilises.
        """
        meta = self._entries.get(dot)
        if meta is None:
            return k_target
        mask, origin = meta
        interested = int(bool(mask & self.mask) or origin == self.node_id)
        for peer in self.peers:
            if mask & self._peer_mask.get(peer, 0) or peer == origin:
                interested += 1
        if interested == 1 + len(self.peers):
            return k_target
        return min(k_target, interested)

    # -- peers' adverts ------------------------------------------------------
    def fold_advert(self, peer: str, mask: int, seq: int) -> bool:
        """Adopt a peer's advertised interest; True when it changed.

        ``seq`` guards against reordering: a stale advert is ignored.
        """
        if seq < self._peer_seq.get(peer, 0):
            return False
        changed = self._peer_mask.get(peer) != mask
        self._peer_mask[peer] = mask
        self._peer_seq[peer] = seq
        return changed

    def advert(self, backfill: Tuple[int, ...] = ()) -> InterestAdvert:
        """Our current interest, asking for ``backfill`` shards."""
        return InterestAdvert(self.mask, self.seq, backfill)

    def advertised(self) -> Tuple[Optional[int], int]:
        """``(mask, seq)`` to piggyback on a sync ping so lost adverts
        heal within one period; ``(None, 0)`` — no bytes — when nothing
        can be pruned."""
        return (self.mask, self.seq) if self.prunes else (None, 0)

    # -- session-driven subscriptions ----------------------------------------
    def retain(self, keys: Iterable[ObjectKey]) -> None:
        """A session took interest in ``keys``: count their shards."""
        if not self.prunes:
            return
        refs = self._refs
        for key in keys:
            shard = self.shard_map.shard_of(key)
            refs[shard] = refs.get(shard, 0) + 1

    def release(self, keys: Iterable[ObjectKey]) -> Outcome:
        """A session let go of ``keys``: retract the shards nobody
        references any more, one advert per retracted shard."""
        if not self.prunes:
            return (), ()
        refs = self._refs
        released = set()
        for key in keys:
            shard = self.shard_map.shard_of(key)
            left = refs.get(shard, 0) - 1
            if left <= 0:
                refs.pop(shard, None)
                released.add(shard)
            else:
                refs[shard] = left
        return (), self._unsubscribe(sorted(released))

    def subscribe(self, keys: Iterable[ObjectKey],
                  fire: Callable[[], None]) -> Outcome:
        """Run ``fire`` once every shard of ``keys`` is caught up.

        Missing shards are subscribed — every peer is asked for a
        backfill of its *own* stream, each origin being the
        authoritative holder of its log — and ``fire`` waits for them,
        so reads never see a journal with pruned holes.
        """
        needed = self.shard_map.mask_of_keys(keys) if self.prunes else 0
        adverts = []
        missing = needed & ~self.mask
        if missing:
            self.mask |= missing
            self.seq += 1
            if self.peers:
                shards = shards_of_mask(missing)
                for shard in shards:
                    self._owed.setdefault(shard, set()).update(self.peers)
                adverts.append(self.advert(shards))
        if needed & self.pending_mask():
            self._deferred.append((needed, fire))
            return (), adverts
        return (fire,), adverts

    def backfilled(self, shard: int, peer: str) -> Outcome:
        """``peer`` answered for ``shard``: the reads that were waiting
        only for that, then retractions of shards held just for them."""
        owers = self._owed.get(shard)
        if owers is not None:
            owers.discard(peer)
            if not owers:
                del self._owed[shard]
        pending = self.pending_mask()
        blocked, ready, fired_mask = [], [], 0
        for needed, fire in self._deferred:
            if needed & pending:
                blocked.append((needed, fire))
            else:
                ready.append(fire)
                fired_mask |= needed
        self._deferred = blocked
        return ready, self._unsubscribe(shards_of_mask(fired_mask))

    def owed(self, peer: str) -> Tuple[int, ...]:
        """Shards ``peer`` still owes a backfill for (to re-request)."""
        return tuple(sorted(shard for shard, owers in self._owed.items()
                            if peer in owers))

    def audit_skip(self, origin: str, mask: int) -> Tuple[int, ...]:
        """A skip run of ``origin``'s stream elided ``mask``.

        Shards of it we are interested in were pruned on a stale view
        of our interest: returns the ones to ask ``origin`` to backfill
        (not already owed), now marked as owed.
        """
        shards = tuple(s for s in shards_of_mask(mask & self.mask)
                       if origin not in self._owed.get(s, ()))
        for shard in shards:
            self._owed.setdefault(shard, set()).add(origin)
        return shards

    def pending_mask(self) -> int:
        """Shards with a backfill still in flight."""
        return mask_of(self._owed)

    def _unsubscribe(self, shards: Iterable[int]) -> List[InterestAdvert]:
        """Retract interest in the ``shards`` nothing holds any more.

        Served (home) shards are permanent interest and already-held
        data is kept either way — unsubscribing only stops *future*
        frames from carrying the shard.  A shard some deferred read
        still needs stays: dropping it would run that read against a
        store missing skip-pruned entries the stable vector already
        covers — an inconsistent seed that poisons the edge's cut.
        """
        adverts = []
        keep = self._served | mask_of(self._refs)
        for needed, _fire in self._deferred:
            keep |= needed
        for shard in shards:
            bit = 1 << shard
            if self.mask & bit and not keep & bit:
                self.mask &= ~bit
                self.seq += 1
                self._owed.pop(shard, None)
                adverts.append(self.advert())
        return adverts
