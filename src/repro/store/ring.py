"""Consistent-hash ring — the riak_core substitute (paper section 6.3).

"Data in a DC is sharded by consistent hashing across multiple server
machines, leveraging riak_core."  We implement the same abstraction: a ring
of virtual nodes, key lookup walking clockwise, and preference lists for
replication within the DC.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from ..core.txn import ObjectKey


def _hash(value: str) -> int:
    return int.from_bytes(hashlib.md5(value.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self._vnodes = vnodes
        self._ring: List[Tuple[int, str]] = []  # (hash, server), sorted
        self._servers: Dict[str, List[int]] = {}
        # Owner of every key looked up under the current membership, so
        # a key is hashed once, not once per transaction that writes it:
        # des_geo_write cpu_ms_per_txn, 141 780 -> 335 md5 calls in the
        # seed-1 window (69 keys on five rings).  One entry per key,
        # like the store's journal map; a membership change drops it.
        self._owners: Dict[ObjectKey, str] = {}

    # -- membership -------------------------------------------------------------
    def add_server(self, server_id: str) -> None:
        if server_id in self._servers:
            raise ValueError(f"server {server_id!r} already on the ring")
        points = []
        for i in range(self._vnodes):
            point = _hash(f"{server_id}#{i}")
            bisect.insort(self._ring, (point, server_id))
            points.append(point)
        self._servers[server_id] = points
        self._owners.clear()

    def remove_server(self, server_id: str) -> None:
        points = self._servers.pop(server_id, None)
        if points is None:
            raise KeyError(server_id)
        self._ring = [(p, s) for p, s in self._ring if s != server_id]
        self._owners.clear()

    @property
    def servers(self) -> List[str]:
        return sorted(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

    # -- lookup ---------------------------------------------------------------------
    def _key_point(self, key: ObjectKey) -> int:
        return _hash(f"{key.bucket}/{key.key}")

    def lookup(self, key: ObjectKey) -> str:
        """The server owning ``key`` (first vnode clockwise)."""
        owner = self._owners.get(key)
        if owner is None:
            if not self._ring:
                raise LookupError("empty hash ring")
            point = self._key_point(key)
            index = bisect.bisect_right(self._ring,
                                        (point, chr(0x10FFFF)))
            if index == len(self._ring):
                index = 0
            owner = self._owners[key] = self._ring[index][1]
        return owner

    def preference_list(self, key: ObjectKey, n: int) -> List[str]:
        """First ``n`` *distinct* servers clockwise from the key point."""
        if not self._ring:
            raise LookupError("empty hash ring")
        point = self._key_point(key)
        index = bisect.bisect_right(self._ring, (point, chr(0x10FFFF)))
        seen: List[str] = []
        for offset in range(len(self._ring)):
            _, server = self._ring[(index + offset) % len(self._ring)]
            if server not in seen:
                seen.append(server)
                if len(seen) == n:
                    break
        return seen

    def partition(self, keys: Sequence[ObjectKey]) \
            -> Dict[str, List[ObjectKey]]:
        """Group keys by owning server (used by the 2PC coordinator)."""
        shards: Dict[str, List[ObjectKey]] = {}
        owners = self._owners
        for key in keys:
            owner = owners.get(key) or self.lookup(key)
            shards.setdefault(owner, []).append(key)
        return shards
