"""Storage substrate: versioned store, materialisation cache, hash ring."""

from .kv import VersionedStore
from .matcache import CacheStats, MaterialisedCache
from .ring import HashRing

__all__ = ["CacheStats", "MaterialisedCache", "VersionedStore", "HashRing"]
