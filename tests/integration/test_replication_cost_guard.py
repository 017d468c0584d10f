"""Cost guard: what a replicated transaction costs a DC, in counts.

Count-based, no timers.  Three DCs (``k_target=3``, so every holder
credit is needed); an edge on ``dc0`` commits N and then 2N one-write
transactions over 16 keys, which ``dc1`` and ``dc2`` apply remotely.
Per unit of work, after a warm-up that touches every key once:

* ``hashlib.md5`` calls — shard routing hashes a key once per ring
  membership, so a window of any length adds none (it used to hash
  every key of every transaction);
* Python-level journal-order comparisons per ``ObjectJournal.append`` —
  none: the tail test and the bisect compare tuples in C (it used to be
  ``log2(journal length)`` calls of ``JournalEntry.__lt__``);
* holder-set operations (a set stored, ``add``, ``update``) per
  released transaction — at most one per replica: the set is stored
  complete when the transaction is committed or applied and each later
  peer is one ``add`` (committing used to cost a ``setdefault`` plus an
  ``update``).
"""

import hashlib
from unittest import mock

from repro.core import ObjectKey
from repro.core.journal import JournalEntry, ObjectJournal
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

N_DCS = 3
KEYS = [ObjectKey("b", f"k{i}") for i in range(16)]
GAP_MS = 5.0


class CountedSet(set):
    def __init__(self, owner, items):
        set.__init__(self, items)
        self.owner = owner

    def add(self, item):
        self.owner.ops += 1
        set.add(self, item)

    def update(self, *others):
        self.owner.ops += 1
        set.update(self, *others)


class CountedHolders(dict):
    """A holder map that counts every set stored in or changed through it."""

    def __init__(self):
        dict.__init__(self)
        self.ops = 0

    def __setitem__(self, dot, holders):
        self.ops += 1
        dict.__setitem__(self, dot, CountedSet(self, holders))

    def setdefault(self, dot, holders):
        # Nothing on the measured path writes through it now, and a
        # change that does is counted.
        if dot not in self:
            self[dot] = holders
        return self[dot]


def counted(calls, original):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    return wrapper


def record_releases(stability, released):
    """Add every dot ``stability.advance`` releases to ``released``."""
    advance = stability.advance

    def wrapper():
        run = advance()
        if run is not None:
            released.update(dot for _origin, _ts, dot in run)
        return run

    stability.advance = wrapper


def run_window(n_txns):
    """(md5 calls, ``__lt__`` calls per append, holder-set operations
    per released transaction at the DC that did most) of one window."""
    sim = Simulation(seed=5, default_latency=LatencyModel(5.0))
    dcs = build_cluster(sim, n_dcs=N_DCS, k_target=N_DCS)
    released = [set() for _dc in dcs]
    for dc, dots in zip(dcs, released):
        dc.stability._holders = CountedHolders()
        record_releases(dc.stability, dots)
    writer = build_edge(sim, "w", dc_id="dc0",
                        interest=[(key, "counter") for key in KEYS])
    sim.run_for(300)

    def write(index):
        run_update(writer, KEYS[index % len(KEYS)], "counter",
                   "increment", 1)

    for index in range(len(KEYS)):              # warm-up: every key once
        sim.loop.schedule(GAP_MS * index, lambda i=index: write(i))
    sim.run_for(GAP_MS * len(KEYS) + 1500)

    released_before = [len(dots) for dots in released]
    ops_before = [dc.stability._holders.ops for dc in dcs]
    md5_calls, compares, appends = [], [], []
    with mock.patch.object(hashlib, "md5", counted(md5_calls, hashlib.md5)), \
            mock.patch.object(JournalEntry, "__lt__",
                              counted(compares, JournalEntry.__lt__)), \
            mock.patch.object(ObjectJournal, "append",
                              counted(appends, ObjectJournal.append)):
        for index in range(n_txns):
            sim.loop.schedule(GAP_MS * index, lambda i=index: write(i))
        sim.run_for(GAP_MS * n_txns + 1500)
    for dc, dots, before in zip(dcs, released, released_before):
        # Applied, stable and converged everywhere.
        assert len(dots) - before == n_txns
        assert dc.state_digest() == dcs[0].state_digest()
    holder_ops = max(dc.stability._holders.ops - before
                     for dc, before in zip(dcs, ops_before))
    return (len(md5_calls), len(compares) / len(appends),
            holder_ops / n_txns)


def test_replicated_transaction_cost_is_flat_and_small():
    md5_n, compares_n, holder_ops_n = run_window(40)
    md5_2n, compares_2n, holder_ops_2n = run_window(80)
    # Routing: nothing hashed once every key has been seen.
    assert md5_n == md5_2n == 0
    # Journal order: no Python-level comparison, however long the journal.
    assert compares_n == compares_2n == 0
    # Holders: at the origin, the busiest DC, one operation per replica
    # that ends up holding the transaction (peers + 1); the others store
    # two holders at once and add the third.
    assert holder_ops_n <= N_DCS and holder_ops_2n <= N_DCS
