"""Stamp guard: a DC and its shards hold one commit stamp per
transaction, not one per holder.

Count-based, no timers.  A three-DC mesh (``k_target=2``, two shards a
DC) with a writer at each DC commits N writes.  At every checkpoint the
``CommitStamp`` objects reachable from a DC's commit log and from its
shards' stores and prepared transactions are counted: at most one per
transaction the DC holds — in its log or in a shard journal it has
not folded yet — plus one per stamp a graft
(``CommitLog.adopt``) replaced, which the shards' copies keep.  When
``handoff()`` copied the stamp, every shard journal held a second
stamp of each transaction it had not folded yet.
"""

import gc
from types import FunctionType, ModuleType
from unittest import mock

from repro.core import CommitStamp, ObjectKey
from repro.dc.commitlog import CommitLog
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

N_WRITES = 90


def stamps(roots):
    """The distinct ``CommitStamp`` objects reachable from ``roots``;
    classes, modules and functions are not followed."""
    found, seen, stack = set(), set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType,
                                               FunctionType)):
            continue
        seen.add(id(obj))
        if type(obj) is CommitStamp:
            found.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(found)


def held_transactions(dc):
    """The dots ``dc`` holds a transaction of: in its log, or in an
    entry of a shard journal (a retired one stays there until the next
    fold)."""
    dots = set(dc.log.txns)
    for shard in dc.shards.values():
        for key in shard.store.keys():
            dots.update(entry.dot
                        for entry in shard.store.journal(key).entries())
    return len(dots)


def test_a_dc_and_its_shards_share_each_stamp():
    grafts = {}
    adopt = CommitLog.adopt

    def counting(log, txn):
        grown = adopt(log, txn)
        if grown is not None:
            grafts[log.node_id] = grafts.get(log.node_id, 0) + 1
        return grown

    sim = Simulation(seed=3, default_latency=LatencyModel(5.0))
    dcs = build_cluster(sim, n_dcs=3, k_target=2)
    keys = [ObjectKey("b", f"k{i}") for i in range(8)]
    writers = [build_edge(sim, f"w{i}", dc_id=dc.node_id,
                          interest=[(key, "counter") for key in keys])
               for i, dc in enumerate(dcs)]
    sim.run_for(300)
    checked = 0
    with mock.patch.object(CommitLog, "adopt", counting):
        for index in range(N_WRITES):
            writer = writers[index % len(writers)]
            run_update(writer, keys[index % len(keys)], "counter",
                       "increment", 1)
            sim.run_for(1.0)
            if index % 10 != 9:
                continue
            for dc in dcs:
                shards = list(dc.shards.values())
                held = stamps([dc.log] + [s.store for s in shards]
                              + [s._prepared for s in shards])
                txns = held_transactions(dc)
                assert held <= txns + grafts.get(dc.node_id, 0), dc.node_id
                checked += bool(txns)
        sim.run_for(3000)
    assert checked
    # Every DC applied every write.
    assert all(sum(dc.state_vector.to_dict().values()) == N_WRITES
               for dc in dcs)
