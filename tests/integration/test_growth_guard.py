"""Growth guard: the cost of a transaction does not grow with the run.

Count-based, no timers.  A five-member ``psi`` group runs N and then 2N
writes per member, every member on its own growing ``orset`` document
(so PSI never aborts), and the work done per unit is compared:

* log entries examined per PSI certification,
* instances looked at per ``EPaxosReplica._try_execute``,
* ``ORSet.clone`` calls per edge transaction (zero, however large the
  document has become).

Before certification and execution were indexed the first two doubled
with N, and every write cloned its document twice.

A five-member ``async`` group whose members all write one document, so
that every instance interferes with every other, guards the consensus
messages themselves: their bytes per write (each ``GroupMsg`` as
``NetworkStats`` charges it) stay flat, and no ``PreAccept``,
``PreAcceptReply`` or ``Commit`` names more than one dependency per
member.  When deps named every interfering instance ever, both grew
with the run.

A three-DC mesh (``k_target=2``) with a writer at each DC guards what a
DC keeps per transaction once its stable cut has passed it: after N and
then 2N writes, at every checkpoint, the K-stability holder map holds
only unreleased dots, the replication encode memo no position that
every link has shipped, and the commit log only transactions that are
unreleased or at an own position some peer has not applied — at most
as many at 2N as at N.  Two DCs are cut apart for the last writes, so a
healed link rewinds and re-ships what the log kept back.  After the
drain the map, the memo and the log are empty, the last fold went out
at the stable cut and no shard journal holds an entry inside it.  The
map and the memo used to keep an entry for every dot the DC ever saw,
the log every transaction.  Under a pruning shard map (rf=1) the
origin keeps the positions a peer may still subscribe to: a DC that
subscribes after 2N writes backfills a journal equal to the origin's.
"""

from unittest import mock

from repro.core import ObjectKey
from repro.crdt import ORSet
from repro.dc import DataCenter
from repro.dc.interest import ShardMap
from repro.epaxos import Commit, EPaxosReplica, PreAccept
from repro.epaxos.messages import PreAcceptReply
from repro.groups import GroupMember, GroupMsg, form_group
from repro.groups.certification import LogWriters
from repro.sim import LAN, LatencyModel, Simulation
from repro.sim.network import Network
from repro.transport.codec import wire_size

from ..conftest import build_cluster, build_edge, run_update

N_MEMBERS = 5
WRITE_GAP_MS = 20.0
N_SHARDS = 6


def counting(cls, name, calls):
    """Patch ``cls.name`` with a wrapper appending to ``calls``."""
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    return mock.patch.object(cls, name, wrapper)


def run_group(writes_per_member, variant="psi", shared=False):
    """Per-unit work counts of one run: (examined per certification,
    visits per ``_try_execute``, clones, aborted, consensus bytes per
    write, most deps in one message)."""
    sim = Simulation(seed=11, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = [sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant=variant)
               for i in range(N_MEMBERS)]
    docs = [ObjectKey("b", "doc0" if shared else f"doc{i}")
            for i in range(N_MEMBERS)]
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    for member, doc in zip(members, docs):
        member.declare_interest(doc, "orset")
    form_group(members)
    sim.run_for(300)

    def write(member, doc, element):
        def body(tx):
            yield tx.update(doc, "orset", "add", element)
        member.run_transaction(body)

    # A member's first write fetches its document through the parent and
    # builds the cached states from their bases: not the steady state.
    for member, doc in zip(members, docs):
        write(member, doc, "first")
    sim.run_for(1000)

    def work():
        stats = [m.orderer.stats for m in members]
        return (sum(s["examined"] for s in stats),
                sum(s["execute_visits"] for s in stats))

    examined_before, visits_before = work()
    certifications, executes, clones = [], [], []
    consensus = {"bytes": 0, "deps": 0}
    send = Network.send

    def tally(network, src, dst, message, size_bytes=None):
        if type(message) is GroupMsg:
            consensus["bytes"] += wire_size(message)
            if type(message.payload) in (PreAccept, PreAcceptReply, Commit):
                consensus["deps"] = max(consensus["deps"],
                                        len(message.payload.deps))
        return send(network, src, dst, message, size_bytes)

    with counting(LogWriters, "conflicts", certifications), \
            counting(EPaxosReplica, "_try_execute", executes), \
            counting(ORSet, "clone", clones), \
            mock.patch.object(Network, "send", tally):
        for round_ in range(writes_per_member):
            for index, (member, doc) in enumerate(zip(members, docs)):
                sim.loop.schedule(
                    WRITE_GAP_MS * round_ + index,
                    lambda m=member, d=doc, e=(index, round_):
                    write(m, d, e if shared else e[1]))
        sim.run_for(WRITE_GAP_MS * writes_per_member + 3000)
    written = {(i, r) if shared else r for i in range(N_MEMBERS)
               for r in range(writes_per_member)}
    for member, doc in zip(members, docs):
        assert len(member.visibility_log) \
            == N_MEMBERS * (writes_per_member + 1)
        assert member.read_value(doc, "orset") == {"first", *written}
    examined, visits = work()
    aborted = sum(len(getattr(m.orderer, "aborted", ())) for m in members)
    return ((examined - examined_before) / max(len(certifications), 1),
            (visits - visits_before) / len(executes),
            len(clones), aborted,
            consensus["bytes"] / (N_MEMBERS * writes_per_member),
            consensus["deps"])


def test_per_transaction_work_does_not_grow_with_history():
    examined_n, visits_n, clones_n, aborted_n, _, _ = run_group(15)
    examined_2n, visits_2n, clones_2n, aborted_2n, _, _ = run_group(30)
    assert aborted_n == aborted_2n == 0
    # Flat, not merely sub-linear: a tenth of slack, where walking the
    # history would double both.
    assert examined_2n <= examined_n * 1.1
    assert visits_2n <= visits_n * 1.1
    assert clones_n == clones_2n == 0



def test_consensus_messages_do_not_grow_with_history():
    _, visits_n, _, _, bytes_n, deps_n = run_group(15, "async", True)
    _, visits_2n, _, _, bytes_2n, deps_2n = run_group(30, "async", True)
    # One dependency per member at most, whatever the history.
    assert 0 < deps_n <= N_MEMBERS and 0 < deps_2n <= N_MEMBERS
    # Flat within 5 %, where deps naming every interfering instance
    # ever make the bytes per write grow about linearly with the run.
    assert bytes_2n <= bytes_n * 1.05
    assert visits_2n <= visits_n * 1.1


def released(dc, txn):
    """Is ``txn`` inside ``dc``'s stable cut?  Iff one of its commit
    entries is."""
    stable = dc.stable_vector
    return any(ts <= stable[origin]
               for origin, ts in txn.commit.entries.items())


def check_retention(dc):
    """What ``dc`` keeps per dot: holder sets for unreleased dots only,
    no encoding of a position every link shipped, and in the log only
    transactions unreleased or at an own position some peer has not
    applied."""
    # A dot the log no longer holds was retired, so released.
    assert not [dot for dot in dc.stability._holders
                if dot not in dc.log.txns
                or released(dc, dc.log.txns[dot])]
    floor = min(dc.sender.link(peer).sent_ts for peer in dc.peer_dcs)
    assert not [ts for ts in dc.sender._encoded if ts <= floor]
    shipped = dc.stability.shipped()
    assert not [dot for dot, txn in dc.log.txns.items()
                if released(dc, txn)
                and txn.commit.entries.get(dc.node_id, 0) <= shipped]


def check_folded(dc):
    """The last fold went out at the stable cut, and no shard journal
    holds an entry inside it."""
    assert dc.folded == dc.stable_vector
    for shard in dc.shards.values():
        for key in shard.store.keys():
            inside = [entry.dot
                      for entry in shard.store.journal(key).entries()
                      if any(ts <= dc.folded[origin] for origin, ts
                             in entry.txn.commit.entries.items())]
            assert not inside, (shard.node_id, key, inside)


def run_mesh(n_writes):
    """Per DC, after ``n_writes`` writes and the drain: (holder sets,
    memo entries, logged transactions); and the most transactions a
    DC's log held at a checkpoint.  ``dc0`` and ``dc1`` are cut apart
    for the last 20 writes, so ``dc0`` keeps its own positions until the
    healed link has rewound and re-shipped them."""
    sim = Simulation(seed=3, default_latency=LatencyModel(5.0))
    dcs = build_cluster(sim, n_dcs=3, k_target=2)
    keys = [ObjectKey("b", f"k{i}") for i in range(8)]
    writers = [build_edge(sim, f"w{i}", dc_id=dc.node_id,
                          interest=[(key, "counter") for key in keys])
               for i, dc in enumerate(dcs)]
    sim.run_for(300)
    most = 0
    for index in range(n_writes):
        if index == n_writes - 20:
            sim.network.partition("dc0", "dc1")
        writer = writers[index % len(writers)]
        run_update(writer, keys[index % len(keys)], "counter",
                   "increment", 1)
        sim.run_for(WRITE_GAP_MS / 4)
        if index % 10 == 9:
            for dc in dcs:
                check_retention(dc)
                most = max(most, len(dc.log.txns))
    sim.network.heal("dc0", "dc1")
    sim.run_for(3000)
    assert all(dc.committed_count for dc in dcs)
    # The cut link lost frames: rewound to dc1's advert and re-shipped.
    assert dcs[0].sender.link("dc1").rewinds
    out = []
    for dc in dcs:
        assert sum(dc.state_vector.to_dict().values()) == n_writes
        check_retention(dc)
        check_folded(dc)
        out.append((len(dc.stability._holders), len(dc.sender._encoded),
                    len(dc.log.txns)))
    for writer in writers:
        assert sum(writer.read_value(key, "counter")
                   for key in keys) == n_writes
    return out, most


def test_a_dc_forgets_what_its_stable_cut_passed():
    settled, most = zip(*(run_mesh(n_writes) for n_writes in (60, 120)))
    # Nothing per dot is left once every peer applied every dot and the
    # cut passed it, however long the run ...
    assert settled == ([(0, 0, 0)] * 3,) * 2
    # ... and on the way the log held what the cut link kept back, not
    # what the run wrote.
    assert 0 < most[1] <= most[0] + 2


def test_a_subscriber_backfills_what_the_origin_kept():
    # rf=1: each shard homed on one DC, whose own positions of it every
    # other DC may still subscribe to, so they stay in its log.
    n_writes = 120
    sim = Simulation(seed=5, default_latency=LatencyModel(5.0))
    dc_ids = ["dc0", "dc1", "dc2"]
    shard_map = ShardMap(N_SHARDS, dc_ids, replica_factor=1)
    dcs = [sim.spawn(DataCenter, dc_id,
                     peer_dcs=[d for d in dc_ids if d != dc_id],
                     n_shards=2, k_target=2, shard_map=shard_map)
           for dc_id in dc_ids]
    for a in dc_ids:
        for b in dc_ids:
            if a < b:
                sim.network.set_link(a, b, LatencyModel(5.0))
    homed = [[key for key in (ObjectKey("b", f"k{i}") for i in range(64))
              if shard_map.homes(shard_map.shard_of(key))[0] == dc_id][:2]
             for dc_id in dc_ids]
    writers = [build_edge(sim, f"w{i}", dc_id=dc_id,
                          interest=[(key, "counter") for key in homed[i]])
               for i, dc_id in enumerate(dc_ids)]
    sim.run_for(300)
    for index in range(n_writes):
        i = index % len(writers)
        run_update(writers[i], homed[i][index // len(writers) % 2],
                   "counter", "increment", 1)
        sim.run_for(WRITE_GAP_MS / 4)
    sim.run_for(3000)
    origin, subscriber = dcs[1], dcs[0]
    key = homed[1][0]
    # The origin kept every own position of the shard; the rest of the
    # mesh pruned them.
    assert len(origin.log.txns) == n_writes // len(writers)
    assert not subscriber.holds(next(iter(origin.log.txns)))
    reader = build_edge(sim, "late", dc_id="dc0",
                        interest=[(key, "counter")])
    sim.run_for(3000)
    assert subscriber.stats["repl_backfills_in"]
    assert subscriber.shard_stream_gaps() == {}

    def journal(dc):
        return dc.shards[dc.ring.lookup(key)].store.journal(key)

    theirs, ours = journal(origin), journal(subscriber)
    assert sorted(ours.applied_dots()) == sorted(theirs.applied_dots())
    assert ours.materialise(None).value() \
        == theirs.materialise(None).value() \
        == reader.read_value(key, "counter") == n_writes // 6
