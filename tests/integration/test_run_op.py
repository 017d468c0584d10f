"""``run_op``: one op record, run on every kind of client actor."""

from repro.core import ObjectKey
from repro.serve.builder import build_sim_world
from repro.serve.topology import Site, Topology
from repro.serve.workload import READ, Op, run_op

COUNTER = (ObjectKey("run-op", "counter"), "counter")
SET = (ObjectKey("run-op", "set"), "orset")
CLIENTS = ("e0", "m1", "c0")


def world_of(variant="async"):
    """One DC, a solo edge, a two-member group and a cloud client."""
    topo = Topology("run-op", 5, [
        Site("dc0", "dc", n_shards=1),
        Site("e0", "edge", dc="dc0"),
        Site("m0", "member", dc="dc0", group="g", parent="m0",
             commit_variant=variant),
        Site("m1", "member", dc="dc0", group="g", parent="m0",
             commit_variant=variant),
        Site("c0", "cloud", dc="dc0", keys=[])], [COUNTER, SET])
    return build_sim_world(topo)


def test_update_and_read_ops_run_on_edge_member_and_cloud():
    world = world_of()
    done = []
    for name in CLIENTS:
        run_op(world.actors[name],
               Op(0.0, name, *COUNTER, "increment", (2,)),
               on_done=lambda r, stats, n=name: done.append(
                   (n, stats.read_only, stats.aborted)))
        run_op(world.actors[name], Op(0.0, name, *SET, "add", (name,)),
               on_done=lambda r, stats, n=name: done.append(
                   (n, stats.read_only, stats.aborted)))
    world.sim.run_for(3000.0)
    assert sorted(done) == sorted((n, False, False)
                                  for n in CLIENTS for _ in range(2))

    reads = {}
    for name in CLIENTS:
        for key, type_name in (COUNTER, SET):
            run_op(world.actors[name], Op(0.0, name, key, type_name, READ),
                   on_done=lambda values, stats, n=name, t=type_name:
                   reads.__setitem__((n, t), (list(values),
                                              stats.read_only)))
    world.sim.run_for(1000.0)
    for name in CLIENTS:
        (total,), read_only = reads[(name, "counter")]
        assert (total, read_only) == (6, True)
        (members,), read_only = reads[(name, "orset")]
        assert (set(members), read_only) == (set(CLIENTS), True)


def test_an_aborted_op_reaches_on_abort():
    """Two psi members update one key in the same instant: the one the
    agreed order certifies second aborts."""
    world = world_of("psi")
    members = [world.actors["m0"], world.actors["m1"]]
    aborted, committed = [], []
    for _round in range(4):
        for member in members:
            run_op(member, Op(0.0, member.node_id, *COUNTER, "increment",
                              (1,)),
                   on_done=lambda r, s: committed.append(s),
                   on_abort=aborted.append)
        world.sim.run_for(500.0)
    assert aborted and committed
    assert len(aborted) + len(committed) == 8
    assert all(str(exc) == "psi-conflict" for exc in aborted)
