"""Footprint guard: an idle edge session holds only its own state.

Count-based, like ``test_growth_guard.py``.  The scale sweep's world
(``repro.bench.scale``) is built and settled with 500 and then 1 000
sessions, none of which writes, and the ``gc``-tracked objects the
second 500 added are counted per session: the node, its log, frontier
and cache, its links and the DC's side of its session.  Before idle
sessions stopped carrying an instance dict, security state with
security off, containers they never fill and a closure per periodic
timer, a session added 60 objects; before the retry timer ran only
while a request is outstanding and the RNG was built on first use, 40.
"""

import gc

from repro.bench.scale import ScaleConfig, build_scale_world
from repro.edge import EdgeNode
from repro.security.enforcement import SecurityEnforcer

from ..conftest import timer_entries

#: Tracked objects one idle session adds (34 when this guard was set).
MAX_OBJECTS_PER_SESSION = 36


def settled_world(n_nodes):
    config = ScaleConfig(n_nodes=n_nodes, seed=1)
    sim = build_scale_world(config)
    sim.run_for(max(0.0, config.settle_ms - sim.now))
    return sim


def tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def test_an_idle_session_adds_a_fixed_number_of_objects():
    counts = []
    for n_nodes in (500, 1000):
        sim = settled_world(n_nodes)
        counts.append(tracked_objects())
        del sim
    per_session = (counts[1] - counts[0]) / 500
    assert per_session <= MAX_OBJECTS_PER_SESSION, per_session


def test_an_idle_session_has_no_instance_dict_and_no_security_state():
    sim = settled_world(1000)
    nodes = [actor for actor in sim.actors.values()
             if type(actor) is EdgeNode]
    assert len(nodes) == 1000
    assert not any(hasattr(node, "__dict__") for node in nodes)
    assert all(node.enforcer is None for node in nodes)
    gc.collect()
    assert not any(isinstance(obj, SecurityEnforcer)
                   for obj in gc.get_objects())


def test_an_idle_session_holds_no_rng_and_no_timer():
    sim = settled_world(200)
    nodes = [actor for actor in sim.actors.values()
             if type(actor) is EdgeNode]
    assert len(nodes) == 200
    assert all(node.session_open for node in nodes)
    assert all(node._rng is None for node in nodes)
    assert not any(timer_entries(sim, node) for node in nodes)
