"""Footprint guard: what a group member keeps per transaction.

Count-based, like ``test_growth_guard.py``.  A five-member group
(``psi``, then ``async``) runs a few writes per member with no fault,
each member adding distinct elements to a shared ``orset`` document,
and everything reachable from the simulation is then checked for what
each retained transaction costs:

* no committed or executed EPaxos ``Instance`` has a ``__dict__`` or
  holds round state (repliers, merged attributes, prepare replies);
* no ``ORSet`` element holds a container per tag: its live tags are one
  sorted tuple, and ``clone()`` shares those tuples;
* every ``Transaction`` shell of one transaction shares one
  ``key_set``.

Before, every replica's ``Instance`` carried an instance dict and two
empty leader sets, every element a one-tag ``set``, and every shell
built its own key set.
"""

import gc
import types
from collections import defaultdict

import pytest

from repro.core import ObjectKey
from repro.core.txn import Transaction
from repro.crdt import ORSet
from repro.epaxos.instance import Instance
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster

N_MEMBERS = 5
WRITES_PER_MEMBER = 8
DOC = ObjectKey("b", "doc")

#: Not descended into: their globals reach the whole interpreter.
_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def reachable(root):
    """Every object reachable from ``root`` through object state."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def run_group(variant):
    sim = Simulation(seed=5, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = [sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant=variant)
               for i in range(N_MEMBERS)]
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
        a.declare_interest(DOC, "orset")
    form_group(members)
    sim.run_for(300)

    def write(member, element):
        def body(tx):
            yield tx.update(DOC, "orset", "add", element)
        member.run_transaction(body)

    # Each member's writes are spaced well apart, so that under PSI no
    # write is submitted while a conflicting one is still deciding.
    gap = 100.0
    for round_ in range(WRITES_PER_MEMBER):
        for index, member in enumerate(members):
            sim.loop.schedule(gap * (round_ * N_MEMBERS + index),
                              lambda m=member, e=(index, round_):
                              write(m, e))
    sim.run_for(gap * N_MEMBERS * WRITES_PER_MEMBER + 3000)
    written = {(i, r) for i in range(N_MEMBERS)
               for r in range(WRITES_PER_MEMBER)}
    for member in members:
        assert member.read_value(DOC, "orset") == written
    gc.collect()
    return reachable(sim)


@pytest.fixture(scope="module", params=["psi", "async"])
def objects(request):
    return run_group(request.param)


def test_a_decided_instance_holds_no_round_state(objects):
    instances = [o for o in objects if type(o) is Instance]
    decided = [inst for inst in instances if inst.is_committed]
    assert len(decided) >= N_MEMBERS * N_MEMBERS * WRITES_PER_MEMBER
    assert not any(hasattr(inst, "__dict__") for inst in instances)
    assert not [inst for inst in decided
                if inst.preaccept_repliers is not None
                or inst.accept_repliers is not None
                or inst.prepare_replies is not None
                or inst.merged_deps]


def test_an_orset_element_holds_one_sorted_tuple_of_tags(objects):
    sets = [o for o in objects if type(o) is ORSet]
    elements = [tags for s in sets for tags in s._instances.values()]
    assert len(elements) >= N_MEMBERS * WRITES_PER_MEMBER
    # Each element was added once: one tag, and no container around it.
    assert all(type(tags) is tuple and len(tags) == 1
               and type(tags[0]) is tuple for tags in elements)
    largest = max(sets, key=lambda s: len(s._instances))
    copy = largest.clone()
    assert copy._instances == largest._instances
    assert all(copy._instances[value] is tags
               for value, tags in largest._instances.items())


def test_the_shells_of_a_transaction_share_one_key_set(objects):
    shells = defaultdict(list)
    for obj in objects:
        if type(obj) is Transaction:
            shells[obj.dot].append(obj)
    keyed = 0
    for dot, group in shells.items():
        key_sets = {id(t._key_set) for t in group
                    if t._key_set is not None}
        assert len(key_sets) <= 1, (dot, len(group), len(key_sets))
        keyed += bool(key_sets) and len(group) > 1
    assert keyed >= N_MEMBERS * WRITES_PER_MEMBER
