"""Group consensus carries transactions, handed off at both ends.

An EPaxos command, an instance of a ``GroupSeed`` and the ``"txn"`` of a
Tiga round are :class:`~repro.core.txn.Transaction` records.  A proposal
carries the stamp as it stood when proposed, and every member releases
its own copy: a stamp that grows at one member shows at no other.
"""

import pytest

from repro.core import ObjectKey, Transaction
from repro.epaxos.messages import TigaCommit, TigaPropose
from repro.groups import GroupMember, GroupMsg, GroupSeed, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, run_update

KEY = ObjectKey("b", "x")
VARIANTS = ["async", "psi", "tiga"]


def group_world(variant):
    """Three members and a DC; every message sent is kept in ``sent``."""
    sim = Simulation(seed=9, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    sent = []
    send = sim.network.send

    def tap(src, dst, message, size_bytes=None):
        sent.append(message)
        return send(src, dst, message, size_bytes)

    sim.network.send = tap
    members = [spawn_member(sim, f"m{i}", variant) for i in range(3)]
    form_group(members)
    sim.run_for(200)
    return sim, members, sent


def spawn_member(sim, name, variant):
    member = sim.spawn(GroupMember, name, dc_id="dc0", group_id="g",
                       parent_id="m0", commit_variant=variant)
    member.declare_interest(KEY, "counter")
    for other in sim.actors.values():
        if isinstance(other, GroupMember) and other is not member:
            sim.network.set_link(name, other.node_id, LAN)
    return member


def epaxos(member):
    orderer = member.orderer
    return getattr(orderer, "fallback", orderer).replica


@pytest.mark.parametrize("variant", VARIANTS)
def test_commands_are_transaction_records(variant):
    sim, members, sent = group_world(variant)
    if variant == "tiga":
        # Both peers' clocks run far ahead: they nack every deadline,
        # and the rounds fall back to EPaxos, which a seed carries.
        for name in ("m1", "m2"):
            sim.network.clocks.step(name, 5000.0)
    for _ in range(3):
        run_update(members[0], KEY, "counter", "increment", 1)
        sim.run_for(300)
    sim.run_for(2000)
    joiner = spawn_member(sim, "m9", variant)
    joiner.join_group()
    sim.run_for(1000)

    held = [inst.command for member in members + [joiner]
            for inst in epaxos(member).instances.values()]
    assert len(held) >= 3 * 4
    assert all(type(command) is Transaction for command in held)
    seeded = [(instance_id, command) for message in sent
              if type(message) is GroupSeed
              for instance_id, command, _seq, _deps in message.instances]
    assert len(seeded) == 3
    parent = epaxos(members[0]).instances
    for instance_id, command in seeded:     # a copy of the parent's
        assert type(command) is Transaction
        held = parent[instance_id].command
        assert command == held
        before = dict(command.commit.entries)
        held.commit = held.commit.with_entry("elsewhere", 99)
        assert command.commit.entries == before
    payloads = [m.payload for m in sent if type(m) is GroupMsg]
    carried = [p.command for p in payloads
               if hasattr(p, "command") and p.command is not None]
    assert carried
    for command in carried:
        if type(command) is dict:           # a Tiga round's command
            assert command["dot"] == command["txn"].dot.to_dict()
            command = command["txn"]
        assert type(command) is Transaction
    assert any(type(p) is TigaPropose for p in payloads) \
        == (variant == "tiga")


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_member_releases_its_own_stamp(variant):
    sim, members, sent = group_world(variant)
    # m1's stamp grows just after it proposed: no peer may see it.
    orderer = members[1].orderer
    for name in ("propose", "propose_committed"):
        def grow_after(txn, propose=getattr(orderer, name)):
            propose(txn)
            txn.commit = txn.commit.with_entry("elsewhere", 99)
        setattr(orderer, name, grow_after)
    for member in members:      # one at a time: psi aborts overlaps
        run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(300)
    sim.run_for(3000)

    released = [txn for member in members
                for txn in member.visibility_log]
    assert len(released) == 3 * 3
    assert len({id(txn) for txn in released}) == len(released)
    grown = {txn.dot for txn in members[1].visibility_log
             if txn.origin == "m1"}
    assert len(grown) == 1
    for peer in (members[0], members[2]):
        assert peer.read_value(KEY, "counter") == 3
        for txn in peer.visibility_log + list(peer.log.txns.values()):
            assert "elsewhere" not in txn.commit.entries, (peer, txn)
    if variant == "tiga":
        assert any(type(m) is GroupMsg and type(m.payload) is TigaCommit
                   for m in sent)
