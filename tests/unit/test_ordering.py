"""The group orderers, scheduled by hand (no world)."""

from repro.epaxos import Commit
from repro.groups.ordering import RECOVER_AFTER_MS, ConsensusOrder

from ..orderers import OrderGroup


def among(*names):
    """Deliver only between ``names``."""
    return lambda src, dst, payload: src in names and dst in names


def test_own_command_finalised_as_noop_is_proposed_again():
    """Five members on one key:

    1. a proposes X; its PreAccept reaches only b;
    2. b proposes Y while a is unreachable; Y commits with dep ``a.0``;
    3. c recovers ``a.0`` while a and b are unreachable: d and e know
       nothing, so a no-op is accepted and committed;
    4. c's Commit reaches a, whose own instance is now a no-op.

    Nobody can execute X in ``a.0``: a orders it again in a new instance.
    """
    group = OrderGroup(["a", "b", "c", "d", "e"], ConsensusOrder)
    x = group.propose("a")
    group.deliver_all(among("a", "b"))
    y = group.propose("b")
    group.deliver_all(among("b", "c", "d", "e"))
    group.tick(["c"])
    group.advance(RECOVER_AFTER_MS + 1.0)
    group.tick(["c"])
    group.deliver_all(lambda src, dst, payload: among("c", "d", "e")(
        src, dst, payload) or (src, dst) == ("c", "a")
        and isinstance(payload, Commit))
    (noop,) = [i for i in group.orders["a"].replica.instances.values()
               if i.is_committed]
    assert noop.command is None and noop.instance_id[0] == "a"
    assert all(x not in group.dots(name) for name in group.names)
    group.settle()
    for name in group.names:
        assert sorted(group.dots(name)) == sorted([x, y]), name
