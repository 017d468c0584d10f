"""EPaxos message types (Moraru et al., SOSP 2013).

Colony runs EPaxos inside each peer group to agree on the *visibility
order* of transactions (paper section 5.1.4).  The implementation is
leaderless: any member acts as command leader for the transactions it
proposes, non-interfering commands commit in one round trip (fast path),
interfering ones fall back to a Paxos-Accept round.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, FrozenSet, Optional, Tuple

from ..dc.messages import DOT_BYTES, HEADER_BYTES, txn_wire_size
from ..sim.clock import hlc_wire_size

# HLC timestamp (``repro.sim.clock.HlcTimestamp``): (ms, counter, node).
HlcTimestamp = Tuple[float, int, str]

# Instance identifier: (replica id, slot number).
InstanceId = Tuple[str, int]

# Ballot: (epoch counter, replica id) — replica id breaks ties.
Ballot = Tuple[int, str]

INITIAL_BALLOT_EPOCH = 0

#: Charged for commands that are not serialised transactions (tests
#: propose bare strings/dicts); real group proposals are txn dicts and
#: get the exact ``txn_wire_size`` accounting.
OPAQUE_COMMAND_BYTES = 32


def initial_ballot(leader: str) -> Ballot:
    return (INITIAL_BALLOT_EPOCH, leader)


def _instance_wire_size(instance: InstanceId) -> int:
    """Replica id plus an 8-byte slot number."""
    return len(instance[0]) + 8


def _ballot_wire_size(ballot: Optional[Ballot]) -> int:
    """8-byte epoch plus the tie-breaking replica id (1 when absent)."""
    if ballot is None:
        return 1
    return 8 + len(ballot[1])


def _deps_wire_size(deps: FrozenSet[InstanceId]) -> int:
    """``_instance_wire_size`` summed over ``deps``, in C: ``deps`` name
    every interfering instance ever (DESIGN §17), so this runs over
    thousands of instances per message on a long group run."""
    return 8 * len(deps) + sum(map(len, map(itemgetter(0), deps)))


def _command_wire_size(command: Any) -> int:
    if command is None:
        return 1
    if isinstance(command, dict) and "dot" in command:
        return txn_wire_size(command)
    return OPAQUE_COMMAND_BYTES


@dataclass(frozen=True, slots=True)
class PreAccept:
    instance: InstanceId
    ballot: Ballot
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot)
                + _command_wire_size(self.command) + 8
                + _deps_wire_size(self.deps))


@dataclass(frozen=True, slots=True)
class PreAcceptReply:
    instance: InstanceId
    ballot: Ballot
    ok: bool
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot) + 1 + 8
                + _deps_wire_size(self.deps))


@dataclass(frozen=True, slots=True)
class Accept:
    instance: InstanceId
    ballot: Ballot
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot)
                + _command_wire_size(self.command) + 8
                + _deps_wire_size(self.deps))


@dataclass(frozen=True, slots=True)
class AcceptReply:
    instance: InstanceId
    ballot: Ballot
    ok: bool

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot) + 1)


@dataclass(frozen=True, slots=True)
class Commit:
    instance: InstanceId
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _command_wire_size(self.command) + 8
                + _deps_wire_size(self.deps))


@dataclass(frozen=True, slots=True)
class Prepare:
    """Recovery: take over an instance with a higher ballot."""

    instance: InstanceId
    ballot: Ballot

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot))


@dataclass(frozen=True, slots=True)
class PrepareReply:
    instance: InstanceId
    ballot: Ballot
    ok: bool
    # Highest state the replier has accepted for the instance:
    status: str                       # "none"|"preaccepted"|"accepted"|...
    accepted_ballot: Optional[Ballot]
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return (HEADER_BYTES + _instance_wire_size(self.instance)
                + _ballot_wire_size(self.ballot) + 1
                + len(self.status)
                + _ballot_wire_size(self.accepted_ballot)
                + _command_wire_size(self.command) + 8
                + _deps_wire_size(self.deps))


EPaxosMessage = (PreAccept, PreAcceptReply, Accept, AcceptReply, Commit,
                 Prepare, PrepareReply)


# ----------------------------------------------------------------------
# Tiga fast path (``commit_variant="tiga"``): deadline-ordered commit in
# one round trip, falling back to the EPaxos instances above.
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TigaPropose:
    """Coordinator → members: speculative execution at ``deadline``."""

    dot: dict                   # serialised Dot (identifies the round)
    deadline: HlcTimestamp
    command: Any                # serialised transaction

    def wire_size(self) -> int:
        return (HEADER_BYTES + DOT_BYTES + hlc_wire_size(self.deadline)
                + _command_wire_size(self.command))


@dataclass(frozen=True, slots=True)
class TigaAck:
    """Member → coordinator: one-bit verdict plus the local clock
    reading, which the coordinator folds into its deadline lead."""

    dot: dict
    deadline: HlcTimestamp
    ok: bool
    local_ms: float

    def wire_size(self) -> int:
        return (HEADER_BYTES + DOT_BYTES + hlc_wire_size(self.deadline)
                + 1 + 8)


@dataclass(frozen=True, slots=True)
class TigaCommit:
    """Coordinator → members: fast quorum reached, release at the
    deadline.  Carries the full command so a member that lost the
    propose can still install the transaction."""

    dot: dict
    deadline: HlcTimestamp
    command: Any

    def wire_size(self) -> int:
        return (HEADER_BYTES + DOT_BYTES + hlc_wire_size(self.deadline)
                + _command_wire_size(self.command))


@dataclass(frozen=True, slots=True)
class TigaWithdraw:
    """Coordinator → members: round abandoned, EPaxos will carry it."""

    dot: dict

    def wire_size(self) -> int:
        return HEADER_BYTES + DOT_BYTES


@dataclass(frozen=True, slots=True)
class TigaStatus:
    """Member → coordinator: pending entry past its deadline; the
    coordinator answers with TigaCommit or TigaWithdraw."""

    dot: dict
    requester: str

    def wire_size(self) -> int:
        return HEADER_BYTES + DOT_BYTES + len(self.requester)


TigaMessage = (TigaPropose, TigaAck, TigaCommit, TigaWithdraw, TigaStatus)
