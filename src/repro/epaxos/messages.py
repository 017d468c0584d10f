"""EPaxos message types (Moraru et al., SOSP 2013).

Colony runs EPaxos inside each peer group to agree on the *visibility
order* of transactions (paper section 5.1.4).  The implementation is
leaderless: any member acts as command leader for the transactions it
proposes, non-interfering commands commit in one round trip (fast path),
interfering ones fall back to a Paxos-Accept round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

# HLC timestamp (``repro.sim.clock.HlcTimestamp``): (ms, counter, node).
HlcTimestamp = Tuple[float, int, str]

# Instance identifier: (replica id, slot number).
InstanceId = Tuple[str, int]

# Ballot: (epoch counter, replica id) — replica id breaks ties.
Ballot = Tuple[int, str]

INITIAL_BALLOT_EPOCH = 0


def initial_ballot(leader: str) -> Ballot:
    return (INITIAL_BALLOT_EPOCH, leader)


@dataclass(frozen=True, slots=True)
class PreAccept:
    instance: InstanceId
    ballot: Ballot
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True, slots=True)
class PreAcceptReply:
    instance: InstanceId
    ballot: Ballot
    ok: bool
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True, slots=True)
class Accept:
    instance: InstanceId
    ballot: Ballot
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True, slots=True)
class AcceptReply:
    instance: InstanceId
    ballot: Ballot
    ok: bool


@dataclass(frozen=True, slots=True)
class Commit:
    instance: InstanceId
    command: Any
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True, slots=True)
class Prepare:
    """Recovery: take over an instance with a higher ballot."""

    instance: InstanceId
    ballot: Ballot


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


@dataclass(frozen=True, slots=True)
class TigaAck:
    """Member → coordinator: one-bit verdict plus the local clock
    reading, which the coordinator folds into its deadline lead."""

    dot: dict
    deadline: HlcTimestamp
    ok: bool
    local_ms: float


@dataclass(frozen=True, slots=True)
class TigaCommit:
    """Coordinator → members: fast quorum reached, release at the
    deadline.  Carries the full command so a member that lost the
    propose can still install the transaction."""

    dot: dict
    deadline: HlcTimestamp
    command: Any


@dataclass(frozen=True, slots=True)
class TigaWithdraw:
    """Coordinator → members: round abandoned, EPaxos will carry it."""

    dot: dict


@dataclass(frozen=True, slots=True)
class TigaStatus:
    """Member → coordinator: pending entry past its deadline; the
    coordinator answers with TigaCommit or TigaWithdraw."""

    dot: dict
    requester: str


TigaMessage = (TigaPropose, TigaAck, TigaCommit, TigaWithdraw, TigaStatus)
