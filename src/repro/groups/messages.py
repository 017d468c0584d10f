"""Peer-group wire messages (paper section 5.1).

Groups communicate point-to-point (WebRTC in the real system): EPaxos
traffic is wrapped in :class:`GroupMsg`; membership flows through the
parent; the collaborative cache uses fetch/pull messages; the sync point
relays DC pushes and commit acknowledgements into the group.

The relays, the pull path and consensus carry
:class:`~repro.core.txn.Transaction` and :class:`~repro.core.dot.Dot`
values, a transaction through ``Transaction.handoff()`` once per
receiver, as on a DC's links (see :mod:`repro.dc.messages`): an EPaxos
command, an instance of a :class:`GroupSeed` and the ``"txn"`` of a Tiga
command are transactions (:mod:`repro.groups.ordering`).  Interest and
fetches carry :class:`~repro.core.txn.ObjectKey` and
:class:`~repro.core.journal.ObjectState` values.

As on a DC's links (:mod:`repro.dc.messages`), a message's schema is its
fields, and ``NetworkStats.bytes_sent`` counts its encoded length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey, Transaction


@dataclass(frozen=True, slots=True)
class GroupMsg:
    """Envelope for EPaxos messages between group members."""

    group_id: str
    epoch: int
    payload: Any


@dataclass(frozen=True, slots=True)
class JoinGroup:
    node_id: str
    interest: Tuple[Tuple[ObjectKey, str], ...] = ()


@dataclass(frozen=True, slots=True)
class LeaveGroup:
    node_id: str


@dataclass(frozen=True, slots=True)
class MembershipUpdate:
    group_id: str
    epoch: int
    parent: str
    members: Tuple[str, ...]
    session_key_id: Optional[str] = None


@dataclass(frozen=True, slots=True)
class GroupSeed:
    """Joining-member bootstrap: committed consensus instances so far."""

    group_id: str
    epoch: int
    # ((instance_id, transaction-or-None, seq, deps-tuple), ...) —
    # committed.  deps holds at most one (replica, slot) per replica:
    # every instance of that replica up to the slot whose command
    # interferes.
    instances: Tuple[Tuple[Tuple[str, int], Optional[Transaction], int,
                           Tuple[Tuple[str, int], ...]], ...]
    stable_vector: Dict[str, int]


@dataclass(frozen=True, slots=True)
class InterestAnnounce:
    """A member publishes its interest set to the group (section 5.1.2)."""

    member: str
    add: Tuple[Tuple[ObjectKey, str], ...] = ()
    remove: Tuple[ObjectKey, ...] = ()


@dataclass(frozen=True, slots=True)
class GroupFetch:
    """Collaborative-cache read: fetch an object from a neighbour."""

    key: ObjectKey
    type_name: str
    requester: str


@dataclass(frozen=True, slots=True)
class GroupFetchReply:
    key: ObjectKey
    object_state: Optional[ObjectState]
    state_vector: Dict[str, int]
    from_cache: bool


@dataclass(frozen=True, slots=True)
class GroupRelayPush:
    """Sync point relays a DC update push into the group."""

    txns: Tuple[Transaction, ...]
    stable_vector: Dict[str, int]
    prev_vector: Dict[str, int]


@dataclass(frozen=True, slots=True)
class GroupCommitAck:
    """Sync point relays a DC commit acknowledgement into the group."""

    dot: Dot
    entries: Dict[str, int]


@dataclass(frozen=True, slots=True)
class TxnPull:
    """Request missing transactions by dot (section 5.1.2 pull)."""

    requester: str
    dots: Tuple[Dot, ...]


@dataclass(frozen=True, slots=True)
class TxnPushMsg:
    txns: Tuple[Transaction, ...]
