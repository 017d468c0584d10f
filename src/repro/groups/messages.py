"""Peer-group wire messages (paper section 5.1).

Groups communicate point-to-point (WebRTC in the real system): EPaxos
traffic is wrapped in :class:`GroupMsg`; membership flows through the
parent; the collaborative cache uses fetch/pull messages; the sync point
relays DC pushes and commit acknowledgements into the group.

The relays and the pull path carry :class:`~repro.core.txn.Transaction`
and :class:`~repro.core.dot.Dot` values, a transaction through
``Transaction.handoff()`` once per receiver, as on a DC's links (see
:mod:`repro.dc.messages`); interest and fetches carry
:class:`~repro.core.txn.ObjectKey` and
:class:`~repro.core.journal.ObjectState` values.  Consensus commands —
EPaxos and Tiga payloads, and the instances of a :class:`GroupSeed` —
are still the transactions' ``to_dict()`` forms, converted once each
way inside the orderer (:mod:`repro.groups.ordering`).

Every message reports an honest ``wire_size()`` (same conventions as
:mod:`repro.dc.messages`), so ``NetworkStats.bytes_sent`` reflects real
wire cost on group links too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey, Transaction
from ..dc.messages import (DOT_RECORD_BYTES, HEADER_BYTES, KEY_RECORD_BYTES,
                           object_state_wire_size, txn_record_size,
                           txn_wire_size, vector_wire_size)

#: Charged for consensus payloads that do not size themselves.
_OPAQUE_PAYLOAD_BYTES = 48


@dataclass(frozen=True, slots=True)
class GroupMsg:
    """Envelope for EPaxos messages between group members."""

    group_id: str
    epoch: int
    payload: Any

    def wire_size(self) -> int:
        sizer = getattr(self.payload, "wire_size", None)
        inner = sizer() if sizer is not None else _OPAQUE_PAYLOAD_BYTES
        return HEADER_BYTES + len(self.group_id) + 8 + inner


@dataclass(frozen=True, slots=True)
class JoinGroup:
    node_id: str
    interest: Tuple[Tuple[ObjectKey, str], ...] = ()

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.node_id)
                + sum(KEY_RECORD_BYTES + len(t) for _k, t in self.interest))


@dataclass(frozen=True, slots=True)
class LeaveGroup:
    node_id: str

    def wire_size(self) -> int:
        return HEADER_BYTES + len(self.node_id)


@dataclass(frozen=True, slots=True)
class MembershipUpdate:
    group_id: str
    epoch: int
    parent: str
    members: Tuple[str, ...]
    session_key_id: Optional[str] = None

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.group_id) + 8 + len(self.parent)
                + sum(len(m) + 1 for m in self.members)
                + (len(self.session_key_id) if self.session_key_id else 0))


@dataclass(frozen=True, slots=True)
class GroupSeed:
    """Joining-member bootstrap: committed consensus instances so far."""

    group_id: str
    epoch: int
    # ((instance_id, txn_dict-or-None, seq, deps-tuple), ...) — committed.
    instances: Tuple[Tuple[Tuple[str, int], Optional[dict], int,
                           Tuple[Tuple[str, int], ...]], ...]
    stable_vector: Dict[str, int]

    def wire_size(self) -> int:
        size = (HEADER_BYTES + len(self.group_id) + 8
                + vector_wire_size(self.stable_vector))
        for _iid, txn, _seq, deps in self.instances:
            size += 24 + 16 * len(deps)
            if txn is not None:
                size += txn_wire_size(txn)
        return size


@dataclass(frozen=True, slots=True)
class InterestAnnounce:
    """A member publishes its interest set to the group (section 5.1.2)."""

    member: str
    add: Tuple[Tuple[ObjectKey, str], ...] = ()
    remove: Tuple[ObjectKey, ...] = ()

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.member)
                + sum(KEY_RECORD_BYTES + len(t) for _k, t in self.add)
                + KEY_RECORD_BYTES * len(self.remove))


@dataclass(frozen=True, slots=True)
class GroupFetch:
    """Collaborative-cache read: fetch an object from a neighbour."""

    key: ObjectKey
    type_name: str
    requester: str

    def wire_size(self) -> int:
        return (HEADER_BYTES + KEY_RECORD_BYTES + len(self.type_name)
                + len(self.requester))


@dataclass(frozen=True, slots=True)
class GroupFetchReply:
    key: ObjectKey
    object_state: Optional[ObjectState]
    state_vector: Dict[str, int]
    from_cache: bool

    def wire_size(self) -> int:
        size = (HEADER_BYTES + KEY_RECORD_BYTES + 1
                + vector_wire_size(self.state_vector))
        if self.object_state is not None:
            size += object_state_wire_size(self.object_state)
        return size


@dataclass(frozen=True, slots=True)
class GroupRelayPush:
    """Sync point relays a DC update push into the group."""

    txns: Tuple[Transaction, ...]
    stable_vector: Dict[str, int]
    prev_vector: Dict[str, int]

    def wire_size(self) -> int:
        return (HEADER_BYTES + vector_wire_size(self.stable_vector)
                + vector_wire_size(self.prev_vector)
                + sum(map(txn_record_size, self.txns)))


@dataclass(frozen=True, slots=True)
class GroupCommitAck:
    """Sync point relays a DC commit acknowledgement into the group."""

    dot: Dot
    entries: Dict[str, int]

    def wire_size(self) -> int:
        return (HEADER_BYTES + DOT_RECORD_BYTES
                + vector_wire_size(self.entries))


@dataclass(frozen=True, slots=True)
class TxnPull:
    """Request missing transactions by dot (section 5.1.2 pull)."""

    requester: str
    dots: Tuple[Dot, ...]

    def wire_size(self) -> int:
        return (HEADER_BYTES + len(self.requester)
                + DOT_RECORD_BYTES * len(self.dots))


@dataclass(frozen=True, slots=True)
class TxnPushMsg:
    txns: Tuple[Transaction, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(map(txn_record_size, self.txns))
