"""Per-instance EPaxos state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Hashable, Optional, Set

from .messages import Ballot, InstanceId

# Instance status values, in increasing order of knowledge.
NONE = "none"
PREACCEPTED = "preaccepted"
ACCEPTED = "accepted"
COMMITTED = "committed"
EXECUTED = "executed"

_ORDER = {NONE: 0, PREACCEPTED: 1, ACCEPTED: 2, COMMITTED: 3, EXECUTED: 4}


def status_at_least(status: str, floor: str) -> bool:
    return _ORDER[status] >= _ORDER[floor]


@dataclass(slots=True)
class Instance:
    """Everything a replica knows about one consensus instance.

    Every replica keeps one per instance for the group's lifetime, so
    it is slotted, and the round state — the repliers, the merged
    attributes, ``prepare_replies`` — exists only at the replica that
    leads or recovers the current round, until the instance commits.
    """

    instance_id: InstanceId
    ballot: Ballot
    command: Any = None
    seq: int = 0
    deps: FrozenSet[InstanceId] = frozenset()
    status: str = NONE
    #: The ballot at which the current attributes were taken.
    accepted_ballot: Optional[Ballot] = None
    #: The conflict keys of ``command`` (none for a no-op).
    keys: FrozenSet[Hashable] = frozenset()

    # Round state.  Replies count once per replier: a re-sent round's
    # replies and the first round's late ones come from the same
    # replicas.  ``None`` where this replica runs no such round.
    preaccept_repliers: Optional[Set[str]] = None
    preaccept_unanimous: bool = True
    accept_repliers: Optional[Set[str]] = None
    merged_seq: int = 0
    merged_deps: FrozenSet[InstanceId] = frozenset()
    prepare_replies: Optional[list] = None

    def restart_preaccept(self) -> None:
        """Count PreAccept replies afresh, against the current attributes."""
        self.preaccept_repliers = set()
        self.preaccept_unanimous = True
        self.merged_seq, self.merged_deps = self.seq, self.deps

    def end_round(self) -> None:
        """Drop the round state: the instance is decided."""
        self.preaccept_repliers = self.accept_repliers = None
        self.prepare_replies = None
        self.merged_seq, self.merged_deps = 0, frozenset()

    def promote(self, status: str) -> None:
        if _ORDER[status] < _ORDER[self.status]:
            raise ValueError(
                f"instance {self.instance_id} cannot regress"
                f" {self.status} -> {status}")
        self.status = status

    @property
    def is_committed(self) -> bool:
        return status_at_least(self.status, COMMITTED)

    @property
    def is_executed(self) -> bool:
        return self.status == EXECUTED
