"""Per-instance EPaxos state."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Instance:
    """Everything a replica knows about one consensus instance."""

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

    # Leader-side bookkeeping for the ongoing round.  Replies count once
    # per replier: a re-sent round's replies and the first round's late
    # ones come from the same replicas.
    preaccept_repliers: Set[str] = field(default_factory=set)
    preaccept_unanimous: bool = True
    accept_repliers: Set[str] = field(default_factory=set)
    merged_seq: int = 0
    merged_deps: FrozenSet[InstanceId] = frozenset()
    prepare_replies: Optional[list] = None

    def restart_preaccept(self) -> None:
        """Count PreAccept replies afresh, against the current attributes."""
        self.preaccept_repliers = set()
        self.preaccept_unanimous = True
        self.merged_seq, self.merged_deps = self.seq, self.deps

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
