"""Boolean flag CRDTs.

``EWFlag`` (enable-wins) keeps the flag true if any concurrent operation
enabled it; ``DWFlag`` (disable-wins) is the dual.  Both follow the
observed-tags pattern of the OR-set: an operation cancels exactly the
opposing tags it observed, so concurrent opposing operations leave the
winning side's tag alive.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from .base import VALUE, OpBasedCRDT, Operation, Tag, register_crdt


class _TagFlag(OpBasedCRDT):
    """Shared machinery: live enable tags vs live disable tags."""

    PAYLOADS = {"enable": (("observed", (VALUE, list)),),
                "disable": (("observed", (VALUE, list)),)}

    #: Which side wins a concurrent enable/disable race.
    WINNER = "enable"

    def __init__(self, enables: Optional[Set[Tag]] = None,
                 disables: Optional[Set[Tag]] = None):
        self._enables: Set[Tag] = set(enables or ())
        self._disables: Set[Tag] = set(disables or ())

    def _prepare_enable(self) -> Dict[str, Any]:
        return {"observed": [list(t) for t in self._disables]}

    def _prepare_disable(self) -> Dict[str, Any]:
        return {"observed": [list(t) for t in self._enables]}

    def _effect_enable(self, op: Operation) -> None:
        for raw in op.payload["observed"]:
            self._disables.discard(tuple(raw))
        self._enables.add(op.tag)

    def _effect_disable(self, op: Operation) -> None:
        for raw in op.payload["observed"]:
            self._enables.discard(tuple(raw))
        self._disables.add(op.tag)

    def value(self) -> bool:
        if self.WINNER == "enable":
            return bool(self._enables)
        return bool(self._enables) and not self._disables

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME,
                "enables": [list(t) for t in self._enables],
                "disables": [list(t) for t in self._disables]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        return cls({tuple(t) for t in data["enables"]},
                   {tuple(t) for t in data["disables"]})


@register_crdt
class EWFlag(_TagFlag):
    """Enable-wins flag: true if any live (unobserved) enable exists."""

    TYPE_NAME = "ewflag"
    WINNER = "enable"

    def clone(self) -> "EWFlag":
        return EWFlag(self._enables, self._disables)


@register_crdt
class DWFlag(_TagFlag):
    """Disable-wins flag: a concurrent disable beats an enable."""

    TYPE_NAME = "dwflag"
    WINNER = "disable"

    def clone(self) -> "DWFlag":
        return DWFlag(self._enables, self._disables)
