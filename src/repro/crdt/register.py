"""Register CRDTs.

``LWWRegister`` resolves concurrent assignments by tag order (in Colony the
tag embeds the transaction dot, which the paper uses as the arbitration
order, section 3.5).  ``MVRegister`` keeps every concurrent assignment and
lets the application resolve; causally dominated assignments are superseded
because ``prepare`` records the tags it observed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .base import VALUE, OpBasedCRDT, Operation, Tag, register_crdt


@register_crdt
class LWWRegister(OpBasedCRDT):
    """Last-writer-wins register; the writer with the greatest tag wins."""

    TYPE_NAME = "lwwregister"
    PAYLOADS = {"assign": (("value", VALUE),)}

    def __init__(self, value: Any = None, tag: Optional[Tag] = None):
        self._value = value
        self._tag = tag

    def _prepare_assign(self, value: Any) -> Dict[str, Any]:
        return {"value": value}

    def _effect_assign(self, op: Operation) -> None:
        if self._tag is None or op.tag > self._tag:
            self._value = op.payload["value"]
            self._tag = op.tag

    def value(self) -> Any:
        return self._value

    @property
    def winning_tag(self) -> Optional[Tag]:
        return self._tag

    def clone(self) -> "LWWRegister":
        return LWWRegister(self._value, self._tag)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "value": self._value,
                "tag": list(self._tag) if self._tag is not None else None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LWWRegister":
        tag = tuple(data["tag"]) if data.get("tag") is not None else None
        return cls(data["value"], tag)


@register_crdt
class MVRegister(OpBasedCRDT):
    """Multi-value register: concurrent assignments all survive.

    ``value()`` returns the list of concurrent values sorted by tag so that
    every replica reports them in the same order (strong convergence).
    """

    TYPE_NAME = "mvregister"
    PAYLOADS = {"assign": (("value", VALUE), ("observed", (VALUE, list)))}

    def __init__(self, entries: Optional[Dict[Tag, Any]] = None):
        # Maps assignment tag -> value.
        self._entries: Dict[Tag, Any] = dict(entries or {})

    def _prepare_assign(self, value: Any) -> Dict[str, Any]:
        # Record the assignments this one causally supersedes.
        return {"value": value,
                "observed": [list(t) for t in self._entries]}

    def _effect_assign(self, op: Operation) -> None:
        for raw in op.payload["observed"]:
            self._entries.pop(tuple(raw), None)
        self._entries[op.tag] = op.payload["value"]

    def value(self) -> List[Any]:
        return [v for _, v in sorted(self._entries.items(),
                                     key=lambda kv: kv[0])]

    def entries(self) -> List[Tuple[Tag, Any]]:
        """Concurrent (tag, value) pairs in tag order."""
        return sorted(self._entries.items(), key=lambda kv: kv[0])

    def clone(self) -> "MVRegister":
        return MVRegister(self._entries)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME,
                "entries": [[list(t), v] for t, v in self._entries.items()]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MVRegister":
        return cls({tuple(t): v for t, v in data["entries"]})
