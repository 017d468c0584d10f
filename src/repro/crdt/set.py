"""Set CRDTs.

``GSet`` is the grow-only set.  ``ORSet`` is the observed-remove (add-wins)
set: each add creates a uniquely tagged instance of the element and a remove
deletes exactly the instances it observed, so a concurrent add survives a
concurrent remove.  ``RWSet`` is the remove-wins variant: when an add and a
remove of the same element are concurrent, the remove wins.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any, Dict, List, Optional, Set

from .base import VALUE, OpBasedCRDT, Operation, Tag, register_crdt


def _hashable(value: Any) -> Any:
    """CRDT set elements must be hashable plain data."""
    if not isinstance(value, Hashable):
        raise TypeError(f"unhashable type: {type(value).__name__!r}")
    return value


@register_crdt
class GSet(OpBasedCRDT):
    """Grow-only set; removal is not supported."""

    TYPE_NAME = "gset"
    PAYLOADS = {"add": (("value", VALUE),),
                "add_all": (("values", (VALUE, list)),)}

    def __init__(self, items: Optional[Set[Any]] = None):
        self._items: Set[Any] = set(items or ())

    def _prepare_add(self, value: Any) -> Dict[str, Any]:
        return {"value": _hashable(value)}

    def _prepare_add_all(self, values) -> Dict[str, Any]:
        return {"values": [_hashable(v) for v in values]}

    def _effect_add(self, op: Operation) -> None:
        self._items.add(op.payload["value"])

    def _effect_add_all(self, op: Operation) -> None:
        self._items.update(op.payload["values"])

    def contains(self, value: Any) -> bool:
        return value in self._items

    def value(self) -> Set[Any]:
        return set(self._items)

    def clone(self) -> "GSet":
        return GSet(self._items)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "items": sorted(self._items,
                                                        key=repr)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GSet":
        return cls(set(data["items"]))


@register_crdt
class ORSet(OpBasedCRDT):
    """Observed-remove set (add-wins semantics)."""

    TYPE_NAME = "orset"
    PAYLOADS = {"add": (("value", VALUE),),
                "add_all": (("values", (VALUE, list)),),
                "remove": (("value", VALUE), ("observed", (VALUE, list))),
                "clear": (("observed", (VALUE, list)),)}

    def __init__(self, instances: Optional[Dict[Any, Set[Tag]]] = None):
        # element -> set of live instance tags.
        self._instances: Dict[Any, Set[Tag]] = {
            k: set(v) for k, v in (instances or {}).items()}

    # -- prepare -----------------------------------------------------------
    def _prepare_add(self, value: Any) -> Dict[str, Any]:
        return {"value": _hashable(value)}

    def _prepare_add_all(self, values) -> Dict[str, Any]:
        return {"values": [_hashable(v) for v in values]}

    def _prepare_remove(self, value: Any) -> Dict[str, Any]:
        observed = self._instances.get(value, set())
        return {"value": value, "observed": [list(t) for t in observed]}

    def _prepare_clear(self) -> Dict[str, Any]:
        observed = [[v, [list(t) for t in tags]]
                    for v, tags in self._instances.items()]
        return {"observed": observed}

    # -- effect ------------------------------------------------------------
    def _effect_add(self, op: Operation) -> None:
        self._instances.setdefault(op.payload["value"], set()).add(op.tag)

    def _effect_add_all(self, op: Operation) -> None:
        # Each element of a bulk add gets a distinct sub-tag so that later
        # removes can name individual instances.
        for index, value in enumerate(op.payload["values"]):
            sub_tag = op.tag + (index,)
            self._instances.setdefault(value, set()).add(sub_tag)

    def _effect_remove(self, op: Operation) -> None:
        value = op.payload["value"]
        live = self._instances.get(value)
        if live is None:
            return
        for raw in op.payload["observed"]:
            live.discard(tuple(raw))
        if not live:
            del self._instances[value]

    def _effect_clear(self, op: Operation) -> None:
        for value, raw_tags in op.payload["observed"]:
            live = self._instances.get(value)
            if live is None:
                continue
            for raw in raw_tags:
                live.discard(tuple(raw))
            if not live:
                del self._instances[value]

    # -- state -------------------------------------------------------------
    def contains(self, value: Any) -> bool:
        return value in self._instances

    def value(self) -> Set[Any]:
        return set(self._instances)

    def clone(self) -> "ORSet":
        return ORSet(self._instances)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME,
                "instances": [[v, [list(t) for t in tags]]
                              for v, tags in self._instances.items()]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ORSet":
        return cls({v: {tuple(t) for t in tags}
                    for v, tags in data["instances"]})


@register_crdt
class RWSet(OpBasedCRDT):
    """Remove-wins set.

    Both adds and removes deposit tagged tombstones per element; an element
    is present iff some add-tag is not dominated and no concurrent
    remove-tag survives.  Concretely we keep, per element, the live add tags
    and the live remove tags; membership requires the remove-tag set to be
    empty.  A new add clears the remove tags it observed (and vice versa),
    so a remove concurrent with an add keeps its tag and wins.
    """

    TYPE_NAME = "rwset"
    PAYLOADS = {"add": (("value", VALUE),
                        ("observed_removes", (VALUE, list))),
                "remove": (("value", VALUE),
                           ("observed_adds", (VALUE, list)))}

    def __init__(self,
                 adds: Optional[Dict[Any, Set[Tag]]] = None,
                 removes: Optional[Dict[Any, Set[Tag]]] = None):
        self._adds: Dict[Any, Set[Tag]] = {
            k: set(v) for k, v in (adds or {}).items()}
        self._removes: Dict[Any, Set[Tag]] = {
            k: set(v) for k, v in (removes or {}).items()}

    def _prepare_add(self, value: Any) -> Dict[str, Any]:
        observed = self._removes.get(_hashable(value), set())
        return {"value": value, "observed_removes": [list(t)
                                                     for t in observed]}

    def _prepare_remove(self, value: Any) -> Dict[str, Any]:
        observed = self._adds.get(_hashable(value), set())
        return {"value": value, "observed_adds": [list(t)
                                                  for t in observed]}

    def _effect_add(self, op: Operation) -> None:
        value = op.payload["value"]
        removes = self._removes.get(value)
        if removes is not None:
            for raw in op.payload["observed_removes"]:
                removes.discard(tuple(raw))
            if not removes:
                del self._removes[value]
        self._adds.setdefault(value, set()).add(op.tag)

    def _effect_remove(self, op: Operation) -> None:
        value = op.payload["value"]
        adds = self._adds.get(value)
        if adds is not None:
            for raw in op.payload["observed_adds"]:
                adds.discard(tuple(raw))
            if not adds:
                del self._adds[value]
        self._removes.setdefault(value, set()).add(op.tag)

    def contains(self, value: Any) -> bool:
        return value in self._adds and value not in self._removes

    def value(self) -> Set[Any]:
        return {v for v in self._adds if v not in self._removes}

    def clone(self) -> "RWSet":
        return RWSet(self._adds, self._removes)

    def to_dict(self) -> Dict[str, Any]:
        def ser(mapping: Dict[Any, Set[Tag]]) -> List[Any]:
            return [[v, [list(t) for t in tags]]
                    for v, tags in mapping.items()]
        return {"type": self.TYPE_NAME, "adds": ser(self._adds),
                "removes": ser(self._removes)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RWSet":
        def de(entries) -> Dict[Any, Set[Tag]]:
            return {v: {tuple(t) for t in tags} for v, tags in entries}
        return cls(de(data["adds"]), de(data["removes"]))
