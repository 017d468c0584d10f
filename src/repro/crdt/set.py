"""Set CRDTs.

``GSet`` is the grow-only set.  ``ORSet`` is the observed-remove (add-wins)
set: each add creates a uniquely tagged instance of the element and a remove
deletes exactly the instances it observed, so a concurrent add survives a
concurrent remove.  ``RWSet`` is the remove-wins variant: when an add and a
remove of the same element are concurrent, the remove wins.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .base import VALUE, OpBasedCRDT, Operation, Tag, register_crdt

#: An element's live tags: sorted, and replaced rather than changed.
Tags = Tuple[Tag, ...]


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


def _with_tag(tags: Optional[Tags], tag: Tag) -> Tags:
    """``tags`` plus ``tag``, still sorted."""
    if not tags:
        return (tag,)
    if tag in tags:
        return tags
    return tuple(sorted((*tags, tag)))


def _drop(live: Dict[Any, Tags], value: Any, raw_tags: Iterable) -> None:
    """Take the observed ``raw_tags`` (lists, as a payload carries them)
    off ``value``'s live tags; an element left with none goes."""
    tags = live.get(value)
    if tags is None:
        return
    observed = {tuple(raw) for raw in raw_tags}
    kept = tuple(t for t in tags if t not in observed)
    if kept:
        live[value] = kept
    else:
        del live[value]


def _tag_map(mapping: Optional[Dict[Any, Iterable]]) -> Dict[Any, Tags]:
    """Each element's tags (tuples, or lists off the wire) as one sorted
    tuple."""
    return {k: tuple(sorted({tuple(t) for t in tags}))
            for k, tags in (mapping or {}).items()}


def _ser(mapping: Dict[Any, Tags]) -> List[Any]:
    return [[v, [list(t) for t in tags]] for v, tags in mapping.items()]


@register_crdt
class ORSet(OpBasedCRDT):
    """Observed-remove set (add-wins semantics).

    Each element maps to its live instance tags as a sorted tuple: an
    element added once costs no container of its own, a tuple is never
    changed in place (an effect replaces it), so :meth:`clone` copies
    one dict and shares every tuple.
    """

    TYPE_NAME = "orset"
    PAYLOADS = {"add": (("value", VALUE),),
                "add_all": (("values", (VALUE, list)),),
                "remove": (("value", VALUE), ("observed", (VALUE, list))),
                "clear": (("observed", (VALUE, list)),)}

    def __init__(self, instances: Optional[Dict[Any, Iterable]] = None):
        self._instances: Dict[Any, Tags] = _tag_map(instances)

    # -- prepare -----------------------------------------------------------
    def _prepare_add(self, value: Any) -> Dict[str, Any]:
        return {"value": _hashable(value)}

    def _prepare_add_all(self, values) -> Dict[str, Any]:
        return {"values": [_hashable(v) for v in values]}

    def _prepare_remove(self, value: Any) -> Dict[str, Any]:
        observed = self._instances.get(value, ())
        return {"value": value, "observed": [list(t) for t in observed]}

    def _prepare_clear(self) -> Dict[str, Any]:
        return {"observed": _ser(self._instances)}

    # -- effect ------------------------------------------------------------
    def _effect_add(self, op: Operation) -> None:
        value = op.payload["value"]
        self._instances[value] = _with_tag(self._instances.get(value),
                                           op.tag)

    def _effect_add_all(self, op: Operation) -> None:
        # Each element of a bulk add gets a distinct sub-tag so that later
        # removes can name individual instances.
        instances = self._instances
        for index, value in enumerate(op.payload["values"]):
            instances[value] = _with_tag(instances.get(value),
                                         op.tag + (index,))

    def _effect_remove(self, op: Operation) -> None:
        _drop(self._instances, op.payload["value"], op.payload["observed"])

    def _effect_clear(self, op: Operation) -> None:
        for value, raw_tags in op.payload["observed"]:
            _drop(self._instances, value, raw_tags)

    # -- state -------------------------------------------------------------
    def contains(self, value: Any) -> bool:
        return value in self._instances

    def value(self) -> Set[Any]:
        return set(self._instances)

    def clone(self) -> "ORSet":
        copy = ORSet.__new__(ORSet)
        copy._instances = dict(self._instances)
        return copy

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "instances": _ser(self._instances)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ORSet":
        return cls(dict(data["instances"]))


@register_crdt
class RWSet(OpBasedCRDT):
    """Remove-wins set.

    Both adds and removes deposit tagged tombstones per element; an element
    is present iff some add-tag is not dominated and no concurrent
    remove-tag survives.  Concretely we keep, per element, the live add tags
    and the live remove tags, each a sorted tuple as in :class:`ORSet`;
    membership requires no live remove tag.  A new add drops the remove
    tags it observed (and vice versa), so a remove concurrent with an add
    keeps its tag and wins.
    """

    TYPE_NAME = "rwset"
    PAYLOADS = {"add": (("value", VALUE),
                        ("observed_removes", (VALUE, list))),
                "remove": (("value", VALUE),
                           ("observed_adds", (VALUE, list)))}

    def __init__(self,
                 adds: Optional[Dict[Any, Iterable]] = None,
                 removes: Optional[Dict[Any, Iterable]] = None):
        self._adds: Dict[Any, Tags] = _tag_map(adds)
        self._removes: Dict[Any, Tags] = _tag_map(removes)

    def _prepare_add(self, value: Any) -> Dict[str, Any]:
        observed = self._removes.get(_hashable(value), ())
        return {"value": value, "observed_removes": [list(t)
                                                     for t in observed]}

    def _prepare_remove(self, value: Any) -> Dict[str, Any]:
        observed = self._adds.get(_hashable(value), ())
        return {"value": value, "observed_adds": [list(t)
                                                  for t in observed]}

    def _effect_add(self, op: Operation) -> None:
        value = op.payload["value"]
        _drop(self._removes, value, op.payload["observed_removes"])
        self._adds[value] = _with_tag(self._adds.get(value), op.tag)

    def _effect_remove(self, op: Operation) -> None:
        value = op.payload["value"]
        _drop(self._adds, value, op.payload["observed_adds"])
        self._removes[value] = _with_tag(self._removes.get(value), op.tag)

    def contains(self, value: Any) -> bool:
        return value in self._adds and value not in self._removes

    def value(self) -> Set[Any]:
        return {v for v in self._adds if v not in self._removes}

    def clone(self) -> "RWSet":
        copy = RWSet.__new__(RWSet)
        copy._adds = dict(self._adds)
        copy._removes = dict(self._removes)
        return copy

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "adds": _ser(self._adds),
                "removes": _ser(self._removes)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RWSet":
        return cls(dict(data["adds"]), dict(data["removes"]))
