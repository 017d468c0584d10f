"""Replicated Growable Array (RGA) — the sequence CRDT.

Used for ordered collections such as chat-channel message lists or
collaborative text.  Each inserted element gets the operation tag as its
unique identifier and remembers the element to its left at insertion time.
Concurrent inserts after the same left-neighbour are ordered by descending
tag, which makes materialisation deterministic (strong convergence).
Deletion leaves a tombstone so that concurrent inserts can still anchor to
the deleted element.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .base import VALUE, CRDTError, OpBasedCRDT, Operation, Tag, register_crdt

# The virtual anchor for inserts at the head of the sequence.
_ROOT: Tag = ()


class _Node:
    __slots__ = ("tag", "value", "deleted")

    def __init__(self, tag: Tag, value: Any, deleted: bool = False):
        self.tag = tag
        self.value = value
        self.deleted = deleted


@register_crdt
class RGASequence(OpBasedCRDT):
    """Sequence CRDT with insert-at-index, append and delete-at-index."""

    TYPE_NAME = "rga"
    PAYLOADS = {"insert": (("anchor", (VALUE, list)), ("value", VALUE)),
                "append": (("anchor", (VALUE, list)), ("value", VALUE)),
                "delete": (("target", (VALUE, list)),)}

    def __init__(self) -> None:
        self._nodes: Dict[Tag, _Node] = {}
        # children[anchor] = node tags inserted after anchor, descending.
        self._children: Dict[Tag, List[Tag]] = {_ROOT: []}

    # -- traversal -----------------------------------------------------------
    def _walk(self) -> List[_Node]:
        """All nodes (including tombstones) in document order."""
        # DFS: visit a node, then its descendants (nodes anchored on it) in
        # descending-tag order before its following siblings.  The stack
        # holds tags still to visit in reverse visit order.
        ordered: List[_Node] = []
        stack: List[Tag] = list(reversed(self._children.get(_ROOT, [])))
        while stack:
            tag = stack.pop()
            node = self._nodes[tag]
            ordered.append(node)
            kids = self._children.get(tag)
            if kids:
                for kid in reversed(kids):
                    stack.append(kid)
        return ordered

    def _visible(self) -> List[_Node]:
        return [n for n in self._walk() if not n.deleted]

    def _anchor_for_index(self, index: int) -> Tag:
        """Tag of the visible element left of ``index`` (or the root)."""
        visible = self._visible()
        if index < 0 or index > len(visible):
            raise CRDTError(f"insert index {index} out of range"
                            f" (len={len(visible)})")
        if index == 0:
            return _ROOT
        return visible[index - 1].tag

    # -- prepare ---------------------------------------------------------------
    def _prepare_insert(self, index: int, value: Any) -> Dict[str, Any]:
        anchor = self._anchor_for_index(index)
        return {"anchor": list(anchor), "value": value}

    def _prepare_append(self, value: Any) -> Dict[str, Any]:
        return self._prepare_insert(len(self._visible()), value)

    def _prepare_delete(self, index: int) -> Dict[str, Any]:
        visible = self._visible()
        if index < 0 or index >= len(visible):
            raise CRDTError(f"delete index {index} out of range"
                            f" (len={len(visible)})")
        return {"target": list(visible[index].tag)}

    # -- effect ------------------------------------------------------------------
    def _effect_insert(self, op: Operation) -> None:
        anchor = tuple(op.payload["anchor"])
        if anchor != _ROOT and anchor not in self._nodes:
            raise CRDTError("RGA insert anchor unknown; causal delivery"
                            " violated")
        node = _Node(op.tag, op.payload["value"])
        self._nodes[op.tag] = node
        siblings = self._children.setdefault(anchor, [])
        # Keep siblings in descending tag order; later (greater-tag)
        # concurrent inserts come first so replicas agree.
        lo, hi = 0, len(siblings)
        while lo < hi:
            mid = (lo + hi) // 2
            if siblings[mid] > op.tag:
                lo = mid + 1
            else:
                hi = mid
        siblings.insert(lo, op.tag)
        self._children.setdefault(op.tag, [])

    def _effect_append(self, op: Operation) -> None:
        self._effect_insert(op)

    def _effect_delete(self, op: Operation) -> None:
        target = tuple(op.payload["target"])
        node = self._nodes.get(target)
        if node is None:
            raise CRDTError("RGA delete target unknown; causal delivery"
                            " violated")
        node.deleted = True

    # -- state ---------------------------------------------------------------------
    def value(self) -> List[Any]:
        return [n.value for n in self._visible()]

    def __len__(self) -> int:
        return len(self._visible())

    def tombstone_count(self) -> int:
        return sum(1 for n in self._walk() if n.deleted)

    def clone(self) -> "RGASequence":
        other = RGASequence()
        other._nodes = {t: _Node(n.tag, n.value, n.deleted)
                        for t, n in self._nodes.items()}
        other._children = {k: list(v) for k, v in self._children.items()}
        return other

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.TYPE_NAME,
            "nodes": [[list(n.tag), n.value, n.deleted]
                      for n in self._walk()],
            "children": [[list(anchor), [list(t) for t in kids]]
                         for anchor, kids in self._children.items()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RGASequence":
        seq = cls()
        for raw_tag, value, deleted in data["nodes"]:
            tag = tuple(raw_tag)
            seq._nodes[tag] = _Node(tag, value, deleted)
        seq._children = {tuple(anchor): [tuple(t) for t in kids]
                         for anchor, kids in data["children"]}
        seq._children.setdefault(_ROOT, [])
        return seq
