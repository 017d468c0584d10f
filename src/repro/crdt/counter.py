"""Counter CRDTs.

``Counter`` is the grow-only/shrink-by-negative op-based counter used in the
paper's running example (Figure 2): concurrent increments commute trivially.
``PNCounter`` keeps separate positive and negative totals so its value
decomposes, which some applications (quota tracking) want for introspection.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import INT, VALUE, CRDTError, OpBasedCRDT, Operation, register_crdt


@register_crdt
class Counter(OpBasedCRDT):
    """Op-based integer counter; increments/decrements commute."""

    TYPE_NAME = "counter"
    PAYLOADS = {"increment": (("amount", INT),),
                "decrement": (("amount", INT),)}

    def __init__(self, value: int = 0):
        self._value = int(value)

    # -- prepare -----------------------------------------------------------
    def _prepare_increment(self, amount: int = 1) -> Dict[str, Any]:
        if type(amount) is not int:
            raise CRDTError("counter increment must be an int")
        return {"amount": amount}

    def _prepare_decrement(self, amount: int = 1) -> Dict[str, Any]:
        if type(amount) is not int:
            raise CRDTError("counter decrement must be an int")
        return {"amount": amount}

    # -- effect ------------------------------------------------------------
    def _effect_increment(self, op: Operation) -> None:
        self._value += op.payload["amount"]

    def _effect_decrement(self, op: Operation) -> None:
        self._value -= op.payload["amount"]

    # -- state -------------------------------------------------------------
    def value(self) -> int:
        return self._value

    def clone(self) -> "Counter":
        return Counter(self._value)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "value": self._value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counter":
        return cls(data["value"])


@register_crdt
class PNCounter(OpBasedCRDT):
    """Positive-negative counter exposing both totals."""

    TYPE_NAME = "pncounter"
    # ``prepare`` only compares the amount with 0: any number passes.
    PAYLOADS = {"increment": (("amount", VALUE),),
                "decrement": (("amount", VALUE),)}

    def __init__(self, positive: int = 0, negative: int = 0):
        self._positive = int(positive)
        self._negative = int(negative)

    def _prepare_increment(self, amount: int = 1) -> Dict[str, Any]:
        if amount < 0:
            raise CRDTError("use decrement for negative amounts")
        return {"amount": amount}

    def _prepare_decrement(self, amount: int = 1) -> Dict[str, Any]:
        if amount < 0:
            raise CRDTError("decrement amount must be non-negative")
        return {"amount": amount}

    def _effect_increment(self, op: Operation) -> None:
        self._positive += op.payload["amount"]

    def _effect_decrement(self, op: Operation) -> None:
        self._negative += op.payload["amount"]

    def value(self) -> int:
        return self._positive - self._negative

    @property
    def positive(self) -> int:
        return self._positive

    @property
    def negative(self) -> int:
        return self._negative

    def clone(self) -> "PNCounter":
        return PNCounter(self._positive, self._negative)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME, "p": self._positive,
                "n": self._negative}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PNCounter":
        return cls(data["p"], data["n"])
