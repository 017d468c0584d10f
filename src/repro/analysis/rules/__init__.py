"""Rule registry for colony-lint.

New rules register by being appended to :data:`ALL_RULES`; the CLI and
tests iterate this list and never name rules individually.
"""

from __future__ import annotations

from typing import List

from ..core import Rule
from .aliasing import AliasingRule
from .determinism import DeterminismRule
from .handlers import HandlerCoverageRule
from .hygiene import MessageHygieneRule
from .vectors import VectorDisciplineRule

ALL_RULES: List[Rule] = [
    DeterminismRule(),
    MessageHygieneRule(),
    HandlerCoverageRule(),
    VectorDisciplineRule(),
    AliasingRule(),
]

__all__ = ["ALL_RULES", "AliasingRule", "DeterminismRule",
           "HandlerCoverageRule", "MessageHygieneRule",
           "VectorDisciplineRule"]
