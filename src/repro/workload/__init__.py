"""Workload generation: the synthetic Mattermost trace's ops and the
closed-loop driver the figures run them with."""

from .driver import ClosedLoopDriver
from .trace import MattermostTrace, TraceConfig

__all__ = ["MattermostTrace", "TraceConfig", "ClosedLoopDriver"]
