"""Deterministic discrete-event simulation substrate.

Replaces the paper's physical testbed (cluster + Docker + ``tc``): the same
protocol code runs over a virtual clock and a latency-modelled network, with
partitions and message loss injectable at any instant.  Runs are exactly
reproducible from the seed.
"""

from .actor import Actor
from .clock import (ClockService, HlcTimestamp, HybridLogicalClock,
                    SkewedClock, hlc_wire_size)
from .events import EventLoop
from .network import (CELLULAR, CELLULAR_LATENCY_MS, ETHERNET,
                      ETHERNET_LATENCY_MS, LAN, LAN_LATENCY_MS,
                      LatencyModel, Network, NetworkStats)
from .runtime import Simulation

__all__ = [
    "Actor", "EventLoop",
    "LatencyModel", "Network", "NetworkStats",
    "LAN", "ETHERNET", "CELLULAR",
    "LAN_LATENCY_MS", "ETHERNET_LATENCY_MS", "CELLULAR_LATENCY_MS",
    "Simulation",
    "ClockService", "SkewedClock", "HybridLogicalClock",
    "HlcTimestamp", "hlc_wire_size",
]
