"""Transport abstraction: the seam between protocol code and I/O.

Every protocol actor (edge, PoP, group member, DC, shard server) is
written against the :class:`Transport` interface — a bundle of a timer
facet (``now``/``schedule``/``schedule_fast``) and a network facet
(``attach``/``send``/``clocks``/``obs``/``stats``).  Two backends
implement it:

* :class:`SimTransport` — the discrete-event simulator
  (``repro.sim``): virtual time, modelled latency, deterministic.
  This remains the test substrate.
* :class:`AsyncioTransport` — real asyncio TCP sockets between OS
  processes with monotonic-clock timers: the production path driven by
  ``python -m repro.serve``.

The wire codec (:mod:`repro.transport.codec`) writes every message by
the schema its class registers, and sizes it by the same schema:
``wire_size(message)`` is the encoded length, and both backends charge
it on every send.
"""

from .base import NetworkFacet, SimTransport, TimerFacet, Transport
from .codec import (decode_frame, decode_message, encode_frame,
                    encode_message, message_classes, wire_size)

__all__ = [
    "NetworkFacet", "SimTransport", "TimerFacet", "Transport",
    "decode_frame", "decode_message", "encode_frame", "encode_message",
    "message_classes", "wire_size",
]
