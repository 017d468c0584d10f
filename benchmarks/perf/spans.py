"""SpanTransport: per-layer tracing from outside the program.

The benchmark builds a traced world over :class:`SpanTransport`, a
:class:`~repro.transport.base.Transport` that delegates to the real
``SimTransport``/``AsyncioTransport`` underneath and records one span

* ``recv:<ActorClass>:<MessageClass>`` around every message handler
  (wrapped in ``attach()``),
* ``send`` around every ``send()`` call, and
* ``timer:<callback qualname>`` around every timer callback (wrapped in
  ``schedule*()``),

plus the ``call:<what>`` spans the benchmark opens itself around its
own calls into a layer (``SpanRecorder.call``).  Nothing under ``src/``
knows it is being watched, and the wrappers make exactly the calls the
actors would have made, in the same order: the tracer is a pure
observer (same digests, same DES event count — the smoke test checks).

A span's *layer* is the package of the actor that owns the transport
view (one view per layer, handed out by the world builder), except
that a consensus envelope (a message with a ``payload`` defined under
``repro.epaxos``) is booked to ``epaxos``.  A ``send`` span is booked
to the layer that carries messages: ``sim`` in the DES, ``transport``
over TCP — where it is split into ``send:tcp`` (encoded and queued to a
peer site) and ``send:local`` (handed to an actor of the same site).

Self time is duration minus the time covered by child spans.  Spans
nest only synchronously (handler -> send), so one stack suffices.
Aggregates are kept per span name; the raw ``(name, start, end,
parent)`` tuples are kept too, up to ``raw_cap``, and can be written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.transport.base import Transport

#: ``[count, total_s, self_s, layer, name, longest_s]`` — one per span name.
Acc = List[Any]


class SpanRecorder:
    """In-memory span aggregates (and, optionally, the raw spans)."""

    def __init__(self, raw_cap: int = 0):
        self.accs: Dict[Tuple[str, str], Acc] = {}
        #: One ``[child_seconds, span_id]`` frame per open span.
        self.stack: List[List[Any]] = []
        #: Seconds covered by top-level spans; wall minus this is the
        #: time spent between spans (event loop, sockets, idle).
        self.top_s = 0.0
        self.spans = 0
        self.raw_cap = raw_cap
        #: ``(id, name, start, end, parent id)``; 0 is "no parent".
        self.raw: List[Tuple[int, str, float, float, int]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not the window)."""
        for acc in self.accs.values():
            acc[0], acc[1], acc[2], acc[5] = 0, 0.0, 0.0, 0.0
        self.top_s = 0.0
        self.spans = 0
        self.raw.clear()

    def acc(self, layer: str, name: str) -> Acc:
        acc = self.accs.get((layer, name))
        if acc is None:
            acc = self.accs[layer, name] = [0, 0.0, 0.0, layer, name, 0.0]
        return acc

    def call(self, acc: Acc, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside one span of ``acc``."""
        stack = self.stack
        self.spans = ident = self.spans + 1
        frame = [0.0, ident]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            duration = perf_counter() - start
            stack.pop()
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - frame[0]
            if duration > acc[5]:
                acc[5] = duration
            if stack:
                stack[-1][0] += duration
            else:
                self.top_s += duration
            if len(self.raw) < self.raw_cap:
                self.raw.append((ident, acc[4], start, start + duration,
                                 parent))

    # -- reading the aggregates ---------------------------------------
    def layer_self_s(self, layer: str, prefix: str = "") -> float:
        return sum(acc[2] for acc in self.accs.values()
                   if acc[3] == layer and acc[4].startswith(prefix))

    def layer_calls(self, layer: str, prefix: str = "") -> int:
        return sum(acc[0] for acc in self.accs.values()
                   if acc[3] == layer and acc[4].startswith(prefix))

    def layers(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for acc in self.accs.values():
            totals[acc[3]] = totals.get(acc[3], 0.0) + acc[2]
        return totals

    def top_names(self, n: int) -> List[Acc]:
        """The ``n`` span names with the most self time."""
        return sorted(self.accs.values(), key=lambda a: -a[2])[:n]

    def write_raw(self, path: str) -> None:
        with open(path, "w") as handle:
            for ident, name, start, end, parent in self.raw:
                handle.write(json.dumps(
                    {"id": ident, "name": name, "start": start,
                     "end": end, "parent": parent}) + "\n")


def layer_of(cls: type) -> str:
    """``repro.<layer>.…`` -> ``<layer>``; the benchmark's own -> ``bench``."""
    parts = cls.__module__.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "bench"


class _SpanTimers:
    """Timer facet: every callback fires inside a ``timer:`` span."""

    def __init__(self, inner: Any, recorder: SpanRecorder, layer: str):
        self._inner = inner
        self._rec = recorder
        self._layer = layer

    @property
    def now(self) -> float:
        return self._inner.now

    def _traced(self, callback: Callable[..., None], args: Tuple) -> Tuple:
        name = getattr(callback, "__qualname__", None) \
            or type(callback).__name__
        return (self._rec.acc(self._layer, "timer:" + name), callback,
                *args)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Any:
        call, traced = self._rec.call, self._traced(callback, ())
        return self._inner.schedule(delay, lambda: call(*traced))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Any:
        call, traced = self._rec.call, self._traced(callback, ())
        return self._inner.schedule_at(time, lambda: call(*traced))

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      args: Tuple = ()) -> None:
        self._inner.schedule_fast(delay, self._rec.call,
                                  self._traced(callback, args))

    def schedule_fast_at(self, time: float, callback: Callable[..., None],
                         args: Tuple = ()) -> None:
        self._inner.schedule_fast_at(time, self._rec.call,
                                     self._traced(callback, args))


class _SpanNet:
    """Network facet: handlers and sends run inside spans."""

    def __init__(self, inner: Any, recorder: SpanRecorder, layer: str,
                 send_layer: str,
                 is_remote: Optional[Callable[[str], bool]] = None):
        self._inner = inner
        self._rec = recorder
        self._layer = layer
        self._is_remote = is_remote
        if is_remote is None:
            self._send_acc = recorder.acc(send_layer, "send")
        else:
            self._send_acc = recorder.acc(send_layer, "send:local")
            self._remote_acc = recorder.acc(send_layer, "send:tcp")
        #: actor class name -> message class -> Acc (or, for a
        #: consensus envelope, payload class -> Acc).
        self._tables: Dict[str, Dict[type, Any]] = {}

    def __getattr__(self, name: str) -> Any:
        # clocks, obs, stats and the simulator's fault-injection calls.
        return getattr(self._inner, name)

    def _classify(self, owner: str, table: Dict[type, Any],
                  message: Any) -> Acc:
        klass = type(message)
        payload = getattr(message, "payload", None)
        if payload is None or layer_of(type(payload)) != "epaxos":
            acc = table[klass] = self._rec.acc(
                self._layer, f"recv:{owner}:{klass.__name__}")
            return acc
        by_payload = table.setdefault(klass, {})
        acc = by_payload.get(type(payload))
        if acc is None:
            acc = by_payload[type(payload)] = self._rec.acc(
                "epaxos", f"recv:{owner}:{klass.__name__}/"
                          f"{type(payload).__name__}")
        return acc

    def attach(self, node_id: str,
               handler: Callable[[Any, str], None]) -> None:
        owner = type(getattr(handler, "__self__", handler)).__name__
        table = self._tables.setdefault(owner, {})
        call, classify = self._rec.call, self._classify

        def traced(message: Any, sender: str) -> None:
            acc = table.get(type(message))
            if acc.__class__ is not list:     # unseen class or envelope
                acc = classify(owner, table, message)
            call(acc, handler, message, sender)

        self._inner.attach(node_id, traced)

    def detach(self, node_id: str) -> None:
        self._inner.detach(node_id)

    def send(self, src: str, dst: str, message: Any,
             size_bytes: Optional[int] = None) -> bool:
        acc = self._send_acc
        if self._is_remote is not None and self._is_remote(dst):
            acc = self._remote_acc
        return self._rec.call(acc, self._inner.send,
                              src, dst, message, size_bytes)


class SpanTransport(Transport):
    """One layer's traced view of an underlying transport."""

    def __init__(self, inner: Transport, recorder: SpanRecorder,
                 layer: str, send_layer: str,
                 is_remote: Optional[Callable[[str], bool]] = None):
        self.inner = inner
        self._timers = _SpanTimers(inner.timers, recorder, layer)
        self._net = _SpanNet(inner.net, recorder, layer, send_layer,
                             is_remote)

    @property
    def timers(self) -> _SpanTimers:
        return self._timers

    @property
    def net(self) -> _SpanNet:
        return self._net

    @property
    def seed(self) -> int:  # type: ignore[override]
        return self.inner.seed
