"""Event heap, timer wheel and simulation clock.

Time is a float in **milliseconds**.  Determinism: ties break by a
monotonically increasing sequence number, and all randomness must come
from the simulation's seeded RNG, so a run is a pure function of its
seed.

Fast-path design (the sim core is the throughput bottleneck at
10^4-10^6 simulated nodes):

* The priority queue holds plain ``(time, seq, callback, args)`` tuples,
  so heap sift compares resolve with C tuple comparison on ``(time,
  seq)`` instead of a Python-level ``__lt__`` call per step.
  ``seq`` is unique, so slots 2-3 are never compared and may hold
  arbitrary (even mutually incomparable) values.
* A **timer wheel** absorbs the dominant near-future event population
  (periodic protocol timers — sync pings, retry ticks, keepalives,
  Nagle flushes — and in-flight message deliveries): scheduling into a
  wheel slot is an O(1) append instead of an O(log n) sift against every
  pending far-future event.  When the clock reaches a slot it is sorted
  once and drained directly (merged entry-by-entry against the heap
  head), so a wheel entry never pays a heap push/pop; the exact global
  ``(time, seq)`` order is preserved because ``seq`` is unique.
* Nothing is ever cancelled: an :class:`~repro.sim.actor.Actor` timer
  that must not fire is dead by epoch (the guard is in the callback),
  so scheduling returns no handle and allocates nothing beyond the
  entry tuple.
* ``pending()`` is O(1): a live counter is maintained on schedule and
  pop instead of scanning the heap.

Budget semantics of :meth:`EventLoop.run`: ``max_events`` bounds how
many events one call processes.  When the budget runs out, the clock
advances as far as it can without skipping work — to ``min(until,
next-pending-event-time)`` when ``until`` was given, else it stays at
the last processed event.  Events are never skipped: a subsequent
``run`` resumes exactly where the budget cut off.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

class EventLoop:
    """Timer-wheel + priority-queue event loop with a virtual clock."""

    #: Wheel geometry: 512 slots of 4 ms cover ~2 s of look-ahead, which
    #: spans every periodic protocol timer (0.25-1000 ms) and all
    #: modelled link latencies.  Events beyond the horizon go straight
    #: to the heap (they are rare: long settle timers, far schedules).
    WHEEL_SLOT_MS = 4.0
    WHEEL_SLOTS = 512

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._live = 0          # entries still queued
        self._wheel: List[List[Tuple]] = \
            [[] for _ in range(self.WHEEL_SLOTS)]
        self._wheel_count = 0   # entries currently in wheel slots
        self._cursor = 0        # first un-flushed absolute slot index
        self._slot_inv = 1.0 / self.WHEEL_SLOT_MS
        #: The most recently flushed wheel slot, sorted next-event-last
        #: so draining is ``list.pop()``.  Wheel entries are consumed
        #: straight from here (merged against the heap head on the fly)
        #: instead of transiting the heap: one amortised sort replaces a
        #: heappush + heappop per entry.
        self._ready: List[Tuple] = []

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_fast(delay, callback)

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      args: Tuple = ()) -> None:
        """Run ``callback(*args)`` at ``now + delay`` with no closure and
        no check on ``delay``: the hot path for message delivery and
        periodic ticks.  The entry goes to its wheel slot or, beyond the
        horizon, to the heap."""
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        slot = int(time * self._slot_inv)
        cursor = self._cursor
        if cursor <= slot < cursor + self.WHEEL_SLOTS:
            self._wheel[slot % self.WHEEL_SLOTS].append(
                (time, seq, callback, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    def schedule_fast_at(self, time: float, callback: Callable[..., None],
                         args: Tuple = ()) -> None:
        """Absolute-time variant of :meth:`schedule_fast`.

        The entry fires at exactly ``time`` (clamped to ``now``), with no
        relative-delay float round-trip — callers that key state on the
        delivery timestamp (the network's per-link batches) rely on the
        entry time matching their own ``time`` bit for bit.
        """
        if time < self._now:
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        slot = int(time * self._slot_inv)
        cursor = self._cursor
        if cursor <= slot < cursor + self.WHEEL_SLOTS:
            self._wheel[slot % self.WHEEL_SLOTS].append(
                (time, seq, callback, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (>= now)."""
        self.schedule(max(0.0, time - self._now), callback)

    # -- wheel flushing ----------------------------------------------------
    def _refill_ready(self) -> bool:
        """Advance the cursor to the next non-empty slot; fill ``_ready``.

        The slot's entries are sorted next-event-**last** so
        the execution loop drains them with ``list.pop()``, merging
        against the heap head entry by entry — no per-entry heap trip.
        Returns False when the wheel and the heap are both exhausted
        (the ready buffer is empty whenever this is called).

        Empty slots just advance the cursor; the execution loop pops
        the heap directly once its head falls below the cursor edge, so
        skipping ahead here never overtakes an earlier heap entry.
        """
        wheel = self._wheel
        n_slots = self.WHEEL_SLOTS
        while self._wheel_count:
            slot = wheel[self._cursor % n_slots]
            self._cursor += 1
            if not slot:
                continue
            self._wheel_count -= len(slot)
            slot.sort(reverse=True)
            self._ready.extend(slot)
            del slot[:]
            return True
        return bool(self._heap)

    # -- execution --------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain events, optionally stopping at a time or event budget.

        See the module docstring for the exact budget semantics: on
        budget exhaustion the clock still advances to ``min(until,
        next-pending-event-time)`` — never past pending work.

        The next entry is found by merging three sources that are each
        already ordered: the ready buffer (the drained wheel slot), the
        heap, and the wheel (whose entries all sit at or beyond the
        cursor edge, so they cannot precede a heap head strictly below
        it).  Ties break on the unique ``seq``, so the merge reproduces
        the exact global ``(time, seq)`` order a single heap would give.
        """
        heap = self._heap
        ready = self._ready
        budget = max_events
        pop = heapq.heappop
        slot_ms = self.WHEEL_SLOT_MS
        while True:
            from_ready = False
            if ready:
                head = ready[-1]
                if heap and heap[0] < head:
                    head_time = heap[0][0]
                else:
                    from_ready = True
                    head_time = head[0]
            elif heap and (not self._wheel_count
                           or heap[0][0] < self._cursor * slot_ms):
                head_time = heap[0][0]
            elif self._refill_ready():
                continue
            else:
                break
            if until is not None and head_time > until:
                self._now = until
                return
            if budget is not None and budget <= 0:
                if until is not None:
                    # Advance as far as the budget allows without
                    # skipping the pending head.
                    self._now = max(self._now, min(until, head_time))
                return
            time_, _seq, cb, args = ready.pop() if from_ready \
                else pop(heap)
            self._now = time_
            self._processed += 1
            self._live -= 1
            if budget is not None:
                budget -= 1
            cb(*args)
        if until is not None and until > self._now:
            self._now = until

    def pending(self) -> int:
        """Queued events — O(1), counter-backed."""
        return self._live
