"""Interest-scoped stability fan-out (paper sections 3.8, 4.2), sans-io.

A tier that pushes K-stable transactions down the tree — a DC to its
edge sessions, a PoP to its children — keeps, per session, an interest
set and a **push cursor**: the raw vector last sent to it.  Every message
to a session is ``(prev = its cursor, stable = the new cut)``, and the
receiver accepts it only if its own vector covers ``prev``, so a chain of
cursors is what lets a receiver notice a lost message.

Two decisions live here and nowhere else:

* :meth:`SessionFanout.route` — a stability round is sent only to its
  *audience*, the sessions whose interest set some transaction of the
  round touches;
* :meth:`SessionFanout.heartbeat` — the periodic tick carries
  ``(cursor -> stable, no transactions)`` to everybody, which is how a
  session outside every audience learns the stable cut and how a session
  whose last push was lost finds out.

The invariant both keep: between a session's cursor and the ``stable`` of
the next message to it, every routed transaction on its interest set is
in that message.  A cursor therefore only ever moves together with a
send; a caller that cannot send (it crashed) still lets the cursor move,
which to the receiver is a lost message — visible at the next one.

Cursors are owned here and never mutated after they are handed in, so
the ``prev`` a caller puts into a message is safe to share by reference.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Set, Tuple)

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.txn import ObjectKey
from .messages import SessionAck, SessionOpen

#: A raw wire vector (``VectorClock.to_dict()``), frozen by convention.
Cut = Dict[str, int]


def session_refusal(server_id: str, msg: SessionOpen, vector: VectorClock,
                    seen: Callable[[Dot], bool]) -> Optional[SessionAck]:
    """What a tier at ``vector`` answers a session that cannot open on
    it, or ``None`` when it can (section 3.8's compatibility check): the
    edge's state must be within ours — its vector covered, and every
    dependency it declares ``seen`` here or its own (it re-ships those
    right after the open).  Else its transactions could not commit here,
    and the session is refused until the gap closes."""
    if VectorClock(msg.state_vector).leq(vector) and all(
            seen(dot) or dot.origin == msg.edge_id
            for dot in msg.local_deps):
        return None
    return SessionAck(server_id, (), {}, accepted=False,
                      reason="causally-incompatible")


class PushSession:
    """One downstream session: interest set, cursor, send position."""

    __slots__ = ("session_id", "interest", "cursor", "order")

    def __init__(self, session_id: str, order: int):
        self.session_id = session_id
        self.interest: Dict[ObjectKey, str] = {}
        #: ``None`` until the session's first seed cut is taken: there is
        #: no chain to extend yet, and that seed will cover what it misses.
        self.cursor: Optional[Cut] = None
        #: Position in first-open order; audiences are sent in this order
        #: so a round's sends do not depend on set iteration order.
        self.order = order


_SEND_ORDER = attrgetter("order")


class SessionFanout:
    """Sessions, the inverted interest index and the push cursors."""

    def __init__(self) -> None:
        #: Session id -> session, in first-open order.
        self.sessions: Dict[str, PushSession] = {}
        self._by_key: Dict[ObjectKey, Set[PushSession]] = {}
        self._opened = 0

    # -- sessions and interest ---------------------------------------------
    def open(self, session_id: str,
             interest: Mapping[ObjectKey, str]) -> Dict[ObjectKey, str]:
        """(Re)open a session on ``interest``; returns what it replaced.

        A re-opened session keeps its cursor until :meth:`restart` names
        the cut of its new seed.
        """
        session = self.sessions.get(session_id)
        if session is None:
            session = self.sessions[session_id] = PushSession(
                session_id, self._opened)
            self._opened += 1
        replaced = session.interest
        for key in replaced:
            self._unindex(key, session)
        session.interest = dict(interest)
        for key in session.interest:
            self._by_key.setdefault(key, set()).add(session)
        return replaced

    def close(self, session_id: str) -> Dict[ObjectKey, str]:
        """Forget a session; returns the interest set it held."""
        session = self.sessions.pop(session_id, None)
        if session is None:
            return {}
        for key in session.interest:
            self._unindex(key, session)
        return session.interest

    def add_interest(self, session_id: str, key: ObjectKey,
                     type_name: str) -> None:
        session = self.sessions[session_id]
        session.interest[key] = type_name
        self._by_key.setdefault(key, set()).add(session)

    def drop_interest(self, session_id: str, key: ObjectKey) -> bool:
        """True when the session did hold ``key``."""
        session = self.sessions[session_id]
        if session.interest.pop(key, None) is None:
            return False
        self._unindex(key, session)
        return True

    def _unindex(self, key: ObjectKey, session: PushSession) -> None:
        interested = self._by_key.get(key)
        if interested is not None:
            interested.discard(session)
            if not interested:
                del self._by_key[key]

    def has_audience(self, key: ObjectKey) -> bool:
        """Does any session hold ``key`` in its interest set?"""
        return key in self._by_key

    # -- cursors -------------------------------------------------------------
    def restart(self, session_id: str, cut: Cut) -> None:
        """The session was seeded at ``cut``: its chain restarts there."""
        session = self.sessions.get(session_id)
        if session is not None:
            session.cursor = cut

    def restart_all(self, cut: Cut) -> None:
        """Restart every chain at ``cut`` — for a relay tier whose own
        upstream chain restarted there, so nothing it can send bridges
        what lies before.  A session that does not cover ``cut`` sees a
        gap at its next message."""
        for session in self.sessions.values():
            if session.cursor is not None:
                session.cursor = cut

    # -- the two decisions ---------------------------------------------------
    def route(self, items: Iterable[Tuple[Iterable[ObjectKey], Any]],
              stable: Cut) -> List[Tuple[PushSession, List[Any], Cut]]:
        """One stability round: who gets what, chained from which cut.

        ``items`` are ``(keys, payload)`` per newly stable transaction in
        delivery order.  Returns ``(session, payloads, prev)`` for each
        audience session in send order and moves those cursors to
        ``stable``; nobody else is touched.
        """
        audience: Dict[PushSession, List[Any]] = {}
        by_key = self._by_key
        for keys, payload in items:
            targets: Set[PushSession] = set()
            for key in keys:
                interested = by_key.get(key)
                if interested:
                    targets.update(interested)
            for session in targets:
                audience.setdefault(session, []).append(payload)
        sends = []
        for session in sorted(audience, key=_SEND_ORDER):
            prev = session.cursor
            if prev is not None:
                sends.append((session, audience[session], prev))
                session.cursor = stable
        return sends

    def heartbeat(self, stable: Cut) -> List[Tuple[Cut, List[PushSession]]]:
        """The periodic tick: every seeded session, chained to ``stable``.

        Returns ``(prev, sessions)`` runs — consecutive sessions (in
        send order) sharing one cursor share one message — and moves
        every cursor to ``stable``.
        """
        runs: List[Tuple[Cut, List[PushSession]]] = []
        current: Optional[Cut] = None
        for session in self.sessions.values():
            prev = session.cursor
            if prev is None:
                continue
            if prev is not current:
                runs.append((prev, []))
                current = prev
            runs[-1][1].append(session)
            session.cursor = stable
        return runs
