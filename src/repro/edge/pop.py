"""Point-of-presence (PoP) border node (paper Figure 1, sections 2.1, 9).

A PoP is a border-tier cache between far-edge devices and their connected
DC: "A far edge device connects either directly to a DC, or via a
point-of-presence (PoP) server at the border."  The paper's conclusion
lists PoP placement as the lever for further latency wins; this class
implements it.

To its child edge nodes the PoP *speaks the DC protocol*: it terminates
their sessions, seeds their caches from its own (border nodes sit on
carrier Ethernet, ~10 ms from devices, versus ~50 ms to the core), and
forwards their commits upstream.  To the DC it behaves like one edge node
whose interest set is the union of its children's — exactly how a peer
group's sync point appears (section 5.1.3), but without consensus: a PoP
serves unrelated clients, so it offers plain TCC+, not an SI zone.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey
from ..security.enforcement import ACL_OBJECT, RI_OBJECTS, RI_USERS
from ..dc.fanout import SessionFanout, session_refusal
from ..dc.messages import (CommitAck, CommitReject, EdgeCommit,
                           InterestChange, ObjectRequest, ObjectResponse,
                           SessionAck, SessionOpen, UpdatePush)
from ..sim.events import EventLoop
from ..sim.network import Network
from ..transport.base import Transport
from .node import EdgeNode


class PoPNode(EdgeNode):
    """A border cache that proxies edge sessions towards its DC."""

    _DISPATCH_NAMES = {
        **EdgeNode._DISPATCH_NAMES,
        CommitReject: "_on_commit_reject",
        SessionOpen: "_child_session_open",
        EdgeCommit: "_child_commit",
        InterestChange: "_child_interest",
        ObjectRequest: "_child_fetch",
    }

    def __init__(self, node_id: str, loop: Union[EventLoop, Transport],
                 network: Optional[Network],
                 dc_id: str, cache_capacity: Optional[int] = None,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, loop, network, dc_id,
                         cache_capacity=cache_capacity, rng=rng)
        # Child sessions: interest sets and push cursors, as at a DC.
        self._fanout = SessionFanout()
        # ``stable`` of the last push our connected DC sent us: where
        # the upstream chain stands (the next ``prev``, if unbroken).
        self._upstream: Optional[Dict[str, int]] = None
        # Commits relayed upstream, for ack routing: dot -> child id.
        self._relayed: Dict[Dot, str] = {}
        # Fetches awaiting an upstream response: key -> child ids.
        self._child_fetches: Dict[ObjectKey, List[str]] = {}
        # Children whose session opened before our upstream seed landed:
        # key -> child ids to seed as soon as the key becomes warm.
        self._child_unseeded: Dict[ObjectKey, Set[str]] = {}

    # ------------------------------------------------------------------
    # child-facing: the DC protocol, served from the border
    # ------------------------------------------------------------------
    def _child_session_open(self, msg: SessionOpen, sender: str) -> None:
        # We only ever serve prefixes of the DC's stable cut, so a child
        # that was previously ours is always compatible; a migrated-in
        # child may not be yet.
        refusal = session_refusal(self.node_id, msg, self.vector,
                                  self.log.dots.seen)
        if refusal is not None:
            self.send(sender, refusal)
            return
        interest = dict(msg.interest)
        previous = self._fanout.open(msg.edge_id, interest)
        # Adopt the union interest upstream.
        missing = [(key, t) for key, t in interest.items()
                   if key not in self._interest_types]
        for key, type_name in missing:
            self.declare_interest(key, type_name)
        # A reopened session may have shrunk its interest set.
        for key in previous:
            if key not in interest:
                self._maybe_retract_upstream(key)
        # Seed the child from our cache for whatever is warm; the rest is
        # delivered as soon as our own upstream seed lands.  Its push
        # chain restarts at the vector these seeds are cut at — and no
        # earlier than where the upstream chain stands: while we are
        # behind that ourselves (a gap we are re-seeding across), what
        # lies between will never be relayed, and the child must find
        # out at its next message.
        chain = self.vector.merge_dict(self._upstream or {})
        self._fanout.restart(msg.edge_id, chain.to_dict())
        self.send(sender, SessionAck(self.node_id,
                                     self._seeds_for(msg.edge_id, interest),
                                     self.vector.to_dict()))

    def _seeds_for(self, child: str,
                   keys: Iterable[ObjectKey]) -> Tuple[ObjectState, ...]:
        """Seeds of the warm ``keys``; the others reach ``child`` once
        our own upstream seed warms them (see ``_install_seed``)."""
        seeds = []
        for key in keys:
            if key in self.frontier.key_cut:
                seeds.append(self._seed_state(key))
            else:
                self._child_unseeded.setdefault(key, set()).add(child)
        return tuple(seeds)

    def _child_commit(self, msg: EdgeCommit, sender: str) -> None:
        self._relayed[msg.txn.dot] = sender
        # Siblings see it once the DC's (authoritative, K-stable) push
        # returns; forward upstream unchanged — the child handed the
        # transaction off, the DC assigns the commit timestamp.
        if self.session_open and not self.offline:
            self.send(self.connected_dc, msg)

    def _maybe_retract_upstream(self, key: ObjectKey) -> None:
        """Drop upstream interest in a key no child needs any more.

        Our interest set is the union of our children's: once the last
        child retracts a key (and nobody is waiting on a fetch or seed
        for it), retracting upstream lets the DC prune the key's shard
        from its replication streams in partial mode.  Keys the node
        holds for its own protocol (the security objects) stay.
        """
        if not (self._fanout.has_audience(key) or key in self._child_fetches
                or key in self._child_unseeded or self.security_enabled
                and key in (ACL_OBJECT, RI_OBJECTS, RI_USERS)):
            self.retract_interest(key)

    def _child_interest(self, msg: InterestChange, sender: str) -> None:
        if msg.edge_id not in self._fanout.sessions:
            return
        for key in msg.remove:
            if self._fanout.drop_interest(msg.edge_id, key):
                self._maybe_retract_upstream(key)
        for key, type_name in msg.add:
            self._fanout.add_interest(msg.edge_id, key, type_name)
            if key not in self._interest_types:
                self.declare_interest(key, type_name)
        seeded = self._seeds_for(msg.edge_id, (k for k, _t in msg.add))
        if seeded:
            self.send(msg.edge_id, SessionAck(self.node_id, seeded,
                                              self.vector.to_dict()))

    def _child_fetch(self, msg: ObjectRequest, sender: str) -> None:
        waiting = self._child_fetches.setdefault(msg.key, [])
        if msg.edge_id not in waiting:  # retried fetches register once
            waiting.append(msg.edge_id)
        if msg.key in self.frontier.key_cut:
            self._serve_fetches(msg.key)
        else:
            self._fetch_for_below(msg.key, msg.type_name)

    def _serve_fetches(self, key: ObjectKey) -> None:
        """Answer every child waiting on ``key``, once it is warm."""
        if key not in self.frontier.key_cut:
            return
        for child in self._child_fetches.pop(key, ()):
            self.send(child, ObjectResponse(self._seed_state(key),
                                            self.vector.to_dict()))

    # ------------------------------------------------------------------
    # upstream-facing: relay acks and pushes down the tree
    # ------------------------------------------------------------------
    def _install_seed(self, state: ObjectState,
                      seed_vector: VectorClock) -> None:
        super()._install_seed(state, seed_vector)
        waiting = self._child_unseeded.pop(state.key, None)
        if waiting and state.key in self.frontier.key_cut:
            seeded = (self._seed_state(state.key),)
            for child in waiting:
                self.send(child, SessionAck(self.node_id, seeded,
                                            self.vector.to_dict()))

    def _on_commit_ack(self, msg: CommitAck, sender: str) -> None:
        super()._on_commit_ack(msg, sender)
        child = self._relayed.pop(msg.dot, None)
        if child is not None:
            self.send(child, msg)

    def _on_commit_reject(self, msg: CommitReject, sender: str) -> None:
        # Our own rejected commits wait for the retry timer (EdgeNode);
        # a child's goes back down to the child.
        if sender != self.connected_dc:
            return
        child = self._relayed.pop(msg.dot, None)
        if child is not None:
            self.send(child, msg)

    def _on_update_push(self, msg: UpdatePush, sender: str) -> None:
        super()._on_update_push(msg, sender)
        if sender != self.connected_dc:
            # The DC we migrated away from still holds a session for us:
            # good data, but not the chain our children follow.
            return
        # Down the tree as at the DC: transactions to the children they
        # concern, a heartbeat to everybody.  A child's cursor is a
        # position on the *upstream* chain, so it is only good while
        # that chain is unbroken.  Where it (re)starts — we re-opened,
        # migrated, or missed a push — what lies before ``prev`` reached
        # us, if at all, by a seed we never relayed, and every child's
        # chain restarts at ``prev`` with ours: a child that does not
        # cover it sees the gap and re-seeds from us.
        if msg.prev_vector != self._upstream:
            self._fanout.restart_all(dict(msg.prev_vector))
        stable = self._upstream = dict(msg.stable_vector)
        if msg.txns:
            # Our replica keeps what we received; every child gets a
            # copy of its own.
            routed = self._fanout.route(
                ((txn.keys, txn) for txn in msg.txns), stable)
            for child, txns, prev in routed:
                self.send(child.session_id, UpdatePush(
                    tuple(txn.handoff() for txn in txns), stable, prev))
        else:
            for prev, children in self._fanout.heartbeat(stable):
                push = UpdatePush((), stable, prev)
                for child in children:
                    self.send(child.session_id, push)

    def _on_object_response(self, msg: ObjectResponse, sender: str) -> None:
        super()._on_object_response(msg, sender)
        self._serve_fetches(msg.object_state.key)

    def _on_session_ack(self, msg: SessionAck, sender: str) -> None:
        super()._on_session_ack(msg, sender)
        # A fresh upstream seed may satisfy children waiting on fetches.
        for key in list(self._child_fetches):
            self._serve_fetches(key)

    @property
    def pipeline_idle(self) -> bool:
        return (super().pipeline_idle and not self._child_fetches
                and not self._child_unseeded)
