"""TigaSequencer unit tests: the deadline fast path, sans-io.

The sequencer is driven directly — fabricated sends, callbacks and a
bare event loop — so each rule (ack verdict, quorum, deadline-ordered
release, fallback) is pinned without a network in the way.
"""

from repro.epaxos.messages import (TigaAck, TigaCommit, TigaPropose,
                                   TigaStatus, TigaWithdraw)
from repro.epaxos.tiga import TigaSequencer
from repro.sim.clock import HybridLogicalClock, SkewedClock
from repro.sim.events import EventLoop


def _txn(counter, origin, payload="x"):
    return {"dot": {"counter": counter, "origin": origin},
            "payload": payload}


class Harness:
    def __init__(self, node="a", members=("a", "b", "c")):
        self.loop = EventLoop()
        self.sent = []
        self.commits = []
        self.releases = []
        self.fallbacks = []
        self.clock = SkewedClock(self.loop)
        self.seq = TigaSequencer(
            node, list(members), self.clock,
            HybridLogicalClock(self.clock, node),
            send=lambda to, msg: self.sent.append((to, msg)),
            on_commit=lambda key, d: self.commits.append((key, d)),
            on_release=lambda cmd, d, in_order:
                self.releases.append((cmd, d, in_order)),
            on_fallback=lambda key: self.fallbacks.append(key),
            set_timer=lambda delay, fn: self.loop.schedule(delay, fn),
            now_fn=lambda: self.loop.now)

    def run_until(self, t):
        self.loop.run(until=t)

    def sent_of(self, kind):
        return [(to, m) for to, m in self.sent if isinstance(m, kind)]


class TestCoordinator:
    def test_propose_broadcasts_future_deadline(self):
        h = Harness()
        deadline = h.seq.propose(_txn(1, "a"))
        assert deadline[0] > h.clock.now()
        proposes = h.sent_of(TigaPropose)
        assert sorted(to for to, _m in proposes) == ["b", "c"]
        assert all(m.deadline == deadline for _to, m in proposes)

    def test_majority_ack_commits_in_one_round(self):
        h = Harness()
        deadline = h.seq.propose(_txn(1, "a"))
        dot = {"counter": 1, "origin": "a"}
        # Quorum of 2 (of 3) counts the coordinator: ONE ack commits.
        h.seq.handle(TigaAck(dot, deadline, True, 0.0), "b")
        assert h.commits == [((1, "a"), deadline)]
        assert h.seq.fast_commits == 1
        assert sorted(to for to, _m in h.sent_of(TigaCommit)) == ["b", "c"]

    def test_singleton_group_commits_immediately(self):
        h = Harness(members=("a",))
        h.seq.propose(_txn(1, "a"))
        assert h.seq.fast_commits == 1
        assert h.sent == []

    def test_majority_nack_falls_back(self):
        h = Harness()
        deadline = h.seq.propose(_txn(1, "a"))
        dot = {"counter": 1, "origin": "a"}
        local = deadline[0] + 10.0
        h.seq.handle(TigaAck(dot, deadline, False, local), "b")
        assert h.fallbacks == []          # one nack: quorum still possible
        h.seq.handle(TigaAck(dot, deadline, False, local), "c")
        assert h.fallbacks == [(1, "a")]
        assert h.seq.fallbacks == 1
        assert sorted(to for to, _m in h.sent_of(TigaWithdraw)) \
            == ["b", "c"]

    def test_nack_widens_the_lead(self):
        h = Harness()
        before = h.seq.lead_ms
        deadline = h.seq.propose(_txn(1, "a"))
        dot = {"counter": 1, "origin": "a"}
        h.seq.handle(TigaAck(dot, deadline, False, deadline[0] + 30.0),
                     "b")
        assert h.seq.lead_ms >= before + 30.0

    def test_round_times_out_to_fallback(self):
        h = Harness()
        h.seq.propose(_txn(1, "a"))
        h.run_until(TigaSequencer.ROUND_TIMEOUT_MS + 50.0)
        h.seq.maintenance()               # no acks ever arrived
        assert h.fallbacks == [(1, "a")]

    def test_back_to_back_deadlines_are_one_lead_past_the_clock(self):
        # Each deadline is above every deadline seen, and in an idle
        # group only just: not a whole lead above the previous one,
        # which would cap the group at one release per lead.
        h = Harness()
        lead = h.seq.lead_ms
        seen = []
        for i in range(1, 6):
            h.run_until(float(i))
            deadline = h.seq.propose(_txn(i, "a"))
            assert deadline[0] == h.clock.now() + lead
            assert all(deadline > earlier for earlier in seen)
            seen.append(deadline)
        # A peer's deadline further out is observed: the next one is
        # above it, by the logical counter alone.
        theirs = (h.clock.now() + 3 * lead, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, theirs,
                                 _txn(1, "b")), "b")
        deadline = h.seq.propose(_txn(6, "a"))
        assert deadline > theirs and deadline[0] == theirs[0]
        assert all(deadline > earlier for earlier in seen)

    def test_status_answered_with_round_outcome(self):
        h = Harness()
        deadline = h.seq.propose(_txn(1, "a"))
        dot = {"counter": 1, "origin": "a"}
        h.seq.handle(TigaAck(dot, deadline, True, 0.0), "b")
        h.sent.clear()
        h.seq.handle(TigaStatus(dot, "c"), "c")
        assert [to for to, _m in h.sent_of(TigaCommit)] == ["c"]
        h.sent.clear()
        h.seq.handle(TigaStatus({"counter": 9, "origin": "a"}, "b"), "b")
        assert [to for to, _m in h.sent_of(TigaWithdraw)] == ["b"]


class TestMemberVerdict:
    def test_future_in_order_deadline_acked(self):
        h = Harness()
        deadline = (h.clock.now() + 20.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"},
                                 deadline, _txn(1, "b")), "b")
        acks = h.sent_of(TigaAck)
        assert [to for to, _m in acks] == ["b"]
        assert acks[0][1].ok
        assert h.seq.acks_sent == 1

    def test_past_deadline_nacked_with_local_clock(self):
        h = Harness()
        h.run_until(100.0)
        deadline = (h.clock.now() - 5.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"},
                                 deadline, _txn(1, "b")), "b")
        ack = h.sent_of(TigaAck)[0][1]
        assert not ack.ok
        assert ack.local_ms == h.clock.now()
        assert h.seq.nacks_sent == 1

    def test_skewed_ahead_member_nacks(self):
        # The member's clock runs 50ms fast: a deadline the coordinator
        # thinks is comfortably in the future has already passed here.
        h = Harness()
        h.clock.step(50.0)
        deadline = (h.clock.now() - 25.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"},
                                 deadline, _txn(1, "b")), "b")
        assert not h.sent_of(TigaAck)[0][1].ok

    def test_below_released_max_nacked(self):
        h = Harness()
        first = (h.clock.now() + 5.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"},
                                 first, _txn(1, "b")), "b")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "b"},
                                first, _txn(1, "b")), "b")
        h.run_until(20.0)                 # released at its deadline
        assert [r[2] for r in h.releases] == [True]
        below = (first[0] - 1.0, 0, "c")
        # ``below`` is still in the future for the local clock, but the
        # slot is gone: in-order release would be violated.
        h.sent.clear()
        h.run_until(first[0] - 1.5)
        h.seq.handle(TigaPropose({"counter": 2, "origin": "c"},
                                 below, _txn(2, "c")), "c")
        assert not h.sent_of(TigaAck)[0][1].ok

    def test_duplicate_propose_reacked(self):
        h = Harness()
        deadline = (h.clock.now() + 20.0, 0, "b")
        msg = TigaPropose({"counter": 1, "origin": "b"}, deadline,
                          _txn(1, "b"))
        h.seq.handle(msg, "b")
        h.seq.handle(msg, "b")
        acks = h.sent_of(TigaAck)
        assert len(acks) == 2 and all(m.ok for _to, m in acks)


class TestRelease:
    def test_release_in_deadline_order_despite_arrival_order(self):
        h = Harness()
        late = (h.clock.now() + 30.0, 0, "c")
        early = (h.clock.now() + 20.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "c"}, late,
                                 _txn(1, "c", "late")), "c")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, early,
                                 _txn(1, "b", "early")), "b")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "c"}, late,
                                _txn(1, "c", "late")), "c")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "b"}, early,
                                _txn(1, "b", "early")), "b")
        h.run_until(100.0)
        assert [(cmd["payload"], in_order)
                for cmd, _d, in_order in h.releases] \
            == [("early", True), ("late", True)]

    def test_nothing_releases_before_the_deadline(self):
        h = Harness()
        deadline = (h.clock.now() + 50.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, deadline,
                                 _txn(1, "b")), "b")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "b"}, deadline,
                                _txn(1, "b")), "b")
        h.run_until(40.0)
        assert h.releases == []
        h.run_until(100.0)
        assert len(h.releases) == 1

    def test_late_commit_releases_out_of_order(self):
        h = Harness()
        first = (h.clock.now() + 10.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, first,
                                 _txn(1, "b")), "b")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "b"}, first,
                                _txn(1, "b")), "b")
        h.run_until(50.0)
        # A commit below released_max (its propose was missed) applies
        # immediately, flagged out-of-order.
        below = (first[0] - 2.0, 0, "c")
        h.seq.handle(TigaCommit({"counter": 7, "origin": "c"}, below,
                                _txn(7, "c")), "c")
        assert [r[2] for r in h.releases] == [True, False]

    def test_withdraw_unblocks_the_queue(self):
        h = Harness()
        blocked = (h.clock.now() + 10.0, 0, "b")
        behind = (h.clock.now() + 20.0, 0, "c")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, blocked,
                                 _txn(1, "b")), "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "c"}, behind,
                                 _txn(1, "c", "second")), "c")
        h.seq.handle(TigaCommit({"counter": 1, "origin": "c"}, behind,
                                _txn(1, "c", "second")), "c")
        h.run_until(60.0)
        assert h.releases == []           # head pending, queue stalled
        assert not h.seq.idle
        h.seq.handle(TigaWithdraw({"counter": 1, "origin": "b"}), "b")
        h.run_until(120.0)
        assert [cmd["payload"] for cmd, _d, _o in h.releases] \
            == ["second"]
        assert h.seq.idle

    def test_stalled_head_queries_the_coordinator(self):
        h = Harness()
        deadline = (h.clock.now() + 10.0, 0, "b")
        h.seq.handle(TigaPropose({"counter": 1, "origin": "b"}, deadline,
                                 _txn(1, "b")), "b")
        h.sent.clear()
        h.run_until(deadline[0] + TigaSequencer.QUERY_AFTER_MS + 20.0)
        queries = h.sent_of(TigaStatus)
        assert queries and all(to == "b" for to, _m in queries)
        assert all(m.requester == "a" for _to, m in queries)
