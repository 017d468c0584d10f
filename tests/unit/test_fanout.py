"""SessionFanout: audiences, cursors, heartbeat runs (no simulator)."""

from repro.core import ObjectKey
from repro.dc.fanout import SessionFanout

A, B, C = (ObjectKey("b", name) for name in "abc")


def opened(*sessions):
    """A fan-out with ``(id, keys)`` sessions, each seeded at ``{}``."""
    fanout = SessionFanout()
    for session_id, keys in sessions:
        fanout.open(session_id, {key: "counter" for key in keys})
        fanout.restart(session_id, {})
    return fanout


def ids(sends):
    return [session.session_id for session, _payloads, _prev in sends]


class TestRoute:
    def test_only_the_audience_is_sent_to(self):
        fanout = opened(("x", [A]), ("y", [B]), ("z", [A, B]))
        sends = fanout.route([([A], "t1")], {"dc": 1})
        assert ids(sends) == ["x", "z"]
        assert all(payloads == ["t1"] for _s, payloads, _p in sends)

    def test_prev_is_the_sessions_own_cursor(self):
        fanout = opened(("x", [A]), ("y", [B]))
        first, second, third = {"dc": 1}, {"dc": 2}, {"dc": 3}
        fanout.route([([A], "t1")], first)
        fanout.route([([B], "t2")], second)
        (_x, _p, x_prev), (_y, _q, y_prev) = fanout.route(
            [([A, B], "t3")], third)
        assert x_prev is first and y_prev is second
        assert all(s.cursor is third for s in fanout.sessions.values())

    def test_non_audience_cursor_does_not_move(self):
        fanout = opened(("x", [A]), ("y", [B]))
        fanout.route([([A], "t1")], {"dc": 1})
        assert fanout.sessions["y"].cursor == {}

    def test_payloads_keep_delivery_order_and_do_not_repeat(self):
        fanout = opened(("x", [A, B]),)
        sends = fanout.route([([A, B], "t1"), ([C], "t2"), ([B], "t3")],
                             {"dc": 3})
        assert [payloads for _s, payloads, _p in sends] == [["t1", "t3"]]

    def test_send_order_is_first_open_order(self):
        names = [f"s{i}" for i in range(20)]
        fanout = opened(*((name, [A]) for name in names))
        fanout.open("s3", {A: "counter"})       # a re-open keeps its place
        assert ids(fanout.route([([A], "t")], {"dc": 1})) == names

    def test_unseeded_session_is_left_to_its_seed(self):
        fanout = opened(("x", [A]))
        fanout.open("new", {A: "counter"})      # seed cut not taken yet
        assert ids(fanout.route([([A], "t")], {"dc": 1})) == ["x"]
        assert fanout.sessions["new"].cursor is None
        assert fanout.heartbeat({"dc": 1}) == [
            ({"dc": 1}, [fanout.sessions["x"]])]


class TestSessions:
    def test_reopen_replaces_interest_and_keeps_the_cursor(self):
        fanout = opened(("x", [A, B]))
        cursor = fanout.sessions["x"].cursor
        assert fanout.open("x", {C: "counter"}) == {A: "counter",
                                                    B: "counter"}
        assert fanout.sessions["x"].cursor is cursor
        assert not fanout.has_audience(A) and fanout.has_audience(C)
        assert ids(fanout.route([([A], "t1"), ([C], "t2")],
                                {"dc": 2})) == ["x"]

    def test_interest_changes_move_the_audience(self):
        fanout = opened(("x", [A]))
        fanout.add_interest("x", B, "counter")
        assert ids(fanout.route([([B], "t")], {"dc": 1})) == ["x"]
        assert fanout.drop_interest("x", B) is True
        assert fanout.drop_interest("x", B) is False
        assert fanout.route([([B], "t")], {"dc": 2}) == []

    def test_close_returns_the_interest_and_unindexes(self):
        fanout = opened(("x", [A]), ("y", [A]))
        assert fanout.close("x") == {A: "counter"}
        assert fanout.close("x") == {}
        assert ids(fanout.route([([A], "t")], {"dc": 1})) == ["y"]

    def test_restart_all_breaks_seeded_chains_only(self):
        fanout = opened(("x", [A]))
        fanout.open("new", {A: "counter"})
        jump = {"dc": 9}
        fanout.restart_all(jump)
        assert fanout.sessions["x"].cursor is jump
        assert fanout.sessions["new"].cursor is None


class TestHeartbeat:
    def test_everybody_is_carried_to_stable(self):
        fanout = opened(("x", [A]), ("y", [B]), ("z", []))
        stable = {"dc": 4}
        runs = fanout.heartbeat(stable)
        assert [(prev, [s.session_id for s in sessions])
                for prev, sessions in runs] == [({}, ["x"]), ({}, ["y"]),
                                                ({}, ["z"])]
        assert all(s.cursor is stable for s in fanout.sessions.values())

    def test_consecutive_sessions_on_one_cursor_share_a_run(self):
        fanout = opened(*((f"s{i}", [A if i == 2 else B])
                          for i in range(5)))
        tick = {"dc": 1}
        fanout.heartbeat(tick)                   # everybody on one cursor
        push = {"dc": 2}
        fanout.route([([A], "t")], push)         # s2 moves ahead alone
        runs = fanout.heartbeat({"dc": 2})
        assert [(prev, [s.session_id for s in sessions])
                for prev, sessions in runs] == [
            (tick, ["s0", "s1"]), (push, ["s2"]), (tick, ["s3", "s4"])]
        assert runs[0][0] is tick and runs[2][0] is tick
