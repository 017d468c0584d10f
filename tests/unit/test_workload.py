"""Workload generator tests: the trace's shape and the ops it draws."""

import random

import pytest

from repro.chat import model
from repro.core import ObjectKey
from repro.serve.workload import READ, Op, expected_state
from repro.workload import MattermostTrace, TraceConfig


def small_config(**overrides):
    base = dict(n_users=200, n_workspaces=3, channels_per_workspace=20,
                big_workspace_users=100, seed=5)
    base.update(overrides)
    return TraceConfig(**base)


def sample_ops(trace, n_per_user=10, seed=1):
    """Each user's first ``n_per_user`` ops, issued 10 ms apart."""
    rng = random.Random(seed)
    return [(user, trace.sample_op(user, i, rng, 10.0 * i))
            for user in trace.users
            for i in range(1, n_per_user + 1)]


class TestTopology:
    def test_user_and_workspace_counts(self):
        trace = MattermostTrace(small_config())
        assert len(trace.users) == 200
        assert len(trace.workspaces) == 3

    def test_big_workspace_membership(self):
        trace = MattermostTrace(small_config())
        big = trace.workspaces[0]
        members = [u for u in trace.users
                   if big in trace.user_workspaces[u]]
        assert len(members) == 100

    def test_every_user_has_a_workspace(self):
        trace = MattermostTrace(small_config())
        assert all(trace.user_workspaces[u] for u in trace.users)

    def test_channels_average_near_twenty(self):
        trace = MattermostTrace(small_config())
        counts = [len(chs) for chs in trace.channels.values()]
        assert 10 <= sum(counts) / len(counts) <= 30

    def test_deterministic_from_seed(self):
        t1 = MattermostTrace(small_config())
        t2 = MattermostTrace(small_config())
        assert t1.user_workspaces == t2.user_workspaces
        assert sample_ops(t1) == sample_ops(t2)


class TestActions:
    def test_read_write_ratio(self):
        trace = MattermostTrace(small_config())
        ops = [op for _user, op in sample_ops(trace)]
        reads = sum(1 for op in ops if op.method == READ)
        # >= 90% reads (refresh every 5th txn also reads).
        assert reads / len(ops) >= 0.85
        assert reads < len(ops)

    def test_refresh_every_fifth_txn_reads(self):
        trace = MattermostTrace(small_config())
        rng = random.Random(0)
        ops = [trace.sample_op("user0", 5 * k, rng, 0.0)
               for k in range(1, 50)]
        assert all(op.method == READ for op in ops)

    def test_actions_target_member_workspaces(self):
        trace = MattermostTrace(small_config())
        for user, op in sample_ops(trace):
            assert op.client == user
            channels = {model.channel_messages(workspace, channel).key
                        for workspace in trace.user_workspaces[user]
                        for channel in trace.channels[workspace]}
            own = {model.user_profile(user).key,
                   model.user_friends(user).key,
                   model.user_events(user).key}
            assert op.key in (channels if op.key.bucket
                              == model.CHANNELS_BUCKET else own)

    def test_posts_have_text(self):
        trace = MattermostTrace(small_config())
        posts = [(user, op) for user, op in sample_ops(trace)
                 if op.key.bucket == model.CHANNELS_BUCKET
                 and op.method == "append"]
        assert posts
        for user, op in posts:
            (message,) = op.args
            assert message["author"] == user and message["text"]
            assert message["at"] == op.at_ms


class TestExpectedState:
    KEYS = [(ObjectKey("w", "c"), "counter"), (ObjectKey("w", "s"), "orset")]

    def test_folds_increments_and_adds_and_skips_reads(self):
        (c, _), (s, _) = self.KEYS
        ops = [Op(0.0, "e", c, "counter", "increment", (2,)),
               Op(0.0, "e", c, "counter", READ),
               Op(0.0, "e", s, "orset", "add", ("x",)),
               Op(0.0, "e", s, "orset", READ),
               Op(0.0, "e", c, "counter", "increment", (3,))]
        assert expected_state(self.KEYS, ops) == {c: 5, s: {"x"}}

    @pytest.mark.parametrize("method, args", [
        ("append", ({"text": "hi"},)),
        ("update", ("f", "lwwregister", "assign", 1)),
        ("remove", ("x",))])
    def test_an_update_with_no_fold_raises(self, method, args):
        s = self.KEYS[1][0]
        with pytest.raises(ValueError, match=repr(method)):
            expected_state(self.KEYS, [Op(0.0, "e", s, "orset", method,
                                          args)])
