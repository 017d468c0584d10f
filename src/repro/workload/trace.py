"""Synthetic Mattermost-like trace (paper section 7.1).

The paper replays "a modified trace from a popular Mattermost server" that
is not publicly available.  We regenerate its shape, seeded:

* ~2 000 users over 3 workspaces, ~20 channels per workspace on average;
* one workspace with 1 000 users; users may belong to several workspaces;
* 90/10 read/write ratio; a user refreshes its local copy of a channel
  every 5 transactions.

:meth:`MattermostTrace.sample_op` draws a user's next action as a
:class:`~repro.serve.workload.Op` on ``chat.model``'s objects, and the
closed loop (``workload.driver``) runs it; that is all the figures run.
The paper's other trace statistics (Pareto 80/20 activity, a 40-day
diurnal cycle, ~10 % reactive bots) are not reproduced: no figure uses
them, every client of a figure runs the same closed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..chat import model
from ..serve.workload import READ, Op


@dataclass
class TraceConfig:
    """Knobs matching the paper's workload description."""

    n_users: int = 2000
    n_workspaces: int = 3
    channels_per_workspace: int = 20
    big_workspace_users: int = 1000
    read_ratio: float = 0.90
    refresh_every: int = 5
    seed: int = 42


# Write-action mix within the 10% writes.
_WRITE_ACTIONS = (("post_message", 0.80), ("update_profile", 0.08),
                  ("add_friend", 0.06), ("log_event", 0.06))


class MattermostTrace:
    """The synthetic trace's users, workspaces and channels."""

    def __init__(self, config: Optional[TraceConfig] = None):
        self.config = config or TraceConfig()
        self.rng = random.Random(self.config.seed)
        cfg = self.config
        self.users = [f"user{i}" for i in range(cfg.n_users)]
        # The draw that once picked the 10 % bots: it keeps every later
        # draw, and so every figure, where it was.
        self.rng.sample(self.users, int(cfg.n_users * 0.10))
        self.workspaces = [f"ws{i}" for i in range(cfg.n_workspaces)]
        self.channels: Dict[str, List[str]] = {}
        self.user_workspaces: Dict[str, List[str]] = {}
        self._build_topology()

    # -- topology ------------------------------------------------------------
    def _build_topology(self) -> None:
        cfg, rng = self.config, self.rng
        for workspace in self.workspaces:
            # ~20 channels on average, jittered per workspace.
            n_channels = max(1, int(rng.gauss(cfg.channels_per_workspace,
                                              cfg.channels_per_workspace
                                              * 0.2)))
            self.channels[workspace] = [f"{workspace}-ch{i}"
                                        for i in range(n_channels)]
        big = self.workspaces[0]
        big_users = self.users[:min(cfg.big_workspace_users,
                                    len(self.users))]
        for user in self.users:
            memberships = []
            if user in big_users:
                memberships.append(big)
            others = [w for w in self.workspaces if w != big]
            if others:
                # Everyone joins at least one workspace; some join more.
                extra = rng.sample(others,
                                   1 + (rng.random() < 0.25
                                        and len(others) > 1))
                memberships.extend(extra)
            if not memberships:
                memberships.append(big)
            self.user_workspaces[user] = memberships

    # -- sampling ---------------------------------------------------------------
    def sample_op(self, user: str, txn_index: int, rng: random.Random,
                  now: float) -> Op:
        """The user's ``txn_index``-th action, issued at ``now``: a read
        of one of its channels, or a write from ``_WRITE_ACTIONS``."""
        workspace = rng.choice(self.user_workspaces[user])
        channel = rng.choice(self.channels[workspace])
        messages = model.channel_messages(workspace, channel)
        if txn_index % self.config.refresh_every == 0 \
                or rng.random() < self.config.read_ratio:
            # A periodic local-copy refresh, or a read of the mix.
            return Op(now, user, messages.key, messages.TYPE_NAME, READ)
        action = self._sample_write(rng)
        if action == "post_message":
            update = messages.append(model.message(
                user, f"msg-{user}-{txn_index}", now))
        elif action == "update_profile":
            update = model.user_profile(user).register("status") \
                .assign(f"at-{now:.0f}")
        elif action == "add_friend":
            update = model.user_friends(user).add(f"user{int(now) % 97}")
        else:
            update = model.user_events(user).append(
                {"text": f"event-at-{now:.0f}", "at": now})
        return Op(now, user, update.key, update.type_name, update.method,
                  update.args)

    @staticmethod
    def _sample_write(rng: random.Random) -> str:
        roll = rng.random()
        acc = 0.0
        for action, share in _WRITE_ACTIONS:
            acc += share
            if roll < acc:
                return action
        return _WRITE_ACTIONS[0][0]
