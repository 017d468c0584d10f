"""ColonyChat application logic over the public API (paper section 7.1).

Each operation is one atomic Colony transaction.  ``join_workspace`` is the
paper's flagship invariant: the user's workspace set and the workspace's
member map update atomically, so "a user is in a workspace if and only if
the workspace is in the user's profile" holds at every TCC+ snapshot.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..api.client import Connection, DoneFn
from . import model


class ChatApp:
    """One user's view of ColonyChat, bound to a connection."""

    def __init__(self, connection: Connection, user: str):
        self.conn = connection
        self.user = user

    # -- workspace membership -------------------------------------------------
    def join_workspace(self, workspace: str,
                       status: str = model.ORDINARY,
                       on_done: Optional[DoneFn] = None) -> None:
        members = model.workspace_members(workspace)
        workspaces = model.user_workspaces(self.user)
        self.conn.update([
            members.register(self.user).assign(status),
            workspaces.add(workspace),
        ], on_done=on_done)

    def leave_workspace(self, workspace: str,
                        on_done: Optional[DoneFn] = None) -> None:
        members = model.workspace_members(workspace)
        workspaces = model.user_workspaces(self.user)
        self.conn.update([
            members.register(self.user).assign(model.DELETED),
            workspaces.remove(workspace),
        ], on_done=on_done)

    def create_channel(self, workspace: str, channel: str,
                       description: str = "",
                       on_done: Optional[DoneFn] = None) -> None:
        channels = model.workspace_channels(workspace)
        meta = model.channel_meta(workspace, channel)
        self.conn.update([
            channels.add(channel),
            meta.register("description").assign(description),
        ], on_done=on_done)

    # -- messaging ----------------------------------------------------------------
    def post_message(self, workspace: str, channel: str, text: str,
                     at: float = 0.0,
                     on_done: Optional[DoneFn] = None) -> None:
        messages = model.channel_messages(workspace, channel)
        self.conn.update(
            messages.append(model.message(self.user, text, at)),
            on_done=on_done)

    def read_channel(self, workspace: str, channel: str,
                     on_done: Optional[Callable[[List[Any]], None]] = None) \
            -> None:
        messages = model.channel_messages(workspace, channel)

        def unwrap(value: Any, stats) -> None:
            if on_done is not None:
                on_done(value if value is not None else [])

        self.conn.read(messages, on_done=unwrap)

    def follow_channel(self, workspace: str, channel: str,
                       callback: Callable[[Any], None]) -> None:
        """Reactive subscription: run ``callback`` on new visible posts."""
        messages = model.channel_messages(workspace, channel)
        self.conn.subscribe(messages, lambda _key: callback(channel))

    # -- profile / social ------------------------------------------------------------
    def set_profile(self, field: str, value: Any,
                    on_done: Optional[DoneFn] = None) -> None:
        profile = model.user_profile(self.user)
        self.conn.update(profile.register(field).assign(value),
                         on_done=on_done)

    def add_friend(self, friend: str,
                   on_done: Optional[DoneFn] = None) -> None:
        self.conn.update(model.user_friends(self.user).add(friend),
                         on_done=on_done)

    def log_event(self, text: str, at: float = 0.0,
                  on_done: Optional[DoneFn] = None) -> None:
        events = model.user_events(self.user)
        self.conn.update(events.append({"text": text, "at": at}),
                         on_done=on_done)

    # -- reactions, presence, typing ---------------------------------------------
    def react(self, workspace: str, channel: str, message_id: str,
              emoji: str, on_done: Optional[DoneFn] = None) -> None:
        """Add an emoji reaction to a message (a nested counter)."""
        reactions = model.channel_reactions(workspace, channel)
        self.conn.update(
            reactions.counter(f"{message_id}|{emoji}").increment(1),
            on_done=on_done)

    def read_reactions(self, workspace: str, channel: str,
                       message_id: str,
                       on_done: Optional[Callable[[dict], None]] = None) \
            -> None:
        """Reactions of one message as {emoji: count}."""
        reactions = model.channel_reactions(workspace, channel)

        def unwrap(value: Any, stats) -> None:
            table = {}
            for field, count in (value or {}).items():
                msg_id, _sep, emoji = field.rpartition("|")
                if msg_id == message_id:
                    table[emoji] = count
            if on_done is not None:
                on_done(table)

        self.conn.read(reactions, on_done=unwrap)

    def set_presence(self, workspace: str, online: bool,
                     on_done: Optional[DoneFn] = None) -> None:
        presence = model.user_presence(workspace, self.user)
        update = presence.enable() if online else presence.disable()
        self.conn.update(update, on_done=on_done)

    def start_typing(self, workspace: str, channel: str,
                     on_done: Optional[DoneFn] = None) -> None:
        typing = model.typing_indicator(workspace, channel)
        self.conn.update(typing.add(self.user), on_done=on_done)

    def stop_typing(self, workspace: str, channel: str,
                    on_done: Optional[DoneFn] = None) -> None:
        typing = model.typing_indicator(workspace, channel)
        self.conn.update(typing.remove(self.user), on_done=on_done)

    # -- cache priming ------------------------------------------------------------------
    def open_workspace(self, workspace: str, channels: List[str]) -> None:
        """Declare interest in a workspace's objects (cache warm-up)."""
        self.conn.open_bucket(
            model.workspace_objects(workspace, self.user, channels))
