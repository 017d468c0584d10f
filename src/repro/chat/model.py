"""ColonyChat data model (paper section 7.1).

A team-collaboration application modelled after Slack/Mattermost, with
three main entities represented as CRDT objects:

* a **user** has a profile (map), an event list (sequence), a set of
  friends and a set of workspaces she is a member of;
* a **workspace** holds its member users with a status (owner, ordinary,
  invited, deleted) and a set of channels;
* a **channel** holds a description and the sequence of posted messages.

The schema is pure naming logic: it maps entity identifiers to object
handles so that application code and the workload generator agree on keys.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..api.handles import (FlagHandle, MapHandle, ObjectHandle,
                           ORMapHandle, SequenceHandle, SetHandle)

USERS_BUCKET = "users"
WORKSPACES_BUCKET = "workspaces"
CHANNELS_BUCKET = "channels"

# Workspace membership statuses (paper section 7.1).
OWNER = "owner"
ORDINARY = "ordinary"
INVITED = "invited"
DELETED = "deleted"


def user_profile(user: str) -> MapHandle:
    """Profile fields (display name, avatar...) as a grow-only map."""
    return MapHandle(f"{user}/profile", USERS_BUCKET)


def user_events(user: str) -> SequenceHandle:
    """The user's event feed (mentions, invitations...)."""
    return SequenceHandle(f"{user}/events", USERS_BUCKET)


def user_friends(user: str) -> SetHandle:
    return SetHandle(f"{user}/friends", USERS_BUCKET)


def user_workspaces(user: str) -> SetHandle:
    """Workspaces the user is a member of (one side of the invariant)."""
    return SetHandle(f"{user}/workspaces", USERS_BUCKET)


def workspace_members(workspace: str) -> MapHandle:
    """user -> status registers (the other side of the invariant)."""
    return MapHandle(f"{workspace}/members", WORKSPACES_BUCKET)


def workspace_channels(workspace: str) -> SetHandle:
    return SetHandle(f"{workspace}/channels", WORKSPACES_BUCKET)


def channel_meta(workspace: str, channel: str) -> MapHandle:
    """Channel description and settings."""
    return MapHandle(f"{workspace}/{channel}/meta", CHANNELS_BUCKET)


def channel_messages(workspace: str, channel: str) -> SequenceHandle:
    return SequenceHandle(f"{workspace}/{channel}/messages",
                          CHANNELS_BUCKET)


def channel_reactions(workspace: str, channel: str) -> ORMapHandle:
    """Per-message emoji reactions: message id -> emoji -> counter."""
    return ORMapHandle(f"{workspace}/{channel}/reactions",
                       CHANNELS_BUCKET)


def user_presence(workspace: str, user: str) -> FlagHandle:
    """Online/offline presence as an enable-wins flag."""
    return FlagHandle(f"{workspace}/{user}/presence", WORKSPACES_BUCKET)


def typing_indicator(workspace: str, channel: str) -> SetHandle:
    """Set of users currently typing in the channel."""
    return SetHandle(f"{workspace}/{channel}/typing", CHANNELS_BUCKET)


def workspace_objects(workspace: str, user: str,
                      channels: List[str]) -> List[ObjectHandle]:
    """What a user caches of one workspace: its membership and channel
    sets, the user's own objects, and the listed channels."""
    handles: List[ObjectHandle] = [
        workspace_members(workspace), workspace_channels(workspace),
        user_workspaces(user), user_profile(user), user_friends(user),
        user_events(user)]
    for channel in channels:
        handles.append(channel_messages(workspace, channel))
        handles.append(channel_meta(workspace, channel))
    return handles


def message(author: str, text: str, at: float) -> Dict[str, Any]:
    """The message payload appended to a channel sequence."""
    return {"author": author, "text": text, "at": at,
            "id": f"{author}/{at:.3f}"}
