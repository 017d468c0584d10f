"""Representative instances of every wire message class.

One place for realistic message samples, shared by:

* the round-trip property tests (encode → decode → equality for every
  registered class), the codec oracle and the byte fuzz;
* the exactness tests, which hold ``wire_size`` to the encoded length
  of every sample and ask for a sample of every class of the codec's
  table.

Samples follow what each message really carries: the values themselves
— transactions, dots, keys, object states and stream entries, as codec
records — wherever a message carries or names one, consensus commands
included; a dot's ``to_dict`` shape only where Tiga names its round by
it; plus edge variants: empty collections, unicode ids, large counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Type

from ..core.dot import Dot
from ..core.journal import ObjectState
from ..core.txn import ObjectKey, StreamEntry, Transaction, WriteOp
from ..dc import messages as dc
from ..epaxos import messages as epx
from ..groups import messages as grp
from .codec import message_classes

# -- realistic payload fragments (core to_dict shapes) ----------------------

DOT_A = {"origin": "m0", "counter": 3}
DOT_B = {"origin": "far", "counter": 12}

KEY_C0 = {"bucket": "app", "key": "c0"}
KEY_S0 = {"bucket": "app", "key": "s0"}

WRITE_COUNTER = {"key": KEY_C0,
                 "op": {"type": "counter", "method": "increment",
                        "payload": {"amount": 2}, "tag": None}}
WRITE_ORSET = {"key": KEY_S0,
               "op": {"type": "orset", "method": "add",
                      "payload": {"value": "m0:7"}, "tag": None}}

TXN = {"dot": DOT_A, "origin": "m0",
       "snapshot": {"vector": {"dc0": 3, "m0": 2},
                    "local_deps": [DOT_B]},
       "commit": {"entries": {"dc0": 7}},
       "writes": [WRITE_COUNTER, WRITE_ORSET],
       "issuer": "m0"}

TXN_EMPTY = {"dot": DOT_B, "origin": "far",
             "snapshot": {"vector": {}, "local_deps": []},
             "commit": {"entries": {}},
             "writes": [WRITE_COUNTER],
             "issuer": None}

#: The same dots, keys and transactions as values (records on the wire).
DOT_A_VALUE = Dot.from_dict(DOT_A)
DOT_B_VALUE = Dot.from_dict(DOT_B)
KEY_C0_VALUE = ObjectKey.from_dict(KEY_C0)
KEY_S0_VALUE = ObjectKey.from_dict(KEY_S0)
TXN_VALUE = Transaction.from_dict(TXN)
TXN_EMPTY_VALUE = Transaction.from_dict(TXN_EMPTY)

STREAM_ENTRY = StreamEntry(DOT_A_VALUE, "dc0", None, {"dc1": 2},
                           (DOT_B_VALUE,), {"dc0": 9},
                           (WriteOp.from_dict(WRITE_ORSET),))

#: An object version: a CRDT's ``to_dict()`` form and its folded dots.
OBJECT_STATE = ObjectState(KEY_C0_VALUE, "counter",
                           {"type": "counter", "value": 41},
                           (DOT_A_VALUE, DOT_B_VALUE))

VECTOR = {"dc0": 4, "dc1": 17, "dc2": 9}

HLC = (1234.5, 3, "m0")
INSTANCE = ("m0", 7)
BALLOT = (1, "m1")
DEPS = frozenset({("m1", 3), ("m2", 5)})

#: Class -> list of sample instances.  Every class of the codec's id
#: table must appear here (``test_wire_size_exact.py`` fails otherwise).
_SAMPLES: Dict[Type, List[Any]] = {
    # -- edge/client <-> DC ------------------------------------------------
    dc.SessionOpen: [
        dc.SessionOpen("far", ((KEY_C0_VALUE, "counter"),
                               (KEY_S0_VALUE, "orset")),
                       dict(VECTOR), (DOT_A_VALUE,), None),
        dc.SessionOpen("edgé-1", (), {}, (), "token-αβ"),
    ],
    dc.SessionAck: [
        dc.SessionAck("dc0", (OBJECT_STATE, ObjectState(
            KEY_S0_VALUE, "orset", {"type": "orset", "instances": []}, ())),
            dict(VECTOR)),
        dc.SessionAck("dc1", (), {}, accepted=False, reason="denied"),
    ],
    dc.InterestChange: [
        dc.InterestChange("far", add=((KEY_C0_VALUE, "counter"),),
                          remove=(KEY_S0_VALUE,), state_vector=dict(VECTOR)),
        dc.InterestChange("far"),
    ],
    dc.ObjectRequest: [
        dc.ObjectRequest("far", KEY_C0_VALUE, "counter", dict(VECTOR)),
        dc.ObjectRequest("far", KEY_S0_VALUE, "orset"),
    ],
    dc.ObjectResponse: [
        dc.ObjectResponse(OBJECT_STATE, dict(VECTOR)),
    ],
    dc.EdgeCommit: [dc.EdgeCommit(TXN_VALUE.handoff()),
                    dc.EdgeCommit(TXN_EMPTY_VALUE.handoff())],
    dc.EdgeCommitBatch: [
        dc.EdgeCommitBatch((TXN_VALUE.handoff(), TXN_EMPTY_VALUE.handoff())),
        dc.EdgeCommitBatch(()),
    ],
    dc.CommitAck: [dc.CommitAck(DOT_A_VALUE, {"dc0": 7, "dc1": 8}),
                   dc.CommitAck(DOT_B_VALUE, {})],
    dc.CommitReject: [dc.CommitReject(DOT_A_VALUE, "unauthorised")],
    dc.UpdatePush: [
        dc.UpdatePush((TXN_VALUE.handoff(),), dict(VECTOR), {"dc0": 3}),
        dc.UpdatePush((), {}, {}),
    ],
    dc.RemoteTxnRequest: [
        dc.RemoteTxnRequest("cloud-1", 42,
                            reads=((KEY_C0_VALUE, "counter"),),
                            updates=((KEY_S0_VALUE, "orset", "add",
                                      ("cloud-1:1",)),),
                            snapshot=dict(VECTOR),
                            local_deps=(DOT_A_VALUE,), issuer="u1",
                            dot=DOT_B_VALUE),
        dc.RemoteTxnRequest("cloud-2", 1),
    ],
    dc.RemoteTxnReply: [
        dc.RemoteTxnReply(42, (17, None), True, {"dc0": 7}),
        dc.RemoteTxnReply(1, (), False, reason="conflict"),
    ],
    # -- DC <-> DC ---------------------------------------------------------
    dc.DCSyncPing: [
        dc.DCSyncPing(dict(VECTOR), 0b1011, 4),
        dc.DCSyncPing({}),
    ],
    dc.ReplicateBatch: [
        dc.ReplicateBatch("dc0", 5, {"dc0": 4},
                          (STREAM_ENTRY, STREAM_ENTRY), dict(VECTOR)),
        dc.ReplicateBatch("dc0", 5, {"dc0": 4},
                          (STREAM_ENTRY, (3, 0b101)), dict(VECTOR)),
        dc.ReplicateBatch("dc1", 0, {}, (), {}),
    ],
    dc.InterestAdvert: [dc.InterestAdvert(0b1111, 2, (1, 3))],
    dc.ShardBackfill: [
        dc.ShardBackfill(2, ((5, TXN_VALUE.handoff()),), 9),
        dc.ShardBackfill(0, (), 0),
    ],
    dc.ReplicateBatchAck: [dc.ReplicateBatchAck(dict(VECTOR))],
    # -- intra-DC ----------------------------------------------------------
    dc.ShardPrepare: [dc.ShardPrepare(7, TXN_VALUE.handoff())],
    dc.ShardVote: [dc.ShardVote(7, True), dc.ShardVote(8, False)],
    dc.ShardCommit: [dc.ShardCommit(7, TXN_VALUE.handoff())],
    dc.ShardAbort: [dc.ShardAbort(7)],
    dc.ShardApply: [dc.ShardApply(TXN_VALUE.handoff())],
    dc.ShardApplyBatch: [
        dc.ShardApplyBatch((TXN_VALUE.handoff(), TXN_EMPTY_VALUE.handoff())),
    ],
    dc.ShardCompactMsg: [dc.ShardCompactMsg(dict(VECTOR))],
    dc.ShardRead: [
        dc.ShardRead(3, KEY_C0_VALUE, "counter", dict(VECTOR),
                     (DOT_A_VALUE,)),
    ],
    dc.ShardReadReply: [dc.ShardReadReply(3, OBJECT_STATE)],
    # -- EPaxos ------------------------------------------------------------
    epx.PreAccept: [
        epx.PreAccept(INSTANCE, BALLOT, TXN_VALUE.handoff(), 2, DEPS),
        epx.PreAccept(INSTANCE, BALLOT, None, 0, frozenset()),
    ],
    epx.PreAcceptReply: [
        epx.PreAcceptReply(INSTANCE, BALLOT, True, 2, DEPS),
    ],
    epx.Accept: [epx.Accept(INSTANCE, BALLOT, TXN_VALUE.handoff(), 2,
                            DEPS)],
    epx.AcceptReply: [epx.AcceptReply(INSTANCE, BALLOT, True)],
    epx.Commit: [epx.Commit(INSTANCE, TXN_VALUE.handoff(), 2, DEPS)],
    epx.Prepare: [epx.Prepare(INSTANCE, (2, "m2"))],
    epx.PrepareReply: [
        epx.PrepareReply(INSTANCE, (2, "m2"), True, "accepted",
                         BALLOT, TXN_VALUE.handoff(), 2, DEPS),
        epx.PrepareReply(INSTANCE, (2, "m2"), False, "none",
                         None, None, 0, frozenset()),
    ],
    # -- Tiga --------------------------------------------------------------
    epx.TigaPropose: [epx.TigaPropose(
        DOT_A, HLC, {"dot": DOT_A, "txn": TXN_VALUE.handoff()})],
    epx.TigaAck: [epx.TigaAck(DOT_A, HLC, True, 1233.25)],
    epx.TigaCommit: [epx.TigaCommit(
        DOT_A, HLC, {"dot": DOT_A, "txn": TXN_VALUE.handoff()})],
    epx.TigaWithdraw: [epx.TigaWithdraw(DOT_A)],
    epx.TigaStatus: [epx.TigaStatus(DOT_A, "m2")],
    # -- groups ------------------------------------------------------------
    grp.GroupMsg: [
        grp.GroupMsg("g", 0, epx.PreAccept(INSTANCE, BALLOT,
                                           TXN_VALUE.handoff(), 2, DEPS)),
        grp.GroupMsg("g", 3, epx.Commit(INSTANCE, TXN_EMPTY_VALUE.handoff(),
                                        1, frozenset())),
    ],
    grp.JoinGroup: [grp.JoinGroup("m3", ((KEY_C0_VALUE, "counter"),))],
    grp.LeaveGroup: [grp.LeaveGroup("m3")],
    grp.MembershipUpdate: [
        grp.MembershipUpdate("g", 2, "m0", ("m0", "m1", "m2"),
                             "key-1"),
    ],
    grp.GroupSeed: [
        grp.GroupSeed("g", 2,
                      ((INSTANCE, TXN_VALUE.handoff(), 2, (("m1", 3),)),
                       (("m1", 0), None, 0, ())),
                      dict(VECTOR)),
    ],
    grp.InterestAnnounce: [
        grp.InterestAnnounce("m1", add=((KEY_S0_VALUE, "orset"),),
                             remove=(KEY_C0_VALUE,)),
    ],
    grp.GroupFetch: [grp.GroupFetch(KEY_C0_VALUE, "counter", "m2")],
    grp.GroupFetchReply: [
        grp.GroupFetchReply(KEY_C0_VALUE, OBJECT_STATE, dict(VECTOR), True),
        grp.GroupFetchReply(KEY_S0_VALUE, None, {}, False),
    ],
    grp.GroupRelayPush: [
        grp.GroupRelayPush((TXN_VALUE.handoff(),), dict(VECTOR),
                           {"dc0": 3}),
    ],
    grp.GroupCommitAck: [grp.GroupCommitAck(DOT_A_VALUE, {"dc0": 7})],
    grp.TxnPull: [grp.TxnPull("m1", (DOT_A_VALUE, DOT_B_VALUE))],
    grp.TxnPushMsg: [grp.TxnPushMsg((TXN_VALUE.handoff(),))],
}


def _control_samples() -> Dict[Type, List[Any]]:
    from ..serve import control as ctl
    return {
        ctl.CtrlStart: [ctl.CtrlStart("serve-3dc")],
        ctl.CtrlDigestRequest: [ctl.CtrlDigestRequest(4)],
        ctl.CtrlDigestReply: [
            ctl.CtrlDigestReply(4, "dc0", "dc", "ab" * 32, 5, 18),
        ],
        ctl.CtrlShutdown: [ctl.CtrlShutdown()],
        ctl.CtrlBye: [ctl.CtrlBye("dc0")],
    }


def samples_by_class() -> Dict[Type, List[Any]]:
    """Samples for every registered message class (ctl included)."""
    merged = dict(_SAMPLES)
    merged.update(_control_samples())
    return merged


def all_samples() -> List[Any]:
    return [sample for samples in samples_by_class().values()
            for sample in samples]


def unsampled_classes() -> List[Type]:
    """Registered message classes with no sample."""
    covered = set(samples_by_class())
    return [cls for cls in message_classes().values()
            if cls not in covered]
