"""Property tests: a value carried as a record holds what its dict form
held, and costs on the wire what it encodes to.

Messages carry ``Transaction`` values, ``StreamEntry`` records, keys,
dots and object states where they once carried ``to_dict()`` forms.
The sizes those forms were charged by are gone: every send charges
``wire_size(message)``, the length the message's schema encodes it to
(``repro.transport.codec``).  Here, for the three kinds of message that
moved from dicts to records — those carrying transactions, the stream
entries of replication frames, and those naming keys, dots and object
states — the record is held to the dict form it replaced, and the
message to its encoded length.
"""

from dataclasses import fields
from typing import Any, Dict

from hypothesis import given, settings, strategies as st

from repro.core.clock import VectorClock
from repro.core.txn import Transaction
from repro.dc import messages as dc
from repro.dc.messages import (ReplicateBatch, ShardApply, ShardApplyBatch,
                               ShardBackfill, ShardCommit, ShardPrepare)
from repro.dc.replog import decode_stream_entry, encode_stream_entry
from repro.groups import messages as grp
from repro.transport.codec import (decode_message, decode_value,
                                   encode_message, encode_value,
                                   record_classes, value_size, wire_size)

from .test_codec_roundtrip import (_counts, _ids, dots, object_keys,
                                   object_states, transactions)


def assert_exact(message):
    """``message`` is charged its encoded length, and decodes to itself."""
    encoded = encode_message(message)
    assert wire_size(message) == len(encoded), message
    assert decode_message(encoded) == message


@given(transactions)
@settings(deadline=None)
def test_transaction_size_is_its_dict_forms(txn):
    record = encode_value(txn)
    assert value_size(txn) == len(record)
    assert decode_value(record).to_dict() == txn.to_dict()
    for message in (ShardApply(txn), ShardPrepare(1, txn),
                    ShardCommit(1, txn), ShardApplyBatch((txn, txn)),
                    ShardBackfill(0, ((3, txn),), 3)):
        assert_exact(message)
    # A handoff copy is charged what the transaction it copies is.
    assert wire_size(ShardApply(txn.handoff())) == wire_size(ShardApply(txn))


# ----------------------------------------------------------------------
# the oracle: the dict stream entry (verbatim)
# ----------------------------------------------------------------------


def dict_stream_entry(txn: Transaction, stream_dc: str, ts: int,
                      base: VectorClock) -> Dict[str, Any]:
    assigned = txn.commit.entries.get(stream_dc)
    if assigned is not None and assigned != ts:
        raise ValueError(
            f"stream position {ts} contradicts commit entry "
            f"{stream_dc}:{assigned} for {txn.dot}")
    entry = {
        "dot": txn.dot.to_dict(),
        "origin": txn.origin,
        "issuer": txn.issuer,
        "sv": txn.snapshot.vector.delta_from(base),
        "deps": [d.to_dict() for d in sorted(txn.snapshot.local_deps)],
        "cx": {dc: t for dc, t in txn.commit.entries.items()
               if dc != stream_dc},
        "writes": [w.to_dict() for w in txn.writes],
    }
    return entry

# ----------------------------------------------------------------------


@given(transactions, _ids,
       st.builds(VectorClock,
                 st.dictionaries(_ids, st.integers(1, 2**40), max_size=4)))
@settings(deadline=None)
def test_stream_entry_size_is_its_dict_forms(txn, stream_dc, base):
    ts = txn.commit.entries.get(stream_dc, 1)    # the position it names
    entry = encode_stream_entry(txn, stream_dc, ts, base)
    oracle = dict_stream_entry(txn, stream_dc, ts, base)
    assert value_size(entry) == len(encode_value(entry))
    assert_exact(ReplicateBatch(stream_dc, ts, base.to_dict(), (entry,),
                                {}))
    # The record holds what the dict held, as values.
    assert entry.dot.to_dict() == oracle["dot"]
    assert (entry.origin, entry.issuer, entry.sv, entry.cx) \
        == (oracle["origin"], oracle["issuer"], oracle["sv"], oracle["cx"])
    assert [d.to_dict() for d in entry.deps] == oracle["deps"]
    assert [w.to_dict() for w in entry.writes] == oracle["writes"]
    # And decodes to the transaction, sharing its writes.
    back = decode_stream_entry(entry, stream_dc, ts, base)
    assert back.to_dict() == {**txn.to_dict(), "commit": {
        "entries": {**txn.commit.entries, stream_dc: ts}}}
    assert back.writes is txn.writes


# ----------------------------------------------------------------------
# messages that name keys, dots and object states
# ----------------------------------------------------------------------

_interest = st.lists(st.tuples(object_keys, _ids), max_size=3).map(tuple)
_deps = st.lists(dots, max_size=3).map(tuple)
naming_messages = st.one_of(
    st.builds(dc.SessionOpen, _ids, _interest, _counts, _deps,
              st.none() | _ids),
    st.builds(dc.SessionAck, _ids,
              st.lists(object_states, max_size=3).map(tuple), _counts),
    st.builds(dc.InterestChange, _ids, _interest,
              st.lists(object_keys, max_size=3).map(tuple), _counts),
    st.builds(dc.ObjectRequest, _ids, object_keys, _ids, _counts),
    st.builds(dc.ObjectResponse, object_states, _counts),
    st.builds(dc.RemoteTxnRequest, _ids, st.integers(0, 99), _interest,
              st.lists(st.tuples(object_keys, _ids, _ids,
                                 st.tuples(st.integers())),
                       max_size=2).map(tuple),
              st.none() | _counts, _deps, st.none() | _ids,
              st.none() | dots),
    st.builds(dc.ShardRead, st.integers(0, 99), object_keys, _ids, _counts,
              _deps),
    st.builds(dc.ShardReadReply, st.integers(0, 99), object_states),
    st.builds(grp.JoinGroup, _ids, _interest),
    st.builds(grp.InterestAnnounce, _ids, _interest,
              st.lists(object_keys, max_size=3).map(tuple)),
    st.builds(grp.GroupFetch, object_keys, _ids, _ids),
    st.builds(grp.GroupFetchReply, object_keys, st.none() | object_states,
              _counts, st.booleans()))


RECORD_CLASSES = set(record_classes().values())


def named_records(values):
    """The records among ``values`` and the tuples they hold."""
    for value in values:
        if isinstance(value, tuple):
            yield from named_records(value)
        elif type(value) in RECORD_CLASSES:
            yield value


@given(naming_messages)
@settings(deadline=None)
def test_naming_sizes_are_their_dict_forms_with_record_constants(message):
    assert_exact(message)
    # Each key, dot and object state it names is a record, charged its
    # encoded length, that decodes to it.
    for record in named_records(getattr(message, f.name)
                                for f in fields(message)):
        assert value_size(record) == len(encode_value(record))
        assert decode_value(encode_value(record)) == record
