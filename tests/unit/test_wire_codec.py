"""Wire codec: value round-trips, framing, registry, wire_size honesty."""

import dataclasses
from typing import Dict, List

import pytest

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
from repro.crdt.base import Operation
from repro.dc.messages import (CommitAck, EdgeCommit, ObjectResponse,
                               ReplicateBatch, UpdatePush)
from repro.epaxos.messages import Commit, PreAccept
from repro.groups.messages import GroupMsg
from repro.transport import codec, samples
from repro.transport.codec import (CodecError, DECODE_TABLE_MAX,
                                   DECODE_VALUES_MAX,
                                   ENCODE_TABLE_MAX, MAX_FRAME_BYTES,
                                   TABLE_STR_MAX_BYTES, decode_frame,
                                   decode_message, decode_value, encode_frame,
                                   encode_message, encode_value,
                                   message_classes, register, wire_size)


class TestValueRoundTrip:
    VALUES = [
        None, True, False, 0, 1, -1, 2**64, -(2**64), 10**30,
        0.0, -1.5, 2.5e300, "", "héllo ∆", b"", b"\x00\xff",
        (), (1, 2), [], [1, "a"], set(), {1, 2}, frozenset({3}),
        {}, {"a": 1, "b": [2, 3]}, {"nested": {"x": (1,)}},
        ({"k": frozenset({("a", 1)})},),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_round_trip_preserves_value_and_type(self, value):
        back = decode_value(encode_value(value))
        assert back == value
        assert type(back) is type(value)

    def test_container_element_types_survive(self):
        value = (1, [2.5], {"s"}, frozenset({4}), {"k": (5,)})
        back = decode_value(encode_value(value))
        assert isinstance(back[1], list) and isinstance(back[2], set)
        assert isinstance(back[3], frozenset) and isinstance(back[4]["k"],
                                                             tuple)

    def test_dict_encoding_is_canonical(self):
        a = encode_value({"x": 1, "y": 2})
        b = encode_value(dict([("y", 2), ("x", 1)]))
        assert a == b

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_trailing_garbage_raises(self):
        with pytest.raises(CodecError):
            decode_value(encode_value(1) + b"\x00")


class TestMessageCodec:
    def test_message_round_trip(self):
        message = CommitAck(Dot(3, "m0"), {"dc0": 7})
        assert decode_message(encode_message(message)) == message

    def test_nested_message_payload_round_trips(self):
        inner = PreAccept(("m0", 7), (1, "m1"), None, 0, frozenset())
        outer = GroupMsg("g", 0, inner)
        back = decode_message(encode_message(outer))
        assert back == outer
        assert isinstance(back.payload, PreAccept)

    def test_unregistered_dataclass_raises(self):
        @dataclasses.dataclass(frozen=True)
        class NotRegistered:
            x: int

        with pytest.raises(CodecError):
            encode_message(NotRegistered(1))

    def test_registration_refuses_a_class_that_is_not_frozen(self):
        @dataclasses.dataclass
        class BadRecord:
            items: Dict[str, int]

        with pytest.raises(CodecError, match="not a frozen dataclass"):
            register(BadRecord)

    def test_registration_refuses_a_mutable_container_field(self):
        @dataclasses.dataclass(frozen=True)
        class BadRecord:
            items: List[str]

        with pytest.raises(CodecError, match="mutable container"):
            register(BadRecord)

    def test_registration_refuses_a_class_missing_from_the_table(self):
        @dataclasses.dataclass(frozen=True)
        class Unlisted:
            x: int

        with pytest.raises(CodecError, match="no class id"):
            register(Unlisted)

    def test_encoded_size_matches_encoding(self):
        message = EdgeCommit(samples.TXN_VALUE)
        assert wire_size(message) == len(encode_message(message))

    def test_registry_covers_all_protocol_modules(self):
        modules = {cls.__module__ for cls in message_classes().values()}
        assert {"repro.dc.messages", "repro.epaxos.messages",
                "repro.groups.messages"} <= modules


class TestFraming:
    def test_frame_round_trip(self):
        message = Commit(("m1", 3), samples.TXN, 2, frozenset({("m0", 1)}))
        frame = encode_frame("m1", "m2", message)
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        src, dst, back = decode_frame(frame[4:])
        assert (src, dst, back) == ("m1", "m2", message)

    def test_oversized_frame_rejected(self):
        with pytest.raises(CodecError):
            encode_frame("a", "b", EdgeCommit(
                {"writes": ["x" * MAX_FRAME_BYTES]}))

    def test_truncated_body_raises(self):
        frame = encode_frame("m1", "m2", CommitAck(samples.DOT_A_VALUE, {}))
        with pytest.raises(CodecError):
            decode_frame(frame[4:-1])


class TestWireSizeHonesty:
    def test_every_registered_class_has_a_sample(self):
        assert samples.unsampled_classes() == []

    def test_samples_round_trip(self):
        for sample in samples.all_samples():
            assert decode_message(encode_message(sample)) == sample

    def test_declared_wire_size_within_tolerance(self):
        # The tolerance is zero: the size is derived from the schema.
        offenders = [(type(sample).__name__, wire_size(sample),
                      len(encode_message(sample)))
                     for sample in samples.all_samples()
                     if wire_size(sample) != len(encode_message(sample))]
        assert offenders == []


class TestStringTables:
    """The encoder's and the decoder's string tables are bounded, and
    only the clock can tell whether a string was in one.  Count-based,
    no timers."""

    def test_distinct_strings_never_grow_a_table_past_its_bound(self):
        peak_enc = peak_dec = 0
        for i in range(100_000):
            text = f"node-{i}"
            assert decode_value(encode_value(text)) == text
            peak_enc = max(peak_enc, len(codec._ENC_STRS))
            peak_dec = max(peak_dec, len(codec._DEC_STRS))
        # Both filled up (so the bound is what held them) and emptied.
        assert peak_enc == ENCODE_TABLE_MAX
        assert peak_dec == DECODE_TABLE_MAX
        assert len(codec._ENC_STRS) < ENCODE_TABLE_MAX

    def test_strings_over_the_cut_off_are_never_stored(self):
        edge = "x" * TABLE_STR_MAX_BYTES
        # One byte over, and under in characters but over in bytes.
        for text in (edge + "x", "é" * (TABLE_STR_MAX_BYTES // 2 + 1),
                     "y" * 10_000):
            raw = encode_value({text: [text]})
            assert decode_value(raw) == {text: [text]}
            assert text not in codec._ENC_STRS
            assert text.encode() not in codec._DEC_STRS
        assert decode_value(encode_value(edge)) == edge
        assert edge in codec._ENC_STRS
        assert edge.encode() in codec._DEC_STRS

    def test_bytes_do_not_depend_on_what_the_tables_hold(self):
        corpus = samples.all_samples()

        def frames():
            out = [encode_frame("dc0", "édge-1", m) for m in corpus]
            assert [decode_frame(f[4:])[2] for f in out] == corpus
            return out

        def clear():
            codec._ENC_STRS.clear()
            codec._DEC_STRS.clear()

        def fill_up():
            # Both directions see the same strings: they fill together.
            for i in range(ENCODE_TABLE_MAX - len(codec._ENC_STRS)):
                assert decode_value(encode_value(f"filler-{i}")) \
                    == f"filler-{i}"
            assert len(codec._ENC_STRS) == ENCODE_TABLE_MAX
            assert len(codec._DEC_STRS) == DECODE_TABLE_MAX

        clear()
        empty = frames()
        assert frames() == empty        # warm: every string a hit
        fill_up()
        assert frames() == empty        # full, the corpus among it
        assert len(codec._ENC_STRS) == ENCODE_TABLE_MAX
        clear()
        fill_up()
        assert frames() == empty        # full of others: emptied midway
        assert len(codec._ENC_STRS) < ENCODE_TABLE_MAX
        assert len(codec._DEC_STRS) < DECODE_TABLE_MAX
        clear()
        assert frames() == empty        # just cleared


class TestSharedValues:
    """The decoder hands out one object per ``Dot`` and per ``ObjectKey``
    from a bounded table, and only ``is`` can tell whether a value was
    in it.  Count-based, no timers."""

    DOT = Dot(7, "w0")
    KEY = ObjectKey("app", "doc")

    @staticmethod
    def decoded(message):
        return decode_frame(encode_frame("dc0", "edge-1", message)[4:])[2]

    def txn(self, dot, deps=()):
        write = WriteOp(self.KEY, Operation("counter", "increment",
                                            {"amount": 1}))
        return Transaction(dot, dot.origin,
                           Snapshot(VectorClock({"dc0": 2}), deps),
                           CommitStamp({"dc0": 3}), (write,))

    def test_a_value_decoded_in_many_frames_is_one_object(self):
        codec._DEC_VALUES.clear()
        first = self.decoded(EdgeCommit(self.txn(self.DOT))).txn
        later = Dot(9, "w0")
        pushed = self.decoded(UpdatePush(
            (self.txn(later, (self.DOT,)),), {"dc0": 3})).txns[0]
        entry = StreamEntry(later, "dc0", None, {}, (self.DOT, later), {},
                            ())
        shipped = self.decoded(ReplicateBatch(
            "dc0", 5, {"dc0": 4}, (entry,), {"dc0": 5})).entries[0]
        state = self.decoded(ObjectResponse(ObjectState(
            self.KEY, "counter", {"type": "counter", "value": 2},
            (self.DOT, later)), {"dc0": 3})).object_state
        assert first.dot == self.DOT and first.dot is not self.DOT
        (dep,) = pushed.snapshot.local_deps
        assert dep is first.dot
        assert shipped.deps[0] is first.dot
        assert state.base_dots[0] is first.dot
        assert shipped.dot is pushed.dot is state.base_dots[1]
        keys = [first.writes[0].key, pushed.writes[0].key, state.key]
        assert keys[0] == self.KEY
        assert all(key is keys[0] for key in keys)

    def test_distinct_values_never_grow_the_table_past_its_bound(self):
        codec._DEC_VALUES.clear()
        peak = 0
        for i in range(100_000):
            dot = Dot(i, "w0")
            assert decode_value(encode_value(dot)) == dot
            peak = max(peak, len(codec._DEC_VALUES))
        # It filled up (so the bound is what held it) and was emptied.
        assert peak == DECODE_VALUES_MAX
        assert len(codec._DEC_VALUES) < DECODE_VALUES_MAX
        assert decode_value(encode_value(Dot(0, "w0"))) is \
            decode_value(encode_value((Dot(0, "w0"),)))[0]

    def test_decoded_values_do_not_depend_on_what_the_table_holds(self):
        corpus = samples.all_samples()
        bodies = [encode_frame("dc0", "édge-1", m)[4:] for m in corpus]

        def decoded():
            return [decode_frame(body)[2] for body in bodies]

        def fill_up():
            for i in range(DECODE_VALUES_MAX - len(codec._DEC_VALUES)):
                decode_value(encode_value(Dot(i, "filler")))
            assert len(codec._DEC_VALUES) == DECODE_VALUES_MAX

        codec._DEC_VALUES.clear()
        assert decoded() == corpus         # empty
        assert decoded() == corpus         # warm: every value a hit
        codec._DEC_VALUES.clear()
        fill_up()
        assert decoded() == corpus         # full of others: emptied midway
        assert len(codec._DEC_VALUES) < DECODE_VALUES_MAX
        codec._DEC_VALUES.clear()
        assert decoded() == corpus         # just emptied

    def test_only_frozen_leaf_records_are_shared(self):
        shared = codec.shared_records()
        assert shared == (Dot, ObjectKey)
        fields = {cls: fields for _cid, cls, fields in codec.record_schemas()}
        shapes = set()
        for cls in shared:
            assert cls.__dataclass_params__.frozen
            # The fields read are the whole value and the table's key:
            # only INT and STR fields, and no two shared classes of the
            # same kinds, whose keys could then be equal.
            kinds = tuple(kind for _field, kind in fields[cls])
            assert set(kinds) <= {codec.INT, codec.STR}
            assert kinds not in shapes
            shapes.add(kinds)


class TestValuesNotDicts:
    """A message names a key, a dot or an object version by the value,
    not by its ``to_dict()`` form — but in the places that still speak
    dicts on purpose, named here."""

    #: Dict shapes of the core values, by their exact key sets.
    SHAPES = {frozenset({"bucket", "key"}): "key",
              frozenset({"origin", "counter"}): "dot",
              frozenset({"key", "type", "base", "base_dots"}): "state"}
    #: EPaxos and Tiga messages carry consensus commands (a transaction's
    #: dict form) and Tiga names a command by its dict dot.
    EXEMPT_MODULES = {"repro.epaxos.messages"}
    #: A group seed's instances are consensus commands; the two ingress
    #: points take a ``to_dict()`` transaction from drivers outside src/.
    EXEMPT_FIELDS = {("GroupSeed", "instances"), ("EdgeCommit", "txn"),
                     ("EdgeCommitBatch", "txns"), ("UpdatePush", "txns")}

    def dict_shapes(self, value, path):
        """``(path, shape)`` of every key-, dot- or state-shaped dict
        reachable from ``value``."""
        found = []
        if type(value) is dict:
            shape = self.SHAPES.get(frozenset(value))
            if shape is not None:
                found.append((path, shape))
            for k, item in value.items():
                found += self.dict_shapes(item, f"{path}[{k!r}]")
        elif type(value) in (tuple, list, set, frozenset):
            for i, item in enumerate(value):
                found += self.dict_shapes(item, f"{path}[{i}]")
        elif hasattr(type(value), "__dataclass_fields__"):
            cls = type(value)
            if cls.__module__ in self.EXEMPT_MODULES:
                return found
            for name in cls.__dataclass_fields__:
                if (cls.__name__, name) not in self.EXEMPT_FIELDS:
                    found += self.dict_shapes(getattr(value, name),
                                              f"{path}.{name}")
        return found

    def test_no_message_field_holds_a_key_dot_or_object_state_dict(self):
        found = [hit for message in samples.all_samples()
                 for hit in self.dict_shapes(message,
                                             type(message).__name__)]
        assert found == []

    def test_the_check_finds_each_shape(self):
        from repro.dc.messages import SessionAck, SessionOpen
        key, dot = {"bucket": "b", "key": "k"}, {"origin": "e", "counter": 1}
        state = {"key": key, "type": "counter", "base": {}, "base_dots": []}
        assert self.dict_shapes(SessionOpen("e", ((key, "counter"),), {},
                                            (dot,)), "m") \
            == [("m.interest[0][0]", "key"), ("m.local_deps[0]", "dot")]
        assert self.dict_shapes(SessionAck("dc0", (state,), {}), "m") \
            == [("m.objects[0]", "state"), ("m.objects[0]['key']", "key")]
