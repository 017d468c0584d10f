"""The op table: every CRDT effect method has a fixed one-byte id.

The codec writes an ``Operation`` as its op id and the payload's fields
by the op's schema (DESIGN §16).  ``PINNED`` is the table, id by id: a
renumbered, reused or missing id fails here, not on a live mesh where
two processes would read each other's operations as other methods.
Each entry must be what its CRDT class declares (``PAYLOADS``), and the
operation every effect method's ``prepare`` builds must round-trip and,
applied, leave the state the original leaves.
"""

import pytest

from repro.core.txn import ObjectKey, WriteOp
from repro.crdt.base import (Operation, crdt_type, new_crdt,
                             registered_types)
from repro.transport.codec import (CodecError, decode_value, encode_value,
                                   op_schemas)

_LIST = ("value", list)

#: ``(op id, type name, method, ((field, kind), ...))``, as shipped.
PINNED = (
    (0x01, "counter", "increment", (("amount", "int"),)),
    (0x02, "counter", "decrement", (("amount", "int"),)),
    (0x03, "pncounter", "increment", (("amount", "value"),)),
    (0x04, "pncounter", "decrement", (("amount", "value"),)),
    (0x05, "gset", "add", (("value", "value"),)),
    (0x06, "gset", "add_all", (("values", _LIST),)),
    (0x07, "orset", "add", (("value", "value"),)),
    (0x08, "orset", "add_all", (("values", _LIST),)),
    (0x09, "orset", "remove", (("value", "value"), ("observed", _LIST))),
    (0x0A, "orset", "clear", (("observed", _LIST),)),
    (0x0B, "rwset", "add", (("value", "value"),
                            ("observed_removes", _LIST))),
    (0x0C, "rwset", "remove", (("value", "value"),
                               ("observed_adds", _LIST))),
    (0x0D, "lwwregister", "assign", (("value", "value"),)),
    (0x0E, "mvregister", "assign", (("value", "value"),
                                    ("observed", _LIST))),
    (0x0F, "ewflag", "enable", (("observed", _LIST),)),
    (0x10, "ewflag", "disable", (("observed", _LIST),)),
    (0x11, "dwflag", "enable", (("observed", _LIST),)),
    (0x12, "dwflag", "disable", (("observed", _LIST),)),
    (0x13, "gmap", "update", (("key", "value"), ("child", ("value", dict)))),
    (0x14, "ormap", "update", (("key", "value"),
                               ("child", ("value", dict)))),
    (0x15, "ormap", "remove", (("key", "value"), ("observed", _LIST))),
    (0x16, "rga", "insert", (("anchor", _LIST), ("value", "value"))),
    (0x17, "rga", "append", (("anchor", _LIST), ("value", "value"))),
    (0x18, "rga", "delete", (("target", _LIST),)),
)


def effect_methods(type_name):
    cls = crdt_type(type_name)
    return {name[len("_effect_"):] for name in dir(cls)
            if name.startswith("_effect_")}


def test_the_table_is_the_pinned_one():
    assert op_schemas() == PINNED


def test_ids_are_distinct_single_bytes():
    ids = [oid for oid, _t, _m, _f in op_schemas()]
    assert len(set(ids)) == len(ids)
    assert all(0 < oid < 0x100 for oid in ids)


def test_every_effect_method_of_every_registered_type_has_an_id():
    effects = {(type_name, method) for type_name in registered_types()
               for method in effect_methods(type_name)}
    table = [(type_name, method) for _o, type_name, method, _f
             in op_schemas()]
    assert sorted(table) == sorted(effects)


def test_the_table_is_what_each_class_declares():
    for _oid, type_name, method, fields in op_schemas():
        assert crdt_type(type_name).PAYLOADS[method] == fields
    for type_name in registered_types():
        assert set(crdt_type(type_name).PAYLOADS) \
            == effect_methods(type_name)


def state(type_name, *updates):
    """A CRDT after ``updates``, each ``(method, args)``, applied."""
    crdt = new_crdt(type_name)
    for i, (method, args) in enumerate(updates):
        crdt.apply(crdt.prepare(method, *args).with_tag((i + 1, "w0", 0)))
    return crdt


#: ``(type name, method)`` -> the updates before, and the method's args.
CASES = {
    ("counter", "increment"): ((), (3,)),
    ("counter", "decrement"): ((), (200,)),
    ("pncounter", "increment"): ((), (2.5,)),
    ("pncounter", "decrement"): ((), (1,)),
    ("gset", "add"): ((), (("t", 1),)),
    ("gset", "add_all"): ((), (["x", 2, None],)),
    ("orset", "add"): ((("add", ("x",)),), ("y",)),
    ("orset", "add_all"): ((), (["x", "y"],)),
    ("orset", "remove"): ((("add", ("x",)), ("add", ("x",))), ("x",)),
    ("orset", "clear"): ((("add", ("x",)), ("add", (7,))), ()),
    ("rwset", "add"): ((("remove", ("x",)),), ("x",)),
    ("rwset", "remove"): ((("add", ("x",)),), ("x",)),
    ("lwwregister", "assign"): ((("assign", ("a",)),), ({"k": [1]},)),
    ("mvregister", "assign"): ((("assign", ("a",)),), ("b",)),
    ("ewflag", "enable"): ((("disable", ()),), ()),
    ("ewflag", "disable"): ((("enable", ()),), ()),
    ("dwflag", "enable"): ((("disable", ()),), ()),
    ("dwflag", "disable"): ((("enable", ()),), ()),
    ("gmap", "update"): ((), ("k", "counter", "increment", 2)),
    ("ormap", "update"): ((("update", ("k", "orset", "add", "x")),),
                          ("k", "orset", "add", "y")),
    ("ormap", "remove"): ((("update", ("k", "counter", "increment", 1)),),
                          ("k",)),
    ("rga", "insert"): ((("append", ("a",)), ("append", ("c",))),
                        (1, "b")),
    ("rga", "append"): ((("append", ("a",)),), ("b",)),
    ("rga", "delete"): ((("append", ("a",)), ("append", ("b",))), (0,)),
}


def test_every_effect_method_has_a_case():
    assert set(CASES) == {(t, m) for _o, t, m, _f in op_schemas()}


@pytest.mark.parametrize("type_name,method", sorted(CASES))
def test_an_operation_round_trips_and_applies_alike(type_name, method):
    before, args = CASES[type_name, method]
    base = state(type_name, *before)
    op = base.prepare(method, *args)
    assert [name for name, _kind in crdt_type(type_name).PAYLOADS[method]] \
        == list(op.payload)
    for tag in (None, (9, "w1", 0)):
        write = WriteOp(ObjectKey("app", "k"), op.with_tag(tag)
                        if tag else op)
        back = decode_value(encode_value(write))
        assert back == write
        assert back.op.to_dict() == write.op.to_dict()
    ours, theirs = base.clone(), base.clone()
    ours.apply(op.with_tag((9, "w1", 0)))
    theirs.apply(back.op)
    assert theirs.to_dict() == ours.to_dict()
    assert theirs.value() == ours.value()
    assert ours.to_dict() != base.to_dict()


def test_an_op_outside_the_table_or_its_schema_is_refused_on_encode():
    op = Operation("counter", "increment", {"amount": 1})
    key = ObjectKey("app", "k")
    for bad in (Operation("counter", "reset", {"amount": 1}),
                Operation("nosuchtype", "increment", {"amount": 1}),
                Operation("counter", "increment", {}),
                Operation("counter", "increment", {"amount": 1, "x": 2}),
                Operation("counter", "increment", {"by": 1}),
                Operation("counter", "increment", {"amount": "1"}),
                Operation("counter", "increment", {"amount": True}),
                Operation("counter", "increment", [("amount", 1)]),
                Operation("orset", "remove", {"value": 1, "observed": (1,)}),
                Operation("gmap", "update", {"key": 1, "child": []})):
        with pytest.raises(CodecError):
            encode_value(WriteOp(key, bad))
    assert decode_value(encode_value(WriteOp(key, op))).op == op
