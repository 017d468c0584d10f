"""``wire_size`` is the encoded length, by construction.

Every send charges ``wire_size(message)`` (``repro.transport.codec``):
the size the message's generated sizer adds up from its schema, without
encoding anything.  It is held here to ``len(encode_message(message))``
for every sample and for messages generated from every class's schema;
every class of the codec's table has a sample; and the simulator and a
socket charge the same bytes for the same message, delivered locally or
to another site.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.core.dot import Dot
from repro.dc.messages import ShardApply
from repro.sim import Simulation
from repro.transport import codec, samples
from repro.transport.asyncio_backend import AsyncioTransport
from repro.transport.codec import (COUNTS, INT, OPTIONAL_STR, STR,
                                   encode_message, encode_value,
                                   message_ids, message_schemas,
                                   value_size, wire_size)

from .test_codec_roundtrip import RECORDS, _counts, _deps, _values


def assert_exact(message):
    assert wire_size(message) == len(encode_message(message)), message


def test_every_sample_is_sized_exactly():
    corpus = samples.all_samples()
    assert len(corpus) == 74
    for message in corpus:
        assert_exact(message)


def test_every_class_of_the_table_has_a_sample():
    by_class = samples.samples_by_class()       # registers the control ones
    assert {(cls.__module__, cls.__qualname__) for cls in by_class} \
        == {(module, name) for _mid, module, name in message_ids()}
    assert set(codec.message_classes().values()) == set(by_class)
    assert samples.unsampled_classes() == []


def _field(kind):
    """Values of one message field kind."""
    if kind == STR:
        return st.text(max_size=8)
    if kind == INT:
        return st.integers(min_value=-(2**70), max_value=2**70)
    if kind == OPTIONAL_STR:
        return st.none() | st.text(max_size=8)
    if kind == COUNTS:
        return _counts
    if isinstance(kind, type):
        return RECORDS[kind]
    if kind == "value":
        return _values | st.one_of(*RECORDS.values())
    if kind[1] is Dot:
        return st.frozensets(_deps, max_size=6)
    return st.lists(RECORDS[kind[1]], max_size=3).map(tuple)


def _message(cls_and_schema):
    cls, schema = cls_and_schema
    return st.builds(cls, *(_field(kind) for _name, kind in schema))


#: A message of any registered class, each field drawn by its kind.
messages = st.sampled_from(sorted(message_schemas().items(),
                                  key=lambda item: item[0].__name__)
                           ).flatmap(_message)


@given(messages)
@settings(deadline=None)
def test_generated_messages_are_sized_exactly(message):
    assert_exact(message)
    assert value_size(message) == len(encode_value(message))


@given(st.one_of(*RECORDS.values()))
@settings(deadline=None)
def test_generated_records_are_sized_exactly(record):
    size = value_size(record)
    assert size == len(encode_value(record))
    assert value_size(record) == size       # as the cache now says


def test_a_stamp_grown_after_sizing_is_charged():
    txn = samples.TXN_VALUE.handoff()
    apply = ShardApply(txn)
    assert_exact(apply)
    copy = txn.handoff()            # carries the body's size along
    assert copy._body_bytes == txn._body_bytes is not None
    copy.commit = copy.commit.with_entry("dc-far-away", 2**40)
    assert_exact(ShardApply(copy))
    assert_exact(apply)


def test_the_simulator_charges_each_sample_its_encoded_length():
    sim = Simulation(seed=0)
    stats = sim.network.stats
    for message in samples.all_samples():
        before = stats.bytes_sent
        sim.network.send("a", "b", message)
        assert stats.bytes_sent - before == wire_size(message)


def test_a_socket_charges_what_the_simulator_charges():
    """Local delivery and a frame to another site: each sample costs
    ``wire_size`` on the transport's ``bytes_sent``."""
    corpus = samples.all_samples()

    async def scenario():
        homes = {"a": "s1", "local": "s1", "remote": "s2"}
        t1 = AsyncioTransport("s1", homes=homes, listen=("127.0.0.1", 0))
        t2 = AsyncioTransport("s2", homes=homes, listen=("127.0.0.1", 0))
        await t1.start()
        await t2.start()
        t1.peer_addrs.update({"s1": t1.listen_addr, "s2": t2.listen_addr})
        t2.peer_addrs.update(t1.peer_addrs)
        got = {"local": [], "remote": []}
        done = asyncio.Event()

        def inbox(name):
            def on_message(message, _sender):
                got[name].append(message)
                if len(got["local"]) == len(got["remote"]) == len(corpus):
                    done.set()
            return on_message
        t1.attach("local", inbox("local"))
        t2.attach("remote", inbox("remote"))
        try:
            for message in corpus:
                for dst in ("local", "remote"):
                    before = t1.stats.bytes_sent
                    assert t1.send("a", dst, message)
                    assert t1.stats.bytes_sent - before == wire_size(message)
            await asyncio.wait_for(done.wait(), timeout=10.0)
        finally:
            await t1.stop()
            await t2.stop()
        assert got == {"local": corpus, "remote": corpus}

    asyncio.run(scenario())
