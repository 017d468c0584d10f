"""colony-lint rule tests: must-flag and must-pass cases per family.

Each case builds an in-memory project (``Project.from_sources``, its
message classes named by ``MESSAGE_CLASSES`` as the codec's table names
the real ones) and asserts on the finding codes — no filesystem, no
subprocess, except the CLI exit-code tests at the bottom.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Project, run_rules
from repro.analysis.core import (CAT_DICT, CAT_OK, load_baseline,
                                 split_baselined, write_baseline)
from repro.analysis.selfcheck import (EXPECTED, PLANTED_MESSAGE_CLASSES,
                                      planted_sources, run_self_check)
from repro.transport import samples
from repro.transport.codec import encode_message, message_ids, wire_size

REPO = Path(__file__).resolve().parents[2]

MESSAGES = '''\
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Ping:
    origin: str
    state_vector: Dict[str, int]
    txns: Tuple[dict, ...]
    holders: FrozenSet[str]
    payload: Any
    extra: Optional[dict] = None
'''


#: The message classes of the in-memory trees below.
MESSAGE_CLASSES = PLANTED_MESSAGE_CLASSES | {
    f"pkg.messages.{name}"
    for name in ("Ping", "M", "Apply", "Batch", "Fill", "Orphan",
                 "Ingress")}


def check(sources):
    return run_rules(Project.from_sources(sources, MESSAGE_CLASSES),
                     ALL_RULES)


def codes(sources):
    return {f.rule for f in check(sources)}


def analyze(*extra_modules):
    sources = {"pkg/messages.py": MESSAGES}
    for i, text in enumerate(extra_modules):
        sources[f"pkg/mod{i}.py"] = text
    return check(sources)


# ---------------------------------------------------------------------------
# determinism (D1xx)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("snippet,code", [
    ("import time\ndef f():\n    return time.time()\n", "D101"),
    ("import time as t\ndef f():\n    return t.monotonic()\n", "D101"),
    ("from datetime import datetime\n"
     "def f():\n    return datetime.utcnow()\n", "D102"),
    ("import uuid\ndef f():\n    return uuid.uuid4()\n", "D103"),
    ("import os\ndef f():\n    return os.urandom(8)\n", "D103"),
    ("import secrets\ndef f():\n    return secrets.token_hex()\n",
     "D103"),
    ("import random\ndef f():\n    return random.randint(0, 9)\n",
     "D105"),
    ("from random import shuffle\ndef f(xs):\n    shuffle(xs)\n",
     "D105"),
    ("import random\ndef f():\n    return random.Random()\n", "D106"),
    ("def f(x):\n    return hash(x) % 4\n", "D107"),
])
def test_determinism_flags(snippet, code):
    assert code in codes({"pkg/mod.py": snippet})


@pytest.mark.parametrize("snippet", [
    # seeded RNG and sim clock are the sanctioned forms
    "import random\ndef f(seed):\n    return random.Random(seed)\n",
    "def f(actor):\n    return actor.now\n",
    # hash() inside __hash__ is the one legitimate use
    "class K:\n    def __hash__(self):\n"
    "        return hash((1, 2))\n",
    # time.sleep is not a clock *read*
    "import time\ndef f():\n    time.sleep(0)\n",
])
def test_determinism_passes(snippet):
    assert not codes({"pkg/mod.py": snippet}) & {
        "D101", "D102", "D103", "D105", "D106", "D107"}


# ---------------------------------------------------------------------------
# message hygiene (M2xx)
# ---------------------------------------------------------------------------

def test_clean_message_module_passes():
    assert analyze() == []


def test_type_alias_resolution():
    # epaxos-style: InstanceId = Tuple[str, int] must classify as OK,
    # an alias of a dict as one M203 watches.
    src = ("from dataclasses import dataclass\n"
           "from typing import Dict, Tuple\n"
           "InstanceId = Tuple[str, int]\n"
           "Vector = Dict[str, int]\n"
           "@dataclass(frozen=True)\nclass M:\n"
           "    instance: InstanceId\n"
           "    vector: Vector\n")
    project = Project.from_sources({"pkg/messages.py": src},
                                   MESSAGE_CLASSES)
    assert project.message_classes["pkg.messages.M"].fields \
        == {"instance": CAT_OK, "vector": CAT_DICT}


def test_message_classes_are_the_ones_the_table_names():
    # A dataclass the table does not name is not a message, wherever
    # it is defined; one it names is, in any module.
    src = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass Ping:\n    x: int\n"
           "@dataclass(frozen=True)\nclass Local:\n    x: int\n")
    project = Project.from_sources({"pkg/messages.py": src,
                                    "pkg/control.py": src.replace(
                                        "Ping", "Orphan")},
                                   {"pkg.messages.Ping",
                                    "pkg.control.Orphan"})
    assert sorted(project.message_classes) == ["pkg.control.Orphan",
                                               "pkg.messages.Ping"]


def test_aliased_constructor_arg_flagged():
    handler = ("from pkg.messages import Ping\n"
               "class A:\n"
               "    def emit(self):\n"
               "        return Ping('n', self.vec, (), frozenset(),"
               " None)\n")
    found = analyze(handler)
    assert any(f.rule == "M203" and "state_vector" in f.message
               for f in found)


def test_copied_constructor_arg_passes():
    handler = ("from pkg.messages import Ping\n"
               "class A:\n"
               "    def emit(self):\n"
               "        return Ping('n', dict(self.vec), (),"
               " frozenset(), None)\n"
               "    def emit2(self):\n"
               "        return Ping('n', self.vector.to_dict(), (),"
               " frozenset(), None)\n")
    assert not {f.rule for f in analyze(handler)} & {"M203"}


TXN_MESSAGES = ('from dataclasses import dataclass\n'
                'from typing import Optional, Tuple\n'
                'from repro.core.txn import Transaction\n'
                '@dataclass(frozen=True)\nclass Apply:\n'
                '    txn: Transaction\n'
                '@dataclass(frozen=True)\nclass Batch:\n'
                '    txns: Tuple[Transaction, ...]\n'
                '@dataclass(frozen=True)\nclass Fill:\n'
                '    entries: Tuple[Tuple[int, Transaction], ...]\n'
                '    last: Optional[Transaction]\n')


def m203_lines(body):
    handler = ('from pkg.messages import Apply, Batch, Fill\n'
               'def emit(txn, txns, pairs):\n' + body)
    return [f.line for f in check({"pkg/messages.py": TXN_MESSAGES,
                                   "pkg/mod.py": handler})
            if f.rule == "M203"]


@pytest.mark.parametrize("body", [
    "    return Apply(txn.handoff())\n",
    "    return Apply(txn=txn.handoff())\n",
    "    return Batch(tuple(t.handoff() for t in txns))\n",
    "    return Batch((txn.handoff(), txn.handoff()))\n",
    "    return Fill(tuple((ts, t.handoff()) for ts, t in pairs), None)\n",
    "    return Fill((), txn.handoff() if txn else None)\n",
])
def test_handed_off_transactions_pass(body):
    assert m203_lines(body) == []


@pytest.mark.parametrize("body", [
    "    return Apply(txn)\n",
    "    return Apply(txn=txn)\n",
    "    return Batch(tuple(txns))\n",
    "    return Batch(tuple(t for t in txns))\n",
    "    return Batch((txn.handoff(), txn))\n",
    "    return Fill(tuple((ts, t) for ts, t in pairs), None)\n",
    "    return Fill((), txn)\n",
    "    return Apply(txn.handoff() if txn else txn)\n",
])
def test_bare_transactions_in_a_message_flagged(body):
    assert m203_lines(body) == [3]


def test_a_slot_for_a_transaction_or_its_dict_form_takes_a_handoff():
    messages = TXN_MESSAGES.replace(
        "from typing import Optional, Tuple",
        "from typing import Any, Dict, Optional, Tuple, Union") + (
        '@dataclass(frozen=True)\nclass Ingress:\n'
        '    txns: Tuple[Union[Transaction, Dict[str, Any]], ...]\n')

    def lines(body):
        handler = ('from pkg.messages import Ingress\n'
                   'def emit(txn, txns):\n' + body)
        return [f.line for f in check({"pkg/messages.py": messages,
                                       "pkg/mod.py": handler})
                if f.rule == "M203"]
    assert lines("    return Ingress(tuple(t.handoff() for t in txns))\n") \
        == []
    assert lines("    return Ingress((txn,))\n") == [3]


def m203_fan_out_lines(body):
    """M203 lines of ``body``, a method of an actor with a fan-out
    helper, in a tree whose messages carry transactions."""
    handler = ('from pkg.messages import Apply, Batch\n'
               'class A:\n'
               '    def _to_all(self, message):\n'
               '        for peer in self.peers:\n'
               '            self.send(peer, message)\n'
               '    def emit(self, txn, txns):\n' + body)
    return [f.line for f in check({"pkg/messages.py": TXN_MESSAGES,
                                   "pkg/mod.py": handler})
            if f.rule == "M203"]


@pytest.mark.parametrize("body,line", [
    # one handed-off copy, built before the loop, to every peer
    ("        push = Batch(tuple(t.handoff() for t in txns))\n"
     "        for peer in self.peers:\n"
     "            self.send(peer, push)\n", 9),
    # the same through a helper that sends its argument to everybody
    ("        self._to_all(Apply(txn.handoff()))\n", 7),
    ("        push = Apply(txn.handoff())\n"
     "        self._to_all(push)\n", 8),
])
def test_one_message_with_transactions_to_several_receivers_flagged(body,
                                                                    line):
    assert m203_fan_out_lines(body) == [line]


@pytest.mark.parametrize("body", [
    "        for peer in self.peers:\n"
    "            self.send(peer, Apply(txn.handoff()))\n",
    "        for peer in self.peers:\n"
    "            push = Batch(tuple(t.handoff() for t in txns))\n"
    "            self.send(peer, push)\n",
    # a heartbeat carries no transaction: one message may go to all
    "        beat = Batch(())\n"
    "        for peer in self.peers:\n"
    "            self.send(peer, beat)\n",
    "        self._to_all(Batch(()))\n",
    "        self.send(self.peers[0], Apply(txn.handoff()))\n",
])
def test_one_message_per_receiver_passes(body):
    assert m203_fan_out_lines(body) == []


# ---------------------------------------------------------------------------
# handler coverage (H3xx)
# ---------------------------------------------------------------------------

DISPATCH = ('from pkg.messages import Ping\n'
            'class A:\n'
            '    def on_message(self, message, sender):\n'
            '        if isinstance(message, Ping):\n'
            '            self._on_ping(message, sender)\n'
            '    def _on_ping(self, msg: Ping, sender: str):\n'
            '        return msg.origin\n')


def test_handled_message_passes():
    assert not {f.rule for f in analyze(DISPATCH)} & {"H301", "H303"}


def test_unhandled_message_flagged():
    dispatch = ('from pkg.messages import Ping\n'
                'class A:\n'
                '    def on_message(self, message, sender):\n'
                '        if isinstance(message, Ping):\n'
                '            pass\n')
    sources = {
        "pkg/messages.py": MESSAGES + (
            "\n\n@dataclass(frozen=True)\nclass Orphan:\n    x: int\n"),
        "pkg/mod0.py": dispatch,
    }
    found = check(sources)
    assert any(f.rule == "H301" and f.symbol == "Orphan" for f in found)


def test_a_dispatch_table_entry_is_a_handler():
    # The edge tier's type-keyed tables route a message type to a
    # handler it shares with another type.
    table = ('from pkg.messages import Ping\n'
             'class A:\n'
             '    _DISPATCH_NAMES = {Ping: "_on_ping"}\n')
    assert "H301" not in codes({"pkg/messages.py": MESSAGES,
                                "pkg/mod0.py": table})
    # A dict keyed by a message class is a table only if it names
    # its handlers.
    counts = table.replace('{Ping: "_on_ping"}', '{Orphan: len}').replace(
        "import Ping", "import Orphan, Ping") + (
        '    def on_message(self, message, sender):\n'
        '        return isinstance(message, Ping)\n')
    found = check({"pkg/messages.py": MESSAGES + (
        "\n\n@dataclass(frozen=True)\nclass Orphan:\n    x: int\n"),
        "pkg/mod0.py": counts})
    assert any(f.rule == "H301" and f.symbol == "Orphan" for f in found)


def test_h301_disarmed_without_dispatch_sites():
    # Pre-commit over a lone messages.py must not flag every class.
    assert "H301" not in codes({"pkg/messages.py": MESSAGES})


def test_duplicate_arm_flagged():
    dispatch = ('from pkg.messages import Ping\n'
                'class A:\n'
                '    def on_message(self, message, sender):\n'
                '        if isinstance(message, Ping):\n'
                '            pass\n'
                '        elif isinstance(message, Ping):\n'
                '            pass\n')
    assert "H302" in {f.rule for f in analyze(dispatch)}


def test_tuple_isinstance_guard_not_duplicate():
    # peergroup-style offline guard + individual arms is legitimate
    dispatch = ('from pkg.messages import Ping\n'
                'class A:\n'
                '    def on_message(self, message, sender):\n'
                '        if isinstance(message, (Ping, str)):\n'
                '            pass\n'
                '        if isinstance(message, Ping):\n'
                '            pass\n')
    assert "H302" not in {f.rule for f in analyze(dispatch)}


def test_undeclared_field_flagged():
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n'
               '        return msg.bogus_field\n')
    found = analyze(handler)
    assert any(f.rule == "H303" and "bogus_field" in f.message
               for f in found)


# ---------------------------------------------------------------------------
# vector discipline (V4xx)
# ---------------------------------------------------------------------------

def test_vector_mutation_flagged():
    src = ("class A:\n"
           "    def f(self):\n"
           "        self.stable_vector['n'] = 3\n")
    assert "V401" in codes({"pkg/mod.py": src})


def test_vector_update_call_flagged():
    src = ("def f(vc, other):\n"
           "    vc.update(other)\n")
    assert "V401" in codes({"pkg/mod.py": src})


def test_vector_mutation_allowed_in_core_clock():
    src = ("class VectorClock:\n"
           "    def advance(self, node):\n"
           "        self._entries[node] = self._entries.get(node, 0)"
           " + 1\n")
    assert "V401" not in codes({"src/repro/core/clock.py": src})


def test_entries_reach_in_flagged():
    src = "def f(clock):\n    return clock._entries\n"
    assert "V402" in codes({"pkg/mod.py": src})


def test_vector_read_passes():
    src = ("def f(vector, other_vector):\n"
           "    merged = vector.merge(other_vector)\n"
           "    return merged.to_dict()['n']\n")
    assert not codes({"pkg/mod.py": src}) & {"V401", "V402"}


# ---------------------------------------------------------------------------
# aliasing (A5xx)
# ---------------------------------------------------------------------------

def test_handler_mutating_payload_flagged():
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n'
               '        msg.state_vector["n"] = 1\n')
    assert "A501" in {f.rule for f in analyze(handler)}


def test_dispatch_param_mutation_flagged():
    # unannotated on_message params are covered too
    handler = ('class A:\n'
               '    def on_message(self, message, sender):\n'
               '        message.payload.append(1)\n')
    assert "A501" in codes({"pkg/mod.py": handler})


def test_stored_payload_alias_flagged():
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n'
               '        self.latest = msg.state_vector\n')
    assert "A502" in {f.rule for f in analyze(handler)}


@pytest.mark.parametrize("body", [
    "        msg.txn.commit.add_entry('dc0', 1)\n",
    "        msg.txn.commit.entries['dc0'] = 1\n",
    "        txn = msg.txn\n        txn.commit.add_entry('dc0', 1)\n",
    "        for txn in msg.txns:\n            txn.commit.add_entry('dc0', 1)\n",
    "        for _ts, txn in msg.entries:\n"
    "            txn.commit.entries.update({'dc0': 1})\n",
])
def test_growing_a_received_stamp_flagged(body):
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n' + body)
    assert "A501" in {f.rule for f in analyze(handler)}


def test_growing_a_handed_off_stamp_passes():
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n'
               '        own = msg.txn.handoff()\n'
               '        own.commit.add_entry("dc0", 1)\n'
               '        return own\n')
    assert "A501" not in {f.rule for f in analyze(handler)}


def test_copied_payload_store_passes():
    handler = ('from pkg.messages import Ping\n'
               'class A:\n'
               '    def _on_ping(self, msg: Ping, sender: str):\n'
               '        self.latest = dict(msg.state_vector)\n'
               '        local = msg.origin\n'
               '        return local\n')
    assert not {f.rule for f in analyze(handler)} & {"A501", "A502"}


# ---------------------------------------------------------------------------
# suppressions and baseline
# ---------------------------------------------------------------------------

def test_inline_suppression():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # colony-lint: disable=D101\n")
    assert "D101" not in codes({"pkg/mod.py": src})


def test_standalone_suppression_covers_next_line():
    src = ("import time\n"
           "def f():\n"
           "    # colony-lint: disable=determinism\n"
           "    return time.time()\n")
    assert "D101" not in codes({"pkg/mod.py": src})


def test_file_suppression():
    src = ("# colony-lint: disable-file=D101\n"
           "import time\n"
           "def f():\n    return time.time()\n"
           "def g():\n    return time.time()\n")
    assert "D101" not in codes({"pkg/mod.py": src})


def test_suppression_is_code_specific():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # colony-lint: disable=D999\n")
    assert "D101" in codes({"pkg/mod.py": src})


def test_baseline_roundtrip(tmp_path):
    findings = check(
        {"pkg/mod.py": "import time\ndef f():\n    return time.time()\n"})
    assert findings
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    fingerprints = load_baseline(path)
    fresh, old = split_baselined(findings, fingerprints)
    assert not fresh and len(old) == len(findings)


def test_baseline_fingerprint_line_independent(tmp_path):
    a = check(
        {"pkg/mod.py": "import time\ndef f():\n    return time.time()\n"})
    b = check(
        {"pkg/mod.py": "import time\n\n\ndef f():\n"
                       "    return time.time()\n"})
    assert [f.fingerprint() for f in a] == [f.fingerprint() for f in b]


# ---------------------------------------------------------------------------
# self-check and the real tree
# ---------------------------------------------------------------------------

def test_self_check_trips_every_code():
    found = {f.rule for f in check(planted_sources())}
    assert EXPECTED <= found


def test_self_check_exit_protocol(capsys):
    import io
    buf = io.StringIO()
    assert run_self_check(buf) == 1
    assert "self-check OK" in buf.getvalue()


def test_wire_drift_audit_real_corpus_is_clean():
    # No message of the real corpus is charged other than its encoded
    # length, and the corpus has one for every message class the rules
    # read in the real tree.
    project = Project.from_paths([str(REPO / "src")], root=REPO)
    by_class = samples.samples_by_class()
    assert set(project.message_classes) == {
        f"{cls.__module__}.{cls.__qualname__}" for cls in by_class}
    drift = [(type(m).__name__, wire_size(m), len(encode_message(m)))
             for messages in by_class.values() for m in messages
             if wire_size(m) != len(encode_message(m))]
    assert drift == []


def test_real_tree_is_clean():
    project = Project.from_paths([str(REPO / "src")], root=REPO)
    findings = run_rules(project, ALL_RULES)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_m203_sees_every_message_of_the_codec_table():
    project = Project.from_paths([str(REPO / "src")], root=REPO)
    assert set(project.message_classes) == {
        f"{module}.{name}" for _mid, module, name in message_ids()}


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def _cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True, cwd=cwd or REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def test_cli_clean_tree_exits_zero():
    result = _cli("src")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_self_check_exits_one():
    result = _cli("--self-check")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "self-check OK" in result.stdout


def test_cli_findings_exit_one_and_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\ndef f():\n    return time.time()\n")
    result = _cli(str(bad), "--json", cwd=tmp_path)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["counts"] == {"D101": 1}
    assert payload["new_findings"][0]["rule"] == "D101"


def test_cli_write_baseline_then_clean(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"
    wrote = _cli(str(bad), "--baseline", str(baseline),
                 "--write-baseline", cwd=tmp_path)
    assert wrote.returncode == 0
    again = _cli(str(bad), "--baseline", str(baseline), cwd=tmp_path)
    assert again.returncode == 0, again.stdout + again.stderr
