"""Self-check: run colony-lint against planted violations.

``python -m repro.analysis --self-check`` analyses a small in-memory
tree that plants at least one violation for every finding code the
rule registry can emit.  Exit codes:

* ``1`` — every planted violation was reported (the analyzer works;
  non-zero by design so CI asserts the exact code);
* ``2`` — at least one planted violation was missed (the analyzer is
  broken and must not gate anything).
"""

from __future__ import annotations

from typing import Dict, List, Set, TextIO

from .core import Finding, Project, run_rules
from .rules import ALL_RULES

#: Every code the registry can emit; the planted tree must trip all.
EXPECTED: Set[str] = {code for rule in ALL_RULES for code in rule.codes}

PLANTED_MESSAGES = '''\
"""Planted messages.py: the message classes the handlers use."""
from dataclasses import dataclass
from typing import Dict

from repro.core.txn import Transaction


@dataclass(frozen=True)
class Seed:
    entries: Dict[str, int]


@dataclass(frozen=True)
class Orphan:               # H301: nobody handles this
    token: str


@dataclass(frozen=True)
class Apply:
    txn: Transaction
'''

#: The planted tree's message classes, as the codec's table names the
#: real ones.
PLANTED_MESSAGE_CLASSES = {"planted.messages.Seed",
                           "planted.messages.Orphan",
                           "planted.messages.Apply"}

PLANTED_PROTO = '''\
"""Planted proto.py: determinism violations."""
import random
import time
import uuid
from datetime import datetime


def now_ms():
    return int(time.time() * 1000)          # D101


def stamp():
    return datetime.now().isoformat()       # D102


def fresh_id():
    return str(uuid.uuid4())                # D103


def jitter():
    return random.random()                  # D105


def make_rng():
    return random.Random()                  # D106


def bucket(key):
    return hash(key) % 16                   # D107
'''

PLANTED_HANDLERS = '''\
"""Planted handlers.py: H/V/A/M203 violations in one actor."""
from planted.messages import Apply, Seed


class Actor:
    def __init__(self):
        self.state_vector = {}
        self.shared_map = {}
        self.latest = {}

    def on_message(self, message, sender):
        if isinstance(message, Seed):
            self._on_seed(message, sender)
        elif isinstance(message, Seed):     # H302: duplicate arm
            pass
        elif isinstance(message, Apply):
            self._on_apply(message, sender)

    def _on_seed(self, msg: Seed, sender: str):
        msg.entries["poisoned"] = 1         # A501
        self.latest = msg.entries           # A502
        self.state_vector["x"] = 99         # V401
        _ = self.state_vector._entries      # V402
        _ = msg.nope                        # H303
        return Seed(self.shared_map)        # M203

    def _on_apply(self, msg: Apply, sender: str):
        msg.txn.commit.add_entry("dc0", 1)  # A501: the sender's stamp
        txn = msg.txn
        txn.commit.entries["dc1"] = 2       # A501: the same, by name
        return Apply(txn)                   # M203: no handoff()

    def _relay(self, msg: Apply, sender: str):
        relay = Apply(msg.txn.handoff())
        for peer in self.peers:
            self.send(peer, relay)          # M203: one copy, many peers
'''


def planted_sources() -> Dict[str, str]:
    return {
        "planted/messages.py": PLANTED_MESSAGES,
        "planted/proto.py": PLANTED_PROTO,
        "planted/handlers.py": PLANTED_HANDLERS,
    }


def run_self_check(out: TextIO) -> int:
    project = Project.from_sources(planted_sources(),
                                   PLANTED_MESSAGE_CLASSES)
    findings: List[Finding] = run_rules(project, ALL_RULES)
    reported = {finding.rule for finding in findings}
    for finding in findings:
        out.write(finding.render() + "\n")
    missing = sorted(EXPECTED - reported)
    out.write(
        f"self-check: {len(findings)} findings, "
        f"{len(reported & EXPECTED)}/{len(EXPECTED)} codes tripped\n")
    if missing:
        out.write("self-check FAILED; codes not reported: "
                  + ", ".join(missing) + "\n")
        return 2
    out.write("self-check OK: every planted violation was reported "
              "(exit 1 by design)\n")
    return 1
