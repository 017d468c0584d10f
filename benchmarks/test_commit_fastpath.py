"""Gated commit fast-path benchmark: the geo-distributed group race.

Races the three commit variants on the same low-conflict workload over
a geo-distributed five-member group — three members in one metro, two
in another, 15 ms apart (same-site pairs on LAN).  The deadline fast
path commits at a majority ack including the coordinator, so a member
with two same-site peers commits at LAN round-trip time; consensus on
the critical path ("psi", the EPaxos path) always waits on a fast
quorum that crosses the metro link.

Writes ``BENCH_commit.json`` (untracked) at the repo root; the
assertions at the end are the acceptance gate: a >= 80% fast-path ratio,
a tiga/EPaxos p50 commit-latency ratio of <= 2/3 (i.e. >= 1.5x faster),
and digest parity across all three variants on the conflict-free sweep.
"""

import json
from pathlib import Path

import pytest

from repro.bench import commit_workload
from repro.groups import COMMIT_VARIANTS

#: Member -> metro assignment: a three/two split so a majority is
#: reachable on LAN for the larger site only.
SITES = [0, 0, 0, 1, 1]
TXNS_PER_MEMBER = 20
RACE_SEED = 29
#: Extra conflict-free seeds for the digest-parity sweep (smaller
#: workloads; parity is a correctness check, not a timing one).
PARITY_SEEDS = (31, 37)


def _race(group_bench, seed, txns):
    return {
        variant: commit_workload(
            group_bench(variant, n_members=len(SITES), seed=seed,
                        sites=SITES),
            txns_per_member=txns, conflict_rate=0.0, seed=seed)
        for variant in COMMIT_VARIANTS
    }


def _parity(rows):
    digests = {row.digest for row in rows.values()}
    return len(digests) == 1 and "DIVERGED" not in digests


@pytest.mark.benchmark(group="commit-fastpath")
def test_commit_fastpath_race(benchmark, group_bench):
    rows = benchmark.pedantic(
        lambda: _race(group_bench, RACE_SEED, TXNS_PER_MEMBER),
        rounds=1, iterations=1)
    sweeps = {RACE_SEED: rows}
    for seed in PARITY_SEEDS:
        sweeps[seed] = _race(group_bench, seed, 8)
    parity = all(_parity(sweep) for sweep in sweeps.values())

    print("\n  Commit fast path, geo group (sites 3+2, 15 ms apart):")
    print("      variant | p50 commit | mean commit | fast path"
          " | fallbacks")
    for variant, row in sorted(rows.items()):
        print(f"      {variant:>7s} | {row.p50_commit_latency_ms:7.3f} ms"
              f" | {row.mean_commit_latency_ms:8.3f} ms"
              f" | {row.fast_path_ratio:8.0%} | {row.fallbacks:4d}")

    tiga, epaxos = rows["tiga"], rows["psi"]
    report = {
        "benchmark": "commit",
        "workload": {"members": len(SITES), "sites": list(SITES),
                     "txns_per_member": TXNS_PER_MEMBER,
                     "conflict_rate": 0.0, "seed": RACE_SEED,
                     "parity_seeds": list(PARITY_SEEDS)},
        "variants": {
            variant: {
                "p50_commit_latency_ms": row.p50_commit_latency_ms,
                "mean_commit_latency_ms": row.mean_commit_latency_ms,
                "commits": row.commits,
                "aborts": row.aborts,
                "fast_commits": row.fast_commits,
                "fallbacks": row.fallbacks,
                "fast_path_ratio": row.fast_path_ratio,
            }
            for variant, row in rows.items()
        },
        "p50_ratio_tiga_vs_epaxos": (tiga.p50_commit_latency_ms
                                     / epaxos.p50_commit_latency_ms),
        "fast_path_ratio": tiga.fast_path_ratio,
        "digest_parity": bool(parity),
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_commit.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    assert report["digest_parity"], \
        "variants diverged on a conflict-free workload"
    assert report["fast_path_ratio"] >= 0.80, \
        f"only {report['fast_path_ratio']:.0%} of tiga commits took " \
        f"the fast path"
    assert report["p50_ratio_tiga_vs_epaxos"] <= 2.0 / 3.0, \
        f"tiga p50 is only {1 / report['p50_ratio_tiga_vs_epaxos']:.2f}x " \
        f"faster than the EPaxos path (need >= 1.5x)"
