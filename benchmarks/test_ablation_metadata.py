"""Ablation A3: causal-metadata size (paper sections 3.3-3.4).

Colony's vectors have one 8-byte entry per *DC* (each DC is an SI zone and
counts as one sequential process); flat causal designs (Depot, PRACTI) need
one entry per *replica*.  We compare the analytic wire sizes and measure
the encoded metadata bytes of transactions flowing through a simulated
deployment.
"""

import pytest

from repro.bench import ablation_metadata
from repro.bench.harness import build_chat_world
from repro.bench.scenarios import _small_trace
from repro.transport.codec import value_size
from repro.workload.driver import ClosedLoopDriver


@pytest.mark.benchmark(group="ablation-metadata")
def test_vector_size_scaling(benchmark):
    def run():
        return [ablation_metadata(n_dcs=3, n_replicas=n)
                for n in (10, 100, 1000, 10_000, 1_000_000)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n  Metadata ablation (3 DCs, 8-byte entries):")
    print("      replicas | Colony vector | per-replica vector")
    for row in rows:
        print(f"      {row.n_replicas:8d} | {row.colony_vector_bytes:10d} B"
              f" | {row.per_replica_vector_bytes:12d} B")

    # Colony's metadata is constant in the number of replicas...
    assert len({row.colony_vector_bytes for row in rows}) == 1
    # ...whereas the flat design grows linearly and explodes at the
    # paper's "millions of far-edge devices" scale.
    assert rows[-1].per_replica_vector_bytes \
        == 8 * 1_000_000
    assert rows[-1].per_replica_vector_bytes \
        > 1000 * rows[-1].colony_vector_bytes


@pytest.mark.benchmark(group="ablation-metadata")
def test_measured_transaction_metadata(benchmark):
    """Average measured txn metadata stays small and DC-bounded."""

    def run():
        trace = _small_trace(12, seed=7)
        world = build_chat_world("swiftcloud", 3, trace, 12, seed=7)
        world.warm_up(1500.0)
        driver = ClosedLoopDriver(world.sim, trace, world.apps(),
                                  think_time_ms=10.0)
        driver.start()
        world.sim.run_for(2000.0)
        # A transaction's metadata as the codec writes it inside the
        # transaction record: the snapshot's vector and local deps and
        # the commit stamp (a record in a value carries 2 more bytes,
        # its tag and class id).
        sizes = []
        for dc in world.dcs:
            for txn in dc.log.txns.values():
                sizes.append(value_size(txn.snapshot) - 2
                             + value_size(txn.commit) - 2)
        return sizes

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sizes
    mean = sum(sizes) / len(sizes)
    print(f"\n  Measured txn metadata: n={len(sizes)}"
          f" mean={mean:.1f} B max={max(sizes)} B")
    # Bounded by the DC count (3 entries) + a handful of local deps,
    # nowhere near a per-client vector (12 clients x 8 B = 96 B floor,
    # growing with every new client).
    assert mean < 120.0
