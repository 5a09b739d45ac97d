"""Array timing-kernel benchmarks (``sta.*`` / ``bog.*`` BENCH stages).

Measures the compiled-kernel claims of the array-native timing core on the
real benchmark suite and records them into ``BENCH_runtime.json`` for the
CI trend and perf-smoke jobs:

1. the array level-sweep STA kernel is bit-identical to the per-vertex
   reference kernel on every suite design (the exhaustive property tests
   live in ``tests/test_sta_kernels.py``; the fuzz campaign extends this to
   random RTL),
2. on the largest suite design the array kernel beats the reference by at
   least 5x end to end (``sta.analyze_array`` vs ``sta.analyze_reference``),
   with compilation (``sta.levelize``) amortized across analyses,
3. uint64 bit-packed batch simulation beats the scalar evaluator by at
   least 20x per stimulus vector (``bog.simulate_packed`` vs
   ``bog.simulate_scalar``) while agreeing lane for lane.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

from benchmarks.conftest import print_table
from repro.bog.simulate import (
    PACKED_LANES,
    evaluate_nodes,
    evaluate_nodes_packed,
    pack_source_vectors,
    unpack_lane,
)
from repro.runtime import activate
from repro.sta.engine import analyze


def _by_gate_count(records):
    return sorted(records, key=lambda r: r.synthesis.netlist.gate_count())


def _best_of(fn, rounds: int) -> float:
    # Pause the cyclic GC while timing: in a full-suite run the live heap is
    # large, and allocation-triggered gen2 collections otherwise tax the
    # kernels by whatever the rest of the session left alive.  Callers run
    # ``gc.collect()`` once up front, *outside* the report stages, so the
    # recorded stage times stay clean for the CI trend guard.
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def test_array_kernel_bit_identical_across_suite(dataset_records, runtime_report):
    """Array and reference STA agree bit for bit on every suite design."""
    with activate(runtime_report), runtime_report.stage("sta.kernel_equivalence"):
        for record in dataset_records:
            network = record.synthesis.netlist
            array = analyze(network, record.clock, kernel="array")
            reference = analyze(network, record.clock, kernel="reference")
            assert np.array_equal(array.loads, reference.loads), record.name
            assert np.array_equal(array.arrivals, reference.arrivals), record.name
            assert np.array_equal(array.slews, reference.slews), record.name
            assert array.wns == reference.wns and array.tns == reference.tns, record.name
    assert len(dataset_records) == 21


def test_array_kernel_speedup_on_largest_design(
    dataset_records, runtime_report, benchmark
):
    """Acceptance: the array kernel is >= 5x the reference on the largest design."""
    record = _by_gate_count(dataset_records)[-1]
    network = record.synthesis.netlist
    gc.collect()

    with activate(runtime_report):
        network.invalidate()
        with runtime_report.stage("sta.levelize"):
            compiled = network.compiled()

        with runtime_report.stage("sta.analyze_array"):
            array_seconds = benchmark.pedantic(
                lambda: _best_of(
                    lambda: analyze(network, record.clock, kernel="array"), rounds=7
                ),
                rounds=1,
                iterations=1,
            )
        with runtime_report.stage("sta.analyze_reference"):
            reference_seconds = _best_of(
                lambda: analyze(network, record.clock, kernel="reference"), rounds=3
            )

    speedup = reference_seconds / max(array_seconds, 1e-9)
    runtime_report.meta["sta_kernel_design"] = record.name
    print_table(
        f"Array vs reference STA kernel ({record.name})",
        ["Quantity", "Value"],
        [
            ["vertices", len(network.vertices)],
            ["levels", compiled.n_levels],
            ["levelize+compile (ms)", f"{runtime_report.stages.get('sta.levelize', 0.0) * 1e3:.1f}"],
            ["analyze, array kernel (ms)", f"{array_seconds * 1e3:.2f}"],
            ["analyze, reference kernel (ms)", f"{reference_seconds * 1e3:.2f}"],
            ["speedup", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 5.0, f"array kernel only {speedup:.1f}x faster than reference"


def test_packed_simulation_speedup(dataset_records, runtime_report):
    """Acceptance: packed simulation is >= 20x per vector vs the scalar loop."""
    record = max(
        dataset_records, key=lambda r: len(r.sog)
    )
    sog = record.sog
    names = list(sog.sources)
    rng = random.Random(1234)
    vectors = [
        {name: rng.getrandbits(1) for name in names} for _ in range(PACKED_LANES)
    ]
    packed_sources = pack_source_vectors(vectors)
    evaluate_nodes_packed(sog, packed_sources)  # warm up before timing
    gc.collect()

    with activate(runtime_report):
        with runtime_report.stage("bog.simulate_packed"):
            packed_seconds = _best_of(
                lambda: evaluate_nodes_packed(sog, packed_sources), rounds=9
            )
        n_scalar = 4
        with runtime_report.stage("bog.simulate_scalar"):
            scalar_seconds = _best_of(
                lambda: [evaluate_nodes(sog, vector) for vector in vectors[:n_scalar]],
                rounds=3,
            )

    packed_values = evaluate_nodes_packed(sog, packed_sources)
    for lane in (0, 17, PACKED_LANES - 1):
        assert unpack_lane(packed_values, lane) == evaluate_nodes(sog, vectors[lane])

    per_vector_packed = packed_seconds / PACKED_LANES
    per_vector_scalar = scalar_seconds / n_scalar
    speedup = per_vector_scalar / max(per_vector_packed, 1e-12)
    runtime_report.meta["packed_sim_design"] = record.name
    print_table(
        f"Packed vs scalar BOG simulation ({record.name})",
        ["Quantity", "Value"],
        [
            ["sog nodes", len(sog.nodes)],
            ["packed, 64 vectors (ms)", f"{packed_seconds * 1e3:.2f}"],
            ["scalar, per vector (ms)", f"{per_vector_scalar * 1e3:.2f}"],
            ["per-vector speedup", f"{speedup:.0f}x"],
        ],
    )
    assert speedup >= 20.0, f"packed kernel only {speedup:.0f}x per vector"
