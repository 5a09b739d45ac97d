"""Incremental what-if engine benchmarks (`incremental.*` BENCH stages).

Three claims are measured on the real benchmark suite and recorded into
``BENCH_runtime.json`` for the CI trend job:

1. dirty-cone re-timing agrees with a full ``sta.engine.analyze`` re-run on
   a patched suite netlist (spot equivalence; the exhaustive property test
   lives in ``tests/test_incremental.py``),
2. a 16-candidate what-if sweep is measurably faster than 16 full
   re-syntheses of the same candidates — the speedup that makes
   multi-candidate optimization search affordable,
3. the sweep produces an extended Table 6 row (estimates + chosen
   candidate) whose full synthesis result is comparable to the classic
   single-candidate protocol.
"""

from __future__ import annotations

import random
import time

import numpy as np

from benchmarks.conftest import FAST_MODE, print_table
from repro.core.optimize import (
    generate_candidates,
    ranking_from_labels,
    run_optimization_sweep,
)
from repro.fuzz.oracles import edited_copy
from repro.incremental import IncrementalSTA, PatchPlan
from repro.incremental.whatif import evaluate_candidates
from repro.runtime import activate
from repro.runtime.report import FULL_RESYNTHESIS_STAGE, WHATIF_SWEEP_STAGE
from repro.sta.engine import analyze
from repro.sta.network import VertexKind
from repro.synth.flow import synthesize_bog


def _by_gate_count(records):
    return sorted(records, key=lambda r: r.synthesis.netlist.gate_count())


def test_incremental_matches_full_sta_on_suite(dataset_records, runtime_report):
    """Dirty-cone re-timing equals a full re-analysis on a real suite design."""
    record = _by_gate_count(dataset_records)[len(dataset_records) // 2]
    network = record.synthesis.netlist
    engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
    rng = random.Random(42)
    gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]

    with activate(runtime_report):
        for _ in range(5):
            derates = {}
            for _ in range(4):
                derates[rng.choice(gates)] = rng.uniform(0.5, 1.5)
            swaps = {}
            for _ in range(4):
                vertex = rng.choice(gates)
                cell = network.vertices[vertex].cell
                stronger = network.library.upsize(cell)
                if stronger is not None:
                    swaps[vertex] = stronger
            patches = PatchPlan.of(network, derates=derates, swaps=swaps)
            incremental, stats = engine.what_if(patches)
            edited = edited_copy(network, patches)
            with runtime_report.stage("incremental.full_reanalysis"):
                full = analyze(edited, record.clock)
            np.testing.assert_allclose(
                incremental.arrivals, full.arrivals, atol=1e-9, rtol=0
            )
            assert abs(incremental.wns - full.wns) <= 1e-9
            assert abs(incremental.tns - full.tns) <= 1e-9
            assert stats is not None and stats.cone_fraction <= 1.0


def test_incremental_whatif_sweep_vs_full_resynthesis(
    dataset_records, runtime_report, benchmark
):
    """Acceptance: 16 what-if candidates beat 16 full re-syntheses outright."""
    ordered = _by_gate_count(dataset_records)
    # Mid-size design in CI fast mode, a large one for paper-grade numbers.
    record = ordered[len(ordered) // 2] if FAST_MODE else ordered[-3]
    ranked = ranking_from_labels(record)
    candidates = generate_candidates(ranked, k=16)

    with activate(runtime_report):
        started = time.perf_counter()
        with runtime_report.stage(WHATIF_SWEEP_STAGE):
            estimates = benchmark.pedantic(
                lambda: evaluate_candidates(record, candidates), rounds=1, iterations=1
            )
        whatif_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with runtime_report.stage(FULL_RESYNTHESIS_STAGE):
            full_results = [
                synthesize_bog(record.sog, record.clock, options, seed=7)
                for options in candidates
            ]
        full_seconds = time.perf_counter() - started

    # The speedup itself lands in the report's derived metrics
    # (``incremental_whatif_speedup``), computed from the two stages above.
    runtime_report.meta["incremental_whatif_design"] = record.name

    rows = [
        ["what-if sweep, 16 candidates (s)", f"{whatif_seconds:.3f}"],
        ["full re-synthesis, 16 candidates (s)", f"{full_seconds:.3f}"],
        ["speedup", f"{full_seconds / max(whatif_seconds, 1e-9):.1f}x"],
        ["mean cone fraction", f"{np.mean([e.stats.cone_fraction for e in estimates if e.stats]):.3f}"],
    ]
    print_table(
        f"Incremental what-if vs full re-synthesis ({record.name})",
        ["Quantity", "Value"],
        rows,
    )

    assert len(estimates) == len(full_results) == 16
    # "Measurably faster": at least 2x, in practice orders of magnitude.
    assert whatif_seconds * 2.0 < full_seconds


def test_incremental_sweep_extended_table6_rows(dataset_records, runtime_report):
    """Extended Table 6: multi-candidate sweep rows with projected timing."""
    ordered = _by_gate_count(dataset_records)
    sample = ordered[1:3] if FAST_MODE else ordered[2:5]
    k = 8

    rows = []
    with activate(runtime_report), runtime_report.stage("incremental.sweep_table6"):
        for record in sample:
            outcome = run_optimization_sweep(
                record, ranking_from_labels(record), k=k, ranking_source="real"
            )
            chosen = outcome.candidates[outcome.chosen_index]
            rows.append(
                [
                    outcome.design,
                    f"{outcome.wns_change_pct:+.1f}",
                    f"{outcome.tns_change_pct:+.1f}",
                    f"{outcome.power_change_pct:+.1f}",
                    f"{outcome.area_change_pct:+.1f}",
                    outcome.chosen_index,
                    f"{chosen.tns:.0f}",
                ]
            )
            assert outcome.n_candidates == k
            assert outcome.options is chosen.options

    print_table(
        f"Extended Table 6: {k}-candidate sweep (ground-truth ranking)",
        ["Design", "WNS%", "TNS%", "Pwr%", "Area%", "Chosen", "Est.TNS"],
        rows,
    )
