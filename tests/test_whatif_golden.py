"""Pinned what-if estimates: the re-timing kernel may change, the numbers may not.

Every :func:`evaluate_candidates` estimate (WNS, TNS, patch count and every
:class:`PropagationStats` field) over the tier-1 fixture designs and the
tiny/small fuzz designs of seeds 0-9 is folded into one sha256, together
with the ``incremental_runs`` / ``incremental_recomputed_vertices``
counters the evaluations report.  The digests were computed with the
dirty-level worklist re-sweep, so any faster re-timing has to reproduce its
floats and its footprint accounting bit for bit.

The projection itself is pinned too: every candidate's patches (kind,
vertex and value, in patch order) and the
:meth:`~repro.optimize.search.IncrementalEvaluator.area_of` they give,
computed with the per-vertex projection over patch objects, so a faster
projection has to reproduce its patch order and its area sums.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.core.dataset import build_design_record
from repro.core.optimize import generate_candidates, ranking_from_labels
from repro.fuzz.corpus import generate_fuzz_design
from repro.incremental.whatif import evaluate_candidates
from repro.optimize.search import IncrementalEvaluator
from repro.runtime import RuntimeReport, activate

#: sha256 of the estimates of the five tier-1 fixture designs.
FIXTURE_DIGEST = "2c9afe862d99450966a2f3c1cd735cae338598328c3ba1b3017304c9db9cfac6"
#: sha256 of the estimates of fuzz seeds 0-9, tiny then small.
FUZZ_DIGEST = "622f34fc8924fa8cd2e1f4d69a91ccc9d2a1441eb0dccd911134c97f06c7503d"
#: ``(incremental_runs, incremental_recomputed_vertices)`` of each set.
FIXTURE_COUNTERS = (30, 9315)
FUZZ_COUNTERS = (97, 38426)
#: sha256 of every candidate's patches and area, fixtures and fuzz seeds.
FIXTURE_PLAN_DIGEST = "f8321732fdbdc971af9136129af3ab8695f40fe213a78a02093cac9f50c6fe7e"
FUZZ_PLAN_DIGEST = "22b49d616e24285500ae31767e73a745d33adbcab0870a12491d102b49152660"

K_CANDIDATES = 8
FUZZ_SEEDS = range(10)
FUZZ_SIZE_CLASSES = ("tiny", "small")


def _fold(digest, estimates) -> None:
    for estimate in estimates:
        digest.update(np.float64(estimate.wns).tobytes())
        digest.update(np.float64(estimate.tns).tobytes())
        digest.update(struct.pack("<q", estimate.n_patches))
        stats = estimate.stats
        if stats is None:
            digest.update(b"no-stats")
            continue
        digest.update(
            struct.pack(
                "<5q",
                stats.n_patches,
                stats.n_dirty_seeds,
                stats.n_recomputed,
                stats.n_vertices,
                stats.n_endpoints_updated,
            )
        )
        digest.update(np.float64(stats.cone_fraction).tobytes())


def _estimates_digest(records):
    digest = hashlib.sha256()
    report = RuntimeReport()
    with activate(report):
        for record in records:
            digest.update(record.name.encode() + b"\0")
            candidates = generate_candidates(ranking_from_labels(record), k=K_CANDIDATES)
            _fold(digest, evaluate_candidates(record, candidates))
    counters = (
        report.counters.get("incremental_runs", 0),
        report.counters.get("incremental_recomputed_vertices", 0),
    )
    return digest.hexdigest(), counters


def _patch_records(plan):
    """``(kind, vertex, value bytes)`` of every patch of ``plan``, in patch order.

    A kind is named as the patch class the digests were computed with.
    """
    for vertex, derate in zip(plan.derate_vertices.tolist(), plan.derates.tolist()):
        yield b"SetDerate", vertex, np.float64(derate).tobytes()
    for vertex, row in zip(plan.swap_vertices.tolist(), plan.swap_rows.tolist()):
        yield b"SwapCell", vertex, plan.cells[row].name.encode()
    for vertex, delta in zip(plan.load_vertices.tolist(), plan.load_deltas.tolist()):
        yield b"AddExtraLoad", vertex, np.float64(delta).tobytes()


def _plans_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.name.encode() + b"\0")
        evaluator = IncrementalEvaluator(record)
        for options in generate_candidates(ranking_from_labels(record), k=K_CANDIDATES):
            patches = evaluator.patches(options)
            for kind, vertex, value in _patch_records(patches):
                digest.update(kind + struct.pack("<q", vertex))
                digest.update(value)
            digest.update(np.float64(evaluator.area_of(patches)).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fuzz_records():
    return [
        build_design_record(generate_fuzz_design(seed, size_class).source)
        for size_class in FUZZ_SIZE_CLASSES
        for seed in FUZZ_SEEDS
    ]


def test_fixture_estimates_are_pinned(tiny_records):
    assert _estimates_digest(tiny_records) == (FIXTURE_DIGEST, FIXTURE_COUNTERS)


def test_fuzz_estimates_are_pinned(fuzz_records):
    assert _estimates_digest(fuzz_records) == (FUZZ_DIGEST, FUZZ_COUNTERS)


def test_fixture_projection_is_pinned(tiny_records):
    assert _plans_digest(tiny_records) == FIXTURE_PLAN_DIGEST


def test_fuzz_projection_is_pinned(fuzz_records):
    assert _plans_digest(fuzz_records) == FUZZ_PLAN_DIGEST
