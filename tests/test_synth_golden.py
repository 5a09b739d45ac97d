"""Golden digests of the default-options label netlist of the benchmark suite.

Each digest hashes the synthesized netlist's kind codes, fanin CSR, cell
per vertex, every vertex arrival and slew, every endpoint's arrival and
slack, and the QoR record, exactly as ``build_design_record``'s label
synthesis produces them (``synthesize_bog`` with ``SynthesisOptions()`` at
the pseudo clock).  Any change to mapping, sizing, area recovery or the STA
numbers shows up here.

The corpus is the 21 ``BENCHMARK_SPECS`` designs.  The digests live in
``tests/golden/label_netlist_digests.json``; after an intended change to
synthesis, regenerate it with ``PYTHONPATH=src python tests/test_synth_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bog import build_sog
from repro.core.dataset import DatasetConfig
from repro.hdl.design import analyze
from repro.hdl.generate import BENCHMARK_SPECS, generate_design
from repro.hdl.parser import parse_source
from repro.sta import ClockConstraint
from repro.synth import flow
from repro.synth.optimizer import SynthesisOptions

GOLDEN = Path(__file__).resolve().parent / "golden" / "label_netlist_digests.json"

CORPUS = [spec.name for spec in BENCHMARK_SPECS]


def label_synthesis(design: str):
    """The label-synthesis result of one ``BENCHMARK_SPECS`` design."""
    spec = next(spec for spec in BENCHMARK_SPECS if spec.name == design)
    source = generate_design(spec)
    sog = build_sog(analyze(parse_source(source), source=source))
    clock = ClockConstraint(period=DatasetConfig().pseudo_clock_period)
    return flow.synthesize_bog(sog, clock, SynthesisOptions())


def label_netlist_digest(design: str) -> str:
    """sha256 of the label netlist's structure, cells, timing and QoR."""
    result = label_synthesis(design)
    columns = result.netlist.columns()
    report = result.report
    digest = hashlib.sha256()
    for column in (
        columns.kind.astype(np.int8),
        columns.fanin_indptr.astype(np.int32),
        columns.fanin_indices.astype(np.int32),
        np.asarray(report.arrivals, dtype=np.float64),
        np.asarray(report.slews, dtype=np.float64),
    ):
        digest.update(column.tobytes())
        digest.update(b"|")
    rows = (
        [cell.name if cell is not None else None for cell in columns.cells],
        columns.cell_row.astype(np.int32).tolist(),
        [(e.name, e.kind, e.arrival, e.slack) for e in report.endpoints],
        result.qor.as_dict(),
    )
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"|")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite(golden):
    assert list(golden) == CORPUS


@pytest.mark.parametrize("design", CORPUS)
def test_label_netlist_digest_matches_golden(golden, design):
    assert label_netlist_digest(design) == golden[design]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({d: label_netlist_digest(d) for d in CORPUS}, indent=1) + "\n")
    print(f"wrote {len(CORPUS)} designs to {GOLDEN}")
