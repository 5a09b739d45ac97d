"""Golden digests of synthesized label netlists.

Each digest hashes the synthesized netlist's kind codes, fanin CSR, cell
per vertex, every vertex arrival and slew, every endpoint's arrival and
slack, and the QoR record, exactly as ``build_design_record``'s label
synthesis produces them (``synthesize_bog`` with ``SynthesisOptions()`` at
the pseudo clock).  Any change to mapping, sizing, area recovery or the STA
numbers shows up here.

The corpus is the 21 ``BENCHMARK_SPECS`` designs plus fuzz seeds 0-9 in the
tiny, small and medium classes.  Each ``BENCHMARK_SPECS`` design also has a
``<design>@table6`` digest: the same synthesis under Table-6-style options
(``group_path`` groups and ``retime`` signals from
:func:`repro.optimize.space.options_from_ranking` over the default-options
label's signal slacks), which exercises grouped sizing and register
retiming.  The digests live in ``tests/golden/label_netlist_digests.json``;
after an intended change to synthesis, regenerate it with
``PYTHONPATH=src python tests/test_synth_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bog import build_sog
from repro.core.dataset import DatasetConfig
from repro.fuzz.corpus import generate_fuzz_design
from repro.hdl.design import analyze
from repro.hdl.generate import BENCHMARK_SPECS, generate_design
from repro.hdl.parser import parse_source
from repro.optimize.space import options_from_ranking
from repro.sta import ClockConstraint
from repro.synth import flow
from repro.synth.optimizer import SynthesisOptions

GOLDEN = Path(__file__).resolve().parent / "golden" / "label_netlist_digests.json"

TABLE6 = "@table6"
_FUZZ = [(size_class, seed) for size_class in ("tiny", "small", "medium") for seed in range(10)]
CORPUS = (
    [spec.name for spec in BENCHMARK_SPECS]
    + [f"fuzz_{c}_{s}" for c, s in _FUZZ]
    + [spec.name + TABLE6 for spec in BENCHMARK_SPECS]
)


def _source(design: str) -> str:
    for spec in BENCHMARK_SPECS:
        if spec.name == design:
            return generate_design(spec)
    _, size_class, seed = design.split("_")
    return generate_fuzz_design(int(seed), size_class).source


def table6_options(result) -> SynthesisOptions:
    """``group_path`` + ``retime`` options ranked by ``result``'s signal slacks."""
    slacks = result.report.signal_slacks()
    return options_from_ranking(sorted(slacks, key=lambda signal: (slacks[signal], signal)))


def label_synthesis(design: str):
    """The synthesis result behind one corpus entry's digest."""
    name = design.removesuffix(TABLE6)
    source = _source(name)
    sog = build_sog(analyze(parse_source(source), source=source))
    clock = ClockConstraint(period=DatasetConfig().pseudo_clock_period)
    result = flow.synthesize_bog(sog, clock, SynthesisOptions())
    if design == name:
        return result
    return flow.synthesize_bog(sog, clock, table6_options(result))


def netlist_digest(result) -> str:
    """sha256 of a synthesized netlist's structure, cells, timing and QoR."""
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


def label_netlist_digest(design: str) -> str:
    """sha256 of one corpus entry's synthesized netlist."""
    return netlist_digest(label_synthesis(design))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite(golden):
    assert list(golden) == CORPUS


@pytest.mark.parametrize("design", CORPUS)
def test_label_netlist_digest_matches_golden(golden, design):
    assert label_netlist_digest(design) == golden[design]


def test_table6_corpus_retimes_a_register():
    """Rocket1's Table-6 entry moves a register, so its digest pins retiming too."""
    assert label_synthesis("Rocket1" + TABLE6).trace.retimed == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({d: label_netlist_digest(d) for d in CORPUS}, indent=1) + "\n")
    print(f"wrote {len(CORPUS)} designs to {GOLDEN}")
