"""Golden digests of the four BOG variants of a fixed design corpus.

Each digest hashes one variant's type codes, fanin CSR, node names, source
map, constant ids and endpoints, so node ids, fanin order and first-creation
order are all pinned: any change to bit-blasting, folding, structural
hashing or the SOG -> AIG/AIMG/XAG templates shows up here.

The corpus is the 21 ``BENCHMARK_SPECS`` designs plus fuzz seeds 0-9 in the
tiny, small and medium classes.  The digests live in
``tests/golden/bog_variant_digests.json``; after an intended change to the
graphs, regenerate it with ``PYTHONPATH=src python tests/test_bog_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bog import BOG_VARIANTS, build_variants
from repro.fuzz.corpus import generate_fuzz_design
from repro.hdl.design import analyze
from repro.hdl.generate import BENCHMARK_SPECS, generate_design
from repro.hdl.parser import parse_source

GOLDEN = Path(__file__).resolve().parent / "golden" / "bog_variant_digests.json"

_FUZZ = [(size_class, seed) for size_class in ("tiny", "small", "medium") for seed in range(10)]
CORPUS = [spec.name for spec in BENCHMARK_SPECS] + [f"fuzz_{c}_{s}" for c, s in _FUZZ]


def _source(design: str) -> str:
    for spec in BENCHMARK_SPECS:
        if spec.name == design:
            return generate_design(spec)
    _, size_class, seed = design.split("_")
    return generate_fuzz_design(int(seed), size_class).source


def variant_digests(design: str) -> dict:
    """``{variant: sha256}`` of the four BOG variants of ``design``."""
    source = _source(design)
    bogs = build_variants(analyze(parse_source(source), source=source))
    return {variant: bog_digest(bogs[variant]) for variant in BOG_VARIANTS}


def bog_digest(bog) -> str:
    """sha256 of ``(type codes, fanins, names, sources, const ids, endpoints)``."""
    codes, indptr, indices = bog.fanin_csr()
    digest = hashlib.sha256()
    for column in (codes.astype(np.int8), indptr.astype(np.int32), indices.astype(np.int32)):
        digest.update(column.tobytes())
        digest.update(b"|")
    rows = (
        [node.name for node in bog.nodes],
        list(bog.sources.items()),
        (bog._const0, bog._const1),
        [(e.name, e.signal, e.bit, e.driver, e.kind, e.reg_node) for e in bog.endpoints],
    )
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"|")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert list(golden) == CORPUS


@pytest.mark.parametrize("design", CORPUS)
def test_variant_digests_match_golden(golden, design):
    assert variant_digests(design) == golden[design]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({d: variant_digests(d) for d in CORPUS}, indent=1) + "\n")
    print(f"wrote {len(CORPUS)} designs to {GOLDEN}")
