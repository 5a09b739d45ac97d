"""Timing networks at rest as columns against their materialized twins.

A network lowered by ``from_bog`` (or unpickled) holds columns and builds
``TimingVertex`` objects only when code reads ``.vertices``.  Whichever form
a network is in, everything computed from it must be identical: the compiled
CSR arrays, the attribute columns, STA reports, path datasets and the
pickle bytes.  Inference must never materialize a pseudo network.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.dataset import build_design_record
from repro.core.features import extract_path_dataset_uncached
from repro.core.pipeline import RTLTimer, RTLTimerConfig
from repro.core.bitwise import BitwiseConfig
from repro.core.overall import OverallConfig
from repro.core.signalwise import SignalwiseConfig
from repro.sta import ClockConstraint, analyze
from repro.sta import network as network_mod

from tests.conftest import TINY_SPECS

VARIANTS = ("sog", "aig", "aimg", "xag")
CLOCK = ClockConstraint(period=600.0)
CELL_PARAMETERS = (
    "input_cap",
    "intrinsic_delay",
    "resistance",
    "slew_factor",
    "slew_intrinsic",
    "slew_resistance",
    "clk_to_q",
)


def _copy(network):
    return pickle.loads(pickle.dumps(network, protocol=5))


def _pair(network):
    """A column-mode copy of ``network`` and a materialized twin of it."""
    at_rest, twin = _copy(network), _copy(network)
    twin.vertices  # noqa: B018 - builds the vertex objects
    return at_rest, twin


@pytest.fixture
def materialized(monkeypatch):
    """The columns every ``TimingNetwork.vertices`` call materialized, in order."""
    built = []
    materialize = network_mod.NetworkColumns.vertices

    def counting(columns):
        built.append(columns)
        return materialize(columns)

    monkeypatch.setattr(network_mod.NetworkColumns, "vertices", counting)
    return built


@pytest.fixture(scope="module")
def cases(tiny_records):
    return [(record, variant) for record in tiny_records for variant in VARIANTS]


def test_compiled_arrays_identical(cases):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        a, b = at_rest.compiled(), twin.compiled()
        for name in (
            "kind",
            "fanin_indptr",
            "fanin_indices",
            "fanout_indptr",
            "fanout_indices",
            "level",
            "order",
            "level_ptr",
        ):
            left, right = getattr(a, name), getattr(b, name)
            assert left.dtype == right.dtype and np.array_equal(left, right), name


def test_attribute_columns_identical(cases):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        a, b = at_rest.attribute_columns(), twin.attribute_columns()
        assert np.array_equal(a.cell_row, b.cell_row)
        assert [c.name for c in a.cells[1:]] == [c.name for c in b.cells[1:]]
        assert np.array_equal(a.derate, b.derate)
        assert np.array_equal(a.extra_load, b.extra_load)
        for parameter in CELL_PARAMETERS:
            assert np.array_equal(a.param(parameter), b.param(parameter)), parameter


def test_sta_reports_identical(cases):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        a, b = analyze(at_rest, CLOCK), analyze(twin, CLOCK)
        for name in ("arrivals", "slews", "loads"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.endpoints == b.endpoints
        assert (a.wns, a.tns) == (b.wns, b.tns)


def test_path_datasets_identical(cases):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        datasets = [
            extract_path_dataset_uncached(
                dataclasses.replace(record, pseudo_networks={variant: network}), variant
            )
            for network in (at_rest, twin)
        ]
        a, b = datasets
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.groups, b.groups)
        assert len(a.tokens) == len(b.tokens)
        assert all(np.array_equal(x, y) for x, y in zip(a.tokens, b.tokens))
        assert a.endpoint_names == b.endpoint_names


def test_pickle_bytes_identical(cases, materialized):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        before = len(materialized)
        assert pickle.dumps(at_rest, protocol=5) == pickle.dumps(twin, protocol=5)
        assert len(materialized) == before


def test_edits_after_materializing_reach_columns_and_pickles(tiny_record):
    network = _copy(tiny_record.pseudo_networks["sog"])
    network.vertices[3].derate = 1.5
    assert network.columns().derate[3] == 1.5
    assert network.attribute_columns().derate[3] == 1.5
    assert _copy(network).columns().derate[3] == 1.5


def test_fit_and_predict_never_materialize_pseudo_networks(tiny_records, materialized):
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=10, max_depth=3, max_train_endpoints_per_design=40),
        signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
        overall=OverallConfig(n_estimators=8),
    )
    # Unpickled like the records a retrain parent loads from its workers.
    timer = RTLTimer(config).fit([pickle.loads(pickle.dumps(r)) for r in tiny_records[:3]])
    record = build_design_record(TINY_SPECS[3])
    timer.predict(record)
    assert materialized == []
    record.pseudo_networks["sog"].vertices  # noqa: B018 - the spy does count
    assert len(materialized) == 1
