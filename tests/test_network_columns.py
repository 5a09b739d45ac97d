"""Timing networks are columns; ``TimingVertex`` objects are read-only views.

Every network — lowered by ``from_bog``, built by ``add_vertex``, edited by
synthesis, patches or placement, or unpickled — holds only columns, and
``.vertices`` builds a cached tuple of immutable views of them.  The views
must agree with the columns: a network rebuilt vertex by vertex from its
views has identical compiled arrays, attribute columns, STA reports, path
datasets and pickle bytes.  No editor and no inference path builds a view.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.bitwise import BitwiseConfig
from repro.core.dataset import build_design_record
from repro.core.features import extract_path_dataset_uncached, path_token_sequences
from repro.core.optimize import options_from_ranking, ranking_from_labels
from repro.core.overall import OverallConfig
from repro.core.pipeline import RTLTimer, RTLTimerConfig
from repro.core.signalwise import SignalwiseConfig
from repro.incremental.whatif import evaluate_candidates
from repro.physical.placement import apply_wire_loads, place
from repro.sta import ClockConstraint, TimingNetwork, analyze
from repro.sta import network as network_mod
from repro.sta.csr import cell_table
from repro.synth import flow
from repro.synth.optimizer import SynthesisOptions, optimize

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


def _rebuilt(network) -> TimingNetwork:
    """A network built vertex by vertex from ``network``'s views."""
    twin = TimingNetwork(network.name)
    views = network.vertices
    for vertex in views:
        twin.add_vertex(vertex.kind, vertex.fanins, vertex.cell, vertex.name)
    twin.set_derate(slice(None), [vertex.derate for vertex in views])
    twin.set_extra_load(slice(None), [vertex.extra_load for vertex in views])
    twin.endpoints = network.endpoints
    return twin


def _pair(network):
    """A copy of ``network`` and a twin rebuilt from the copy's views."""
    copy = _copy(network)
    return copy, _rebuilt(copy)


@pytest.fixture
def views(monkeypatch):
    """The ids of every ``TimingVertex`` view built, in order."""
    built = []
    view = network_mod.TimingVertex

    def counting(*args):
        built.append(args[0])
        return view(*args)

    monkeypatch.setattr(network_mod, "TimingVertex", counting)
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
        assert a.endpoint_names == b.endpoint_names
        x_tokens, y_tokens = [
            path_token_sequences(
                dataclasses.replace(record, pseudo_networks={variant: network}), variant
            )
            for network in (at_rest, twin)
        ]
        assert len(x_tokens) == len(y_tokens) == a.n_paths
        assert all(np.array_equal(x, y) for x, y in zip(x_tokens, y_tokens))


def test_pickle_bytes_identical(cases, views):
    for record, variant in cases:
        at_rest, twin = _pair(record.pseudo_networks[variant])
        before = len(views)
        assert pickle.dumps(at_rest, protocol=5) == pickle.dumps(twin, protocol=5)
        assert len(views) == before


def test_edits_after_materializing_reach_columns_and_pickles(tiny_record):
    network = _copy(tiny_record.pseudo_networks["sog"])
    assert network.vertices[3].derate == 1.0
    network.set_derate(3, 1.5)
    assert network.vertices[3].derate == 1.5
    assert network.columns().derate[3] == 1.5
    assert network.attribute_columns().derate[3] == 1.5
    assert _copy(network).columns().derate[3] == 1.5


def test_views_are_read_only(tiny_record):
    vertex = tiny_record.pseudo_networks["sog"].vertices[3]
    with pytest.raises(AttributeError):
        vertex.derate = 1.5
    with pytest.raises(AttributeError):
        vertex.fanins.append(0)


def test_views_are_dropped_on_every_edit(tiny_record):
    netlist = _copy(tiny_record.synthesis.netlist)
    gate = next(v for v in netlist.vertices if v.fanins and v.cell is not None)
    netlist.set_extra_load(gate.id, 2.5)
    assert netlist.vertices[gate.id].extra_load == 2.5
    stronger = netlist.library.upsize(gate.cell) or netlist.library.downsize(gate.cell)
    netlist.set_cell(gate.id, stronger)
    assert netlist.vertices[gate.id].cell is stronger
    netlist.set_fanins(gate.id, gate.fanins[:1])
    assert netlist.vertices[gate.id].fanins == gate.fanins[:1]
    added = netlist.add_vertex(gate.kind, [gate.id], stronger)
    assert netlist.vertices[added].fanins == (gate.id,)


def test_sizing_keeps_the_pickled_cell_table_in_first_use_order(tiny_record):
    """A sizing pass appends cells out of first-use order; columns() re-orders them."""
    netlist = _copy(tiny_record.synthesis.netlist)
    # Unpickled, the table is already in first-use order and passes through.
    assert netlist.columns().cell_row is netlist.attribute_columns().cell_row
    gates = [v.id for v in netlist.vertices if v.fanins and v.cell is not None]
    for vertex in reversed(gates[len(gates) // 2 :]):
        netlist.upsize(vertex) or netlist.downsize(vertex)
    live = netlist.attribute_columns()
    columns = netlist.columns()
    cells, rows = cell_table(netlist.vertex_cells())
    assert [id(c) for c in live.cells] != [id(c) for c in cells]  # the live table is out of order
    assert [id(c) for c in columns.cells] == [id(c) for c in cells]
    assert columns.cell_row.dtype == rows.dtype and np.array_equal(columns.cell_row, rows)
    assert pickle.dumps(netlist) == pickle.dumps(_copy(netlist))


def test_fit_and_predict_never_materialize_pseudo_networks(tiny_records, views):
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=10, max_depth=3, max_train_endpoints_per_design=40),
        signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
        overall=OverallConfig(n_estimators=8),
    )
    # Unpickled like the records a retrain parent loads from its workers.
    timer = RTLTimer(config).fit([pickle.loads(pickle.dumps(r)) for r in tiny_records[:3]])
    record = build_design_record(TINY_SPECS[3])
    timer.predict(record)
    assert views == []
    record.pseudo_networks["sog"].vertices  # noqa: B018 - the spy does count
    assert len(views) == len(record.pseudo_networks["sog"])


def test_editors_build_no_vertex_views(tiny_record, views):
    """Synthesis, what-if patches and placement edit columns, never views."""
    record = pickle.loads(pickle.dumps(tiny_record))
    sog = record.sog
    default = flow.synthesize_bog(sog, record.clock, SynthesisOptions())
    table6 = options_from_ranking(ranking_from_labels(record))
    assert table6.retime_signals and table6.path_groups
    flow.synthesize_bog(sog, record.clock.scaled(0.5), table6)
    candidates = [table6, options_from_ranking(ranking_from_labels(record)[::-1])]
    assert any(estimate.n_patches for estimate in evaluate_candidates(record, candidates))
    netlist = default.netlist
    apply_wire_loads(netlist, place(netlist, seed=0))
    optimize(netlist, record.clock, table6)
    assert views == []
