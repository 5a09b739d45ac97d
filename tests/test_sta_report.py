"""One STA report form: endpoint timing held as columns.

An :class:`~repro.sta.engine.STAReport` keeps its endpoints as a snapshot
of the network's endpoints plus ``drivers`` / ``required`` / ``slacks``
arrays; its ``endpoints`` objects are a view built on first read, from the
report's own arrays, and never pickled.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.bitwise import BitwiseConfig
from repro.core.dataset import build_design_record
from repro.core.optimize import generate_candidates, ranking_from_labels
from repro.core.overall import OverallConfig
from repro.core.pipeline import RTLTimer, RTLTimerConfig
from repro.core.signalwise import SignalwiseConfig
from repro.incremental.whatif import evaluate_candidates
from repro.sta.engine import STAReport, analyze

from tests.conftest import TINY_SPECS


def _retimed_move(netlist):
    """A register endpoint whose backward move rewrites another endpoint's driver."""
    for endpoint in netlist.endpoints:
        if endpoint.kind != "register":
            continue
        trial = copy.deepcopy(netlist)
        before = {e.name: e.driver for e in trial.endpoints}
        if trial.retime_endpoint_backward(endpoint.name) and any(
            before[e.name] != e.driver for e in trial.endpoints if e.name in before
        ):
            return endpoint.name
    raise AssertionError("no retiming move rewires another endpoint")


def test_report_outlives_a_retiming_move(tiny_record):
    """A report taken before ``retime_endpoint_backward`` keeps its own
    names, drivers and slacks, although the move rewrites a live endpoint's
    driver in place and removes the moved endpoint from the network."""
    netlist = copy.deepcopy(tiny_record.synthesis.netlist)
    report = analyze(netlist, tiny_record.clock)
    names = [e.name for e in netlist.endpoints]
    drivers = [e.driver for e in netlist.endpoints]
    slacks = report.slacks.copy()
    moved = _retimed_move(netlist)

    assert netlist.retime_endpoint_backward(moved)
    live = {e.name: e.driver for e in netlist.endpoints}
    assert moved not in live
    assert any(live[name] != driver for name, driver in zip(names, drivers) if name in live)
    assert [e.name for e in report.endpoints] == names
    assert [e.driver for e in report.endpoints] == drivers == report.drivers.tolist()
    assert [e.slack for e in report.endpoints] == slacks.tolist()
    assert report.endpoint(moved).driver == drivers[names.index(moved)]


def test_reading_endpoints_leaves_the_pickle_unchanged(tiny_record):
    """The endpoint view is never pickled, so record fingerprints and cache
    bytes do not depend on whether anyone read it."""
    record = pickle.loads(pickle.dumps(tiny_record, protocol=5))
    network = record.synthesis.netlist
    read, unread = analyze(network, record.clock), analyze(network, record.clock)
    assert read.endpoints and read.endpoint(read.endpoints[-1].name)
    assert pickle.dumps(read, protocol=5) == pickle.dumps(unread, protocol=5)

    before = pickle.dumps(record, protocol=5)
    for report in [*record.pseudo_reports.values(), record.synthesis.report]:
        assert len(report.endpoints) == len(report.drivers)
    assert pickle.dumps(record, protocol=5) == before


def test_report_columns_agree_with_the_view(tiny_record):
    report = tiny_record.label_report
    assert isinstance(report, STAReport)
    assert np.array_equal(report.slacks, report.required - report.arrivals[report.drivers])
    assert [e.slack for e in report.endpoints] == report.slacks.tolist()
    assert [e.arrival for e in report.endpoints] == report.endpoint_arrivals().tolist()
    assert report.summary()["n_violated"] == sum(e.slack < 0 for e in report.endpoints)
    with pytest.raises(KeyError):
        report.endpoint("no such endpoint")


def test_build_predict_and_what_if_make_no_endpoint_objects(tiny_records, monkeypatch):
    """No served or build path makes endpoint objects: only the view does."""
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=10, max_depth=3, max_train_endpoints_per_design=40),
        signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
        overall=OverallConfig(n_estimators=8),
    )
    timer = RTLTimer(config).fit([pickle.loads(pickle.dumps(r)) for r in tiny_records[:3]])

    def no_endpoint_objects(*args, **kwargs):
        raise AssertionError("an endpoint object was built")

    monkeypatch.setattr("repro.sta.engine.EndpointTiming", no_endpoint_objects)
    monkeypatch.setenv("REPRO_CACHE", "0")
    record = build_design_record(TINY_SPECS[3])
    timer.predict(record)
    estimates = evaluate_candidates(record, generate_candidates(ranking_from_labels(record), k=4))
    assert any(estimate.n_patches for estimate in estimates)
    with pytest.raises(AssertionError, match="endpoint object"):
        record.label_report.endpoints  # noqa: B018 - the view is the one maker


def test_report_repr_stays_short(tiny_record):
    """The columns stay out of the repr, so a failed assert prints a summary."""
    for report in (tiny_record.label_report, *tiny_record.pseudo_reports.values()):
        assert len(repr(report)) < 300
        assert f"wns={report.wns!r}" in repr(report)
