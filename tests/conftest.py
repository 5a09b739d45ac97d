"""Shared fixtures: small designs and dataset records reused across tests.

Also registers the Hypothesis profiles: the default ``ci`` profile is
derandomized (fixed seed, reproducible failures), has no deadline (CI
machines are noisy), and draws a uniform example budget that the
``REPRO_HYPOTHESIS_SCALE`` environment knob scales across *all* property
tests at once (e.g. ``REPRO_HYPOTHESIS_SCALE=4`` for a deeper local run).
Select the randomized profile with ``HYPOTHESIS_PROFILE=dev``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.bog.graph import BOG, NODE_TYPE_CODE
from repro.core.dataset import DatasetConfig, DesignRecord, build_design_record
from repro.hdl.design import analyze
from repro.hdl.generate import DesignSpec
from repro.hdl.parser import parse_source
from repro.sta.csr import build_fanin_csr

#: Per-test example budget before scaling (uniform across the suite).
BASE_MAX_EXAMPLES = 25


def _scaled_max_examples() -> int:
    try:
        scale = float(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1"))
    except ValueError:
        scale = 1.0
    return max(1, int(round(BASE_MAX_EXAMPLES * scale)))


hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=_scaled_max_examples()
)
hypothesis_settings.register_profile(
    "dev", deadline=None, max_examples=_scaled_max_examples()
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


SIMPLE_VERILOG = """
module simple (clk, a, b, sel, q, y);
  input clk;
  input [3:0] a;
  input [3:0] b;
  input sel;
  output [3:0] y;
  output q;
  reg [3:0] acc;
  reg flag;
  wire [3:0] sum;
  wire [3:0] muxed;

  assign sum = a + b;
  assign muxed = sel ? sum : (a & b);
  assign y = acc;
  assign q = flag;

  always @(posedge clk) begin
    acc <= muxed ^ acc;
    if (sel) flag <= ^a;
    else flag <= |b;
  end
endmodule
"""


#: Small specs used for fast end-to-end fixtures.
TINY_SPECS = (
    DesignSpec("tiny_alpha", "vexriscv", "Verilog", 11, 6, 2, 3, 3, 2),
    DesignSpec("tiny_beta", "itc99", "Verilog", 12, 6, 2, 3, 4, 2),
    DesignSpec("tiny_gamma", "opencores", "Verilog", 13, 8, 2, 3, 3, 2),
    DesignSpec("tiny_delta", "chipyard", "Verilog", 14, 8, 3, 3, 4, 2),
    DesignSpec("tiny_eps", "vexriscv", "Verilog", 15, 8, 3, 4, 4, 2),
)


@pytest.fixture(scope="session")
def simple_source() -> str:
    return SIMPLE_VERILOG


@pytest.fixture(scope="session")
def simple_module():
    return parse_source(SIMPLE_VERILOG)


@pytest.fixture(scope="session")
def simple_design(simple_module):
    return analyze(simple_module, source=SIMPLE_VERILOG)


@pytest.fixture(scope="session")
def tiny_specs():
    return TINY_SPECS


@pytest.fixture(scope="session")
def tiny_records(tiny_specs) -> list:
    """Dataset records for the tiny benchmark designs (built once per session)."""
    config = DatasetConfig()
    return [build_design_record(spec, config) for spec in tiny_specs]


@pytest.fixture(scope="session")
def tiny_record(tiny_records) -> DesignRecord:
    return tiny_records[0]


@pytest.fixture(scope="session")
def simple_record(simple_source) -> DesignRecord:
    return build_design_record(simple_source, name="simple")


def corrupted_bog(graph: BOG, rows: dict) -> BOG:
    """A fresh BOG unpickled from ``graph``'s columns with node rows rewritten.

    ``rows`` maps a node id to ``(NodeType, fanins)``; ids past the last
    node append rows in id order.  The op constructors cannot build such a
    graph, but a pickle from the disk cache can carry one.
    """
    state = graph.__getstate__()
    codes, indptr, indices = state["fanin_csr"]
    flat = indices.tolist()
    nodes = [
        (code, flat[lo:hi]) for code, lo, hi in zip(codes.tolist(), indptr.tolist(), indptr[1:].tolist())
    ]
    for node_id, (node_type, fanins) in sorted(rows.items()):
        row = (NODE_TYPE_CODE[node_type], list(fanins))
        if node_id < len(nodes):
            nodes[node_id] = row
        else:
            nodes.append(row)
    state["fanin_csr"] = (
        np.array([code for code, _ in nodes], dtype=np.int8),
        *build_fanin_csr([fanins for _, fanins in nodes]),
    )
    corrupted = BOG.__new__(BOG)
    corrupted.__setstate__(state)
    return corrupted


def queued_at_least(service, count: int, timeout: float = 30.0) -> bool:
    """Wait until ``count`` requests sit in ``service``'s queue or it closes.

    Waits on the service's own queue condition; ``False`` after ``timeout``.
    """
    with service._wakeup:
        return service._wakeup.wait_for(
            lambda: len(service._queue) >= count or service._closed, timeout
        )


def hold_first_batch(monkeypatch, count: int, timeout: float = 30.0) -> None:
    """Hold each new TimingService's batcher until ``count`` requests are queued.

    The batcher's first take waits for ``count`` queued requests (or for the
    service to close), so it forms one batch of a known size with no
    wall-clock window.  After ``timeout`` it takes whatever is queued, and
    the test's batch assertions fail rather than hang.
    """
    from repro.serve.service import TimingService

    take = TimingService._take_batch
    held = set()

    def take_once_queued(service):
        if id(service) not in held:
            held.add(id(service))
            queued_at_least(service, count, timeout)
        return take(service)

    monkeypatch.setattr(TimingService, "_take_batch", take_once_queued)
