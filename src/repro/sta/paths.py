"""Timing path extraction.

Provides the "slowest path" tracing the paper's register-oriented RTL
processing relies on (Section 3.2): starting from an endpoint, walk backwards
always choosing the fanin that determined the max arrival, until a launch
point (register output or primary input) is reached.  Also provides random
path sampling within an endpoint's input cone, used to generate the
additional ``K`` paths per endpoint.

:func:`trace_critical_path` walks the network's columns one endpoint at a
time; the synthesis optimizer traces with it.  The other per-endpoint
functions walk the read-only vertex views and are kept as the reference
implementation.  The array section at the end computes the same quantities
for every endpoint at once on the compiled
:class:`~repro.sta.csr.CSRTimingGraph`, bit for bit; the samplers and the
what-if projection use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Union

import numpy as np

from repro.sta.csr import KIND_GATE, KIND_INPUT, KIND_REGISTER, gather_edges
from repro.sta.engine import STAReport, arrival_delay_of
from repro.sta.network import AttributeColumns, TimingEndpoint, TimingNetwork, VertexKind


@dataclass
class TimingPath:
    """A single timing path from a launch point to an endpoint driver.

    ``vertices`` is ordered from the launch point to the endpoint driver.
    """

    endpoint: str
    vertices: List[int]
    arrival: float

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def launch(self) -> int:
        return self.vertices[0]


def trace_critical_path(
    network: TimingNetwork, report: STAReport, endpoint: Union[str, TimingEndpoint]
) -> TimingPath:
    """Trace the slowest path ending at ``endpoint`` (an endpoint or its name).

    A name resolves to the first endpoint of that name.  Each step moves to
    the fanin with the largest arrival plus edge delay; ties go to the first
    fanin.
    """
    if isinstance(endpoint, str):
        endpoint = next(e for e in network.endpoints if e.name == endpoint)
    kinds = network.kinds()
    vertices = [endpoint.driver]
    while kinds[vertices[-1]] == KIND_GATE:
        vertex = vertices[-1]
        fanins = network.fanins_of(vertex)
        if not fanins:
            break
        vertices.append(
            max(
                fanins,
                key=lambda f: report.arrivals[f] + arrival_delay_of(network, report, vertex, f),
            )
        )
    vertices.reverse()
    return TimingPath(
        endpoint=endpoint.name,
        vertices=vertices,
        arrival=float(report.arrivals[endpoint.driver]),
    )


def input_cone(network: TimingNetwork, driver: int) -> Set[int]:
    """All vertices in the transitive fanin of ``driver`` (inclusive)."""
    vertices = network.vertices
    seen: Set[int] = set()
    stack = [driver]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(vertices[current].fanins)
    return seen


def driving_launch_points(network: TimingNetwork, driver: int) -> List[int]:
    """Launch points (registers / primary inputs) in the cone of ``driver``."""
    vertices = network.vertices
    return [v for v in input_cone(network, driver) if vertices[v].is_launch_point]


def sample_random_path(
    network: TimingNetwork,
    driver: int,
    rng: random.Random,
) -> List[int]:
    """Sample one path from a random launch point to ``driver``.

    The path is built by walking backwards from the endpoint driver, choosing
    a random fanin at every step, which matches the paper's random path
    sampling within the endpoint input cone.
    """
    views = network.vertices
    vertices = [driver]
    current = driver
    while True:
        vertex = views[current]
        if vertex.kind is not VertexKind.GATE or not vertex.fanins:
            break
        current = rng.choice(vertex.fanins)
        vertices.append(current)
    vertices.reverse()
    return vertices


def path_arrival(network: TimingNetwork, report: STAReport, vertices: Sequence[int]) -> float:
    """Arrival time accumulated along an explicit path under ``report``."""
    if not vertices:
        return 0.0
    arrival = float(report.arrivals[vertices[0]])
    for previous, current in zip(vertices, vertices[1:]):
        arrival += arrival_delay_of(network, report, current, previous)
    return arrival


# ---------------------------------------------------------------------------
# Array-native path primitives (all endpoints at once, on the compiled CSR)
# ---------------------------------------------------------------------------

#: Bits set in each byte value, for popcounting uint64 bitsets as bytes.
_POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)

#: Upper bound on uint64 words held per launch-point bitset block
#: (vertices x words); wider designs propagate their bitsets in column blocks.
_BITSET_BLOCK_WORDS = 1 << 22


def edge_delays(
    cols: AttributeColumns, report: STAReport, consumers: np.ndarray, fanins: np.ndarray
) -> np.ndarray:
    """:func:`arrival_delay_of` over parallel ``(consumer, fanin)`` id arrays.

    Evaluates ``derate * ((intrinsic + resistance*load) + slew_factor*slew)``
    in the scalar reference's float64 operation order, so every element is
    bit-identical to the per-edge call; consumers without a cell give 0.0.
    """
    load = report.loads[consumers]
    delay = cols.derate[consumers] * (
        (cols.param("intrinsic_delay")[consumers] + cols.param("resistance")[consumers] * load)
        + cols.param("slew_factor")[consumers] * report.slews[fanins]
    )
    return np.where(cols.has_cell()[consumers], delay, 0.0)


def _critical_fanins(network: TimingNetwork, report: STAReport) -> np.ndarray:
    """The fanin each vertex's slowest-path backtrace steps to, or -1 where it stops.

    One segment argmax over the CSR fanin slices of every gate: the candidate
    of edge ``f -> v`` is ``arrivals[f] + arrival_delay_of(v, f)``, and ties go
    to the first fanin, exactly as ``max`` in :func:`trace_critical_path`.
    """
    compiled = network.compiled()
    cols = network.attribute_columns()
    best = np.full(compiled.n, -1, dtype=np.int64)
    n_fanins = np.diff(compiled.fanin_indptr)
    gates = np.flatnonzero((compiled.kind == KIND_GATE) & (n_fanins > 0))
    if not gates.size:
        return best
    positions, counts = gather_edges(compiled.fanin_indptr, gates)
    fanins = compiled.fanin_indices[positions].astype(np.int64)
    owners = np.repeat(gates, counts)
    cand = report.arrivals[fanins] + edge_delays(cols, report, owners, fanins)
    starts = np.zeros(len(gates), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    seg_max = np.maximum.reduceat(cand, starts)
    # The lowest edge position attaining its segment's maximum is the first
    # maximal fanin in list order.
    position = np.where(cand == np.repeat(seg_max, counts), np.arange(cand.size), cand.size)
    best[gates] = fanins[np.minimum.reduceat(position, starts)]
    return best


def trace_critical_paths(
    network: TimingNetwork, report: STAReport, drivers: Sequence[int]
) -> List[List[int]]:
    """:func:`trace_critical_path` vertex lists for many endpoint drivers at once.

    All walks take one backward step per iteration through the
    :func:`_critical_fanins` table, so the loop runs once per level of the
    deepest path, not once per vertex.
    """
    # The trailing -1 makes a finished walk (at -1) stay at -1.
    step = np.append(_critical_fanins(network, report), -1)
    current = np.asarray(drivers, dtype=np.int64)
    columns = [current]
    while True:
        current = step[current]
        if not (current >= 0).any():
            break
        columns.append(current)
    walks = np.column_stack(columns)  # driver first, -1 padded
    lengths = (walks >= 0).sum(axis=1).tolist()
    return [row[:length][::-1].tolist() for row, length in zip(walks, lengths)]


def launch_point_counts(network: TimingNetwork, drivers: Sequence[int]) -> np.ndarray:
    """``len(driving_launch_points(network, d))`` for every driver ``d`` at once.

    Every launch point owns one bit of a uint64 bitset.  Bitsets are
    OR-propagated along the fanin edges level by level
    (``np.bitwise_or.reduceat`` over each level's fanin slices), so each
    vertex ends up holding its whole input cone's launch points, and are
    popcounted at the drivers.
    """
    compiled = network.compiled()
    drivers = np.asarray(drivers, dtype=np.int64)
    counts = np.zeros(len(drivers), dtype=np.int64)
    launch = np.flatnonzero((compiled.kind == KIND_INPUT) | (compiled.kind == KIND_REGISTER))
    n_words = (launch.size + 63) // 64
    if not drivers.size or not n_words:
        return counts
    # Level >= 1 vertices are exactly those with fanins, so no segment is empty.
    sweeps = []
    for level in range(1, compiled.n_levels):
        ids = compiled.level_slice(level).astype(np.int64)
        positions, n_fanins = gather_edges(compiled.fanin_indptr, ids)
        starts = np.zeros(len(ids), dtype=np.int64)
        np.cumsum(n_fanins[:-1], out=starts[1:])
        sweeps.append((ids, compiled.fanin_indices[positions], starts))
    bit = np.arange(launch.size)
    block = max(1, _BITSET_BLOCK_WORDS // max(compiled.n, 1))
    for first_word in range(0, n_words, block):
        width = min(block, n_words - first_word)
        local = bit - 64 * first_word
        owned = (local >= 0) & (local < 64 * width)
        bits = np.zeros((compiled.n, width), dtype=np.uint64)
        bits[launch[owned], local[owned] // 64] = np.left_shift(
            np.uint64(1), (local[owned] % 64).astype(np.uint64)
        )
        for ids, sources, starts in sweeps:
            bits[ids] |= np.bitwise_or.reduceat(bits[sources], starts, axis=0)
        counts += _POPCOUNT8[bits[drivers].view(np.uint8)].sum(axis=1)
    return counts
