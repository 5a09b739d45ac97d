"""Register-oriented RTL processing: endpoint cones and path sampling.

Implements step 1 of the RTL-Timer workflow (Section 3.2 of the paper).  For
every register bit endpoint of a BOG "pseudo netlist":

* the endpoint's *input cone* is the transitive fanin up to driving registers
  and primary inputs,
* the *slowest path* is extracted by running pseudo-STA on the representation
  and backtracking from the endpoint,
* ``K`` additional *random paths* are sampled inside the cone, with ``K``
  proportional to the number of driving registers, so wide cones (whose
  post-synthesis restructuring is hardest to anticipate) contribute more
  evidence.

:func:`sample_design_paths` does the cone and slowest-path work for all
endpoints at once on the compiled CSR graph (the array section of
:mod:`repro.sta.paths`); only the random walks stay sequential, because they
must consume the seeded RNG in endpoint order.  The per-endpoint
:func:`sample_endpoint_paths` / :func:`sample_design_paths_reference` pair is
kept as the reference: both produce equal samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sta.engine import STAReport
from repro.sta.network import TimingEndpoint, TimingNetwork, VertexKind
from repro.sta.paths import (
    driving_launch_points,
    launch_point_counts,
    sample_random_path,
    trace_critical_path,
    trace_critical_paths,
)


@dataclass
class PathSample:
    """One sampled path ending at an endpoint."""

    endpoint: str
    vertices: List[int]
    is_critical: bool  # True for the pseudo-STA slowest path


@dataclass
class EndpointSamples:
    """All sampled paths plus cone statistics for one endpoint."""

    endpoint: str
    signal: str
    bit: int
    driver: int
    n_driving_registers: int
    paths: List[PathSample] = field(default_factory=list)


#: Random paths per endpoint grow as ``K_SCALE * sqrt(driving registers)``,
#: at least ``K_MIN`` (the paper only states the count is proportional to the
#: driving-register count).
K_SCALE = 1.0
K_MIN = 1


@dataclass(frozen=True)
class SamplingConfig:
    """Path sampling knobs.

    ``k_max`` caps the number of random paths per endpoint (see
    :func:`sample_count`).  ``use_sampling`` switches the random paths off
    entirely for the "w/o sample" ablation of Table 4.
    """

    k_max: int = 4
    use_sampling: bool = True
    seed: int = 0


def sample_count(n_driving_registers: int, config: SamplingConfig) -> int:
    """Number of random paths for an endpoint with the given cone width."""
    if not config.use_sampling:
        return 0
    k = int(round(K_SCALE * math.sqrt(max(n_driving_registers, 1))))
    return max(K_MIN, min(config.k_max, k))


def sample_endpoint_paths(
    network: TimingNetwork,
    report: STAReport,
    endpoint_name: str,
    config: SamplingConfig,
    rng: random.Random,
) -> EndpointSamples:
    """Sample the slowest path plus K random paths for one endpoint (reference)."""
    endpoint = next(e for e in network.endpoints if e.name == endpoint_name)
    launch_points = driving_launch_points(network, endpoint.driver)
    samples = EndpointSamples(
        endpoint=endpoint.name,
        signal=endpoint.signal,
        bit=endpoint.bit,
        driver=endpoint.driver,
        n_driving_registers=len(launch_points),
    )

    critical = trace_critical_path(network, report, endpoint_name)
    samples.paths.append(
        PathSample(endpoint=endpoint.name, vertices=critical.vertices, is_critical=True)
    )

    for _ in range(sample_count(len(launch_points), config)):
        vertices = sample_random_path(network, endpoint.driver, rng)
        samples.paths.append(
            PathSample(endpoint=endpoint.name, vertices=vertices, is_critical=False)
        )
    return samples


def sample_design_paths(
    network: TimingNetwork,
    report: STAReport,
    config: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> Dict[str, EndpointSamples]:
    """Sample paths for every (or the selected) register endpoint of a design.

    Equal to :func:`sample_design_paths_reference`.  Driving-register counts
    and slowest paths come from whole-design array passes; the random walks
    draw from one ``Random(config.seed)`` in endpoint order and choose among
    the same fanin lists, so every sampled path is unchanged.
    """
    config = config or SamplingConfig()
    rng = random.Random(config.seed)
    wanted = set(endpoint_names) if endpoint_names is not None else None
    # A name resolves to its first endpoint, as the reference's lookup does.
    by_name: Dict[str, TimingEndpoint] = {}
    for endpoint in network.endpoints:
        by_name.setdefault(endpoint.name, endpoint)
    selected = [
        by_name[endpoint.name]
        for endpoint in network.endpoints
        if endpoint.kind == "register" and (wanted is None or endpoint.name in wanted)
    ]
    drivers = [endpoint.driver for endpoint in selected]
    n_driving = launch_point_counts(network, drivers).tolist()
    critical = trace_critical_paths(network, report, drivers)
    # The fanin list a random walk chooses from at each vertex (None: stop).
    steps = [
        vertex.fanins if vertex.kind is VertexKind.GATE and vertex.fanins else None
        for vertex in network.vertices
    ] if config.use_sampling else []

    result: Dict[str, EndpointSamples] = {}
    for endpoint, n_registers, vertices in zip(selected, n_driving, critical):
        samples = EndpointSamples(
            endpoint=endpoint.name,
            signal=endpoint.signal,
            bit=endpoint.bit,
            driver=endpoint.driver,
            n_driving_registers=n_registers,
        )
        samples.paths.append(PathSample(endpoint=endpoint.name, vertices=vertices, is_critical=True))
        for _ in range(sample_count(n_registers, config)):
            walk = [endpoint.driver]
            fanins = steps[endpoint.driver]
            while fanins is not None:
                current = rng.choice(fanins)
                walk.append(current)
                fanins = steps[current]
            walk.reverse()
            samples.paths.append(PathSample(endpoint=endpoint.name, vertices=walk, is_critical=False))
        result[endpoint.name] = samples
    return result


def sample_design_paths_reference(
    network: TimingNetwork,
    report: STAReport,
    config: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> Dict[str, EndpointSamples]:
    """Per-endpoint reference for :func:`sample_design_paths` (tests and oracles only)."""
    config = config or SamplingConfig()
    rng = random.Random(config.seed)
    wanted = set(endpoint_names) if endpoint_names is not None else None
    result: Dict[str, EndpointSamples] = {}
    for endpoint in network.endpoints:
        if endpoint.kind != "register":
            continue
        if wanted is not None and endpoint.name not in wanted:
            continue
        result[endpoint.name] = sample_endpoint_paths(
            network, report, endpoint.name, config, rng
        )
    return result
