"""Feature extraction for RTL processing (Table 2 of the paper).

Three levels of features are extracted for every sampled path:

* **design-level** — the endpoint's criticality rank within its design (from
  pseudo-STA) and global size counters (sequential / combinational / total
  pseudo cells).  These let the model compare endpoints across designs whose
  synthesis effort differs.
* **cone-level** — the number of registers driving the endpoint's input cone.
* **path-level** — pseudo-STA arrival time, level count, operator counts per
  type, and sum/average/standard deviation statistics of fanout, load and
  slew along the path.

The same module also builds, on demand, the per-path token sequences read
only by the transformer path model (:func:`path_token_sequences`), and the
whole-graph records consumed by the GNN baseline.

Extraction runs as array passes over the compiled CSR graph
(:func:`extract_path_dataset_uncached`).  The historical per-path extractor
is kept as :func:`extract_path_dataset_reference`; the two agree bit for bit
in every array of the returned :class:`PathDataset`, and the reference's
tokens equal :func:`path_token_sequences`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import DesignRecord
from repro.core.sampling import (
    EndpointSamples,
    SamplingConfig,
    sample_design_paths,
    sample_design_paths_reference,
)
from repro.ml.gnn import GraphData
from repro.runtime.report import stage as _stage
from repro.sta.csr import KIND_GATE, CSRTimingGraph
from repro.sta.engine import STAReport
from repro.sta.network import AttributeColumns, TimingNetwork, VertexKind
from repro.sta.paths import edge_delays, path_arrival


#: Column names of the path feature matrix (order matters).
PATH_FEATURE_NAMES: Tuple[str, ...] = (
    "design_rank_percent",
    "design_n_sequential",
    "design_n_combinational",
    "design_n_total",
    "cone_n_driving_regs",
    "path_pseudo_arrival",
    "path_n_levels",
    "path_n_operators",
    "path_n_and",
    "path_n_or",
    "path_n_xor",
    "path_n_not",
    "path_n_mux",
    "path_fanout_sum",
    "path_fanout_avg",
    "path_fanout_std",
    "path_load_sum",
    "path_load_avg",
    "path_load_std",
    "path_slew_avg",
    "endpoint_fanout",
    "endpoint_pseudo_arrival",
)

#: Token alphabet for the transformer path model.
_TOKEN_FUNCTIONS: Tuple[str, ...] = ("AND", "OR", "XOR", "NOT", "MUX", "REG", "input", "const")

_COLUMN: Dict[str, int] = {name: index for index, name in enumerate(PATH_FEATURE_NAMES)}

#: Operator-count columns and the gate cell function each one counts.
_OPERATOR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("path_n_and", "AND"),
    ("path_n_or", "OR"),
    ("path_n_xor", "XOR"),
    ("path_n_not", "NOT"),
    ("path_n_mux", "MUX"),
)


@dataclass
class PathDataset:
    """Per-path features for one design under one BOG variant."""

    design: str
    variant: str
    features: np.ndarray  # (n_paths, n_features)
    groups: np.ndarray  # (n_paths,) endpoint index local to this dataset
    endpoint_names: List[str]
    endpoint_signals: List[str]
    endpoint_labels: np.ndarray  # (n_endpoints,) post-synthesis arrival labels
    endpoint_designs: List[str]

    @property
    def n_paths(self) -> int:
        return len(self.features)

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoint_names)

    def critical_rows(self) -> "PathDataset":
        """The first row of every endpoint group: each endpoint's slowest path.

        The sampler lists an endpoint's slowest path first and every feature
        is a per-row reduction, so this equals the extraction under
        ``SamplingConfig(use_sampling=False)`` on the same endpoints, bit for
        bit.  A view: only the feature rows are copied; the per-endpoint
        fields are shared with this dataset.
        """
        starts = np.flatnonzero(np.diff(self.groups, prepend=-1))
        return PathDataset(
            design=self.design,
            variant=self.variant,
            features=self.features[starts],
            groups=self.groups[starts],
            endpoint_names=self.endpoint_names,
            endpoint_signals=self.endpoint_signals,
            endpoint_labels=self.endpoint_labels,
            endpoint_designs=self.endpoint_designs,
        )


def extract_path_dataset(
    record: DesignRecord,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> PathDataset:
    """Extract the path-level dataset of one design for one BOG variant.

    Extraction is deterministic in its arguments, so results are served from
    the fingerprint-keyed :mod:`~repro.core.feature_cache` when possible —
    cross-validation folds, fit and predict all share one extraction per
    (record, variant, sampling, endpoint subset).  The
    ``features.extract_path_dataset`` stage therefore counts *actual*
    extractions; hits show up as ``features.cache_hit``.
    """
    from repro.core.feature_cache import cached_extract_path_dataset

    sampling = sampling or SamplingConfig()

    def extractor() -> PathDataset:
        with _stage("features.extract_path_dataset"):
            return extract_path_dataset_uncached(record, variant, sampling, endpoint_names)

    return cached_extract_path_dataset(record, variant, sampling, endpoint_names, extractor)


def extract_path_dataset_uncached(
    record: DesignRecord,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> PathDataset:
    """The extraction proper, without the cache: array passes over one design.

    Bit-identical to :func:`extract_path_dataset_reference` in every array
    of the result (fuzzed by the ``array_vs_reference_features`` oracle).
    """
    sampling = sampling or SamplingConfig()
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]

    wanted = list(endpoint_names) if endpoint_names is not None else record.endpoint_names
    kept_names, kept = _sampled_endpoints(network, report, sampling, wanted)
    rank_percent = _endpoint_rank_percent(report, wanted)
    paths = [path.vertices for endpoint in kept for path in endpoint.paths]
    counts = np.array([len(endpoint.paths) for endpoint in kept], dtype=int)
    group_index = np.repeat(np.arange(len(kept)), counts)

    features = np.zeros((len(paths), len(PATH_FEATURE_NAMES)))
    if paths:
        _fill_path_columns(network, report, paths, features)
        for statistic, value in _design_statistics(network).items():
            features[:, _COLUMN[f"design_{statistic}"]] = value
        drivers = np.array([endpoint.driver for endpoint in kept], dtype=np.int64)
        per_endpoint = {
            "design_rank_percent": np.array([rank_percent.get(name, 0.0) for name in kept_names]),
            "cone_n_driving_regs": np.array([e.n_driving_registers for e in kept], dtype=float),
            "endpoint_fanout": np.diff(network.compiled().fanout_indptr)[drivers],
            "endpoint_pseudo_arrival": report.arrivals[drivers],
        }
        for column, values in per_endpoint.items():
            features[:, _COLUMN[column]] = values[group_index]

    return PathDataset(
        design=record.name,
        variant=variant,
        features=features,
        groups=group_index,
        endpoint_names=kept_names,
        endpoint_signals=[endpoint.signal for endpoint in kept],
        endpoint_labels=np.array([record.labels[name] for name in kept_names]),
        endpoint_designs=[record.name] * len(kept_names),
    )


def path_token_sequences(
    record: DesignRecord,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> List[np.ndarray]:
    """Per-path token sequences of :func:`extract_path_dataset`'s rows, in row order.

    Only the transformer path model reads tokens, so they are built on
    demand from the same sampled paths instead of travelling with every
    :class:`PathDataset`.  Equal to the reference extractor's tokens.
    """
    sampling = sampling or SamplingConfig()
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]
    wanted = list(endpoint_names) if endpoint_names is not None else record.endpoint_names
    compiled = network.compiled()
    table = _token_table(
        _token_codes(compiled, network.attribute_columns()),
        np.diff(compiled.fanout_indptr).astype(np.float64),
        report.loads / 10.0,
    )
    _, kept = _sampled_endpoints(network, report, sampling, wanted)
    return [table[path.vertices] for endpoint in kept for path in endpoint.paths]


def _sampled_endpoints(
    network: TimingNetwork,
    report: STAReport,
    sampling: SamplingConfig,
    wanted: Sequence[str],
) -> Tuple[List[str], List[EndpointSamples]]:
    """The endpoints one extraction keeps, in row order, and their sampled paths."""
    samples = sample_design_paths(network, report, sampling, wanted)
    names = [name for name in wanted if name in samples]
    return names, [samples[name] for name in names]


def extract_path_dataset_reference(
    record: DesignRecord,
    variant: str = "sog",
    sampling: Optional[SamplingConfig] = None,
    endpoint_names: Optional[Sequence[str]] = None,
) -> Tuple[PathDataset, List[np.ndarray]]:
    """The per-path extractor :func:`extract_path_dataset_uncached` must match.

    Returns the dataset and its per-path token sequences, the reference for
    :func:`path_token_sequences`.  Kept for tests and the
    ``array_vs_reference_features`` fuzz oracle; production code never
    calls it.
    """
    sampling = sampling or SamplingConfig()
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]

    wanted = list(endpoint_names) if endpoint_names is not None else record.endpoint_names
    samples = sample_design_paths_reference(network, report, sampling, wanted)

    design_stats = _design_statistics(network)
    rank_percent = _endpoint_rank_percent(report, wanted)
    fanouts = network.fanouts()

    feature_rows: List[np.ndarray] = []
    token_rows: List[np.ndarray] = []
    groups: List[int] = []
    endpoint_labels: List[float] = []
    endpoint_signals: List[str] = []
    kept_names: List[str] = []

    for endpoint_index, name in enumerate(wanted):
        endpoint_samples = samples.get(name)
        if endpoint_samples is None:
            continue
        kept_names.append(name)
        endpoint_signals.append(endpoint_samples.signal)
        endpoint_labels.append(record.labels[name])
        local_index = len(kept_names) - 1
        for path in endpoint_samples.paths:
            feature_rows.append(
                _path_feature_vector(
                    network,
                    report,
                    path.vertices,
                    design_stats,
                    rank_percent.get(name, 0.0),
                    endpoint_samples,
                    fanouts,
                )
            )
            token_rows.append(_path_tokens(network, report, path.vertices, fanouts))
            groups.append(local_index)

    dataset = PathDataset(
        design=record.name,
        variant=variant,
        features=np.array(feature_rows) if feature_rows else np.zeros((0, len(PATH_FEATURE_NAMES))),
        groups=np.array(groups, dtype=int),
        endpoint_names=kept_names,
        endpoint_signals=endpoint_signals,
        endpoint_labels=np.array(endpoint_labels),
        endpoint_designs=[record.name] * len(kept_names),
    )
    return dataset, token_rows


def combine_path_datasets(datasets: Sequence[PathDataset]) -> PathDataset:
    """Concatenate per-design datasets, re-indexing endpoint groups."""
    datasets = [d for d in datasets if d.n_endpoints > 0]
    if not datasets:
        raise ValueError("no non-empty datasets to combine")
    features = np.vstack([d.features for d in datasets])
    groups: List[np.ndarray] = []
    names: List[str] = []
    signals: List[str] = []
    labels: List[np.ndarray] = []
    designs: List[str] = []
    offset = 0
    for dataset in datasets:
        groups.append(dataset.groups + offset)
        names.extend(dataset.endpoint_names)
        signals.extend(dataset.endpoint_signals)
        labels.append(dataset.endpoint_labels)
        designs.extend(dataset.endpoint_designs)
        offset += dataset.n_endpoints
    return PathDataset(
        design="+".join(sorted({d.design for d in datasets})),
        variant=datasets[0].variant,
        features=features,
        groups=np.concatenate(groups),
        endpoint_names=names,
        endpoint_signals=signals,
        endpoint_labels=np.concatenate(labels),
        endpoint_designs=designs,
    )


# ---------------------------------------------------------------------------
# Per-path features
# ---------------------------------------------------------------------------


def _design_statistics(network: TimingNetwork) -> Dict[str, float]:
    n_sequential = float(network.register_count())
    n_combinational = float(network.gate_count())
    return {
        "n_sequential": n_sequential,
        "n_combinational": n_combinational,
        "n_total": n_sequential + n_combinational,
    }


def _endpoint_rank_percent(report: STAReport, names: Sequence[str]) -> Dict[str, float]:
    """Criticality rank (0 = most critical) of each endpoint, as a percentage.

    Names the report lacks are skipped; equal arrivals keep ``names`` order.
    """
    row_of = {e.name: row for row, e in enumerate(report.timing_endpoints)}
    kept = [name for name in names if name in row_of]
    arrivals = report.arrivals[report.drivers[[row_of[name] for name in kept]]]
    total = max(len(kept) - 1, 1)
    order = np.argsort(-arrivals, kind="stable").tolist()
    return {kept[row]: 100.0 * index / total for index, row in enumerate(order)}


def _token_codes(compiled: CSRTimingGraph, cols: AttributeColumns) -> np.ndarray:
    """Per-vertex index into ``_TOKEN_FUNCTIONS``.

    The label is the cell function, or the vertex kind for cell-less
    vertices; anything outside the alphabet counts as ``const``.
    """
    const = _TOKEN_FUNCTIONS.index("const")

    def code(label: str) -> int:
        return _TOKEN_FUNCTIONS.index(label) if label in _TOKEN_FUNCTIONS else const

    by_row = np.array([const] + [code(cell.function) for cell in cols.cells[1:]])
    by_kind = np.array([code(kind.value) for kind in VertexKind])  # compiled kind-code order
    return np.where(cols.cell_row != 0, by_row[cols.cell_row], by_kind[compiled.kind])


def _token_table(codes: np.ndarray, fanouts: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per-vertex token rows: one-hot label, fanout count, then ``last``."""
    table = np.zeros((len(codes), len(_TOKEN_FUNCTIONS) + 2))
    table[np.arange(len(codes)), codes] = 1.0
    table[:, len(_TOKEN_FUNCTIONS)] = fanouts
    table[:, len(_TOKEN_FUNCTIONS) + 1] = last
    return table


def _fill_path_columns(
    network: TimingNetwork,
    report: STAReport,
    paths: List[List[int]],
    features: np.ndarray,
) -> None:
    """Write the path-level columns of ``features``.

    Paths are bucketed by length, so each statistic is one axis-1 reduction
    over a C-contiguous ``(n_paths, length)`` block, which numpy evaluates
    row by row exactly as the reference's 1-D call on the path.  The pseudo
    arrival adds the edge delays column by column, in the reference's order.
    """
    compiled = network.compiled()
    cols = network.attribute_columns()
    fanouts = np.diff(compiled.fanout_indptr).astype(np.float64)
    is_gate = compiled.kind == KIND_GATE
    gate_codes = np.where(is_gate, _token_codes(compiled, cols), -1)

    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        block = np.array([paths[row] for row in rows.tolist()], dtype=np.int64)
        arrival = report.arrivals[block[:, 0]]
        delays = edge_delays(cols, report, block[:, 1:], block[:, :-1])
        for step in range(length - 1):
            arrival = arrival + delays[:, step]
        fanout = fanouts[block]
        load = report.loads[block]
        operators = gate_codes[block]
        columns = {
            "path_pseudo_arrival": arrival,
            "path_n_levels": float(length),
            "path_n_operators": is_gate[block].sum(axis=1),
            "path_fanout_sum": fanout.sum(axis=1),
            "path_fanout_avg": fanout.mean(axis=1),
            "path_fanout_std": fanout.std(axis=1),
            "path_load_sum": load.sum(axis=1),
            "path_load_avg": load.mean(axis=1),
            "path_load_std": load.std(axis=1),
            "path_slew_avg": report.slews[block].mean(axis=1),
        }
        for column, function in _OPERATOR_COLUMNS:
            columns[column] = (operators == _TOKEN_FUNCTIONS.index(function)).sum(axis=1)
        for column, values in columns.items():
            features[rows, _COLUMN[column]] = values


def _path_feature_vector(
    network: TimingNetwork,
    report: STAReport,
    vertices: Sequence[int],
    design_stats: Dict[str, float],
    rank_percent: float,
    endpoint_samples: EndpointSamples,
    fanouts: List[List[int]],
) -> np.ndarray:
    gate_vertices = [v for v in vertices if network.vertices[v].kind is VertexKind.GATE]
    functions = [network.vertices[v].cell.function for v in gate_vertices]
    fanout_counts = np.array([len(fanouts[v]) for v in vertices], dtype=float)
    loads = np.array([report.loads[v] for v in vertices], dtype=float)
    slews = np.array([report.slews[v] for v in vertices], dtype=float)
    arrival = path_arrival(network, report, list(vertices))
    driver = endpoint_samples.driver

    def count(function: str) -> float:
        return float(sum(1 for f in functions if f == function))

    values = {
        "design_rank_percent": rank_percent,
        "design_n_sequential": design_stats["n_sequential"],
        "design_n_combinational": design_stats["n_combinational"],
        "design_n_total": design_stats["n_total"],
        "cone_n_driving_regs": float(endpoint_samples.n_driving_registers),
        "path_pseudo_arrival": arrival,
        "path_n_levels": float(len(vertices)),
        "path_n_operators": float(len(gate_vertices)),
        "path_n_and": count("AND"),
        "path_n_or": count("OR"),
        "path_n_xor": count("XOR"),
        "path_n_not": count("NOT"),
        "path_n_mux": count("MUX"),
        "path_fanout_sum": float(fanout_counts.sum()),
        "path_fanout_avg": float(fanout_counts.mean()) if len(fanout_counts) else 0.0,
        "path_fanout_std": float(fanout_counts.std()) if len(fanout_counts) else 0.0,
        "path_load_sum": float(loads.sum()),
        "path_load_avg": float(loads.mean()) if len(loads) else 0.0,
        "path_load_std": float(loads.std()) if len(loads) else 0.0,
        "path_slew_avg": float(slews.mean()) if len(slews) else 0.0,
        "endpoint_fanout": float(len(fanouts[driver])),
        "endpoint_pseudo_arrival": float(report.arrivals[driver]),
    }
    return np.array([values[name] for name in PATH_FEATURE_NAMES])


def _path_tokens(
    network: TimingNetwork,
    report: STAReport,
    vertices: Sequence[int],
    fanouts: List[List[int]],
) -> np.ndarray:
    """Per-vertex token features along a path (for the transformer model)."""
    tokens = np.zeros((len(vertices), len(_TOKEN_FUNCTIONS) + 2))
    for row, vertex_id in enumerate(vertices):
        vertex = network.vertices[vertex_id]
        if vertex.cell is not None:
            label = vertex.cell.function
        else:
            label = vertex.kind.value
        if label not in _TOKEN_FUNCTIONS:
            label = "const"
        tokens[row, _TOKEN_FUNCTIONS.index(label)] = 1.0
        tokens[row, len(_TOKEN_FUNCTIONS)] = len(fanouts[vertex_id])
        tokens[row, len(_TOKEN_FUNCTIONS) + 1] = report.loads[vertex_id] / 10.0
    return tokens


# ---------------------------------------------------------------------------
# Design-level features and GNN graphs
# ---------------------------------------------------------------------------


def design_feature_vector(record: DesignRecord, variant: str = "sog") -> np.ndarray:
    """Design-level features used by the overall TNS/WNS model."""
    network = record.pseudo_networks[variant]
    report = record.pseudo_reports[variant]
    arrivals = report.endpoint_arrivals()[report.register_mask()]
    stats = _design_statistics(network)
    if arrivals.size == 0:
        arrivals = np.zeros(1)
    return np.array(
        [
            stats["n_sequential"],
            stats["n_combinational"],
            stats["n_total"],
            float(len(record.labels)),
            float(arrivals.max()),
            float(arrivals.mean()),
            float(arrivals.std()),
            float(np.percentile(arrivals, 95)),
            record.clock.period,
        ]
    )


DESIGN_FEATURE_NAMES: Tuple[str, ...] = (
    "n_sequential",
    "n_combinational",
    "n_total",
    "n_endpoints",
    "pseudo_arrival_max",
    "pseudo_arrival_mean",
    "pseudo_arrival_std",
    "pseudo_arrival_p95",
    "clock_period",
)


def bog_graph_data(record: DesignRecord, variant: str = "sog") -> GraphData:
    """Whole-design graph record for the customized GNN baseline."""
    network = record.pseudo_networks[variant]
    compiled = network.compiled()
    # Node features: the token row of each vertex, with its logic level / 10
    # in place of the load.
    features = _token_table(
        _token_codes(compiled, network.attribute_columns()),
        np.diff(compiled.fanout_indptr),
        compiled.level / 10.0,
    )

    endpoint_nodes: List[int] = []
    endpoint_targets: List[float] = []
    endpoint_names: List[str] = []
    for endpoint in network.endpoints:
        if endpoint.kind != "register" or endpoint.name not in record.labels:
            continue
        endpoint_nodes.append(endpoint.driver)
        endpoint_targets.append(record.labels[endpoint.name])
        endpoint_names.append(endpoint.name)

    graph = GraphData(
        name=record.name,
        node_features=features,
        edge_src=compiled.fanin_indices.astype(int),
        edge_dst=np.repeat(np.arange(compiled.n), np.diff(compiled.fanin_indptr)),
        endpoint_nodes=np.array(endpoint_nodes, dtype=int),
        endpoint_targets=np.array(endpoint_targets),
    )
    # Stash the endpoint names for downstream evaluation.
    graph.endpoint_names = endpoint_names  # type: ignore[attr-defined]
    return graph
