"""Differential equivalence oracles run on every fuzz design.

Each oracle pits two independent implementations of the same contract
against each other on randomized inputs and reports human-readable
violation messages (empty list == clean):

* ``interpret_vs_simulate`` — the word-level interpreter against bit-blasted
  simulation of all four BOG variants, bit for bit, under random stimulus;
* ``incremental_vs_full`` — both incremental STA kernels (the whole-graph
  array re-timing and the reference dirty-cone worklist) against a full
  re-analysis of a writer-edited copy of the network after random patch
  sequences (1e-9, bit-identical in practice), and the array kernel's
  footprint stats against the worklist's;
* ``hist_vs_exact_gbm`` — the histogram GBM splitter against the exact
  reference splitter on the design's extracted path features, plus flattened
  (``FlatTree``) and packed-forest booster prediction against recursive
  prediction;
* ``build_determinism`` — a from-scratch rebuild and an artifact-cache
  round-trip must reproduce the record byte-for-byte
  (:func:`~repro.runtime.cache.record_fingerprint`);
* ``parallel_vs_serial`` — pool-worker record builds must be byte-identical
  to in-process builds;
* ``array_vs_reference_sta`` — the level-sweep array STA kernel against the
  per-vertex reference kernel, bit for bit, on pseudo networks with
  randomized derates and wire loads;
* ``packed_vs_scalar_sim`` — uint64 bit-packed batch simulation against the
  scalar evaluator, lane by lane, on every BOG variant;
* ``optimize_search`` — the search-based optimizer: replay determinism of a
  random short campaign, accepted-candidate scores against a from-scratch
  re-analysis, and Pareto-front dominance integrity through the pure
  predicate (catches the ``optimize.dominance`` fault);
* ``array_vs_reference_features`` — the array-native path-feature extractor
  against the kept per-path reference, bit for bit in every array of the
  dataset, under random sampling configurations and endpoint subsets.

A :class:`FuzzContext` lazily shares the expensive artifacts (analyzed
design, BOG variants, full DesignRecord) between the oracles of one design.
"""

from __future__ import annotations

import copy
import random
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bog.builder import bit_name
from repro.bog.simulate import (
    PACKED_LANES,
    evaluate_nodes,
    evaluate_nodes_packed,
    evaluate_signal_words,
    pack_source_vectors,
    unpack_lane,
)
from repro.bog.transforms import build_variants
from repro.core.dataset import DesignRecord, build_design_record
from repro.core.features import (
    PATH_FEATURE_NAMES,
    PathDataset,
    extract_path_dataset,
    extract_path_dataset_reference,
    extract_path_dataset_uncached,
    path_token_sequences,
)
from repro.core.optimize import ranking_from_labels
from repro.core.sampling import SamplingConfig
from repro.fuzz.corpus import FuzzDesign
from repro.hdl.design import Design
from repro.hdl.interpret import Interpreter
from repro.incremental.engine import IncrementalSTA
from repro.incremental.patches import AddExtraLoad, SetDerate, SwapCell, TimingPatch
from repro.incremental.whatif import patches_for_options
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.tree import MAX_BINS, DecisionTreeRegressor, NewtonTreeRegressor
from repro.optimize.artifact import canonical_payload
from repro.optimize.pareto import dominates
from repro.optimize.search import SearchConfig, run_search
from repro.optimize.space import CandidateSpec
from repro.runtime.cache import ArtifactCache, record_fingerprint
from repro.runtime.parallel import parallel_build_records
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import analyze as sta_analyze
from repro.sta.network import TimingNetwork, VertexKind, from_bog

#: Numeric tolerance of the incremental-vs-full oracle (matches the
#: property tests in ``tests/test_incremental.py``; both kernels apply the
#: full analysis' update rule, so agreement is bit-for-bit in practice).
STA_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleViolation:
    """One confirmed disagreement between two stack implementations."""

    oracle: str
    design: str
    seed: int
    size_class: str
    message: str


class FuzzContext:
    """Lazily shared per-design artifacts for one oracle pass."""

    def __init__(self, fuzz: FuzzDesign):
        self.fuzz = fuzz
        self._design: Optional[Design] = None
        self._variants = None
        self._record: Optional[DesignRecord] = None

    @property
    def design(self) -> Design:
        if self._design is None:
            self._design = self.fuzz.analyzed()
        return self._design

    @property
    def variants(self):
        if self._variants is None:
            self._variants = build_variants(self.design)
        return self._variants

    @property
    def record(self) -> DesignRecord:
        # Built with default naming so determinism oracles can compare against
        # pool-worker builds (which cannot pass a name for raw sources).
        if self._record is None:
            self._record = build_design_record(self.fuzz.source)
        return self._record


OracleFn = Callable[[FuzzContext, random.Random], List[str]]


def interpret_vs_simulate(
    ctx: FuzzContext, rng: random.Random, n_vectors: int = 4
) -> List[str]:
    """hdl.interpret vs bog.simulate, bit for bit, on every variant."""
    design = ctx.design
    interpreter = Interpreter(design)
    problems: List[str] = []
    driven = design.inputs + design.register_signals
    max_problems = 4  # one mismatch usually repeats across variants/vectors
    for vector in range(n_vectors):
        if len(problems) >= max_problems:
            break
        values = {signal.name: rng.getrandbits(signal.width) for signal in driven}
        reference = interpreter.evaluate_step(values)
        source_bits = {
            bit_name(signal.name, i): (values[signal.name] >> i) & 1
            for signal in driven
            for i in range(signal.width)
        }
        for variant, graph in ctx.variants.items():
            words = evaluate_signal_words(graph, source_bits)
            for signal in design.register_signals + design.outputs:
                if signal.name not in words:
                    continue
                if words[signal.name] != reference[signal.name]:
                    problems.append(
                        f"vector {vector}: {variant} computes "
                        f"{signal.name}={words[signal.name]:#x}, interpreter says "
                        f"{reference[signal.name]:#x} (stimulus {values!r})"
                    )
                    if len(problems) >= max_problems:
                        return problems
    return problems


def _random_patches(network, rng: random.Random, count: int):
    """A random mix of the three patch kinds, guaranteed to include one load patch."""
    gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
    loadable = [
        v.id for v in network.vertices if v.kind in (VertexKind.GATE, VertexKind.REGISTER)
    ]
    if not loadable:
        return []
    patches = [AddExtraLoad(rng.choice(loadable), rng.uniform(0.5, 8.0))]
    attempts = 0
    while len(patches) < count and attempts < count * 4:
        attempts += 1
        kind = rng.choice(("derate", "swap", "load"))
        if kind == "load":
            patches.append(AddExtraLoad(rng.choice(loadable), rng.uniform(0.1, 8.0)))
            continue
        if not gates:
            continue
        vertex = rng.choice(gates)
        if kind == "derate":
            patches.append(SetDerate(vertex, rng.uniform(0.4, 1.6)))
        else:
            cell = network.vertices[vertex].cell
            alternative = network.library.upsize(cell) or network.library.downsize(cell)
            if alternative is not None:
                patches.append(SwapCell(vertex, alternative))
    return patches


def edited_copy(network: TimingNetwork, patches: Sequence[TimingPatch]) -> TimingNetwork:
    """A deep copy of ``network`` edited by ``patches`` through its writers: the
    full-analysis side of the incremental checks, independent of override columns."""
    edited = copy.deepcopy(network)
    for patch in patches:
        if isinstance(patch, SetDerate):
            edited.set_derate(patch.vertex, float(patch.derate))
        elif isinstance(patch, SwapCell):
            edited.set_cell(patch.vertex, patch.cell)
        else:
            load = float(edited.attribute_columns().extra_load[patch.vertex])
            edited.set_extra_load(patch.vertex, load + float(patch.delta))
    return edited


def incremental_vs_full(
    ctx: FuzzContext, rng: random.Random, n_rounds: int = 3
) -> List[str]:
    """Both incremental STA kernels vs full re-analysis of an :func:`edited_copy`.

    The array kernel's footprint stats must also equal the reference
    worklist's on every patch set.
    """
    record = ctx.record
    network = record.synthesis.netlist
    engines = [
        IncrementalSTA(network, record.clock, baseline=record.synthesis.report, kernel=kernel)
        for kernel in ("array", "reference")
    ]
    problems: List[str] = []
    for round_index in range(n_rounds):
        patches = _random_patches(network, rng, rng.randint(1, 8))
        full = sta_analyze(edited_copy(network, patches), record.clock)
        results = [engine.what_if(patches) for engine in engines]
        for engine, (incremental, _) in zip(engines, results):
            tag = f"round {round_index}: {engine.kernel} incremental"
            for label, inc_array, full_array in (
                ("arrivals", incremental.arrivals, full.arrivals),
                ("slews", incremental.slews, full.slews),
                ("loads", incremental.loads, full.loads),
            ):
                worst = float(np.max(np.abs(inc_array - full_array), initial=0.0))
                if worst > STA_TOLERANCE:
                    problems.append(
                        f"{tag} {label} diverge from full re-analysis by "
                        f"{worst:.3e} (> {STA_TOLERANCE}) after {len(patches)} patches"
                    )
            if (
                abs(incremental.wns - full.wns) > STA_TOLERANCE
                or abs(incremental.tns - full.tns) > STA_TOLERANCE
            ):
                problems.append(
                    f"{tag} WNS/TNS mismatch "
                    f"({incremental.wns:.9f}/{incremental.tns:.9f} vs "
                    f"{full.wns:.9f}/{full.tns:.9f})"
                )
        (_, array_stats), (_, reference_stats) = results
        if array_stats != reference_stats:
            problems.append(
                f"round {round_index}: array footprint {array_stats} "
                f"!= reference worklist {reference_stats}"
            )
        if problems:
            return problems
    return problems


def _dyadic(values: np.ndarray) -> np.ndarray:
    """Quantize to multiples of 1/64 so sums/products are exact in float64.

    The hist splitter derives sibling histograms by parent-minus-child
    subtraction, so on arbitrary floats its per-node sums can drift from the
    exact splitter's sorted cumulative sums by accumulated rounding — enough
    to flip gain ties between correlated features at deep nodes (found by
    this very fuzzer).  On dyadic inputs every histogram/cumsum/subtraction
    is exact, the two splitters' gains agree bit for bit at any depth, and
    the oracle tests the algorithmic contract (candidate cuts, partitions,
    tie-breaking, leaf constraints) instead of float-summation association.
    """
    return np.round(np.asarray(values, dtype=float) * 64.0) / 64.0


def hist_vs_exact_gbm(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Histogram vs exact splitter (and packed vs recursive predict)."""
    dataset = extract_path_dataset(ctx.record, variant="sog")
    X = np.asarray(dataset.features, dtype=float)
    if len(X) < 2:
        return []
    # At most as many rows as the histogram bin budget keeps every feature
    # column's distinct-value count within it, the regime where histogram
    # and exact splits are defined to coincide.
    row_cap = MAX_BINS
    if len(X) > row_cap:
        X = X[:row_cap]
        groups = dataset.groups[:row_cap]
    else:
        groups = dataset.groups
    X = _dyadic(X)
    y = _dyadic(np.asarray(dataset.endpoint_labels, dtype=float)[groups])
    problems: List[str] = []
    depth = rng.choice((2, 4, 6))
    for label, exact_tree, hist_tree in (
        (
            "variance",
            DecisionTreeRegressor(splitter="exact", max_depth=depth, min_samples_leaf=1),
            DecisionTreeRegressor(splitter="hist", max_depth=depth, min_samples_leaf=1),
        ),
        (
            "newton",
            NewtonTreeRegressor(splitter="exact", max_depth=depth),
            NewtonTreeRegressor(splitter="hist", max_depth=depth),
        ),
    ):
        exact_tree.fit(X, y)
        hist_tree.fit(X, y)
        exact_pred = exact_tree.predict(X)
        hist_pred = hist_tree.predict(X)
        if not np.array_equal(exact_pred, hist_pred):
            worst = float(np.max(np.abs(exact_pred - hist_pred)))
            problems.append(
                f"{label} tree (depth {depth}, {len(X)} paths): hist splitter "
                f"diverges from exact splitter by {worst:.3e}"
            )
        for name, tree in (("exact", exact_tree), ("hist", hist_tree)):
            flat = tree.predict(X)
            recursive = tree.predict_recursive(X)
            if not np.array_equal(flat, recursive):
                problems.append(
                    f"{label}/{name} tree: FlatTree predict diverges from "
                    f"predict_recursive"
                )
    # A small booster: the packed-forest router against the per-tree sum of
    # recursive predictions, added in tree order as boosting defines it.
    booster = GradientBoostingRegressor(
        n_estimators=rng.choice((2, 3, 5)),
        max_depth=depth,
        colsample=0.8,
        seed=rng.randrange(1 << 16),
    ).fit(X, y)
    reference = np.full(len(X), booster.base_score_)
    for tree in booster.trees_:
        reference += booster.learning_rate * tree.predict_recursive(X)
    if not np.array_equal(booster.predict(X), reference):
        problems.append(
            f"{len(booster.trees_)}-tree booster: packed predict diverges from the "
            f"per-tree predict_recursive sum"
        )
    return problems


def build_determinism(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Rebuild + cache round-trip must reproduce the record byte-for-byte."""
    first = record_fingerprint(ctx.record)
    rebuilt = build_design_record(ctx.fuzz.source)
    problems: List[str] = []
    if record_fingerprint(rebuilt) != first:
        problems.append("cache-off rebuild produced a different record fingerprint")
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = ArtifactCache(tmp, enabled=True)
        cache.put("fuzz-roundtrip", ctx.record)
        loaded = cache.get("fuzz-roundtrip")
        if loaded is None:
            problems.append("artifact cache lost the stored record")
        elif record_fingerprint(loaded) != first:
            problems.append("artifact-cache round-trip changed the record fingerprint")
    return problems


def parallel_vs_serial(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Pool-worker builds must be byte-identical to in-process builds."""
    serial = record_fingerprint(ctx.record)
    built = parallel_build_records([ctx.fuzz.source, ctx.fuzz.source], jobs=2)
    problems: List[str] = []
    for index, record in enumerate(built):
        fingerprint = record_fingerprint(record)
        if fingerprint != serial:
            problems.append(
                f"parallel worker build {index} fingerprint {fingerprint[:12]} != "
                f"serial {serial[:12]}"
            )
    return problems


def array_vs_reference_sta(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Array level-sweep STA kernel vs the per-vertex reference, bit for bit.

    Runs on pseudo networks lowered from two BOG variants (no synthesis, so
    the oracle stays cheap enough for the ``large`` size class) with
    randomized derates and wire loads thrown in to exercise the attribute
    columns, not just the compiled structure.
    """
    clock = ClockConstraint(period=1000.0)
    problems: List[str] = []
    for variant in ("sog", "xag"):
        network = from_bog(ctx.variants[variant])
        n = len(network)
        for _ in range(min(16, n)):
            vertex = rng.randrange(n)
            network.set_derate(vertex, rng.uniform(0.4, 1.6))
            network.set_extra_load(vertex, rng.uniform(0.0, 6.0))
        reference = sta_analyze(network, clock, kernel="reference")
        array = sta_analyze(network, clock, kernel="array")
        for label, ref_values, array_values in (
            ("loads", reference.loads, array.loads),
            ("arrivals", reference.arrivals, array.arrivals),
            ("slews", reference.slews, array.slews),
        ):
            if not np.array_equal(ref_values, array_values):
                worst = float(np.max(np.abs(ref_values - array_values)))
                problems.append(
                    f"{variant}: array kernel {label} diverge from the reference "
                    f"kernel by {worst:.3e} (bit-identical required)"
                )
        if reference.wns != array.wns or reference.tns != array.tns:
            problems.append(
                f"{variant}: WNS/TNS mismatch between kernels "
                f"({array.wns:.9f}/{array.tns:.9f} vs "
                f"{reference.wns:.9f}/{reference.tns:.9f})"
            )
        if problems:
            return problems
    return problems


def packed_vs_scalar_sim(
    ctx: FuzzContext, rng: random.Random, n_check_lanes: int = 6
) -> List[str]:
    """uint64 bit-packed batch simulation vs the scalar evaluator, per lane.

    Packs 64 random stimulus vectors per variant, then cross-checks a random
    sample of lanes (plus lane 0 and 63, the word boundaries) against the
    scalar reference evaluator on the identical assignment.
    """
    problems: List[str] = []
    for variant, graph in ctx.variants.items():
        names = list(graph.sources)
        vectors = [
            {name: rng.getrandbits(1) for name in names} for _ in range(PACKED_LANES)
        ]
        packed_values = evaluate_nodes_packed(graph, pack_source_vectors(vectors))
        lanes = {0, PACKED_LANES - 1}
        lanes.update(rng.sample(range(PACKED_LANES), n_check_lanes))
        for lane in sorted(lanes):
            scalar = evaluate_nodes(graph, vectors[lane])
            lane_values = unpack_lane(packed_values, lane)
            if lane_values != scalar:
                first = next(
                    i for i, (a, b) in enumerate(zip(lane_values, scalar)) if a != b
                )
                problems.append(
                    f"{variant}: packed lane {lane} diverges from scalar "
                    f"evaluation, first at node {first} "
                    f"({graph.nodes[first].type.value}: packed "
                    f"{lane_values[first]}, scalar {scalar[first]})"
                )
                break
        if problems:
            return problems
    return problems


def optimize_search(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Search-based optimizer: determinism, score honesty, front integrity.

    Three contracts on one short random campaign:

    * two runs of the same ``(seed, strategy, budget)`` serialize
      byte-identical canonical payloads (replay determinism);
    * every accepted candidate's logged incremental score is reproduced by a
      fresh engine *and* agrees with a from-scratch full re-analysis of the
      same patched netlist to ``STA_TOLERANCE`` (the incremental-vs-full
      contract the search budget rests on);
    * the returned Pareto front, audited through the *pure*
      :func:`repro.optimize.pareto.dominates`, contains no point beaten by
      the default-options baseline and no dominated pair — this is the check
      that catches the ``optimize.dominance`` fault.
    """
    record = ctx.record
    ranking = ranking_from_labels(record)
    if not ranking:
        return []
    strategy = rng.choice(("anneal", "evolution"))
    config = SearchConfig(
        strategy=strategy, budget=8, seed=rng.randrange(1 << 16), reanchor_every=4
    )
    cache = ArtifactCache(enabled=False)
    first = run_search(record, ranking, config, cache=cache)
    second = run_search(record, ranking, config, cache=cache)
    problems: List[str] = []
    if canonical_payload(first) != canonical_payload(second):
        problems.append(
            f"{strategy} campaign (seed {config.seed}, budget {config.budget}): "
            f"two runs of the same (seed, strategy, budget) produce different "
            f"canonical payloads — search is not replay-deterministic"
        )
        return problems

    # Score honesty: re-derive up to four accepted moves from their logged
    # specs and re-time them both incrementally and from scratch.
    netlist = record.synthesis.netlist
    baseline_report = record.synthesis.report
    checked = 0
    for entry in first.trajectory:
        if entry.kind != "eval" or not entry.accepted or entry.spec is None:
            continue
        spec = CandidateSpec.from_dict(entry.spec)
        options = spec.realize(ranking, seed=config.seed)
        patches = patches_for_options(netlist, baseline_report, options)
        engine = IncrementalSTA(netlist, record.clock, baseline=baseline_report)
        incremental, _ = engine.what_if(patches)
        full = sta_analyze(edited_copy(netlist, patches), record.clock)
        worst = float(np.max(np.abs(incremental.arrivals - full.arrivals), initial=0.0))
        worst = max(worst, abs(incremental.wns - full.wns), abs(incremental.tns - full.tns))
        wns, tns = float(incremental.wns), float(incremental.tns)
        if worst > STA_TOLERANCE:
            problems.append(
                f"accepted candidate at step {entry.step}: incremental score "
                f"diverges from full re-analysis by {worst:.3e} "
                f"(> {STA_TOLERANCE}) over {len(patches)} patches"
            )
        if abs(wns - entry.wns) > STA_TOLERANCE or abs(tns - entry.tns) > STA_TOLERANCE:
            problems.append(
                f"accepted candidate at step {entry.step}: logged score "
                f"({entry.wns:.9f}/{entry.tns:.9f}) does not match the re-derived "
                f"score ({wns:.9f}/{tns:.9f})"
            )
        checked += 1
        if checked >= 4 or problems:
            break
    if problems:
        return problems

    # Front integrity via the pure dominance predicate (the fault tooth only
    # disables filtering inside ``ParetoFront.insert``, never this check).
    points = first.front.points
    for point in points:
        if point.key != first.baseline.key and dominates(first.baseline, point):
            problems.append(
                f"front point {point.key[:12]} (wns={point.wns:.4f}, "
                f"area={point.area:.2f}) is dominated by the default-options "
                f"baseline (wns={first.baseline.wns:.4f}, "
                f"area={first.baseline.area:.2f})"
            )
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if dominates(a, b) or dominates(b, a):
                problems.append(
                    f"front keeps a dominated pair: {a.key[:12]} "
                    f"(wns={a.wns:.4f}, area={a.area:.2f}) vs {b.key[:12]} "
                    f"(wns={b.wns:.4f}, area={b.area:.2f})"
                )
        if problems:
            break
    return problems


def _dataset_differences(production: PathDataset, reference: PathDataset) -> List[str]:
    """How two path datasets differ (empty when every array is identical)."""
    problems: List[str] = []
    if production.features.shape != reference.features.shape:
        problems.append(
            f"feature matrix shape {production.features.shape} != reference "
            f"{reference.features.shape}"
        )
    elif not np.array_equal(production.features, reference.features):
        column = int(np.flatnonzero((production.features != reference.features).any(axis=0))[0])
        problems.append(f"features differ, first in column {PATH_FEATURE_NAMES[column]!r}")
    for label in ("groups", "endpoint_labels"):
        if not np.array_equal(getattr(production, label), getattr(reference, label)):
            problems.append(f"{label} differ")
    for label in ("endpoint_names", "endpoint_signals"):
        if getattr(production, label) != getattr(reference, label):
            problems.append(f"{label} differ")
    return problems


def array_vs_reference_features(ctx: FuzzContext, rng: random.Random) -> List[str]:
    """Array-native path features vs the kept per-path extractor, bit for bit.

    Every BOG variant is lowered and pseudo-timed with a few randomized
    derates and wire loads, then extracted by both implementations under a
    random :class:`SamplingConfig` and a random endpoint subset.  The
    on-demand token sequences must equal the reference's tokens, and a
    sampled dataset's critical rows must equal the reference's unsampled
    extraction of the same endpoints.  No synthesis runs (labels are random
    stand-ins), so the oracle stays cheap enough for the ``large`` size
    class.
    """
    clock = ClockConstraint(period=1000.0)
    networks = {}
    reports = {}
    for variant, graph in ctx.variants.items():
        network = from_bog(graph)
        n = len(network)
        for _ in range(min(16, n)):
            vertex = rng.randrange(n)
            network.set_derate(vertex, rng.uniform(0.4, 1.6))
            network.set_extra_load(vertex, rng.uniform(0.0, 6.0))
        networks[variant] = network
        reports[variant] = sta_analyze(network, clock)
    names = sorted({e.name for e in networks["sog"].endpoints if e.kind == "register"})
    # The extractors read only the pseudo-timing side of a record and its labels.
    record = DesignRecord(
        name=ctx.fuzz.name,
        spec=None,
        design=ctx.design,
        source=ctx.fuzz.source,
        sog=ctx.variants["sog"],
        pseudo_networks=networks,
        pseudo_reports=reports,
        synthesis=None,
        clock=clock,
        labels={name: rng.uniform(0.0, 500.0) for name in names},
    )
    problems: List[str] = []
    for variant in networks:
        sampling = SamplingConfig(
            seed=rng.randrange(1 << 16),
            k_max=rng.randint(1, 6),
            use_sampling=rng.random() < 0.8,
        )
        subset = None
        if names and rng.random() < 0.5:
            subset = rng.sample(names, rng.randint(1, len(names)))
        production = extract_path_dataset_uncached(record, variant, sampling, subset)
        reference, reference_tokens = extract_path_dataset_reference(
            record, variant, sampling, subset
        )
        messages = _dataset_differences(production, reference)
        tokens = path_token_sequences(record, variant, sampling, subset)
        if len(tokens) != len(reference_tokens) or not all(
            np.array_equal(ours, theirs) for ours, theirs in zip(tokens, reference_tokens)
        ):
            messages.append("token sequences differ")
        if sampling.use_sampling:
            unsampled, _ = extract_path_dataset_reference(
                record, variant, replace(sampling, use_sampling=False), subset
            )
            messages.extend(
                f"critical rows: {message}"
                for message in _dataset_differences(production.critical_rows(), unsampled)
            )
        scope = "all endpoints" if subset is None else f"{len(subset)} endpoints"
        problems.extend(f"{variant} ({sampling}, {scope}): {message}" for message in messages)
        if problems:
            return problems
    return problems


#: Registry: oracle name -> callable.  ``DEFAULT_CADENCE`` spaces out the
#: oracles whose cost is a full extra record build.
ORACLES: Dict[str, OracleFn] = {
    "interpret_vs_simulate": interpret_vs_simulate,
    "incremental_vs_full": incremental_vs_full,
    "hist_vs_exact_gbm": hist_vs_exact_gbm,
    "build_determinism": build_determinism,
    "parallel_vs_serial": parallel_vs_serial,
    "array_vs_reference_sta": array_vs_reference_sta,
    "packed_vs_scalar_sim": packed_vs_scalar_sim,
    "optimize_search": optimize_search,
    "array_vs_reference_features": array_vs_reference_features,
}

DEFAULT_CADENCE: Dict[str, int] = {
    "interpret_vs_simulate": 1,
    "incremental_vs_full": 1,
    "hist_vs_exact_gbm": 1,
    "build_determinism": 5,
    "parallel_vs_serial": 12,
    "array_vs_reference_sta": 1,
    "packed_vs_scalar_sim": 1,
    "optimize_search": 3,
    "array_vs_reference_features": 1,
}
