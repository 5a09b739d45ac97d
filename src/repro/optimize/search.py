"""Budget-bounded, seed-replayable search over synthesis options.

The inner loop is the incremental what-if engine: a candidate is scored by
projecting its :class:`~repro.optimize.space.CandidateSpec` onto timing
patches (:func:`repro.incremental.whatif.patches_for_options`) and re-timing
the baseline netlist on their override columns — ~an order of magnitude
cheaper than the full synthesis it stands in for, which is what makes
hundreds-of-candidates search affordable.

Three strategies share one state machine (trajectory log, Pareto front,
memoized evaluator, budget accounting):

* ``anneal`` — simulated annealing with geometric cooling over the clock
  period; the Metropolis draw happens only for uphill moves so the RNG
  stream (and therefore the whole trajectory) is a pure function of
  ``(seed, strategy, budget)``.
* ``evolution`` — (mu+lambda) mutation-only evolutionary search with
  deterministic ``(energy, key)`` truncation selection; a budget that runs
  out mid-generation still logs and selects over the partial generation.
* ``sweep`` — an explicit candidate list (``repro optimize --strategy
  sweep`` passes the fixed grid of ``generate_candidates``), logged through
  the same evaluation step as the other two.  The Table 6 sweep
  ``run_optimization_sweep`` does not run a search: it scores its grid
  with :func:`repro.incremental.evaluate_candidates` directly.

Re-anchoring: every ``reanchor_every`` accepted moves the engine re-derives
the incumbent's patches, re-times them incrementally *and* with a full
analysis of the same override columns, and raises :class:`DriftError` if
the two disagree beyond 1e-9 — incremental drift can never silently corrupt
a search — then runs one real (cached) synthesis of the incumbent and logs
the ground-truth QoR as an ``anchor`` trajectory event.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.incremental.engine import IncrementalSTA
from repro.incremental.patches import SwapCell, TimingPatch
from repro.incremental.whatif import (
    critical_path_table,
    estimate_candidate,
    patches_for_options,
)
from repro.optimize.pareto import (
    ParetoFront,
    ParetoPoint,
    hypervolume,
    reference_point,
)
from repro.optimize.space import (
    CandidateSpec,
    canonical_option_key,
    cached_synthesize,
    default_spec,
    mutate_spec,
)
from repro.runtime import report as report_mod
from repro.runtime.cache import ArtifactCache
from repro.runtime.report import (
    OPT_ANCHOR_STAGE,
    OPT_SCORE_ACCEPTED_STAGE,
    OPT_SCORE_STAGE,
    OPT_SEARCH_STAGE,
)
from repro.settings import KNOBS, configure, knob_field
from repro.sta.engine import analyze as sta_analyze
from repro.synth.optimizer import SynthesisOptions

#: Incremental-vs-full agreement required at every re-anchor (same contract
#: as the fuzz oracles' STA tolerance).
ANCHOR_TOLERANCE = 1e-9

#: The strategy names, as the ``REPRO_OPT_STRATEGY`` knob declares them.
STRATEGIES = KNOBS["REPRO_OPT_STRATEGY"].parse.choices


class DriftError(RuntimeError):
    """Incremental score of an accepted candidate disagrees with a
    from-scratch re-analysis beyond :data:`ANCHOR_TOLERANCE`."""


@dataclass(frozen=True)
class SearchConfig:
    """The replayable identity of one search run.

    ``(seed, strategy, budget)`` plus these knobs fully determine the
    trajectory; the whole config is embedded in the run artifact.
    ``repro.settings.configure(SearchConfig)`` fills the knob-bound fields
    from the ``REPRO_OPT_*`` environment.
    """

    strategy: str = knob_field("REPRO_OPT_STRATEGY")
    budget: int = 32  # unique candidates scored (memo hits are free)
    seed: int = 0
    reanchor_every: int = knob_field("REPRO_OPT_REANCHOR")  # full-synthesis anchor cadence (0 disables)
    mu: int = 4  # evolution: parents kept
    lam: int = 8  # evolution: offspring per generation
    t0_fraction: float = 0.05  # anneal: T0 as a fraction of the clock period
    alpha: float = 0.92  # anneal: geometric cooling factor
    area_weight: float = knob_field("REPRO_OPT_AREA_WEIGHT")  # energy: periods charged per 100% area growth

    def __post_init__(self) -> None:
        KNOBS["REPRO_OPT_STRATEGY"].parse(self.strategy)
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "reanchor_every": self.reanchor_every,
            "mu": self.mu,
            "lam": self.lam,
            "t0_fraction": self.t0_fraction,
            "alpha": self.alpha,
            "area_weight": self.area_weight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchConfig":
        return cls(
            strategy=str(payload["strategy"]),
            budget=int(payload["budget"]),
            seed=int(payload["seed"]),
            reanchor_every=int(payload["reanchor_every"]),
            mu=int(payload["mu"]),
            lam=int(payload["lam"]),
            t0_fraction=float(payload["t0_fraction"]),
            alpha=float(payload["alpha"]),
            area_weight=float(payload["area_weight"]),
        )


@dataclass(frozen=True)
class ScoredCandidate:
    """Memoized incremental score of one option set."""

    key: str
    wns: float
    tns: float
    area: float
    n_patches: int
    seconds: float  # wall time of the scoring pass (not canonical)


@dataclass
class TrajectoryEntry:
    """One event of the search log: an evaluation or a re-anchor."""

    step: int
    kind: str  # "eval" | "anchor"
    key: str
    wns: float
    tns: float
    area: float
    spec: Optional[dict] = None
    n_patches: int = 0
    energy: Optional[float] = None
    accepted: bool = False
    entered_front: bool = False
    memo: bool = False
    temperature: Optional[float] = None
    generation: Optional[int] = None
    drift: Optional[float] = None

    def to_dict(self) -> dict:
        payload = {
            "step": self.step,
            "kind": self.kind,
            "key": self.key,
            "wns": self.wns,
            "tns": self.tns,
            "area": self.area,
            "n_patches": self.n_patches,
            "accepted": self.accepted,
            "entered_front": self.entered_front,
            "memo": self.memo,
        }
        if self.spec is not None:
            payload["spec"] = self.spec
        for name in ("energy", "temperature", "generation", "drift"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload


@dataclass
class SearchResult:
    """Everything one search run produced (see ``artifact.py`` for the
    serialized ``repro-optimize-run/1`` form)."""

    design: str
    ranking: Tuple[str, ...]
    config: SearchConfig
    baseline: ParetoPoint
    front: ParetoFront
    trajectory: List[TrajectoryEntry]
    accounting: Dict[str, object]
    period: float
    elapsed_seconds: float = 0.0

    @property
    def best(self) -> ParetoPoint:
        best = self.front.best_wns()
        return best if best is not None else self.baseline

    def front_hypervolume(self) -> float:
        return hypervolume(
            self.front.points, reference_point(self.baseline, self.period)
        )

    def best_energy(self) -> Optional[float]:
        energies = [
            e.energy for e in self.trajectory if e.kind == "eval" and e.energy is not None
        ]
        return min(energies) if energies else None


class IncrementalEvaluator:
    """Scores option sets against one design's baseline synthesis.

    All candidates are projected against the *frozen* default-options
    baseline netlist (never rebased onto an accepted candidate), so any
    logged score can later be verified by re-deriving the patches and
    re-analyzing from scratch — that is exactly what re-anchoring and the
    ``optimize_search`` fuzz oracle do.
    """

    def __init__(self, record) -> None:
        self.record = record
        self.netlist = record.synthesis.netlist
        self.baseline_report = record.synthesis.report
        self.engine = IncrementalSTA(self.netlist, record.clock, baseline=self.baseline_report)
        self.paths = critical_path_table(self.netlist, self.baseline_report)
        self.base_area = float(record.synthesis.qor.area)
        self.memo: Dict[str, ScoredCandidate] = {}
        self.evals = 0
        self.memo_hits = 0

    def patches(self, options: SynthesisOptions) -> List[TimingPatch]:
        return patches_for_options(self.netlist, self.baseline_report, options, self.paths)

    def area_of(self, patches: Sequence[TimingPatch]) -> float:
        """Exact area of the patched netlist: cell swaps carry their own
        area deltas; derates and extra loads are area-neutral."""
        delta = 0.0
        for patch in patches:
            if isinstance(patch, SwapCell):
                current = self.netlist.cell_of(patch.vertex)
                delta += float(patch.cell.area) - float(current.area)
        return self.base_area + delta

    def score(self, options: SynthesisOptions, key: Optional[str] = None):
        """Memoized incremental score.  Returns ``(scored, memo_hit)``;
        only memo misses consume search budget."""
        key = key or canonical_option_key(options)
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            report_mod.incr("optimize_memo_hits")
            return hit, True
        started = time.perf_counter()
        patches = self.patches(options)
        estimate = estimate_candidate(self.engine, options, patches)
        seconds = time.perf_counter() - started
        scored = ScoredCandidate(
            key=key,
            wns=float(estimate.wns),
            tns=float(estimate.tns),
            area=self.area_of(patches),
            n_patches=estimate.n_patches,
            seconds=seconds,
        )
        self.memo[key] = scored
        self.evals += 1
        report = report_mod.active_report()
        if report is not None:
            report.add_stage(OPT_SCORE_STAGE, seconds)
        report_mod.incr("optimize_evals")
        return scored, False


class _SearchState:
    """Shared bookkeeping for all three strategies."""

    def __init__(self, record, ranking, config, evaluator, cache) -> None:
        self.record = record
        self.ranking = list(ranking)
        self.config = config
        self.evaluator = evaluator
        self.cache = cache
        self.period = float(record.clock.period)
        self.n_endpoints = max(1, len(record.synthesis.report.endpoints))
        self.baseline = ParetoPoint(
            wns=float(record.synthesis.report.wns),
            tns=float(record.synthesis.report.tns),
            area=float(record.synthesis.qor.area),
            key="baseline",
            source="baseline",
            step=-1,
        )
        self.front = ParetoFront()
        self.front.insert(self.baseline)
        self.trajectory: List[TrajectoryEntry] = []
        self.steps = 0
        self.accepted = 0
        self.anchors = 0
        self.exhausted = False

    # -- budget ---------------------------------------------------------------

    @property
    def budget_left(self) -> bool:
        return self.evaluator.evals < self.config.budget

    @property
    def step_budget_left(self) -> bool:
        # Backstop for tiny spaces where almost every proposal is a memo hit.
        return self.steps < 4 * self.config.budget

    # -- scoring --------------------------------------------------------------

    def energy(self, scored: ScoredCandidate) -> float:
        """Scalarized objective (lower is better): WNS regression vs the
        baseline, a small normalized-TNS term as tie-breaker, plus area
        growth charged in clock periods (``area_weight``)."""
        timing = (self.baseline.wns - scored.wns) + 0.05 * (
            self.baseline.tns - scored.tns
        ) / self.n_endpoints
        area = (scored.area - self.baseline.area) / max(self.baseline.area, 1e-12)
        return timing + self.config.area_weight * self.period * area

    def eval_spec(
        self,
        spec: CandidateSpec,
        temperature: Optional[float] = None,
        generation: Optional[int] = None,
    ) -> Tuple[ScoredCandidate, TrajectoryEntry, bool]:
        options = spec.realize(self.ranking, seed=self.config.seed)
        return self.eval_options(options, spec, temperature, generation)

    def eval_options(
        self,
        options: SynthesisOptions,
        spec: Optional[CandidateSpec] = None,
        temperature: Optional[float] = None,
        generation: Optional[int] = None,
    ) -> Tuple[ScoredCandidate, TrajectoryEntry, bool]:
        """Score one option set and log it: memoized score, Pareto insert,
        one ``eval`` trajectory entry (``spec`` is logged when given)."""
        scored, memo = self.evaluator.score(options)
        entered = self.front.insert(
            ParetoPoint(
                wns=scored.wns,
                tns=scored.tns,
                area=scored.area,
                key=scored.key,
                source="eval",
                step=self.steps,
            )
        )
        entry = TrajectoryEntry(
            step=self.steps,
            kind="eval",
            key=scored.key,
            wns=scored.wns,
            tns=scored.tns,
            area=scored.area,
            spec=spec.to_dict() if spec is not None else None,
            n_patches=scored.n_patches,
            energy=self.energy(scored),
            entered_front=entered,
            memo=memo,
            temperature=temperature,
            generation=generation,
        )
        self.trajectory.append(entry)
        self.steps += 1
        return scored, entry, memo

    def propose(self, base: CandidateSpec, rng: random.Random) -> CandidateSpec:
        """Mutate until an unseen canonical key turns up (bounded retries —
        tiny option spaces legitimately exhaust, then the duplicate is
        scored through the memo at zero budget cost)."""
        proposal = mutate_spec(base, self.ranking, rng)
        for _ in range(8):
            options = proposal.realize(self.ranking, seed=self.config.seed)
            if canonical_option_key(options) not in self.evaluator.memo:
                return proposal
            proposal = mutate_spec(proposal, self.ranking, rng)
        return proposal

    # -- acceptance + re-anchoring -------------------------------------------

    def mark_accepted(self, spec: Optional[CandidateSpec], scored: ScoredCandidate) -> None:
        self.accepted += 1
        report = report_mod.active_report()
        if report is not None:
            report.add_stage(OPT_SCORE_ACCEPTED_STAGE, scored.seconds)
        report_mod.incr("optimize_accepted")
        if (
            spec is not None
            and self.config.reanchor_every > 0
            and self.accepted % self.config.reanchor_every == 0
        ):
            self.anchor(spec, scored)

    def anchor(self, spec: CandidateSpec, scored: ScoredCandidate) -> None:
        """Ground-truth the incumbent: incremental-vs-full drift check to
        1e-9, then one real (cached) synthesis logged as an anchor event."""
        evaluator = self.evaluator
        options = spec.realize(self.ranking, seed=self.config.seed)
        patches = evaluator.patches(options)
        incremental, _ = evaluator.engine.what_if(patches)
        netlist = evaluator.netlist
        full = sta_analyze(netlist, self.record.clock, cols=netlist.attribute_columns().overridden(patches))
        drift = max(
            abs(float(incremental.wns) - float(full.wns)),
            abs(float(incremental.tns) - float(full.tns)),
            float(np.max(np.abs(incremental.arrivals - full.arrivals), initial=0.0)),
        )
        incremental_wns = float(incremental.wns)
        incremental_tns = float(incremental.tns)
        if drift > ANCHOR_TOLERANCE:
            raise DriftError(
                f"incremental what-if drifted {drift:.3e} from a from-scratch "
                f"analysis at accepted move {self.accepted} of {self.record.name} "
                f"(candidate {scored.key[:12]})"
            )
        if (
            abs(incremental_wns - scored.wns) > ANCHOR_TOLERANCE
            or abs(incremental_tns - scored.tns) > ANCHOR_TOLERANCE
        ):
            raise DriftError(
                f"memoized score of candidate {scored.key[:12]} no longer "
                f"reproduces: logged ({scored.wns!r}, {scored.tns!r}) vs "
                f"re-derived ({incremental_wns!r}, {incremental_tns!r})"
            )
        with report_mod.stage(OPT_ANCHOR_STAGE):
            result = cached_synthesize(
                self.record, self.record.clock, options, self.config.seed, self.cache
            )
        self.anchors += 1
        report_mod.incr("optimize_anchor_syntheses")
        self.trajectory.append(
            TrajectoryEntry(
                step=self.steps,
                kind="anchor",
                key=scored.key,
                wns=float(result.wns),
                tns=float(result.tns),
                area=float(result.qor.area),
                spec=spec.to_dict(),
                n_patches=scored.n_patches,
                drift=drift,
            )
        )
        self.steps += 1

    def accounting_dict(self) -> Dict[str, object]:
        return {
            "budget": self.config.budget,
            "evals": self.evaluator.evals,
            "memo_hits": self.evaluator.memo_hits,
            "accepted": self.accepted,
            "anchors": self.anchors,
            "steps": self.steps,
            "exhausted": self.exhausted,
        }


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _run_anneal(state: _SearchState, rng: random.Random) -> None:
    config = state.config
    incumbent = default_spec()
    scored, entry, _ = state.eval_spec(incumbent, temperature=None)
    entry.accepted = True
    state.mark_accepted(incumbent, scored)
    incumbent_energy = entry.energy

    temperature = config.t0_fraction * state.period
    while state.budget_left and state.step_budget_left:
        proposal = state.propose(incumbent, rng)
        scored, entry, _ = state.eval_spec(proposal, temperature=temperature)
        delta = entry.energy - incumbent_energy
        # Metropolis rule; the draw happens only for uphill moves so the
        # RNG stream is independent of wall-clock and budget.
        accept = delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-12)
        )
        if accept:
            entry.accepted = True
            incumbent, incumbent_energy = proposal, entry.energy
            state.mark_accepted(proposal, scored)
        temperature *= config.alpha
    state.exhausted = not state.budget_left


def _run_evolution(state: _SearchState, rng: random.Random) -> None:
    config = state.config

    founders = [default_spec()]
    while len(founders) < config.mu:
        founders.append(mutate_spec(founders[rng.randrange(len(founders))], state.ranking, rng))

    parents: List[Tuple[float, str, CandidateSpec, ScoredCandidate]] = []
    for spec in founders:
        if not state.budget_left:
            break
        scored, entry, _ = state.eval_spec(spec, generation=0)
        entry.accepted = True  # founders are the initial parent set
        state.mark_accepted(spec, scored)
        parents.append((entry.energy, scored.key, spec, scored))
    parents.sort(key=lambda item: (item[0], item[1]))

    generation = 0
    while state.budget_left and state.step_budget_left:
        generation += 1
        offspring: List[Tuple[float, str, CandidateSpec, ScoredCandidate]] = []
        for _ in range(config.lam):
            if not state.budget_left:
                # Budget ran out mid-generation: the partial generation is
                # still logged and still competes in selection below.
                state.exhausted = True
                break
            parent = parents[rng.randrange(len(parents))][2]
            child = state.propose(parent, rng)
            scored, entry, _ = state.eval_spec(child, generation=generation)
            offspring.append((entry.energy, scored.key, child, scored))
        pool = sorted(parents + offspring, key=lambda item: (item[0], item[1]))
        survivors = pool[: config.mu]
        surviving_keys = {item[1] for item in survivors}
        parent_keys = {p[1] for p in parents}
        newly_accepted: set = set()
        for energy, key, spec, scored in offspring:
            if key in surviving_keys and key not in parent_keys and key not in newly_accepted:
                # Newly selected offspring: an accepted move.
                newly_accepted.add(key)
                for entry in reversed(state.trajectory):
                    if entry.kind == "eval" and entry.key == key:
                        entry.accepted = True
                        break
                state.mark_accepted(spec, scored)
        parents = survivors
    state.exhausted = state.exhausted or not state.budget_left


def _run_sweep(state: _SearchState, candidates: Sequence[SynthesisOptions]) -> None:
    best_energy: Optional[float] = None
    for options in candidates:
        if not state.budget_left:
            state.exhausted = True
            break
        scored, entry, _ = state.eval_options(options)
        if best_energy is None or entry.energy < best_energy:
            best_energy = entry.energy
            entry.accepted = True
            state.mark_accepted(None, scored)


def run_search(
    record,
    ranked_signals: Sequence[str],
    config: Optional[SearchConfig] = None,
    cache: Optional[ArtifactCache] = None,
    candidates: Optional[Sequence[SynthesisOptions]] = None,
) -> SearchResult:
    """Run one search campaign over ``record``'s option space.

    ``ranked_signals`` is the criticality ranking (most critical first) the
    candidate genomes are realized against — predicted or ground truth.
    ``candidates`` is only meaningful for the ``sweep`` strategy, which
    scores an explicit option list instead of navigating the genome space.
    """
    config = config or configure(SearchConfig)
    if config.strategy == "sweep" and candidates is None:
        raise ValueError("the sweep strategy needs an explicit candidate list")
    if cache is None:
        cache = ArtifactCache()

    rng = random.Random(f"repro-optimize/{config.seed}/{config.strategy}")
    evaluator = IncrementalEvaluator(record)
    state = _SearchState(record, ranked_signals, config, evaluator, cache)

    started = time.perf_counter()
    with report_mod.stage(OPT_SEARCH_STAGE):
        if config.strategy == "anneal":
            _run_anneal(state, rng)
        elif config.strategy == "evolution":
            _run_evolution(state, rng)
        else:
            _run_sweep(state, candidates or [])
    elapsed = time.perf_counter() - started

    return SearchResult(
        design=record.name,
        ranking=tuple(state.ranking),
        config=config,
        baseline=state.baseline,
        front=state.front,
        trajectory=state.trajectory,
        accounting=state.accounting_dict(),
        period=state.period,
        elapsed_seconds=elapsed,
    )
