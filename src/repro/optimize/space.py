"""The search space over :class:`~repro.synth.optimizer.SynthesisOptions`.

The optimizer does not mutate ``SynthesisOptions`` objects directly — they
are mutable, carry whole signal lists and compare by identity.  Instead the
genome is a frozen :class:`CandidateSpec`: the group-fraction split, the
retime fraction and a sparse set of per-signal group overrides.  A spec is
*realized* against a criticality ranking into concrete options, which keeps
every candidate valid by construction (every signal lands in exactly one
group, groups stay ordered most-critical-first) and keeps the trajectory
log small enough to replay.

:func:`options_from_ranking` — the paper's Table 6 ``group_path`` +
``retime`` option set — is the realization of a spec without moves, so the
classic options and every search candidate come from one code path.

Two identity helpers live here as well:

* :func:`canonical_option_key` — content digest of one realized option set.
  The candidate generator and the search engine both dedupe on it, so a
  sweep/search budget is never spent scoring the same options twice.
* :func:`synthesis_key` / :func:`cached_synthesize` — the content address
  of one *full synthesis run* (the scheme ``run_optimization_sweep`` has
  always used), shared by the re-anchoring step of the search engine.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import DEFAULT_GROUP_FRACTIONS, group_boundaries
from repro.runtime.cache import ArtifactCache, code_fingerprint
from repro.sta.constraints import ClockConstraint
from repro.synth.flow import SynthesisResult, synthesize_bog
from repro.synth.optimizer import PathGroup, SynthesisOptions


def canonical_option_key(options: SynthesisOptions) -> str:
    """Content digest of one option set (dedupe key for sweeps and search).

    Two option sets with the same digest drive the synthesis flow and the
    what-if projection identically; grid points / mutations that collapse
    onto an already-seen key are duplicates, not new candidates.
    """
    payload = "\n".join(
        [
            "synthesis-options/v1",
            f"effort={options.effort_passes}",
            f"critical={options.critical_fraction!r}",
            f"groups={[(g.name, tuple(g.signals), g.weight) for g in options.path_groups or []]!r}",
            f"group_effort={options.group_effort_passes}",
            f"retime={tuple(options.retime_signals or ())!r}",
            f"area_recovery={options.area_recovery}",
            f"area_slack={options.area_recovery_slack_fraction!r}",
            f"seed={options.seed}",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Candidate genome
# ---------------------------------------------------------------------------

#: Fraction nudges tried by the mutation operator (grid-aligned so float
#: round-off can never make two runs of the same seed diverge).
_FRACTION_STEPS: Tuple[float, ...] = (-0.04, -0.02, 0.02, 0.04)
_RETIME_STEPS: Tuple[float, ...] = (-0.02, -0.01, 0.01, 0.02, 0.05)


@dataclass(frozen=True)
class CandidateSpec:
    """One point of the search space, independent of any concrete design.

    ``moves`` is a sparse per-signal override: ``(signal, group_index)``
    pairs (1-based, most critical group first) applied after the fractional
    split.  Kept sorted so equal genomes hash and serialize identically.
    """

    group_fractions: Tuple[float, ...] = tuple(DEFAULT_GROUP_FRACTIONS)
    retime_fraction: float = 0.05
    moves: Tuple[Tuple[str, int], ...] = ()

    @property
    def n_groups(self) -> int:
        return len(self.group_fractions) + 1

    def realize(self, ranked_signals: Sequence[str], seed: int = 1) -> SynthesisOptions:
        """Concrete options for one design's ranking.

        The group split uses :func:`repro.core.metrics.group_boundaries`,
        the same helper the annotation/metric grouping uses; ``moves`` are
        applied on top of it.
        """
        signals = list(ranked_signals)
        n = len(signals)
        if n == 0:
            return SynthesisOptions(seed=seed)

        boundaries = group_boundaries(n, self.group_fractions)
        assignment: Dict[str, int] = {}
        start = 0
        for index, boundary in enumerate(boundaries + [n]):
            for signal in signals[start:boundary]:
                assignment[signal] = index + 1
            start = boundary

        n_groups = len(boundaries) + 1
        for signal, group_index in self.moves:
            if signal in assignment:
                assignment[signal] = min(max(1, group_index), n_groups)

        buckets: Dict[int, List[str]] = {index: [] for index in range(1, n_groups + 1)}
        for signal in signals:  # ranking order is preserved inside each group
            buckets[assignment[signal]].append(signal)
        groups = [
            PathGroup(name=f"g{index}", signals=members)
            for index, members in buckets.items()
            if members
        ]

        retime_count = max(1, int(round(self.retime_fraction * n)))
        return SynthesisOptions(
            path_groups=groups,
            retime_signals=signals[:retime_count],
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "group_fractions": list(self.group_fractions),
            "retime_fraction": self.retime_fraction,
            "moves": [[signal, group] for signal, group in self.moves],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateSpec":
        return cls(
            group_fractions=tuple(float(f) for f in payload["group_fractions"]),
            retime_fraction=float(payload["retime_fraction"]),
            moves=tuple((str(signal), int(group)) for signal, group in payload["moves"]),
        )


def options_from_ranking(
    ranked_signals: Sequence[str],
    group_fractions: Sequence[float] = DEFAULT_GROUP_FRACTIONS,
    retime_fraction: float = 0.05,
    seed: int = 1,
) -> SynthesisOptions:
    """Build ``group_path`` + ``retime`` synthesis options from a ranking.

    ``ranked_signals`` is ordered from most critical to least critical.  The
    options are those of a :class:`CandidateSpec` without moves, so the
    paper's Table 6 option set and every search candidate are realized by
    one code path.
    """
    return CandidateSpec(tuple(group_fractions), retime_fraction).realize(ranked_signals, seed)


def default_spec() -> CandidateSpec:
    """The paper's configuration — the search always starts here."""
    return CandidateSpec()


def mutate_spec(
    spec: CandidateSpec,
    ranked_signals: Sequence[str],
    rng: random.Random,
) -> CandidateSpec:
    """One seeded mutation: nudge a fraction, nudge retime, move or un-move
    a signal.  All values stay on a fixed 2-decimal grid inside their valid
    ranges, so mutation chains are replayable bit for bit.
    """
    kinds = ["fractions", "retime"]
    if ranked_signals:
        kinds.append("move")
    if spec.moves:
        kinds.append("unmove")
    kind = rng.choice(kinds)

    if kind == "fractions":
        fractions = list(spec.group_fractions)
        index = rng.randrange(len(fractions))
        nudged = round(fractions[index] + rng.choice(_FRACTION_STEPS), 2)
        fractions[index] = min(0.95, max(0.01, nudged))
        return replace(spec, group_fractions=tuple(sorted(fractions)))
    if kind == "retime":
        nudged = round(spec.retime_fraction + rng.choice(_RETIME_STEPS), 2)
        return replace(spec, retime_fraction=min(0.25, max(0.01, nudged)))
    if kind == "move":
        signal = ranked_signals[rng.randrange(len(ranked_signals))]
        moves = dict(spec.moves)
        moves[signal] = rng.randint(1, spec.n_groups)
        return replace(spec, moves=tuple(sorted(moves.items())))
    # unmove: drop one override
    moves = dict(spec.moves)
    del moves[sorted(moves)[rng.randrange(len(moves))]]
    return replace(spec, moves=tuple(sorted(moves.items())))


# ---------------------------------------------------------------------------
# Synthesis identity (shared with core.optimize and the re-anchoring step)
# ---------------------------------------------------------------------------


def synthesis_key(record, clock: ClockConstraint, options: SynthesisOptions, seed: int) -> str:
    """Content-address of one synthesis run (same scheme as the dataset cache).

    The key covers the design source, the clock, the full option set, the
    seed and every build-relevant source file (via ``code_fingerprint``), so
    an edit to the synthesis/STA code silently invalidates stale entries.
    """
    payload = "\n".join(
        [
            "synthesis-result/v1",
            f"code={code_fingerprint()}",
            f"source={record.source}",
            f"clock={clock!r}",
            f"options={options!r}",
            f"seed={seed}",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cached_synthesize(
    record,
    clock: ClockConstraint,
    options: SynthesisOptions,
    seed: int,
    cache: Optional[ArtifactCache],
) -> SynthesisResult:
    """One full synthesis run through the content-addressed artifact cache."""

    def builder() -> SynthesisResult:
        return synthesize_bog(record.sog, clock, options, seed=seed)

    if cache is None:
        return builder()
    return cache.load_or_build(synthesis_key(record, clock, options, seed), builder)
