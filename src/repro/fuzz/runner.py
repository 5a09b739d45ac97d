"""Bounded differential-fuzz campaigns with shrinking and seed bundles.

A campaign walks a deterministic sequence of ``(seed, size_class)`` corpus
members, runs the configured oracles on each, and — on the first violation
for a design — *shrinks* the failing spec (dropping pipeline stages,
registers and data bits while the same oracle keeps failing) before writing
a self-contained JSON bundle to the artifacts directory.  Replaying a
bundle (``python -m repro.fuzz --replay bundle.json``) regenerates the
exact design and re-runs the failing oracle.

Stage timings are recorded into the active
:class:`~repro.runtime.report.RuntimeReport` under ``fuzz.*`` (the CLI
activates one and writes ``BENCH_runtime.json``), so CI fuzz lanes leave
the same perf trail as the benchmark harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import settings
from repro.faults import FAULT_ENV_VAR
from repro.fuzz.corpus import (
    SIZE_CLASSES,
    FuzzDesign,
    construct_profile,
    generate_fuzz_design,
)
from repro.fuzz.oracles import DEFAULT_CADENCE, ORACLES, FuzzContext, OracleViolation
from repro.hdl.generate import DesignSpec, GeneratorConfig
from repro.runtime import report as report_mod

#: Version tag of the failing-seed bundle JSON schema.
BUNDLE_SCHEMA = "repro-fuzz-bundle/1"

#: Default directory for failing-seed bundles.
DEFAULT_ARTIFACTS_DIR = "fuzz_artifacts"

#: Spec fields the shrinker reduces, with their lower bounds, in the order
#: tried (structure first, then widths, then expression shape).
_SHRINK_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("stages", 1),
    ("regs_per_stage", 1),
    ("data_width", 1),
    ("expr_depth", 0),
    ("control_regs", 0),
)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one bounded fuzz campaign."""

    seed: int = 0
    iterations: int = 25
    size_classes: Tuple[str, ...] = ("tiny", "small", "medium")
    checks: Tuple[str, ...] = tuple(ORACLES)
    cadence: Optional[Dict[str, int]] = None
    shrink: bool = True
    max_shrink_trials: int = 48
    artifacts_dir: Optional[str] = DEFAULT_ARTIFACTS_DIR
    stop_on_first: bool = False
    #: Wall-clock budget: no new design and no new oracle run is started
    #: once this many seconds have elapsed (an oracle run already started
    #: always finishes, and its violation is shrunk and bundled, so
    #: violations are never half-reported).  ``None`` means unbounded.  Lets
    #: CI lanes include expensive size classes (``large``) at a flat time
    #: cost: a campaign overshoots its budget by at most one oracle run.
    max_seconds: Optional[float] = None

    def effective_cadence(self, check: str) -> int:
        cadence = self.cadence if self.cadence is not None else DEFAULT_CADENCE
        return max(1, int(cadence.get(check, 1)))


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    config: CampaignConfig
    n_designs: int = 0
    oracle_runs: Dict[str, int] = field(default_factory=dict)
    violations: List[OracleViolation] = field(default_factory=list)
    bundle_paths: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: True when ``max_seconds`` cut the campaign short of ``iterations``.
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "CLEAN" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        runs = ", ".join(f"{name}×{count}" for name, count in sorted(self.oracle_runs.items()))
        budget = " (budget exhausted)" if self.budget_exhausted else ""
        return (
            f"fuzz campaign seed={self.config.seed} designs={self.n_designs} "
            f"[{runs}] in {self.elapsed_seconds:.1f}s{budget}: {status}"
        )


def design_seed_for(campaign_seed: int, iteration: int) -> int:
    """The replayable per-design seed of one campaign iteration."""
    return campaign_seed * 1_000_003 + iteration


def _oracle_rng(design_seed: int, check: str) -> random.Random:
    # String seeding hashes through SHA-512, so this is stable across
    # processes regardless of PYTHONHASHSEED.
    return random.Random(f"repro-fuzz-oracle/{design_seed}/{check}")


def _run_oracle(fuzz: FuzzDesign, check: str, design_seed: int) -> List[str]:
    """One oracle on one design; crashes count as (reported) failures."""
    ctx = FuzzContext(fuzz)
    try:
        return ORACLES[check](ctx, _oracle_rng(design_seed, check))
    except Exception as exc:  # a stack crash on generated RTL is a finding
        return [f"oracle crashed: {type(exc).__name__}: {exc}"]


def shrink_design(
    fuzz: FuzzDesign,
    check: str,
    design_seed: int,
    max_trials: int = 48,
    messages: Optional[List[str]] = None,
) -> Tuple[FuzzDesign, List[str], int]:
    """Greedily reduce the failing spec while the oracle keeps failing.

    Tries, per spec field, the minimum first (one-shot collapse), then a
    halving step, then a decrement; repeats passes until no field shrinks or
    the trial budget runs out.  Returns the smallest still-failing design,
    its messages, and the number of regeneration trials spent.
    ``messages`` carries the already-observed failure so the unshrunk design
    is not rebuilt and re-checked a second time.
    """
    current = fuzz
    current_messages = (
        messages if messages is not None else _run_oracle(current, check, design_seed)
    )
    trials = 0
    progressed = True
    while progressed and trials < max_trials:
        progressed = False
        for field_name, minimum in _SHRINK_FIELDS:
            value = getattr(current.spec, field_name)
            candidates = [c for c in dict.fromkeys((minimum, value // 2, value - 1)) if minimum <= c < value]
            for candidate in candidates:
                if trials >= max_trials:
                    break
                trials += 1
                spec = dataclasses.replace(current.spec, **{field_name: candidate})
                reduced = generate_fuzz_design(
                    current.seed, current.size_class, spec=spec, config=current.config
                )
                messages = _run_oracle(reduced, check, design_seed)
                if messages:
                    current = reduced
                    current_messages = messages
                    progressed = True
                    break
        if current.spec.use_multiplier and trials < max_trials:
            trials += 1
            spec = dataclasses.replace(current.spec, use_multiplier=False)
            reduced = generate_fuzz_design(
                current.seed, current.size_class, spec=spec, config=current.config
            )
            messages = _run_oracle(reduced, check, design_seed)
            if messages:
                current = reduced
                current_messages = messages
                progressed = True
    return current, current_messages, trials


def write_bundle(
    directory: Path,
    fuzz: FuzzDesign,
    violation: OracleViolation,
    messages: List[str],
    shrunk: Optional[Tuple[FuzzDesign, List[str], int]] = None,
) -> Path:
    """Write one self-contained failing-seed bundle as JSON."""
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BUNDLE_SCHEMA,
        "seed": fuzz.seed,
        "size_class": fuzz.size_class,
        "oracle": violation.oracle,
        "design": fuzz.name,
        "messages": messages,
        "spec": dataclasses.asdict(fuzz.spec),
        "config": dataclasses.asdict(fuzz.config),
        "constructs": sorted(construct_profile(fuzz.source)),
        "source": fuzz.source,
        "environment": {"fault_inject": settings.get(FAULT_ENV_VAR)},
        "replay": f"python -m repro.fuzz --replay {directory.name}/<this file>",
    }
    if shrunk is not None:
        reduced, reduced_messages, trials = shrunk
        payload["shrunk"] = {
            "spec": dataclasses.asdict(reduced.spec),
            "source": reduced.source,
            "messages": reduced_messages,
            "register_bits": reduced.spec.approx_register_bits,
            "trials": trials,
        }
    path = directory / f"bundle_seed{fuzz.seed}_{violation.oracle}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_bundle_design(path: os.PathLike) -> Tuple[FuzzDesign, str, Optional[str]]:
    """Regenerate the (shrunk, if available) design of a bundle.

    Returns the design, the oracle name to re-run, and the source text the
    bundle recorded for that design.  The design is rebuilt from the
    bundle's spec/config — not its stored source — so a replay exercises the
    current generator; callers compare the regenerated source against the
    recorded one to detect generator drift.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(f"unsupported bundle schema {payload.get('schema')!r}")
    section = payload.get("shrunk") or payload
    spec = DesignSpec(**section["spec"])
    config = GeneratorConfig(**payload["config"])
    fuzz = generate_fuzz_design(
        payload["seed"], payload["size_class"], spec=spec, config=config
    )
    return fuzz, payload["oracle"], section.get("source")


def replay_bundle(path: os.PathLike) -> List[str]:
    """Re-run a bundle's failing oracle; returns its (hopefully empty) messages.

    A non-empty result means the bundle still fails — or can no longer be
    replayed faithfully: if the current generator no longer reproduces the
    bundle's recorded source from its ``(seed, spec, config)``, the drift is
    reported as a message instead of silently checking different RTL.
    """
    fuzz, oracle, recorded_source = load_bundle_design(path)
    messages = []
    if recorded_source is not None and recorded_source != fuzz.source:
        messages.append(
            "generator drift: regenerated source differs from the bundle's recorded "
            "source; the oracle result below is for the *regenerated* design"
        )
    messages.extend(_run_oracle(fuzz, oracle, design_seed=fuzz.seed))
    return messages


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignResult:
    """Run one bounded fuzz campaign."""
    config = config or CampaignConfig()
    unknown_classes = [c for c in config.size_classes if c not in SIZE_CLASSES]
    if unknown_classes or not config.size_classes:
        raise ValueError(
            f"unknown size classes {unknown_classes!r}; choose from {sorted(SIZE_CLASSES)}"
        )
    unknown_checks = [c for c in config.checks if c not in ORACLES]
    if unknown_checks:
        raise ValueError(
            f"unknown checks {unknown_checks!r}; choose from {sorted(ORACLES)}"
        )
    result = CampaignResult(config=config)
    artifacts = Path(config.artifacts_dir) if config.artifacts_dir else None
    started = time.perf_counter()

    def out_of_time() -> bool:
        if (
            config.max_seconds is not None
            and time.perf_counter() - started >= config.max_seconds
        ):
            result.budget_exhausted = True
        return result.budget_exhausted

    with report_mod.stage("fuzz.campaign"):
        for iteration in range(config.iterations):
            if out_of_time():
                break
            size_class = config.size_classes[iteration % len(config.size_classes)]
            seed = design_seed_for(config.seed, iteration)
            with report_mod.stage("fuzz.generate"):
                fuzz = generate_fuzz_design(seed, size_class)
            result.n_designs += 1
            report_mod.incr("fuzz_designs")
            for check in config.checks:
                if iteration % config.effective_cadence(check) != 0:
                    continue
                if out_of_time():
                    break
                with report_mod.stage(f"fuzz.oracle.{check}"):
                    messages = _run_oracle(fuzz, check, seed)
                result.oracle_runs[check] = result.oracle_runs.get(check, 0) + 1
                report_mod.incr("fuzz_oracle_runs")
                if not messages:
                    continue
                report_mod.incr("fuzz_violations")
                violation = OracleViolation(
                    oracle=check,
                    design=fuzz.name,
                    seed=seed,
                    size_class=size_class,
                    message="; ".join(messages),
                )
                result.violations.append(violation)
                shrunk = None
                if config.shrink:
                    with report_mod.stage("fuzz.shrink"):
                        shrunk = shrink_design(
                            fuzz,
                            check,
                            seed,
                            max_trials=config.max_shrink_trials,
                            messages=messages,
                        )
                if artifacts is not None:
                    bundle = write_bundle(artifacts, fuzz, violation, messages, shrunk)
                    result.bundle_paths.append(str(bundle))
                if config.stop_on_first:
                    result.elapsed_seconds = time.perf_counter() - started
                    return result
    result.elapsed_seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Cross-stack differential fuzzing over random RTL designs.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, default=25, help="number of designs (default 25)"
    )
    parser.add_argument(
        "--size-classes",
        default="tiny,small,medium",
        help=f"comma list cycled per iteration, from {sorted(SIZE_CLASSES)}",
    )
    parser.add_argument(
        "--checks",
        default=",".join(ORACLES),
        help="comma list of oracles to run (default: all)",
    )
    parser.add_argument(
        "--artifacts-dir",
        default=DEFAULT_ARTIFACTS_DIR,
        help="where failing-seed bundles are written",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing designs"
    )
    parser.add_argument(
        "--max-shrink-trials", type=int, default=48, help="shrink regeneration budget"
    )
    parser.add_argument(
        "--stop-on-first", action="store_true", help="stop at the first violation"
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget; no new design or oracle run starts after this (default: unbounded)",
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        help="runtime-report path (default: $REPRO_BENCH_OUT or BENCH_runtime.json)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="BUNDLE", help="re-run one failing-seed bundle"
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if args.replay:
        messages = replay_bundle(args.replay)
        if messages:
            print(f"bundle still fails ({len(messages)} message(s)):")
            for message in messages:
                print(f"  - {message}")
            return 1
        print("bundle no longer reproduces (fixed or environment-dependent)")
        return 0

    unknown = [c for c in args.checks.split(",") if c and c not in ORACLES]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}; available: {', '.join(ORACLES)}")
        return 2
    bad_classes = [s for s in args.size_classes.split(",") if s and s not in SIZE_CLASSES]
    if bad_classes:
        print(
            f"unknown size classes: {', '.join(bad_classes)}; "
            f"available: {', '.join(sorted(SIZE_CLASSES))}"
        )
        return 2
    config = CampaignConfig(
        seed=args.seed,
        iterations=args.iterations,
        size_classes=tuple(s for s in args.size_classes.split(",") if s),
        checks=tuple(c for c in args.checks.split(",") if c),
        shrink=not args.no_shrink,
        max_shrink_trials=args.max_shrink_trials,
        artifacts_dir=args.artifacts_dir,
        stop_on_first=args.stop_on_first,
        max_seconds=args.max_seconds,
    )
    report = report_mod.RuntimeReport(meta={"fuzz_seed": config.seed})
    with report_mod.activate(report):
        result = run_campaign(config)
    print(result.summary())
    for violation in result.violations:
        print(f"  [{violation.oracle}] seed={violation.seed} {violation.design}: {violation.message}")
    for bundle in result.bundle_paths:
        print(f"  bundle: {bundle}")
    destination = report.write(args.bench_out)
    print(f"runtime report: {destination}")
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
