"""`repro-optimize-run/1` artifacts: serialize, load, replay.

An artifact is the full record of one search campaign — design source,
ranking, config (the replayable ``(seed, strategy, budget)`` triple plus
every knob), baseline point, trajectory log, Pareto front and budget
accounting.  The *canonical* section is a pure function of the run identity:
two runs of the same campaign serialize byte-identically (floats round-trip
exactly through JSON), which is what the determinism tests and the CI
optimize-smoke lane compare.  Wall-clock timings and environment snapshots
live outside the canonical section.

:func:`replay_artifact` rebuilds the design from the stored source, re-runs
the recorded campaign and reports any divergence from the recorded front /
trajectory — the optimizer's analogue of the fuzz runner's ``--replay``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro import settings
from repro.faults import FAULT_ENV_VAR
from repro.optimize.search import SearchConfig, SearchResult, run_search
from repro.runtime.parallel import JOBS_ENV_VAR

#: Schema tag of the run artifact.
OPTIMIZE_RUN_SCHEMA = "repro-optimize-run/1"

#: Keys of the canonical (determinism-checked) section of the artifact.
CANONICAL_KEYS = (
    "schema",
    "design",
    "strategy",
    "seed",
    "budget",
    "config",
    "ranking",
    "baseline",
    "trajectory",
    "front",
    "accounting",
)


def canonical_payload(result: SearchResult) -> dict:
    """The deterministic section: byte-identical across replays."""
    return {
        "schema": OPTIMIZE_RUN_SCHEMA,
        "design": result.design,
        "strategy": result.config.strategy,
        "seed": result.config.seed,
        "budget": result.config.budget,
        "config": result.config.to_dict(),
        "ranking": list(result.ranking),
        "baseline": result.baseline.to_dict(),
        "trajectory": [entry.to_dict() for entry in result.trajectory],
        "front": result.front.to_dicts(),
        "accounting": dict(result.accounting),
    }


def build_artifact(result: SearchResult, record=None) -> dict:
    """Canonical payload plus the replay context (source, environment, perf)."""
    payload = canonical_payload(result)
    payload["source"] = getattr(record, "source", None)
    payload["front_hypervolume"] = result.front_hypervolume()
    payload["environment"] = {
        "jobs": settings.get(JOBS_ENV_VAR),
        "fault_inject": settings.get(FAULT_ENV_VAR),
    }
    payload["perf"] = {"search_seconds": round(result.elapsed_seconds, 6)}
    payload["replay"] = "python -m repro optimize --replay <this file>"
    return payload


def write_artifact(directory, result: SearchResult, record=None) -> Path:
    """Write one run artifact; the filename encodes the replay triple."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = result.config
    path = directory / (
        f"optimize_{result.design}_{config.strategy}_b{config.budget}_seed{config.seed}.json"
    )
    path.write_text(json.dumps(build_artifact(result, record), indent=2) + "\n")
    return path


def load_artifact(path) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != OPTIMIZE_RUN_SCHEMA:
        raise ValueError(
            f"{path} is not a {OPTIMIZE_RUN_SCHEMA} artifact "
            f"(schema={payload.get('schema')!r})"
        )
    return payload


def replay_artifact(path, cache=None) -> List[str]:
    """Re-run a recorded campaign; return divergence messages (empty = exact).

    The design is rebuilt from the stored source (through the artifact
    cache), the recorded ranking is reused verbatim, and the recorded
    ``(seed, strategy, budget)`` config drives a fresh search whose canonical
    payload must match the recording field for field.
    """
    from repro.core.dataset import build_design_record
    from repro.core.optimize import generate_candidates
    from repro.runtime.cache import ArtifactCache, record_key

    payload = load_artifact(path)
    source = payload.get("source")
    if not source:
        return [f"{path}: artifact carries no design source; cannot replay"]

    name = payload["design"]
    if cache is None:
        cache = ArtifactCache()
    record = cache.load_or_build(
        record_key(source, None, name), lambda: build_design_record(source, name=name)
    )

    config = SearchConfig.from_dict(payload["config"])
    ranking = [str(signal) for signal in payload["ranking"]]
    candidates = None
    if config.strategy == "sweep":
        candidates = generate_candidates(ranking, k=config.budget, seed=config.seed)
    result = run_search(record, ranking, config, candidates=candidates)

    fresh = canonical_payload(result)
    messages: List[str] = []
    for key in CANONICAL_KEYS:
        if fresh.get(key) != payload.get(key):
            messages.append(
                f"replay of {Path(path).name} diverges on {key!r}: the recorded "
                f"campaign is not reproducible in this tree"
            )
    return messages


def replay_summary(path, messages: Optional[List[str]] = None) -> dict:
    """Small JSON summary the CLI emits for a replay run."""
    payload = load_artifact(path)
    if messages is None:
        messages = replay_artifact(path)
    return {
        "schema": "repro-optimize-replay/1",
        "artifact": str(path),
        "design": payload["design"],
        "strategy": payload["strategy"],
        "seed": payload["seed"],
        "budget": payload["budget"],
        "front_size": len(payload["front"]),
        "ok": not messages,
        "divergences": messages,
    }
