"""Docs lane: the documentation tree exists and its links resolve.

Runs in tier 1 (and the CI docs job) so a moved file or renamed doc page
breaks loudly instead of rotting.  Only repository-relative links are
checked — external URLs are out of scope for an offline test.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every markdown file the docs lane guards.
DOC_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/api.md",
    "docs/serving.md",
    "docs/operations.md",
    "docs/optimization.md",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_docs_tree_exists():
    for name in DOC_FILES:
        path = REPO_ROOT / name
        assert path.is_file(), f"{name} is missing"
        assert path.read_text().strip(), f"{name} is empty"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_relative_links_resolve(doc):
    path = REPO_ROOT / doc
    broken = []
    for target in _LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        if target.startswith("../"):
            # GitHub-relative URLs (e.g. the CI badge) point outside the
            # repository checkout; nothing to verify offline.
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


def test_docs_cross_reference_each_other():
    """The three docs pages and the README link into each other."""
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("docs/architecture.md", "docs/api.md", "docs/serving.md"):
        assert page in readme, f"README does not link {page}"
    architecture = (REPO_ROOT / "docs/architecture.md").read_text()
    assert "api.md" in architecture and "serving.md" in architecture


def test_serving_doc_covers_every_env_knob():
    """The serving page's knob table stays in sync with the code."""
    serving = (REPO_ROOT / "docs/serving.md").read_text()
    from repro.core.feature_cache import (
        FEATURE_CACHE_DISK_ENV_VAR,
        FEATURE_CACHE_ENV_VAR,
        FEATURE_CACHE_MAX_MB_ENV_VAR,
        FEATURE_CACHE_MEM_ENV_VAR,
    )
    from repro.faults import FAULT_ENV_VAR
    from repro.ml.tree import BINS_ENV_VAR
    from repro.runtime.cache import (
        CACHE_DIR_ENV_VAR,
        CACHE_ENABLE_ENV_VAR,
        CACHE_MAX_MB_ENV_VAR,
    )
    from repro.runtime.parallel import JOBS_ENV_VAR
    from repro.runtime.report import BENCH_ENV_VAR
    from repro.serve.registry import MODEL_DIR_ENV_VAR
    from repro.sta.engine import STA_KERNEL_ENV_VAR

    for variable in (
        FEATURE_CACHE_DISK_ENV_VAR,
        FEATURE_CACHE_ENV_VAR,
        FEATURE_CACHE_MAX_MB_ENV_VAR,
        FEATURE_CACHE_MEM_ENV_VAR,
        FAULT_ENV_VAR,
        BINS_ENV_VAR,
        CACHE_DIR_ENV_VAR,
        CACHE_ENABLE_ENV_VAR,
        CACHE_MAX_MB_ENV_VAR,
        JOBS_ENV_VAR,
        BENCH_ENV_VAR,
        MODEL_DIR_ENV_VAR,
        STA_KERNEL_ENV_VAR,
    ):
        assert variable in serving, f"docs/serving.md does not document {variable}"


def test_operations_doc_covers_every_resilience_knob():
    """The operations page's knob table stays in sync with the code.

    Each resilience variable must appear both in docs/operations.md (the
    table that defines it) and in docs/serving.md (the pointer list that
    keeps the main knob page exhaustive).
    """
    operations = (REPO_ROOT / "docs/operations.md").read_text()
    serving = (REPO_ROOT / "docs/serving.md").read_text()
    from repro.serve.resilience import (
        DEADLINE_ENV_VAR,
        QUEUE_MAX_ENV_VAR,
        RETRY_AFTER_ENV_VAR,
        WHATIF_CONCURRENCY_ENV_VAR,
    )
    from repro.serve.supervisor import (
        BACKOFF_ENV_VAR,
        BACKOFF_MAX_ENV_VAR,
        HANG_TIMEOUT_ENV_VAR,
        HEARTBEAT_ENV_VAR,
        HEARTBEAT_TIMEOUT_ENV_VAR,
        RETRIES_ENV_VAR,
        RSS_LIMIT_ENV_VAR,
        WORKERS_ENV_VAR,
    )

    for variable in (
        QUEUE_MAX_ENV_VAR,
        DEADLINE_ENV_VAR,
        RETRY_AFTER_ENV_VAR,
        WHATIF_CONCURRENCY_ENV_VAR,
        WORKERS_ENV_VAR,
        HEARTBEAT_ENV_VAR,
        HEARTBEAT_TIMEOUT_ENV_VAR,
        HANG_TIMEOUT_ENV_VAR,
        RSS_LIMIT_ENV_VAR,
        BACKOFF_ENV_VAR,
        BACKOFF_MAX_ENV_VAR,
        RETRIES_ENV_VAR,
    ):
        assert variable in operations, f"docs/operations.md does not document {variable}"
        assert variable in serving, f"docs/serving.md does not mention {variable}"


def test_docs_cover_every_lifecycle_knob():
    """Every lifecycle env knob is documented on both ops-facing pages."""
    operations = (REPO_ROOT / "docs/operations.md").read_text()
    serving = (REPO_ROOT / "docs/serving.md").read_text()
    from repro.lifecycle.evaluate import LATENCY_RATIO_ENV_VAR, MIN_R_DELTA_ENV_VAR
    from repro.serve.service import REFRESH_ENV_VAR

    for variable in (MIN_R_DELTA_ENV_VAR, LATENCY_RATIO_ENV_VAR, REFRESH_ENV_VAR):
        assert variable in operations, f"docs/operations.md does not document {variable}"
        assert variable in serving, f"docs/serving.md does not mention {variable}"
    # The eval-report schema tag is part of the operational contract too.
    from repro.lifecycle.evaluate import EVAL_REPORT_SCHEMA

    assert EVAL_REPORT_SCHEMA in operations


def test_operations_doc_covers_every_chaos_fault():
    """Every chaos-campaign fault and its evidence counters stay documented."""
    operations = (REPO_ROOT / "docs/operations.md").read_text()
    from repro.serve.chaos import DEFAULT_FAULTS

    for fault in DEFAULT_FAULTS:
        assert fault in operations, f"docs/operations.md does not document fault {fault}"


def test_api_doc_matches_cli_subcommands():
    """docs/api.md lists exactly the CLI subcommands the parser offers."""
    from repro.cli import build_parser

    api = (REPO_ROOT / "docs/api.md").read_text()
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    for name in subparsers.choices:
        assert f"`{name}`" in api, f"docs/api.md does not document the {name} subcommand"


def test_optimization_doc_covers_every_opt_knob():
    """The optimizer page documents every ``REPRO_OPT_*`` knob, the fault
    tooth and the artifact schema; serving.md's knob index points at them."""
    optimization = (REPO_ROOT / "docs/optimization.md").read_text()
    serving = (REPO_ROOT / "docs/serving.md").read_text()
    from repro.optimize.artifact import OPTIMIZE_RUN_SCHEMA
    from repro.optimize.pareto import DOMINANCE_FAULT
    from repro.optimize.search import (
        OPT_AREA_WEIGHT_ENV_VAR,
        OPT_BUDGET_ENV_VAR,
        OPT_REANCHOR_ENV_VAR,
        OPT_STRATEGY_ENV_VAR,
        STRATEGIES,
    )

    for variable in (
        OPT_STRATEGY_ENV_VAR,
        OPT_BUDGET_ENV_VAR,
        OPT_REANCHOR_ENV_VAR,
        OPT_AREA_WEIGHT_ENV_VAR,
    ):
        assert variable in optimization, f"docs/optimization.md does not document {variable}"
        assert variable in serving, f"docs/serving.md knob index misses {variable}"
    for strategy in STRATEGIES:
        assert f"`{strategy}`" in optimization, (
            f"docs/optimization.md does not document the {strategy} strategy"
        )
    assert OPTIMIZE_RUN_SCHEMA in optimization
    assert DOMINANCE_FAULT in optimization
