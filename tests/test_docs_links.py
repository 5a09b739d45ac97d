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


#: Variables the test and benchmark harnesses read; the package never does.
HARNESS_KNOBS = ("REPRO_BENCH_FAST", "REPRO_HYPOTHESIS_SCALE")

#: Where ``REPRO_*`` names may be mentioned.
KNOB_MENTION_FILES = sorted(
    [
        REPO_ROOT / "README.md",
        *(REPO_ROOT / "docs").glob("*.md"),
        *(path for path in (REPO_ROOT / "examples").iterdir() if path.is_file()),
    ]
)

_KNOB_RE = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9](?:_\*)?")


def _shown_default(default) -> str:
    if default is None or default == "":
        return "unset"
    if isinstance(default, bool):
        return f"`{int(default)}`"
    return f"`{default}`"


def _knob_table_rows() -> dict:
    """``{knob name: shown default}`` for each row of the one knob table."""
    rows = {}
    for line in (REPO_ROOT / "docs/serving.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[0].startswith("`REPRO_"):
            rows[cells[0].strip("`")] = cells[1]
    return rows


def _bound_knobs(*classes) -> list:
    """The knobs bound to fields of the given config dataclasses."""
    import dataclasses

    return [
        field.metadata["knob"]
        for cls in classes
        for field in dataclasses.fields(cls)
        if "knob" in field.metadata
    ]


def test_knob_table_matches_settings():
    """The one knob table and every knob mention agree with ``repro.settings``.

    Every declared knob has a row in docs/serving.md showing its declared
    default, and every ``REPRO_*`` name mentioned in the docs, the README or
    the examples is declared (or is a harness knob), so a removed knob
    cannot leave a stale row or mention behind.
    """
    from repro.settings import KNOBS

    rows = _knob_table_rows()
    for name, knob in KNOBS.items():
        assert name in rows, f"docs/serving.md has no knob-table row for {name}"
        assert rows[name] == _shown_default(knob.default), (
            f"docs/serving.md shows default {rows[name]} for {name}, "
            f"declared {_shown_default(knob.default)}"
        )

    known = set(KNOBS) | set(HARNESS_KNOBS)
    stale = []
    for path in KNOB_MENTION_FILES:
        for mention in set(_KNOB_RE.findall(path.read_text())):
            if mention.endswith("*"):
                ok = any(name.startswith(mention[:-1]) for name in known)
            else:
                ok = mention in known
            if not ok:
                stale.append(f"{path.relative_to(REPO_ROOT)}: {mention}")
    assert not stale, f"undeclared REPRO_* knobs mentioned: {sorted(stale)}"


def test_serving_doc_covers_every_env_knob():
    """Every process-wide knob a module names is declared and documented."""
    serving = (REPO_ROOT / "docs/serving.md").read_text()
    from repro.faults import FAULT_ENV_VAR
    from repro.runtime.cache import (
        CACHE_DIR_ENV_VAR,
        CACHE_ENABLE_ENV_VAR,
        CACHE_MAX_MB_ENV_VAR,
    )
    from repro.runtime.parallel import JOBS_ENV_VAR
    from repro.runtime.report import BENCH_ENV_VAR
    from repro.serve.registry import MODEL_DIR_ENV_VAR
    from repro.settings import KNOBS

    for variable in (
        FAULT_ENV_VAR,
        CACHE_DIR_ENV_VAR,
        CACHE_ENABLE_ENV_VAR,
        CACHE_MAX_MB_ENV_VAR,
        JOBS_ENV_VAR,
        BENCH_ENV_VAR,
        MODEL_DIR_ENV_VAR,
    ):
        assert variable in KNOBS, f"{variable} is not declared in repro.settings"
        assert variable in serving, f"docs/serving.md does not document {variable}"


def test_operations_doc_covers_every_resilience_knob():
    """Every knob of the pool and the admission controller is a row of the
    one knob table, and the operations page links that table."""
    operations = (REPO_ROOT / "docs/operations.md").read_text()
    from repro.serve.service import ServeConfig
    from repro.serve.supervisor import PoolConfig

    assert "serving.md#environment-knobs" in operations, (
        "docs/operations.md does not link the knob table"
    )
    rows = _knob_table_rows()
    resilience = _bound_knobs(ServeConfig, PoolConfig)
    assert resilience
    for variable in resilience:
        assert variable in rows, f"docs/serving.md has no knob-table row for {variable}"


def test_docs_cover_every_lifecycle_knob():
    """Every lifecycle knob is documented on both ops-facing pages."""
    operations = (REPO_ROOT / "docs/operations.md").read_text()
    from repro.lifecycle.evaluate import EVAL_REPORT_SCHEMA, EvalThresholds

    rows = _knob_table_rows()
    for variable in _bound_knobs(EvalThresholds):
        assert variable in operations, f"docs/operations.md does not document {variable}"
        assert variable in rows, f"docs/serving.md has no knob-table row for {variable}"
    assert "--refresh-s" in operations, "docs/operations.md does not document serve --refresh-s"
    # The eval-report schema tag is part of the operational contract too.
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


def test_docs_cover_strategies_and_report_schemas():
    """The optimizer page documents every strategy, the fault tooth and the
    artifact schema."""
    optimization = (REPO_ROOT / "docs/optimization.md").read_text()
    from repro.optimize.artifact import OPTIMIZE_RUN_SCHEMA
    from repro.optimize.pareto import DOMINANCE_FAULT
    from repro.optimize.search import STRATEGIES

    for strategy in STRATEGIES:
        assert f"`{strategy}`" in optimization, (
            f"docs/optimization.md does not document the {strategy} strategy"
        )
    assert OPTIMIZE_RUN_SCHEMA in optimization
    assert DOMINANCE_FAULT in optimization


#: Backticked counter names the ops-facing pages may mention.
_COUNTER_RE = re.compile(r"`((?:serve|cache|model|parallel|chaos|incremental)_[a-z0-9_]+)`")


def _emittable_counters() -> set:
    """Every counter (or derived figure) a runtime report can carry.

    The literal ``incr("...")`` names, each ``ArtifactCache``'s
    ``<prefix>_{hits,misses,stores,corrupt,evictions}``, the report's
    ``derived`` figures, and the ``serve_shed_<route>`` family.
    """
    source = "\n".join(path.read_text() for path in (REPO_ROOT / "src").rglob("*.py"))
    names = set(re.findall(r'incr\(\s*"([a-z0-9_]+)"', source))
    names |= set(re.findall(r'derived\["([a-z0-9_]+)"\]', source))
    prefixes = {"cache", *re.findall(r'counter_prefix="([a-z_]+)"', source)}
    names |= {
        f"{prefix}_{event}"
        for prefix in prefixes
        for event in ("hits", "misses", "stores", "corrupt", "evictions")
    }
    return names | {"serve_shed_predict", "serve_shed_whatif"}


def test_documented_counters_exist():
    """Every counter docs/operations.md or docs/serving.md names is one the
    source can emit, so a removed counter cannot outlive its code."""
    known = _emittable_counters()
    stale = [
        f"{doc}: {name}"
        for doc in ("docs/operations.md", "docs/serving.md")
        for name in sorted(set(_COUNTER_RE.findall((REPO_ROOT / doc).read_text())))
        if name not in known
    ]
    assert not stale, f"documented counters no code emits: {stale}"
