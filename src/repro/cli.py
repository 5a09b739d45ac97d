"""Unified ``python -m repro`` command-line interface.

One entry point for the whole train-once/serve-many workflow::

    python -m repro train --designs 8 --name mymodel     # fit + register
    python -m repro predict --model mymodel design.v     # one-shot inference
    python -m repro whatif  --model mymodel design.v     # option projections
    python -m repro serve   --model mymodel --port 8421  # HTTP service
    python -m repro retrain --fast --fuzz-seeds 1,2      # eval-gated canary
    python -m repro promote --model mymodel              # show/set @promoted
    python -m repro rollback --model mymodel             # undo a promotion
    python -m repro dataset --designs 21                 # benchmark suite stats
    python -m repro fuzz --seed 0 --iterations 25        # differential fuzzing

``train`` stores fitted models in the content-addressed registry
(``REPRO_MODEL_DIR``, default ``<cache dir>/models``); ``predict``,
``whatif`` and ``serve`` load them back — bit-identical to the fitted
original — so no command ever re-trains implicitly.  ``retrain`` closes
the online lifecycle loop: it registers a candidate and flips the
``name@promoted`` deployment pointer only on a no-regression eval verdict
(exit code 3 on rejection), writing a JSON eval report either way; a
server started with ``--refresh-s`` follows promotions live.  ``fuzz``
delegates to the pre-existing :mod:`repro.fuzz` runner unchanged.

See ``docs/serving.md`` for the deployment knobs and ``docs/api.md`` for
the underlying python API.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro import settings
from repro.runtime import report as report_mod

#: Default model name used by ``train`` / ``predict`` / ``serve``.
DEFAULT_MODEL_NAME = "rtl-timer"

#: Exit code of a ``retrain`` whose candidate failed the eval gate
#: (distinct from argparse's 2 so CI lanes can assert the rejection path).
EXIT_EVAL_REJECTED = 3


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _registry(args):
    from repro.serve.registry import ModelRegistry

    return ModelRegistry(args.registry) if args.registry else ModelRegistry()


def _train_config(args):
    """Translate CLI knobs into an :class:`RTLTimerConfig`.

    Delegates to :func:`repro.lifecycle.retrain.training_config`, which
    treats ``estimators`` with an explicit ``is None`` check — ``0`` is an
    error (enforced by :func:`_positive_int` at parse time as well), never
    a silent fall-through to the preset.
    """
    from repro.lifecycle.retrain import training_config

    return training_config(estimators=args.estimators, fast=args.fast, seed=args.seed)


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (``--estimators 0`` is an error)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed_list(text: str) -> List[int]:
    """argparse type: comma-separated fuzz seeds (``1,2,3``)."""
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list"
        ) from None


def _load_source_record(args, source_path: str):
    """Elaborate (or cache-load) the record for a Verilog file argument."""
    from repro.core.dataset import build_design_record
    from repro.runtime.cache import ArtifactCache, record_key

    path = Path(source_path)
    source = path.read_text()
    name = args.design_name or path.stem
    cache = ArtifactCache()
    return cache.load_or_build(
        record_key(source, None, name), lambda: build_design_record(source, name=name)
    )


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _maybe_write_report(report, path: Optional[str]) -> None:
    if path:
        destination = report.write(path)
        print(f"runtime report: {destination}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    from repro.core import RTLTimer, build_dataset
    from repro.hdl.generate import BENCHMARK_SPECS

    specs = BENCHMARK_SPECS[: args.designs] if args.designs else BENCHMARK_SPECS
    report = report_mod.RuntimeReport(meta={"command": "train", "designs": len(specs)})
    registry = _registry(args)
    with report_mod.activate(report):
        with report.stage("train.build_dataset"):
            records = build_dataset(specs, report=report)
        with report.stage("train.fit"):
            timer = RTLTimer(_train_config(args)).fit(records)
        manifest = registry.save(
            timer,
            args.name,
            metadata={"cli": True, "fast": args.fast, "designs": len(records)},
        )
    if args.out:
        timer.save(args.out)
        print(f"bundle file: {args.out}", file=sys.stderr)
    _emit(
        {
            "name": args.name,
            "bundle_id": manifest["bundle_id"],
            "registry": str(registry.directory),
            "training_designs": manifest["training_designs"],
            "fit_seconds": round(report.stage_seconds("train.fit"), 3),
        },
        None,
    )
    _maybe_write_report(report, args.bench_out)
    return 0


def cmd_predict(args) -> int:
    from repro.serve.http import prediction_to_json

    report = report_mod.RuntimeReport(meta={"command": "predict"})
    with report_mod.activate(report):
        timer = _registry(args).load(args.model)
        record = _load_source_record(args, args.source)
        with report.stage("serve.predict"):
            prediction = timer.predict(record)
    _emit(prediction_to_json(prediction), args.out)
    _maybe_write_report(report, args.bench_out)
    return 0


def cmd_whatif(args) -> int:
    report = report_mod.RuntimeReport(meta={"command": "whatif"})
    with report_mod.activate(report):
        timer = _registry(args).load(args.model)
        record = _load_source_record(args, args.source)
        with report.stage("serve.whatif"):
            estimates = timer.what_if(record, k=args.k)
    _emit(
        {
            "design": record.name,
            "candidates": [
                {
                    "index": index,
                    **{key: round(value, 6) for key, value in estimate.as_row().items()},
                    "uses_grouping": estimate.options.uses_grouping,
                    "uses_retiming": estimate.options.uses_retiming,
                }
                for index, estimate in enumerate(estimates)
            ],
        },
        args.out,
    )
    _maybe_write_report(report, args.bench_out)
    return 0


def cmd_serve(args) -> int:
    from repro.serve.http import start_server
    from repro.serve.service import ServeConfig, TimingService

    registry = _registry(args)
    timer, manifest = registry.load_with_manifest(args.model)
    config = settings.configure(ServeConfig, max_batch=args.max_batch)
    if args.workers > 0:
        from repro.serve.service import PooledTimingService
        from repro.serve.supervisor import PoolConfig

        service = PooledTimingService(
            timer,
            config,
            manifest=manifest,
            pool_config=settings.configure(PoolConfig, workers=args.workers),
            # Workers (re)load the verified registry payload, not a pickle of
            # the parent's in-memory state — exactly what a restart would see.
            payload_provider=lambda: registry.payload(args.model)[0],
        )
    else:
        service = TimingService(timer, config, manifest=manifest)
    server = start_server(service, host=args.host, port=args.port, verbose=args.verbose)
    host, port = server.server_address
    print(
        f"serving model {args.model!r} (bundle {manifest['bundle_id'][:12]}) "
        f"on http://{host}:{port} — endpoints: /predict /whatif /health /metrics",
        file=sys.stderr,
    )
    watcher = None
    refresh_s = args.refresh_s
    if refresh_s > 0:
        from repro.lifecycle.watch import PromotionWatcher

        watcher = PromotionWatcher(
            service, registry, args.model.partition("@")[0], interval_s=refresh_s
        ).start()
        print(f"following promotions of {args.model.partition('@')[0]!r} "
              f"every {refresh_s:g}s", file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if watcher is not None:
            watcher.stop()
        server.shutdown()
        service.close()
        _maybe_write_report(service.runtime_report(), args.bench_out)
    return 0


def cmd_retrain(args) -> int:
    from repro.lifecycle.retrain import RetrainConfig, run_retrain

    report = report_mod.RuntimeReport(meta={"command": "retrain", "model": args.name})
    config = RetrainConfig(
        name=args.name,
        designs=args.designs,
        extra_designs=args.extra_designs,
        fuzz_seeds=tuple(args.fuzz_seeds or ()),
        fuzz_size_class=args.fuzz_size_class,
        holdout=args.holdout,
        estimators=args.estimators,
        fast=args.fast,
        seed=args.seed,
        report_out=args.report_out,
    )
    result = run_retrain(config, registry=_registry(args), report=report)
    _emit(
        {
            "name": result["name"],
            "verdict": result["verdict"],
            "promoted": result["promoted"],
            "reasons": result["reasons"],
            "candidate_bundle_id": result["candidate"]["bundle_id"],
            "eval_digest": result["eval_report"]["digest"],
            "report_path": result["report_path"],
        },
        args.out,
    )
    _maybe_write_report(report, args.bench_out)
    return 0 if result["promoted"] else EXIT_EVAL_REJECTED


def cmd_promote(args) -> int:
    registry = _registry(args)
    name = args.model.partition("@")[0]
    if args.ref is None:
        _emit(
            {
                "name": name,
                "promoted": registry.promoted(name),
                "history": registry.promotion_history(name),
            },
            args.out,
        )
    else:
        entry = registry.promote(name, args.ref, source="manual")
        _emit({"name": name, "promoted": entry}, args.out)
    return 0


def cmd_rollback(args) -> int:
    registry = _registry(args)
    name = args.model.partition("@")[0]
    entry = registry.rollback(name)
    _emit({"name": name, "promoted": entry}, args.out)
    return 0


def cmd_optimize(args) -> int:
    from repro.core import build_dataset
    from repro.core.optimize import generate_candidates, ranking_from_labels
    from repro.hdl.generate import BENCHMARK_SPECS
    from repro.optimize import (
        SearchConfig,
        replay_artifact,
        replay_summary,
        run_search,
        write_artifact,
    )
    from repro.runtime.cache import ArtifactCache

    if args.replay:
        messages = replay_artifact(args.replay)
        _emit(replay_summary(args.replay, messages), args.out)
        return 0 if not messages else 1

    budgets = args.budgets or [8, 24]
    specs = BENCHMARK_SPECS[: args.designs]
    report = report_mod.RuntimeReport(
        meta={"command": "optimize", "designs": len(specs), "budgets": budgets}
    )
    cache = ArtifactCache()
    rows: List[dict] = []
    artifact_paths: List[str] = []
    with report_mod.activate(report):
        records = build_dataset(specs, report=report)
        for record in records:
            ranking = ranking_from_labels(record)
            for budget in budgets:
                config = settings.configure(
                    SearchConfig,
                    strategy=args.strategy,
                    budget=budget,
                    seed=args.seed,
                    reanchor_every=args.reanchor,
                )
                candidates = None
                if config.strategy == "sweep":
                    candidates = generate_candidates(ranking, k=budget, seed=config.seed)
                result = run_search(
                    record, ranking, config, cache=cache, candidates=candidates
                )
                # The quality-vs-budget curve (extended Table 6): every row is
                # deterministic for a fixed (seed, strategy, budget), so the CI
                # optimize-smoke lane diffs two runs of this command verbatim.
                rows.append(
                    {
                        "design": record.name,
                        "strategy": config.strategy,
                        "budget": budget,
                        "seed": config.seed,
                        "baseline_wns": round(result.baseline.wns, 6),
                        "baseline_area": round(result.baseline.area, 6),
                        "best_wns": round(result.best.wns, 6),
                        "best_area": round(result.best.area, 6),
                        "front_size": len(result.front),
                        "front_hypervolume": round(result.front_hypervolume(), 6),
                        "evals": result.accounting["evals"],
                        "memo_hits": result.accounting["memo_hits"],
                        "accepted": result.accounting["accepted"],
                        "anchors": result.accounting["anchors"],
                        "exhausted": result.accounting["exhausted"],
                    }
                )
                if args.artifacts:
                    artifact_paths.append(str(write_artifact(args.artifacts, result, record)))
    payload = {
        "schema": "repro-optimize-curve/1",
        "strategy": rows[0]["strategy"] if rows else None,
        "seed": args.seed,
        "budgets": budgets,
        "designs": [record.name for record in records],
        "rows": rows,
    }
    if artifact_paths:
        payload["artifacts"] = artifact_paths
    _emit(payload, args.out)
    _maybe_write_report(report, args.bench_out)
    return 0


def cmd_dataset(args) -> int:
    from repro.core import build_dataset, dataset_summary
    from repro.hdl.generate import BENCHMARK_SPECS

    specs = BENCHMARK_SPECS[: args.designs] if args.designs else BENCHMARK_SPECS
    report = report_mod.RuntimeReport(meta={"command": "dataset", "designs": len(specs)})
    with report_mod.activate(report):
        records = build_dataset(specs, jobs=args.jobs, report=report)
    summary = dataset_summary(records)
    if args.json:
        _emit({"designs": summary}, args.out)
    else:
        def fmt(value) -> str:
            return f"{value:.1f}" if isinstance(value, float) else str(value)

        columns = list(summary[0]) if summary else []
        widths = {
            column: max(len(column), *(len(fmt(row[column])) for row in summary))
            for column in columns
        }
        print("  ".join(column.ljust(widths[column]) for column in columns))
        for row in summary:
            print("  ".join(fmt(row[c]).ljust(widths[c]) for c in columns))
    _maybe_write_report(report, args.bench_out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RTL-Timer reproduction: train, predict, what-if, serve, fuzz.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common_model_args(sub, with_source: bool) -> None:
        sub.add_argument(
            "--model", default=DEFAULT_MODEL_NAME,
            help=f"model name, name@version or bundle id (default {DEFAULT_MODEL_NAME!r})",
        )
        sub.add_argument("--registry", default=None, help="registry dir (default $REPRO_MODEL_DIR)")
        sub.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
        if with_source:
            sub.add_argument("source", help="Verilog source file to evaluate")
            sub.add_argument("--design-name", default=None, help="design name (default: file stem)")
            sub.add_argument("--out", default=None, help="write the JSON result here (default stdout)")

    train = subparsers.add_parser("train", help="fit RTL-Timer and register the model")
    train.add_argument("--designs", type=int, default=8, help="training designs from the benchmark suite (default 8)")
    train.add_argument("--name", default=DEFAULT_MODEL_NAME, help=f"registry name (default {DEFAULT_MODEL_NAME!r})")
    train.add_argument("--registry", default=None, help="registry dir (default $REPRO_MODEL_DIR)")
    train.add_argument("--estimators", type=_positive_int, default=None, help="boosting rounds per stage (positive)")
    train.add_argument("--fast", action="store_true", help="small fast-training preset")
    train.add_argument("--seed", type=int, default=0, help="model seed (default 0)")
    train.add_argument("--out", default=None, help="also write a single-file bundle here")
    train.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
    train.set_defaults(handler=cmd_train)

    predict = subparsers.add_parser("predict", help="predict fine-grained timing for a Verilog file")
    common_model_args(predict, with_source=True)
    predict.set_defaults(handler=cmd_predict)

    whatif = subparsers.add_parser("whatif", help="project synthesis option candidates incrementally")
    common_model_args(whatif, with_source=True)
    whatif.add_argument("--k", type=int, default=8, help="number of candidate option sets (default 8)")
    whatif.set_defaults(handler=cmd_whatif)

    serve = subparsers.add_parser("serve", help="serve a registered model over JSON/HTTP")
    common_model_args(serve, with_source=False)
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8421, help="bind port (default 8421; 0 = OS-assigned)")
    serve.add_argument("--max-batch", type=int, default=16, help="max queued requests per model pass")
    serve.add_argument(
        "--workers", type=int, default=0,
        help="supervised worker processes (0 = in-process serving; default 0)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.add_argument(
        "--refresh-s", type=float, default=0.0,
        help="poll the promoted alias every N seconds and hot-swap the bundle "
             "(default 0: off)",
    )
    serve.set_defaults(handler=cmd_serve)

    retrain = subparsers.add_parser(
        "retrain",
        help="ingest new designs, fit a candidate, promote only on a no-regression eval",
    )
    retrain.add_argument("--name", default=DEFAULT_MODEL_NAME, help=f"registry name (default {DEFAULT_MODEL_NAME!r})")
    retrain.add_argument("--registry", default=None, help="registry dir (default $REPRO_MODEL_DIR)")
    retrain.add_argument("--designs", type=int, default=8, help="base training designs (default 8)")
    retrain.add_argument("--extra-designs", type=int, default=0, help="newly ingested benchmark designs beyond the base slice")
    retrain.add_argument("--fuzz-seeds", type=_seed_list, default=None, help="comma-separated fuzz corpus seeds to ingest (e.g. 1,2,3)")
    retrain.add_argument("--fuzz-size-class", default="small", help="size class of ingested fuzz designs (default 'small')")
    retrain.add_argument("--holdout", type=int, default=3, help="held-out designs for the eval gate (default 3)")
    retrain.add_argument("--estimators", type=_positive_int, default=None, help="boosting rounds per stage (positive)")
    retrain.add_argument("--fast", action="store_true", help="small fast-training preset")
    retrain.add_argument("--seed", type=int, default=0, help="model seed (default 0)")
    retrain.add_argument("--report-out", default=None, help="eval report path (default <registry>/eval-reports/)")
    retrain.add_argument("--out", default=None, help="write the JSON result here (default stdout)")
    retrain.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
    retrain.set_defaults(handler=cmd_retrain)

    promote = subparsers.add_parser(
        "promote", help="show or set the name@promoted deployment pointer"
    )
    promote.add_argument("ref", nargs="?", default=None, help="version/bundle to promote (omit to show the current promotion)")
    promote.add_argument("--model", default=DEFAULT_MODEL_NAME, help=f"model name (default {DEFAULT_MODEL_NAME!r})")
    promote.add_argument("--registry", default=None, help="registry dir (default $REPRO_MODEL_DIR)")
    promote.add_argument("--out", default=None, help="write the JSON result here (default stdout)")
    promote.set_defaults(handler=cmd_promote)

    rollback = subparsers.add_parser(
        "rollback", help="move name@promoted back to the previously promoted bundle"
    )
    rollback.add_argument("--model", default=DEFAULT_MODEL_NAME, help=f"model name (default {DEFAULT_MODEL_NAME!r})")
    rollback.add_argument("--registry", default=None, help="registry dir (default $REPRO_MODEL_DIR)")
    rollback.add_argument("--out", default=None, help="write the JSON result here (default stdout)")
    rollback.set_defaults(handler=cmd_rollback)

    from repro.optimize.search import STRATEGIES

    optimize = subparsers.add_parser(
        "optimize",
        help="budget-bounded search over synthesis options on the what-if engine",
    )
    optimize.add_argument("--designs", type=_positive_int, default=2, help="number of benchmark designs (default 2)")
    optimize.add_argument("--strategy", choices=list(STRATEGIES), default=None, help="search strategy (default $REPRO_OPT_STRATEGY or anneal)")
    optimize.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    optimize.add_argument("--budgets", type=_seed_list, default=None, help="comma-separated eval budgets for the quality-vs-budget curve (default 8,24)")
    optimize.add_argument("--reanchor", type=int, default=None, help="full-synthesis re-anchor cadence (default $REPRO_OPT_REANCHOR or 8)")
    optimize.add_argument("--artifacts", default=None, help="write one repro-optimize-run/1 artifact per campaign into this directory")
    optimize.add_argument("--replay", default=None, help="replay a recorded repro-optimize-run/1 artifact and verify it reproduces")
    optimize.add_argument("--out", default=None, help="write the JSON result here (default stdout)")
    optimize.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
    optimize.set_defaults(handler=cmd_optimize)

    dataset = subparsers.add_parser("dataset", help="build the benchmark dataset and print its summary")
    dataset.add_argument("--designs", type=int, default=None, help="number of designs (default: all 21)")
    dataset.add_argument("--jobs", type=int, default=None, help="worker processes (default $REPRO_JOBS)")
    dataset.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    dataset.add_argument("--out", default=None, help="write the JSON result here (default stdout)")
    dataset.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
    dataset.set_defaults(handler=cmd_dataset)

    subparsers.add_parser(
        "fuzz",
        help="differential fuzz campaigns (see `python -m repro fuzz --help`)",
        add_help=False,
    )
    subparsers.add_parser(
        "chaos",
        help="fault-injection campaign against the serving stack (see `python -m repro chaos --help`)",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    try:
        # Every knob is parsed up front: a malformed value fails here, at
        # startup, instead of on the first request that reads it.
        settings.snapshot()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if arguments and arguments[0] == "fuzz":
        # Full pass-through: the fuzz runner owns its (pre-existing) CLI.
        from repro.fuzz.runner import main as fuzz_main

        return fuzz_main(arguments[1:])
    if arguments and arguments[0] == "chaos":
        # Same pass-through pattern: the chaos harness owns its CLI.
        from repro.serve.chaos import main as chaos_main

        return chaos_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    from repro.serve.registry import RegistryError

    try:
        return args.handler(args)
    except RegistryError as exc:
        # An unknown model, a missing version or a bundle that no longer
        # restores is an operator error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1
