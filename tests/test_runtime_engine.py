"""Tests for the execution engine: cache, parallel builds, batch inference."""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import os
import pickle
import re
from pathlib import Path

import pytest

import repro
from repro.core import RTLTimer, RTLTimerConfig, BitwiseConfig, build_dataset, build_dataset_serial
from repro.core.dataset import DatasetConfig, build_design_record
from repro.faults import FAULT_ENV_VAR, fault_fires
from repro.fuzz.corpus import generate_fuzz_design
from repro.runtime import (
    ArtifactCache,
    RuntimeReport,
    SourceItem,
    activate,
    build_dataset_parallel,
    incr,
    record_fingerprint,
    record_key,
    resolve_jobs,
    stage,
)
from repro.runtime.cache import _CODE_SCOPE, PICKLE_PROTOCOL, code_paths

from tests.conftest import TINY_SPECS


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(directory=tmp_path / "cache", enabled=True)


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip_and_stats(cache):
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert cache.put(key, {"value": [1, 2, 3]})
    assert cache.get(key) == {"value": [1, 2, 3]}
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_cache_disabled_never_hits(tmp_path):
    cache = ArtifactCache(directory=tmp_path, enabled=False)
    key = "cd" + "0" * 62
    assert not cache.put(key, "value")
    assert cache.get(key) is None
    assert cache.stats.hits == 0
    assert cache.stats.misses == 1
    assert not any(tmp_path.rglob("*.pkl"))


def test_cache_corrupt_entry_is_a_miss_and_removed(cache):
    key = "ef" + "0" * 62
    cache.put(key, "good")
    path = cache.path_for(key)
    path.write_bytes(b"not a pickle")
    assert cache.get(key, "fallback") == "fallback"
    assert not path.exists()
    # The next build stores a fresh entry.
    assert cache.load_or_build(key, lambda: "rebuilt") == "rebuilt"
    assert cache.get(key) == "rebuilt"


def test_load_or_build_builds_once(cache):
    key = "01" + "0" * 62
    calls = []

    def builder():
        calls.append(1)
        return "value"

    assert cache.load_or_build(key, builder) == "value"
    assert cache.load_or_build(key, builder) == "value"
    assert len(calls) == 1


def test_cache_put_swallows_unpicklable_values(cache):
    key = "23" + "0" * 62
    assert not cache.put(key, lambda: None)  # lambdas cannot be pickled
    assert cache.get(key) is None
    assert cache.stats.stores == 0


def test_cache_prune_evicts_oldest_until_under_budget(cache):
    for index in range(5):
        key = f"{index:02d}" + "a" * 62
        cache.put(key, b"x" * 1000)
        path = cache.path_for(key)
        os.utime(path, (index, index))  # deterministic mtime order
    total = sum(p.stat().st_size for p in cache.directory.rglob("*.pkl"))
    per_entry = total // 5
    deleted = cache.prune(max_bytes=per_entry * 2)
    assert deleted == 3
    survivors = sorted(p.name[:2] for p in cache.directory.rglob("*.pkl"))
    assert survivors == ["03", "04"]  # newest two remain
    assert cache.prune(max_bytes=per_entry * 2) == 0  # already under budget


def test_cache_prune_is_a_noop_when_disabled(tmp_path):
    writer = ArtifactCache(directory=tmp_path, enabled=True)
    key = "45" + "0" * 62
    writer.put(key, b"x" * 1000)
    disabled = ArtifactCache(directory=tmp_path, enabled=False)
    assert disabled.prune(max_bytes=1) == 0
    assert writer.path_for(key).exists()


def test_built_records_carry_their_cache_key(tiny_records, simple_record, simple_source):
    """A record's build key is the key the artifact cache stores it under."""
    assert tiny_records[0].key == record_key(TINY_SPECS[0], DatasetConfig())
    assert simple_record.key == record_key(simple_source, None, "simple")
    assert simple_record.key != record_key(simple_source)  # the name is part of it
    renamed = build_design_record(TINY_SPECS[0], name="renamed")
    assert renamed.name == "renamed" and renamed.key != tiny_records[0].key


def test_record_key_invalidation():
    spec = TINY_SPECS[0]
    base = record_key(spec, DatasetConfig())
    assert base == record_key(spec, DatasetConfig())
    # Any change to the spec, the config or the source text changes the key.
    assert record_key(dataclasses.replace(spec, seed=spec.seed + 1), DatasetConfig()) != base
    assert record_key(spec, DatasetConfig(clock_utilization=0.5)) != base
    assert record_key("module m(); endmodule", name="m") != base
    assert record_key("module m(); endmodule", name="m") != record_key(
        "module m(clk); input clk; endmodule", name="m"
    )


class _ClassRecorder(pickle.Unpickler):
    """An unpickler that notes the module of every ``repro`` class it loads."""

    def __init__(self, blob: bytes):
        super().__init__(io.BytesIO(blob))
        self.modules = set()

    def find_class(self, module, name):
        if module.split(".")[0] == "repro":
            self.modules.add(module)
        return super().find_class(module, name)


def test_record_pickle_classes_are_in_the_code_scope(tiny_record):
    """A cached record holds only classes whose source the record key digests.

    Changing the layout of a pickled class then invalidates every cached
    record instead of leaving stale ones.
    """
    recorder = _ClassRecorder(pickle.dumps(tiny_record, protocol=PICKLE_PROTOCOL))
    recorder.load()
    scope = {path.resolve() for path in code_paths()}
    outside = [
        module
        for module in sorted(recorder.modules)
        if Path(importlib.import_module(module).__file__).resolve() not in scope
    ]
    assert "repro.sta.engine" in recorder.modules
    assert outside == []


def test_ci_artifact_cache_keys_hash_the_code_scope():
    """Every CI artifact-cache key hashes exactly the record key's code scope."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
    keys = re.findall(r"key: repro-artifacts-.*hashFiles\((.*)\)", workflow.read_text())
    package = Path(repro.__file__).resolve().parent
    expected = [
        f"src/repro/{entry}/**" if (package / entry).is_dir() else f"src/repro/{entry}"
        for entry in _CODE_SCOPE
    ]
    assert keys
    for key in keys:
        assert re.findall(r"'([^']*)'", key) == expected


# ---------------------------------------------------------------------------
# Parallel + cached dataset builds
# ---------------------------------------------------------------------------


def test_parallel_build_matches_serial():
    specs = TINY_SPECS[:3]
    serial = build_dataset_serial(specs)
    disabled = ArtifactCache(enabled=False)
    parallel = build_dataset_parallel(specs, jobs=2, cache=disabled)
    assert [r.name for r in parallel] == [s.name for s in specs]
    assert [record_fingerprint(r) for r in parallel] == [record_fingerprint(r) for r in serial]
    # Element-wise equality of the user-facing artefacts, not just hashes.
    for a, b in zip(serial, parallel):
        assert a.source == b.source
        assert a.labels == b.labels
        assert a.summary() == b.summary()


def test_record_fingerprint_is_roundtrip_stable():
    record = build_dataset_serial(TINY_SPECS[:1])[0]
    reloaded = pickle.loads(pickle.dumps(record, protocol=5))
    assert record_fingerprint(record) == record_fingerprint(reloaded)


def test_build_dataset_cold_then_warm(cache):
    specs = TINY_SPECS[:2]
    report = RuntimeReport()
    cold = build_dataset(specs, cache=cache, report=report)
    assert report.counters["cache_misses"] == 2
    assert report.counters["cache_stores"] == 2
    assert report.counters["designs"] == 2

    warm = build_dataset(specs, cache=cache, report=report)
    assert report.counters["cache_hits"] == 2
    assert report.counters["designs"] == 4
    assert [record_fingerprint(r) for r in warm] == [record_fingerprint(r) for r in cold]


def _mixed_items():
    """Two benchmark specs and one fuzz design as a raw-source item."""
    fuzz = generate_fuzz_design(7, "tiny")
    return [TINY_SPECS[0], SourceItem(fuzz.source, fuzz.name), TINY_SPECS[1]]


def _serial_fingerprints(items):
    return [
        record_fingerprint(
            build_design_record(item.source, name=item.name)
            if isinstance(item, SourceItem)
            else build_design_record(item)
        )
        for item in items
    ]


def test_worker_written_entries_match_serial_build(cache):
    items = _mixed_items()
    expected = _serial_fingerprints(items)
    report = RuntimeReport()
    built = build_dataset_parallel(items, jobs=2, cache=cache, report=report)
    assert report.stage_calls["dataset.build_parallel"] == 1
    assert report.counters["cache_stores"] == len(items)
    assert [record.name for record in built] == [item.name for item in items]
    assert [record_fingerprint(record) for record in built] == expected
    # The bytes the workers pickled are the cache entries: reloading them
    # gives the same records, under the same keys /predict uses for source.
    keys = [record_key(TINY_SPECS[0]), record_key(items[1].source, None, items[1].name),
            record_key(TINY_SPECS[1])]
    assert [record.key for record in built] == keys
    reloaded = [cache.get(key) for key in keys]
    assert [record_fingerprint(record) for record in reloaded] == expected


def test_parallel_build_with_disabled_cache_writes_nothing(tmp_path):
    items = _mixed_items()
    built = build_dataset_parallel(
        items, jobs=2, cache=ArtifactCache(directory=tmp_path, enabled=False)
    )
    assert [record.name for record in built] == [item.name for item in items]
    assert not any(tmp_path.iterdir())


def test_parallel_build_survives_an_unwritable_cache(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")  # entries would need <blocker>/<xx>/: mkdir fails
    report = RuntimeReport()
    items = _mixed_items()
    built = build_dataset_parallel(
        items, jobs=2, cache=ArtifactCache(directory=blocker, enabled=True), report=report
    )
    assert [record.name for record in built] == [item.name for item in items]
    assert [record_fingerprint(record) for record in built] == _serial_fingerprints(items)
    assert "cache_stores" not in report.counters


def test_crashed_worker_on_a_source_item_is_retried_serially(cache, monkeypatch):
    items = _mixed_items()
    fuzz = items[1]
    # A fault seed that crashes the worker building the fuzz item only.
    for seed in range(200):
        monkeypatch.setenv(FAULT_ENV_VAR, f"parallel.worker_crash:p=0.5:seed={seed}")
        if fault_fires("parallel.worker_crash", token=fuzz.name) and not any(
            fault_fires("parallel.worker_crash", token=spec.name) for spec in TINY_SPECS[:2]
        ):
            break
    else:
        pytest.fail("no fault seed isolates the fuzz item")
    report = RuntimeReport()
    built = build_dataset_parallel(items, jobs=2, cache=cache, report=report)
    assert report.counters["parallel_worker_retries"] >= 1
    assert "dataset.build_retry_serial" in report.stages
    record = built[1]
    assert record.name == fuzz.name
    assert record.key == record_key(fuzz.source, None, fuzz.name)
    assert record_fingerprint(record) == _serial_fingerprints([fuzz])[0]
    assert [r.name for r in built] == [item.name for item in items]


def test_build_dataset_serial_fallback_via_jobs_env(cache, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    report = RuntimeReport()
    records = build_dataset(TINY_SPECS[:2], cache=cache, report=report)
    assert len(records) == 2
    assert "dataset.build_serial" in report.stages
    assert "dataset.build_parallel" not in report.stages


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(n_tasks=1, jobs=8) == 1
    assert resolve_jobs(n_tasks=10, jobs=2) == 2
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(n_tasks=10) == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(n_tasks=10)


# ---------------------------------------------------------------------------
# Runtime report
# ---------------------------------------------------------------------------


def test_runtime_report_stages_counters_and_json(tmp_path):
    report = RuntimeReport(meta={"suite": "unit"})
    with report.stage("outer"):
        with report.stage("inner"):
            pass
        with report.stage("inner"):
            pass
    report.incr("designs", 4)
    report.add_stage("dataset.build", 2.0)
    assert report.stage_calls["inner"] == 2
    assert report.stages["outer"] >= report.stages["inner"]
    assert report.designs_per_second() == pytest.approx(2.0)

    destination = report.write(tmp_path / "BENCH_runtime.json")
    payload = json.loads(destination.read_text())
    assert payload["schema"] == "repro-bench-runtime/1"
    assert payload["meta"]["suite"] == "unit"
    assert "REPRO_CACHE_MAX_MB" in payload["meta"]["settings"]
    assert payload["counters"]["designs"] == 4
    assert payload["derived"]["designs_per_second"] == pytest.approx(2.0)


def test_active_report_helpers_are_noops_without_activation():
    # Must not raise when no report is active.
    with stage("anything"):
        incr("anything")

    report = RuntimeReport()
    with activate(report):
        with stage("timed"):
            incr("events", 2)
    assert "timed" in report.stages
    assert report.counters["events"] == 2


def test_report_merge():
    a = RuntimeReport()
    a.add_stage("s", 1.0)
    a.incr("c", 1)
    b = RuntimeReport(meta={"origin": "b"})
    b.add_stage("s", 2.0)
    b.incr("c", 2)
    a.merge(b)
    assert a.stages["s"] == pytest.approx(3.0)
    assert a.counters["c"] == 3
    assert a.meta["origin"] == "b"


# ---------------------------------------------------------------------------
# Batched inference
# ---------------------------------------------------------------------------


TINY_TIMER_CONFIG = RTLTimerConfig(
    bitwise=BitwiseConfig(n_estimators=10, max_depth=3, seed=5),
)


def test_predict_batch_matches_predict(tiny_records):
    train, test = tiny_records[:3], tiny_records[3:]
    timer = RTLTimer(TINY_TIMER_CONFIG).fit(train)
    batch = timer.predict_batch(test)
    assert len(batch) == len(test)
    for record, batched in zip(test, batch):
        single = timer.predict(record)
        assert batched.design == single.design
        assert batched.bitwise_arrival == single.bitwise_arrival
        assert batched.signal_arrival == single.signal_arrival
        assert batched.signal_ranking == single.signal_ranking
        assert batched.signal_slack == single.signal_slack
        assert batched.rank_group == single.rank_group
        assert batched.overall == single.overall

    report = batch.report
    for name in ("inference.batch", "inference.bitwise", "inference.signalwise",
                 "inference.overall", "inference.assemble"):
        assert name in report.stages
    assert report.counters["inference_designs"] == len(test)
    # Indexing and iteration behave like the prediction list.
    assert batch[0] is batch.predictions[0]
    assert [p.design for p in batch] == [r.name for r in test]


def test_predict_batch_runtime_includes_assembly(tiny_records, monkeypatch):
    """Regression: runtime_seconds must cover every stage, assembly included,
    so batched predictions report the same quantity as predict()."""
    import time as time_mod

    train, test = tiny_records[:3], tiny_records[3:4]
    timer = RTLTimer(TINY_TIMER_CONFIG).fit(train)

    original = RTLTimer._assemble_prediction

    def slow_assemble(self, *args, **kwargs):
        time_mod.sleep(0.05)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RTLTimer, "_assemble_prediction", slow_assemble)
    batch = timer.predict_batch(test)
    assert batch[0].runtime_seconds >= 0.05
    # predict() reports the same quantity (assembly included) as the batch.
    assert timer.predict(test[0]).runtime_seconds >= 0.05


# ---------------------------------------------------------------------------
# Variant fits fan out
# ---------------------------------------------------------------------------


def _fit_under_jobs(records, jobs, tmp_path, monkeypatch, config=TINY_TIMER_CONFIG):
    """Fit a tiny timer with ``REPRO_JOBS=jobs`` on a cold feature cache.

    Returns the timer, its registry bundle id and the active report.
    """
    from repro.core.feature_cache import reset_feature_cache
    from repro.serve.registry import ModelRegistry

    monkeypatch.setenv("REPRO_JOBS", str(jobs))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{jobs}"))
    reset_feature_cache()
    report = RuntimeReport()
    try:
        with activate(report):
            timer = RTLTimer(config).fit(records)
    finally:
        reset_feature_cache()
    bundle_id = ModelRegistry(tmp_path / f"models-{jobs}").save(timer, "tiny")["bundle_id"]
    return timer, bundle_id, report


def test_variant_fits_in_workers_match_in_process_fit(tiny_records, tmp_path, monkeypatch):
    train, test = tiny_records[:3], tiny_records[3:]
    serial, serial_id, serial_report = _fit_under_jobs(train, 1, tmp_path, monkeypatch)
    pooled, pooled_id, pooled_report = _fit_under_jobs(train, 2, tmp_path, monkeypatch)
    assert "bitwise.fit_serial" in serial_report.stages
    assert pooled_report.stage_calls["bitwise.fit_parallel"] == 1
    # Models that come back from workers are pickle copies; the bundle bytes
    # must not show it.
    assert pooled_id == serial_id
    for record in test:
        assert pooled.predict(record).bitwise_arrival == serial.predict(record).bitwise_arrival
        assert pooled.predict(record).overall == serial.predict(record).overall
    # Worker-side stages and counters reach the parent's report.
    for report in (serial_report, pooled_report):
        assert report.stage_calls["ml.fit_hist"] >= len(TINY_TIMER_CONFIG.bitwise.variants)
    assert pooled_report.stage_calls["ml.fit_hist"] == serial_report.stage_calls["ml.fit_hist"]
    assert pooled_report.counters["feature_cache_misses"] == (
        serial_report.counters["feature_cache_misses"]
    )


def test_worker_fitted_mlp_bundle_matches_in_process_fit(tiny_records, tmp_path, monkeypatch):
    """The MLP shares its layer sizes with the config: a worker's copy must not."""
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(model_type="mlp", mlp_hidden=(8,), mlp_epochs=3, seed=5)
    )
    train = tiny_records[:3]
    _, serial_id, _ = _fit_under_jobs(train, 1, tmp_path, monkeypatch, config)
    _, pooled_id, _ = _fit_under_jobs(train, 2, tmp_path, monkeypatch, config)
    assert pooled_id == serial_id


def test_training_predictions_equal_predict(tiny_records):
    """The bit-wise fit hands back what predict() gives on the training set."""
    train = tiny_records[:3]
    model = RTLTimer(TINY_TIMER_CONFIG).fit(train).bitwise
    assert len(model.training_predictions_) == len(train)
    for record, predicted in zip(train, model.training_predictions_):
        assert predicted == model.predict(record)


def test_crashed_variant_fit_is_retried_serially(tiny_records, tmp_path, monkeypatch):
    train = tiny_records[:3]
    _, serial_id, _ = _fit_under_jobs(train, 1, tmp_path / "serial", monkeypatch)
    variants = TINY_TIMER_CONFIG.bitwise.variants
    # A fault seed that crashes at least one variant's worker.
    for seed in range(200):
        monkeypatch.setenv(FAULT_ENV_VAR, f"parallel.worker_crash:p=0.5:seed={seed}")
        if any(fault_fires("parallel.worker_crash", token=variant) for variant in variants):
            break
    else:
        pytest.fail("no fault seed crashes a variant fit")
    _, crashed_id, report = _fit_under_jobs(train, 2, tmp_path / "crashed", monkeypatch)
    assert report.counters["parallel_worker_retries"] >= 1
    assert "bitwise.fit_retry_serial" in report.stages
    assert crashed_id == serial_id


def test_ranked_signals_breaks_ties_deterministically():
    """Regression: equal scores must rank by name, not dict insertion order."""
    from repro.core.pipeline import RTLTimerPrediction

    ranking = {"zeta": 1.0, "alpha": 1.0, "mid": 2.0, "beta": 1.0}
    prediction = RTLTimerPrediction(
        design="d",
        bitwise_arrival={},
        signal_arrival={},
        signal_ranking=ranking,
        signal_slack={},
        rank_group={},
        overall={},
        runtime_seconds=0.0,
    )
    assert prediction.ranked_signals() == ["mid", "alpha", "beta", "zeta"]
    reversed_insertion = RTLTimerPrediction(
        design="d",
        bitwise_arrival={},
        signal_arrival={},
        signal_ranking=dict(reversed(list(ranking.items()))),
        signal_slack={},
        rank_group={},
        overall={},
        runtime_seconds=0.0,
    )
    assert reversed_insertion.ranked_signals() == prediction.ranked_signals()


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fan-out needs the fork start method",
)
def test_fan_out_drops_each_result_after_collect(monkeypatch):
    """A collected future (and the pickle its result holds) is released
    before the next result is collected, not kept to the end of the fan-out."""
    import weakref

    from repro.runtime import parallel

    refs = {}

    class Tracking(parallel.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            refs[args[1]] = weakref.ref(future)
            return future

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Tracking)
    collected = []
    alive = []

    def collect(index, value, blob):
        assert blob is not None  # a worker's result, not a serial rerun
        assert value == bytes(1000) * index
        alive.extend(j for j in collected if refs[j]() is not None)
        collected.append(index)

    parallel.fan_out(
        lambda index: bytes(1000) * index, 6, collect,
        stage="test.fan_out", token=str, jobs=2,
    )
    assert sorted(collected) == list(range(6))
    assert alive == []
