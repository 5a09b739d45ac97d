"""Model registry: estimator state round-trips, bundles, corruption rejection."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    BitwiseConfig,
    OverallConfig,
    RTLTimer,
    RTLTimerConfig,
    SignalwiseConfig,
)
from repro.core.state import config_from_state, config_to_state
from repro.ml import (
    DecisionTreeRegressor,
    GNNRegressor,
    GradientBoostingRegressor,
    GraphData,
    LambdaMARTRanker,
    MLPRegressor,
    MinMaxScaler,
    NewtonTreeRegressor,
    StandardScaler,
    TargetScaler,
    TransformerPathRegressor,
    estimator_from_state,
)
from repro.ml.gbm import HuberObjective
from repro.serve.registry import (
    MODEL_BUNDLE_SCHEMA,
    ModelRegistry,
    RegistryError,
    bundle_id_for,
    read_bundle_file,
    state_payload,
    write_bundle_file,
)

rng = np.random.default_rng(7)
X = rng.normal(size=(160, 5))
y = 2.0 * X[:, 0] + np.sin(X[:, 1]) + 0.05 * rng.normal(size=160)


#: Small fast-training config shared by the RTLTimer round-trip tests.
TINY_TIMER_CONFIG = RTLTimerConfig(
    bitwise=BitwiseConfig(n_estimators=10, max_depth=4, max_train_endpoints_per_design=40),
    signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
    overall=OverallConfig(n_estimators=8),
)


@pytest.fixture(scope="module")
def tiny_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


# ---------------------------------------------------------------------------
# Estimator-level round trips (every estimator type, bit-identical)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: DecisionTreeRegressor(max_depth=5).fit(X, y),
        lambda: DecisionTreeRegressor(splitter="exact", max_depth=4).fit(X, y),
        lambda: NewtonTreeRegressor(max_depth=4).fit(X, y),
        lambda: GradientBoostingRegressor(n_estimators=12, subsample=0.8).fit(X, y),
        lambda: GradientBoostingRegressor(
            n_estimators=8, objective=HuberObjective(delta=0.7), splitter="exact"
        ).fit(X, y),
    ],
    ids=["tree-hist", "tree-exact", "newton-tree", "gbm", "gbm-huber-exact"],
)
def test_regressor_state_roundtrip_bit_identical(build):
    model = build()
    restored = estimator_from_state(model.to_state())
    assert type(restored) is type(model)
    assert np.array_equal(model.predict(X), restored.predict(X))


def test_tree_state_restores_recursive_reference():
    """The restored flat arrays, walked row by row, predict identically."""
    model = DecisionTreeRegressor(max_depth=6).fit(X, y)
    restored = estimator_from_state(model.to_state())
    assert np.array_equal(restored.predict_recursive(X), model.predict(X))


def test_gbm_state_drops_training_objective_but_keeps_predictions():
    from repro.ml.losses import GroupedMaxSquaredError

    groups = np.arange(len(y)) // 4
    objective = GroupedMaxSquaredError(groups, np.maximum.reduceat(y, np.arange(0, len(y), 4)))
    model = GradientBoostingRegressor(n_estimators=6, objective=objective)
    model.fit(X, objective.row_targets())
    state = model.to_state()
    assert state["params"]["objective_descriptor"]["type"] == "GroupedMaxSquaredError"
    restored = GradientBoostingRegressor.from_state(state)
    assert np.array_equal(model.predict(X), restored.predict(X))


def test_lambdamart_state_roundtrip_bit_identical():
    relevance = (y > np.median(y)).astype(int) + (y > np.percentile(y, 80)).astype(int)
    queries = [f"q{i % 4}" for i in range(len(y))]
    model = LambdaMARTRanker(n_estimators=6).fit(X, relevance, queries)
    restored = estimator_from_state(model.to_state())
    assert np.array_equal(model.predict(X), restored.predict(X))
    assert np.array_equal(model.rank(X), restored.rank(X))


def test_mlp_state_roundtrip_bit_identical():
    model = MLPRegressor(hidden_sizes=(12,), epochs=6).fit(X, y)
    restored = estimator_from_state(model.to_state())
    assert np.array_equal(model.predict(X), restored.predict(X))


def test_transformer_state_roundtrip_bit_identical():
    sequences = [rng.normal(size=(int(n), 4)) for n in rng.integers(2, 6, size=48)]
    globals_ = rng.normal(size=(48, 3))
    targets = rng.normal(size=48)
    model = TransformerPathRegressor(epochs=3, d_model=8, d_ff=8, head_hidden=8)
    model.fit(sequences, globals_, targets)
    restored = estimator_from_state(model.to_state())
    assert np.array_equal(
        model.predict(sequences, globals_), restored.predict(sequences, globals_)
    )


def test_gnn_state_roundtrip_bit_identical():
    graph = GraphData(
        "g",
        rng.normal(size=(12, 4)),
        edge_src=[0, 1, 2, 3, 4],
        edge_dst=[5, 5, 6, 7, 7],
        endpoint_nodes=[8, 9],
        endpoint_targets=[1.0, 2.0],
    )
    model = GNNRegressor(epochs=4, hidden_size=8, n_layers=2).fit_graphs([graph])
    restored = estimator_from_state(model.to_state())
    assert np.array_equal(model.predict_graph(graph), restored.predict_graph(graph))


def test_scaler_state_roundtrips():
    for scaler, data in [(StandardScaler(), X), (MinMaxScaler(), X), (TargetScaler(), y)]:
        scaler.fit(data)
        restored = estimator_from_state(scaler.to_state())
        assert np.array_equal(scaler.transform(data), restored.transform(data))


def test_unfitted_estimator_has_no_state():
    with pytest.raises(RuntimeError, match="must be fitted"):
        GradientBoostingRegressor().to_state()


def test_unknown_estimator_state_rejected():
    with pytest.raises(ValueError, match="unknown estimator"):
        estimator_from_state({"estimator": "EvilModel", "params": {}, "fitted": {}})
    with pytest.raises(ValueError, match="state is for estimator"):
        MLPRegressor.from_state({"estimator": "GNNRegressor", "params": {}, "fitted": {}})


def test_config_state_roundtrip():
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=17, variants=("sog", "aig"), mlp_hidden=(32, 16)),
        signalwise=SignalwiseConfig(ranker_estimators=33),
    )
    assert config_from_state(config_to_state(config)) == config


def test_bundle_with_removed_config_field_fails_as_registry_error(tiny_timer, tmp_path):
    """A bundle whose config carries a field this version no longer has
    (one written before the field was removed) is refused by name."""
    path = tmp_path / "model.bundle"
    write_bundle_file(tiny_timer, path)
    bundle = pickle.loads(path.read_bytes())
    state = pickle.loads(bundle["payload"])
    state["config"]["fields"]["bitwise"]["fields"]["splitter"] = "hist"
    bundle["payload"] = state_payload(state)
    bundle["manifest"]["bundle_id"] = bundle_id_for(bundle["payload"])
    path.write_bytes(pickle.dumps(bundle))
    with pytest.raises(RegistryError, match="BitwiseConfig.*'splitter'"):
        read_bundle_file(path)


# ---------------------------------------------------------------------------
# RTLTimer bundles and the registry
# ---------------------------------------------------------------------------


def test_rtltimer_state_roundtrip_bit_identical(tiny_timer, tiny_records):
    restored = RTLTimer.from_state(tiny_timer.to_state())
    held_out = tiny_records[4]
    original = tiny_timer.predict(held_out)
    reloaded = restored.predict(held_out)
    assert reloaded.bitwise_arrival == original.bitwise_arrival
    assert reloaded.signal_arrival == original.signal_arrival
    assert reloaded.signal_ranking == original.signal_ranking
    assert reloaded.signal_slack == original.signal_slack
    assert reloaded.rank_group == original.rank_group
    assert reloaded.overall == original.overall
    assert restored.config == tiny_timer.config
    assert restored.training_designs_ == tiny_timer.training_designs_


def test_bundle_file_roundtrip_and_tampering(tiny_timer, tiny_records, tmp_path):
    path = tmp_path / "model.bundle"
    bundle_id = tiny_timer.save(path)
    assert len(bundle_id) == 64
    loaded = RTLTimer.load(path)
    held_out = tiny_records[4]
    assert loaded.predict(held_out).overall == tiny_timer.predict(held_out).overall

    # Flip payload bytes: the content hash no longer matches -> rejected.
    bundle = pickle.loads(path.read_bytes())
    payload = bundle["payload"]
    bundle["payload"] = payload[:100] + bytes([payload[100] ^ 0xFF]) + payload[101:]
    path.write_bytes(pickle.dumps(bundle))
    with pytest.raises(RegistryError, match="corrupted bundle"):
        read_bundle_file(path)

    # Truncated garbage is rejected, not half-parsed.
    path.write_bytes(b"not a pickle at all")
    with pytest.raises(RegistryError, match="pickled bundle"):
        read_bundle_file(path)


def test_bundle_manifest_schema_checked(tiny_timer, tmp_path):
    path = tmp_path / "model.bundle"
    write_bundle_file(tiny_timer, path)
    bundle = pickle.loads(path.read_bytes())
    assert bundle["manifest"]["schema"] == MODEL_BUNDLE_SCHEMA

    del bundle["manifest"]["created_at"]
    path.write_bytes(pickle.dumps(bundle))
    with pytest.raises(RegistryError, match="missing the 'created_at'"):
        read_bundle_file(path)

    bundle["manifest"]["created_at"] = 0.0
    bundle["manifest"]["schema"] = "repro-model-bundle/999"
    path.write_bytes(pickle.dumps(bundle))
    with pytest.raises(RegistryError, match="unsupported bundle schema"):
        read_bundle_file(path)


def test_registry_versioning_and_resolution(tiny_timer, tiny_records, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    first = registry.save(tiny_timer, "tiny")

    # Identical content re-registered -> no new version.
    again = registry.save(tiny_timer, "tiny")
    assert again["bundle_id"] == first["bundle_id"]
    assert [v["version"] for v in registry.list_models()["tiny"]] == [1]

    # A genuinely different model becomes version 2 and the new latest.
    other = RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:3])
    second = registry.save(other, "tiny")
    assert second["bundle_id"] != first["bundle_id"]
    assert [v["version"] for v in registry.list_models()["tiny"]] == [1, 2]
    assert registry.resolve("tiny") == second["bundle_id"]
    assert registry.resolve("tiny@1") == first["bundle_id"]
    assert registry.resolve(first["bundle_id"]) == first["bundle_id"]

    held_out = tiny_records[4]
    assert registry.load("tiny@1").predict(held_out).overall == tiny_timer.predict(held_out).overall

    manifest = registry.manifest("tiny@1")
    assert manifest["training_designs"] == [r.name for r in tiny_records[:4]]

    with pytest.raises(RegistryError, match="no version 9"):
        registry.resolve("tiny@9")
    with pytest.raises(RegistryError, match="unknown model"):
        registry.resolve("never-registered")


def test_registry_rejects_reserved_name_characters(tiny_timer, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    for bad in ("", "a/b", ".hidden", "name@1"):
        with pytest.raises(ValueError, match="invalid model name"):
            registry.save(tiny_timer, bad)


def test_registry_save_repairs_missing_blob(tiny_timer, tmp_path):
    """A dedup'd save must restore a deleted/corrupt blob, not fail forever."""
    registry = ModelRegistry(tmp_path / "models")
    manifest = registry.save(tiny_timer, "tiny")
    registry.cache.path_for(manifest["bundle_id"]).unlink()
    with pytest.raises(RegistryError):
        registry.load("tiny")

    repaired = registry.save(tiny_timer, "tiny")
    assert repaired["bundle_id"] == manifest["bundle_id"]
    assert [v["version"] for v in registry.list_models()["tiny"]] == [1]
    assert registry.load("tiny").training_designs_ == tiny_timer.training_designs_


def test_registry_rejects_corrupted_stored_bundle(tiny_timer, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    manifest = registry.save(tiny_timer, "tiny")
    stored = registry.cache.path_for(manifest["bundle_id"])

    bundle = pickle.loads(stored.read_bytes())
    payload = bundle["payload"]
    bundle["payload"] = payload[:-1] + bytes([payload[-1] ^ 0x01])
    stored.write_bytes(pickle.dumps(bundle))
    with pytest.raises(RegistryError, match="corrupted bundle"):
        registry.load("tiny")

    # Unreadable pickle counts as missing (the cache deletes it) -> loud error.
    stored.write_bytes(b"\x80garbage")
    with pytest.raises(RegistryError, match="missing or unreadable"):
        registry.load("tiny")


# ---------------------------------------------------------------------------
# Dedup metadata, defensive copies, missing-ref errors
# ---------------------------------------------------------------------------


def test_registry_dedup_save_merges_new_metadata(tiny_timer, tmp_path):
    """A content-dedup'd save must not silently drop freshly supplied metadata."""
    registry = ModelRegistry(tmp_path / "models")
    first = registry.save(tiny_timer, "tiny", metadata={"run": 1})
    assert first["metadata"] == {"run": 1}

    merged = registry.save(tiny_timer, "tiny", metadata={"run": 2, "ticket": "A-7"})
    assert merged["bundle_id"] == first["bundle_id"]
    assert merged["metadata"] == {"run": 2, "ticket": "A-7"}
    # Persisted, not just returned: a fresh registry object sees the merge.
    stored = ModelRegistry(tmp_path / "models").manifest("tiny")
    assert stored["metadata"] == {"run": 2, "ticket": "A-7"}
    # No new version was minted for identical content.
    assert [v["version"] for v in registry.list_models()["tiny"]] == [1]


def test_list_models_returns_defensive_copies(tiny_timer, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    manifest = registry.save(tiny_timer, "tiny")
    listing = registry.list_models()
    listing["tiny"].clear()
    listing["tiny"].append({"bundle_id": "bogus", "version": 99})
    # The mutation above must not leak into what resolve() sees.
    assert registry.resolve("tiny") == manifest["bundle_id"]
    assert [v["version"] for v in registry.list_models()["tiny"]] == [1]


def test_resolve_names_missing_bundle_id(tiny_timer, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.save(tiny_timer, "tiny")
    missing = "0" * 64
    with pytest.raises(RegistryError, match=f"bundle {missing} is not present"):
        registry.resolve(missing)


# ---------------------------------------------------------------------------
# Promotion: the name@promoted deployment pointer
# ---------------------------------------------------------------------------


def test_promote_resolve_and_rollback(tiny_timer, tiny_records, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    first = registry.save(tiny_timer, "tiny")
    other = RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:3])
    second = registry.save(other, "tiny")

    # Nothing promoted yet: the alias is a loud error, not the latest version.
    assert registry.promoted("tiny") is None
    with pytest.raises(RegistryError, match="no promoted version"):
        registry.resolve("tiny@promoted")

    entry = registry.promote("tiny", "tiny@1", eval_digest="d1", source="test")
    assert entry["bundle_id"] == first["bundle_id"]
    assert entry["version"] == 1
    assert registry.resolve("tiny@promoted") == first["bundle_id"]
    # Latest-version resolution is unaffected by the deployment pointer.
    assert registry.resolve("tiny") == second["bundle_id"]

    registry.promote("tiny", "tiny@2", eval_digest="d2")
    assert registry.resolve("tiny@promoted") == second["bundle_id"]
    assert [e["eval_digest"] for e in registry.promotion_history("tiny")] == ["d1", "d2"]

    # Re-promoting the promoted bundle is idempotent: history does not grow.
    registry.promote("tiny", "tiny@2")
    assert len(registry.promotion_history("tiny")) == 2

    restored = registry.rollback("tiny")
    assert restored["bundle_id"] == first["bundle_id"]
    assert registry.resolve("tiny@promoted") == first["bundle_id"]
    with pytest.raises(RegistryError, match="no previous promotion"):
        registry.rollback("tiny")


def test_promote_requires_registered_servable_bundle(tiny_timer, tiny_records, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.save(tiny_timer, "tiny")
    other = RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:3])
    registry.save(other, "elsewhere")

    # A bundle registered under a *different* name is not promotable here.
    with pytest.raises(RegistryError, match="not a registered version of model 'tiny'"):
        registry.promote("tiny", "elsewhere")
    with pytest.raises(RegistryError, match="no promotion to roll back"):
        registry.rollback("never-promoted")


def test_rollback_refuses_missing_previous_blob(tiny_timer, tiny_records, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    first = registry.save(tiny_timer, "tiny")
    second = registry.save(RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:3]), "tiny")
    registry.promote("tiny", "tiny@1")
    registry.promote("tiny", "tiny@2")
    registry.cache.path_for(first["bundle_id"]).unlink()
    with pytest.raises(RegistryError, match="missing from the store"):
        registry.rollback("tiny")
    # The pointer stayed on the servable bundle.
    assert registry.resolve("tiny@promoted") == second["bundle_id"]


# ---------------------------------------------------------------------------
# Concurrency: racing registrations and promotions must not lose state
# ---------------------------------------------------------------------------


class _StubTimer:
    """Minimal to_state()-able stand-in so race tests skip model fitting."""

    def __init__(self, tag: str):
        self.config = f"stub({tag})"
        self.training_designs_ = [tag]
        self._tag = tag

    def to_state(self):
        return {"stub": self._tag}


def _race_saver(directory, proc, count, barrier):
    import repro.runtime.report as report_mod_local  # noqa: F401 - import in child

    registry = ModelRegistry(directory)
    barrier.wait(timeout=30)
    for i in range(count):
        manifest = registry.save(_StubTimer(f"p{proc}-{i}"), "raced")
        registry.promote("raced", manifest["bundle_id"])


def test_concurrent_process_saves_lose_nothing(tmp_path):
    """Two flock'd processes registering+promoting under one dir keep every write."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    directory = tmp_path / "models"
    procs, per_proc = 2, 4
    barrier = context.Barrier(procs)
    workers = [
        context.Process(target=_race_saver, args=(directory, proc, per_proc, barrier))
        for proc in range(procs)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0

    registry = ModelRegistry(directory)
    versions = registry.list_models()["raced"]
    # Every distinct payload from every process made it into the index...
    assert len(versions) == procs * per_proc
    assert len({v["bundle_id"] for v in versions}) == procs * per_proc
    assert sorted(v["version"] for v in versions) == list(range(1, procs * per_proc + 1))
    # ...with its blob on disk, and the promoted alias points at one of them.
    for version in versions:
        assert registry.cache.path_for(version["bundle_id"]).exists()
    promoted = registry.promoted("raced")
    assert promoted is not None
    assert registry.cache.path_for(promoted["bundle_id"]).exists()
    history = registry.promotion_history("raced")
    assert len(history) == len({e["bundle_id"] for e in history})  # idempotent appends


def test_lockfree_fallback_keeps_index_consistent(tmp_path, monkeypatch):
    """Without flock (non-POSIX degradation) racing writers may lose updates,
    but the index must stay parseable and the promoted alias servable."""
    import threading

    import repro.serve.registry as registry_mod

    monkeypatch.setattr(registry_mod, "fcntl", None)
    directory = tmp_path / "models"
    threads_n, per_thread = 4, 6
    errors = []

    def writer(thread_id):
        registry = ModelRegistry(directory)
        try:
            for i in range(per_thread):
                manifest = registry.save(_StubTimer(f"t{thread_id}-{i}"), "raced")
                try:
                    registry.promote("raced", manifest["bundle_id"])
                except RegistryError:
                    # Documented degradation: a racing writer clobbered this
                    # registration, so the promote refuses loudly instead of
                    # pointing the alias at an unlisted bundle.
                    pass
        except Exception as exc:  # pragma: no cover - would fail the test
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors

    registry = ModelRegistry(directory)
    index_versions = registry.list_models()["raced"]  # parseable, not half-written
    assert 1 <= len(index_versions) <= threads_n * per_thread
    for version in index_versions:
        assert registry.cache.path_for(version["bundle_id"]).exists()
        assert registry.resolve(version["bundle_id"]) == version["bundle_id"]
    promoted = registry.promoted("raced")
    assert promoted is not None
    assert registry.cache.path_for(promoted["bundle_id"]).exists()
