"""Tests for the fold-aware path-feature cache."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.feature_cache import (
    CACHE_HIT_STAGE,
    PathFeatureCache,
    feature_code_paths,
    path_feature_cache,
    path_dataset_key,
    reset_feature_cache,
)
from repro.core.features import (
    PATH_FEATURE_NAMES,
    extract_path_dataset,
    extract_path_dataset_uncached,
    path_token_sequences,
)
from repro.core.sampling import SamplingConfig
from repro.runtime import RuntimeReport, activate

EXTRACT_STAGE = "features.extract_path_dataset"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Fresh cache per test, with the disk layer pointed at a temp directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_feature_cache()
    yield
    reset_feature_cache()


@pytest.fixture
def memory_only(monkeypatch):
    """``REPRO_CACHE=0``: caches built from here on have no disk layer."""
    monkeypatch.setenv("REPRO_CACHE", "0")


def _datasets_equal(a, b):
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.endpoint_labels, b.endpoint_labels)
    assert a.endpoint_names == b.endpoint_names
    assert a.endpoint_signals == b.endpoint_signals


class TestCacheHits:
    def test_hit_returns_identical_arrays(self, tiny_record):
        report = RuntimeReport()
        with activate(report):
            miss = extract_path_dataset(tiny_record, "sog", SamplingConfig())
            hit = extract_path_dataset(tiny_record, "sog", SamplingConfig())
        _datasets_equal(miss, hit)
        assert report.stage_calls[EXTRACT_STAGE] == 1
        assert report.stage_calls[CACHE_HIT_STAGE] == 1
        assert report.counters["feature_cache_misses"] == 1
        assert report.counters["feature_cache_hits"] == 1

    def test_on_demand_tokens_line_up_with_cached_rows(self, tiny_record):
        """Tokens are not cached; the builder walks the cached dataset's paths."""
        sampling = SamplingConfig()
        extract_path_dataset(tiny_record, "sog", sampling)
        hit = extract_path_dataset(tiny_record, "sog", sampling)
        assert not hasattr(hit, "tokens")
        tokens = path_token_sequences(tiny_record, "sog", sampling)
        assert len(tokens) == hit.n_paths
        for ours, again in zip(tokens, path_token_sequences(tiny_record, "sog", sampling)):
            assert np.array_equal(ours, again)
        levels = hit.features[:, PATH_FEATURE_NAMES.index("path_n_levels")]
        assert [len(sequence) for sequence in tokens] == levels.tolist()
        # One-hot columns follow the token alphabet (AND, OR, XOR, NOT, MUX, ...).
        for column, name in enumerate(("and", "or", "xor", "not", "mux")):
            counts = [sequence[:, column].sum() for sequence in tokens]
            assert counts == hit.features[:, PATH_FEATURE_NAMES.index(f"path_n_{name}")].tolist()

    def test_hit_matches_uncached_extraction(self, tiny_record):
        extract_path_dataset(tiny_record, "sog", SamplingConfig())
        cached = extract_path_dataset(tiny_record, "sog", SamplingConfig())
        uncached = extract_path_dataset_uncached(tiny_record, "sog", SamplingConfig())
        _datasets_equal(cached, uncached)

    def test_disk_layer_survives_memory_clear(self, tiny_record):
        report = RuntimeReport()
        with activate(report):
            first = extract_path_dataset(tiny_record, "sog", SamplingConfig())
            path_feature_cache().clear()
            second = extract_path_dataset(tiny_record, "sog", SamplingConfig())
        _datasets_equal(first, second)
        assert report.stage_calls[EXTRACT_STAGE] == 1  # the disk layer answered
        assert report.counters["feature_disk_hits"] == 1

    def test_memory_only_mode_reextracts_after_clear(self, tiny_record, memory_only):
        reset_feature_cache()
        report = RuntimeReport()
        with activate(report):
            extract_path_dataset(tiny_record, "sog", SamplingConfig())
            path_feature_cache().clear()
            extract_path_dataset(tiny_record, "sog", SamplingConfig())
        assert report.stage_calls[EXTRACT_STAGE] == 2
        assert "feature_disk_stores" not in report.counters

    def test_disabled_cache_always_extracts(self, tiny_record):
        """A record without a build key is extracted without the cache."""
        unkeyed = dataclasses.replace(tiny_record, key=None)
        report = RuntimeReport()
        with activate(report):
            extract_path_dataset(unkeyed, "sog", SamplingConfig())
            extract_path_dataset(unkeyed, "sog", SamplingConfig())
        assert report.stage_calls[EXTRACT_STAGE] == 2
        assert CACHE_HIT_STAGE not in report.stage_calls
        assert "feature_cache_misses" not in report.counters
        assert path_feature_cache().n_memory_entries == 0


class TestKeys:
    def test_key_depends_on_variant_sampling_and_endpoints(self, tiny_record):
        base = path_dataset_key(tiny_record, "sog", SamplingConfig(), None)
        assert path_dataset_key(tiny_record, "aig", SamplingConfig(), None) != base
        assert (
            path_dataset_key(tiny_record, "sog", SamplingConfig(seed=5), None) != base
        )
        assert (
            path_dataset_key(tiny_record, "sog", SamplingConfig(use_sampling=False), None)
            != base
        )
        subset = tiny_record.endpoint_names[:2]
        assert path_dataset_key(tiny_record, "sog", SamplingConfig(), subset) != base

    def test_key_differs_across_records(self, tiny_records):
        keys = {
            path_dataset_key(record, "sog", SamplingConfig(), None)
            for record in tiny_records
        }
        assert len(keys) == len(tiny_records)

    def test_key_needs_a_build_key(self, tiny_record):
        with pytest.raises(ValueError, match="no build key"):
            path_dataset_key(
                dataclasses.replace(tiny_record, key=None), "sog", SamplingConfig(), None
            )

    def test_extractor_code_lies_in_the_key(self, tiny_record):
        """Every source file the extractor runs is hashed into the cache key.

        Otherwise an edit to that file would leave stale features on disk.
        """
        package = Path(repro.__file__).resolve().parent
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(Path(frame.f_code.co_filename).resolve())

        sys.setprofile(profile)
        try:
            for sampling in (SamplingConfig(), SamplingConfig(use_sampling=False)):
                extract_path_dataset_uncached(tiny_record, "sog", sampling)
        finally:
            sys.setprofile(None)
        ours = {path for path in called if package in path.parents}
        fingerprinted = {path.resolve() for path in feature_code_paths()}
        assert ours and ours <= fingerprinted, sorted(map(str, ours - fingerprinted))


class TestRecordIdentity:
    def test_directly_built_records_are_never_pickled_for_a_key(self, tiny_records, monkeypatch):
        def refuse(record):
            raise AssertionError(f"{record.name} was fingerprinted by pickling")

        # Wherever a repro module has bound the name, not only at its source.
        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro.") and hasattr(module, "record_fingerprint"):
                monkeypatch.setattr(module, "record_fingerprint", refuse)
        report = RuntimeReport()
        with activate(report):
            prediction = repro.RTLTimer().fit(tiny_records[:2]).predict(tiny_records[4])
        assert prediction.signal_arrival
        assert report.counters["feature_cache_misses"] > 0


class TestFoldCollapse:
    def test_cv_reextraction_collapses_to_one_call_per_design_variant(self, tiny_records):
        """The satellite guarantee: folds share one extraction per (design, variant)."""
        variants = ("sog", "aig")
        sampling = SamplingConfig()
        report = RuntimeReport()
        with activate(report):
            for fold in range(3):
                train = [r for i, r in enumerate(tiny_records) if i % 3 != fold]
                for record in train:
                    for variant in variants:
                        extract_path_dataset(record, variant, sampling)
        # Every record sits in exactly 2 of the 3 training folds.
        total_calls = 2 * len(tiny_records) * len(variants)
        unique = len(tiny_records) * len(variants)
        assert report.stage_calls[EXTRACT_STAGE] == unique
        assert report.stage_calls[CACHE_HIT_STAGE] == total_calls - unique
        assert report.counters["feature_cache_hits"] == total_calls - unique


class TestFailurePaths:
    def test_corrupted_disk_entry_recomputes_and_repairs(self, tiny_record):
        """A torn on-disk entry must fall back to extraction and be rewritten."""
        sampling = SamplingConfig()
        first = extract_path_dataset(tiny_record, "sog", sampling)
        cache = path_feature_cache()
        key = path_dataset_key(tiny_record, "sog", sampling, None)
        entry = cache.disk.path_for(key)
        assert entry.exists()
        entry.write_bytes(b"\x80\x04 definitely not a pickle")
        cache.clear()  # force the lookup through the (corrupt) disk layer
        report = RuntimeReport()
        with activate(report):
            second = extract_path_dataset(tiny_record, "sog", sampling)
        _datasets_equal(first, second)
        assert report.stage_calls[EXTRACT_STAGE] == 1  # recomputed, not served
        assert report.counters["feature_disk_corrupt"] == 1
        # The entry was repaired in place: a fresh cold lookup hits disk again.
        cache.clear()
        report = RuntimeReport()
        with activate(report):
            third = extract_path_dataset(tiny_record, "sog", sampling)
        _datasets_equal(first, third)
        assert EXTRACT_STAGE not in report.stage_calls
        assert report.counters["feature_disk_hits"] == 1

    def test_lru_eviction_order_under_interleaved_fold_access(self, memory_only):
        """Fold-style interleaved reuse keeps hot entries, evicts stale folds."""
        cache = PathFeatureCache(max_entries=3)
        extractions = []

        def extractor(key):
            def run():
                extractions.append(key)
                return f"dataset-{key}"

            return run

        # Fold 1 touches a,b,c; fold 2 re-touches a,c (b now coldest), then
        # brings in d, which must evict exactly b.
        for key in ("a", "b", "c", "a", "c"):
            cache.get_or_extract(key, extractor(key))
        cache.get_or_extract("d", extractor("d"))
        assert extractions == ["a", "b", "c", "d"]
        assert cache.get_or_extract("a", extractor("a")) == "dataset-a"
        assert cache.get_or_extract("c", extractor("c")) == "dataset-c"
        assert extractions == ["a", "b", "c", "d"]  # a and c were retained
        assert cache.get_or_extract("b", extractor("b")) == "dataset-b"
        assert extractions == ["a", "b", "c", "d", "b"]  # b was the eviction

    def test_unwritable_disk_layer_degrades_to_memory(self, tiny_record, tmp_path, monkeypatch):
        """A read-only cache directory must not break extraction."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = PathFeatureCache(directory=blocked / "features")
        value = cache.get_or_extract("key", lambda: "computed")
        assert value == "computed"
        assert cache.get_or_extract("key", lambda: "recomputed") == "computed"


class TestEviction:
    def test_memory_layer_bounded(self, tiny_records, memory_only):
        cache = PathFeatureCache(max_entries=2)
        for index, record in enumerate(tiny_records[:4]):
            cache.get_or_extract(str(index), lambda r=record: r.name)
        assert cache.n_memory_entries == 2

    def test_lru_keeps_recently_used(self, memory_only):
        cache = PathFeatureCache(max_entries=2)
        cache.get_or_extract("a", lambda: 1)
        cache.get_or_extract("b", lambda: 2)
        cache.get_or_extract("a", lambda: None)  # refresh "a"
        cache.get_or_extract("c", lambda: 3)  # evicts "b"
        assert cache.get_or_extract("a", lambda: "rebuilt") == 1
        assert cache.get_or_extract("b", lambda: "rebuilt") == "rebuilt"
