"""Differential fuzzing subsystem: corpus, oracles, campaigns, shrinking.

Runs a small deterministic slice of the fuzz campaign in tier-1 (the full
open-ended campaign lives in the CI fuzz-smoke lane and in
``python -m repro.fuzz``), and proves the oracles' teeth with the
``REPRO_FAULT_INJECT`` debug faults: an injected divergence must be caught,
shrunk to a minimal spec, bundled as a replayable JSON artifact, and
disappear when the fault is lifted.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FAULT_ENV_VAR, fault_active
from repro.fuzz import oracles
from repro.fuzz.corpus import (
    SIZE_CLASSES,
    FuzzDesign,
    construct_profile,
    generate_fuzz_design,
)
from repro.fuzz.oracles import (
    DEFAULT_CADENCE,
    ORACLES,
    FuzzContext,
    array_vs_reference_features,
    array_vs_reference_sta,
    hist_vs_exact_gbm,
    incremental_vs_full,
    interpret_vs_simulate,
    optimize_search,
    packed_vs_scalar_sim,
)
from repro.fuzz.runner import (
    BUNDLE_SCHEMA,
    CampaignConfig,
    design_seed_for,
    main,
    replay_bundle,
    run_campaign,
    shrink_design,
)
from repro.bog.builder import build_sog
from repro.hdl.generate import BENCHMARK_SPECS, DesignSpec, GeneratorConfig, generate_design
from repro.runtime import RuntimeReport, activate


TIER1_CHECKS = ("interpret_vs_simulate", "incremental_vs_full", "hist_vs_exact_gbm")


def _tiny_campaign(tmp_path=None, **overrides) -> CampaignConfig:
    defaults = dict(
        seed=0,
        iterations=3,
        size_classes=("tiny",),
        checks=TIER1_CHECKS,
        shrink=False,
        artifacts_dir=str(tmp_path) if tmp_path is not None else None,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCorpus:
    def test_designs_are_replayable(self):
        """(seed, size_class) fully determines the generated source."""
        for size_class in SIZE_CLASSES:
            first = generate_fuzz_design(42, size_class)
            second = generate_fuzz_design(42, size_class)
            assert first.source == second.source
            assert first.spec == second.spec
            assert first.config == second.config

    def test_different_seeds_differ(self):
        sources = {generate_fuzz_design(seed, "small").source for seed in range(6)}
        assert len(sources) == 6

    def test_unknown_size_class_rejected(self):
        with pytest.raises(KeyError):
            generate_fuzz_design(0, "galactic")

    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_every_tiny_design_parses_and_analyzes(self, seed):
        """Property: any seed yields RTL the whole front end accepts."""
        fuzz = generate_fuzz_design(seed, "tiny")
        design = fuzz.analyzed()
        assert design.register_signals, "every fuzz design must contain registers"
        assert construct_profile(fuzz.source) is not None

    def test_corpus_covers_constructs_absent_from_fixed_suite(self):
        """The acceptance gate: ≥3 construct patterns none of the 21 designs use."""
        fixed = set()
        for spec in BENCHMARK_SPECS:
            fixed |= construct_profile(generate_design(spec))
        corpus_tags = set()
        for seed in range(10):
            for size_class in ("tiny", "small"):
                corpus_tags |= construct_profile(
                    generate_fuzz_design(seed, size_class).source
                )
        novel = corpus_tags - fixed
        assert len(novel) >= 3, f"corpus only adds {sorted(novel)}"
        # The specific grammar regions the corpus was built to reach.
        assert {"nested-if", "replication", "reduction-op"} <= novel
        assert "partselect-assign" in novel or "rich-compare" in novel

    def test_degenerate_shapes_appear(self):
        """The tiny class produces 1-bit and single-register designs."""
        shapes = [generate_fuzz_design(seed, "tiny").spec for seed in range(40)]
        assert any(spec.data_width == 1 for spec in shapes)
        assert any(spec.stages == 1 and spec.regs_per_stage == 1 for spec in shapes)


class TestOraclesClean:
    def test_small_campaign_is_clean(self):
        result = run_campaign(_tiny_campaign())
        assert result.ok, [v.message for v in result.violations]
        assert result.n_designs == 3
        assert set(result.oracle_runs) == set(TIER1_CHECKS)

    def test_campaign_records_fuzz_stages(self):
        report = RuntimeReport()
        with activate(report):
            result = run_campaign(_tiny_campaign(iterations=1))
        assert result.ok
        assert report.stage_calls["fuzz.campaign"] == 1
        assert report.stage_calls["fuzz.generate"] == 1
        assert report.counters["fuzz_designs"] == 1
        for check in TIER1_CHECKS:
            assert report.stage_calls[f"fuzz.oracle.{check}"] == 1

    def test_oracles_clean_on_simple_design(self, simple_source):
        """Every cheap oracle passes on the hand-written conftest design."""
        fuzz = FuzzDesign(
            seed=0,
            size_class="tiny",
            spec=DesignSpec("simple", "itc99", "Verilog", 1, 4, 1, 2, 2, 2),
            config=GeneratorConfig(),
            source=simple_source,
        )
        ctx = FuzzContext(fuzz)
        for check in TIER1_CHECKS:
            assert ORACLES[check](ctx, random.Random(0)) == []


class TestKernelOracles:
    """The array-vs-reference STA and packed-vs-scalar simulation oracles."""

    def test_kernel_oracles_registered(self):
        assert "array_vs_reference_sta" in ORACLES
        assert "packed_vs_scalar_sim" in ORACLES
        assert DEFAULT_CADENCE["array_vs_reference_sta"] == 1
        assert DEFAULT_CADENCE["packed_vs_scalar_sim"] == 1

    def test_kernel_oracles_clean_on_fixed_design(self):
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        ctx = FuzzContext(fuzz)
        assert array_vs_reference_sta(ctx, random.Random(11)) == []
        assert packed_vs_scalar_sim(ctx, random.Random(11)) == []

    def test_array_delay_fault_caught(self, monkeypatch):
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        monkeypatch.setenv(FAULT_ENV_VAR, "sta.array_delay")
        broken = array_vs_reference_sta(FuzzContext(fuzz), random.Random(11))
        assert broken, "perturbed edge delay must diverge from the reference kernel"

    def test_packed_and_fault_caught(self, monkeypatch):
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        monkeypatch.setenv(FAULT_ENV_VAR, "simulate.packed_and")
        broken = packed_vs_scalar_sim(FuzzContext(fuzz), random.Random(11))
        assert broken, "AND-as-OR in the packed evaluator must diverge from scalar"

    def test_feature_oracle_registered_and_clean(self):
        assert DEFAULT_CADENCE["array_vs_reference_features"] == 1
        for iteration in range(3):
            fuzz = generate_fuzz_design(design_seed_for(0, iteration), "small")
            assert array_vs_reference_features(FuzzContext(fuzz), random.Random(iteration)) == []

    def test_feature_oracle_reports_a_one_ulp_divergence(self, monkeypatch):
        extract = oracles.extract_path_dataset_uncached

        def off_by_one_ulp(*args):
            dataset = extract(*args)
            dataset.features[-1, -1] = np.nextafter(dataset.features[-1, -1], np.inf)
            return dataset

        monkeypatch.setattr(oracles, "extract_path_dataset_uncached", off_by_one_ulp)
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        problems = array_vs_reference_features(FuzzContext(fuzz), random.Random(0))
        assert problems and "'endpoint_pseudo_arrival'" in problems[0]

    def test_large_size_class_reaches_kernel_scale(self):
        """The ``large`` class exists to exercise the array kernels at depth."""
        assert "large" in SIZE_CLASSES
        fuzz = generate_fuzz_design(0, "large")
        sog = build_sog(fuzz.analyzed())
        assert len(sog.nodes) >= 1000


class TestCampaignBudget:
    def test_zero_budget_runs_no_designs(self):
        config = _tiny_campaign(iterations=5, max_seconds=0.0)
        result = run_campaign(config)
        assert result.n_designs == 0
        assert result.budget_exhausted
        assert result.ok
        assert "budget exhausted" in result.summary()

    def test_budget_stops_between_oracles_of_one_design(self, monkeypatch):
        """The budget is checked before every oracle run, not only before a
        design: a slow oracle that spends it stops the rest of its design."""
        calls = []

        def slow(ctx, rng):
            calls.append("slow")
            time.sleep(0.6)
            return []

        def never(ctx, rng):
            calls.append("never")
            return []

        monkeypatch.setitem(ORACLES, "slow_stub", slow)
        monkeypatch.setitem(ORACLES, "never_stub", never)
        config = _tiny_campaign(
            iterations=3, checks=("slow_stub", "never_stub"), max_seconds=0.5
        )
        result = run_campaign(config)
        assert calls == ["slow"]
        assert result.n_designs == 1
        assert result.oracle_runs == {"slow_stub": 1}
        assert result.budget_exhausted
        assert result.ok

    def test_no_budget_by_default(self):
        result = run_campaign(_tiny_campaign(iterations=1))
        assert not result.budget_exhausted
        assert "budget exhausted" not in result.summary()

    def test_cli_max_seconds_flag(self, tmp_path, capsys):
        code = main(
            [
                "--seed", "0",
                "--iterations", "4",
                "--size-classes", "tiny",
                "--checks", "interpret_vs_simulate",
                "--max-seconds", "0",
                "--artifacts-dir", str(tmp_path),
                "--bench-out", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 0
        assert "budget exhausted" in capsys.readouterr().out


class TestFaultInjection:
    def test_fault_env_parsing(self, monkeypatch):
        assert not fault_active("incremental.extra_load")
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load, interpret.add")
        assert fault_active("incremental.extra_load")
        assert fault_active("interpret.add")
        assert not fault_active("gbm.hist_threshold")

    def test_interpreter_fault_caught_by_simulation_oracle(self, simple_source, monkeypatch):
        fuzz = FuzzDesign(
            seed=0,
            size_class="tiny",
            spec=DesignSpec("simple", "itc99", "Verilog", 1, 4, 1, 2, 2, 2),
            config=GeneratorConfig(),
            source=simple_source,  # contains `a + b`, so the adder fault fires
        )
        clean = interpret_vs_simulate(FuzzContext(fuzz), random.Random(3))
        assert clean == []
        monkeypatch.setenv(FAULT_ENV_VAR, "interpret.add")
        broken = interpret_vs_simulate(FuzzContext(fuzz), random.Random(3))
        assert broken, "off-by-one adder must diverge from the bit-blasted adder"

    def test_incremental_fault_caught(self, monkeypatch):
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        assert incremental_vs_full(FuzzContext(fuzz), random.Random(5)) == []
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load")
        broken = incremental_vs_full(FuzzContext(fuzz), random.Random(5))
        assert broken, "dropped load term must diverge from full re-analysis"

    def test_gbm_fault_caught(self, monkeypatch):
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        assert hist_vs_exact_gbm(FuzzContext(fuzz), random.Random(7)) == []
        monkeypatch.setenv(FAULT_ENV_VAR, "gbm.hist_threshold")
        broken = hist_vs_exact_gbm(FuzzContext(fuzz), random.Random(7))
        assert broken, "shifted cut must diverge from the exact splitter"

    def test_fault_campaign_catches_shrinks_and_bundles(self, tmp_path, monkeypatch):
        """End-to-end: injected fault -> violation -> shrink -> replayable bundle."""
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load")
        config = _tiny_campaign(
            tmp_path,
            iterations=2,
            checks=("incremental_vs_full",),
            shrink=True,
            stop_on_first=True,
        )
        result = run_campaign(config)
        assert not result.ok
        assert result.violations[0].oracle == "incremental_vs_full"
        assert len(result.bundle_paths) == 1

        payload = json.loads((tmp_path / "bundle_seed0_incremental_vs_full.json").read_text())
        assert payload["schema"] == BUNDLE_SCHEMA
        assert payload["messages"]
        assert payload["environment"]["fault_inject"] == "incremental.extra_load"
        shrunk = payload["shrunk"]
        assert shrunk["messages"], "the shrunk design must still fail"
        original_spec, shrunk_spec = payload["spec"], shrunk["spec"]
        for field in ("stages", "regs_per_stage", "data_width", "expr_depth", "control_regs"):
            assert shrunk_spec[field] <= original_spec[field]
        assert shrunk["register_bits"] <= 4, "shrinker should reach a near-minimal design"

        # Replay reproduces under the fault and clears without it.
        assert replay_bundle(result.bundle_paths[0])
        monkeypatch.delenv(FAULT_ENV_VAR)
        assert replay_bundle(result.bundle_paths[0]) == []

    def test_optimize_oracle_registered_and_clean(self):
        assert "optimize_search" in ORACLES
        assert DEFAULT_CADENCE["optimize_search"] >= 1
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        assert optimize_search(FuzzContext(fuzz), random.Random(11)) == []

    def test_optimize_dominance_fault_caught(self, monkeypatch):
        """The fault tooth: dominated points survive insertion and the
        oracle's pure-predicate audit flags them (determinism is unaffected,
        which is what makes the failure shrinkable)."""
        fuzz = generate_fuzz_design(design_seed_for(0, 0), "tiny")
        assert optimize_search(FuzzContext(fuzz), random.Random(0)) == []
        monkeypatch.setenv(FAULT_ENV_VAR, "optimize.dominance")
        broken = optimize_search(FuzzContext(fuzz), random.Random(0))
        assert broken, "disabled dominance filtering must be detected"
        assert any("dominated" in message for message in broken)

    def test_optimize_dominance_campaign_catches_shrinks_and_bundles(
        self, tmp_path, monkeypatch
    ):
        """End-to-end for the optimizer fault: violation -> shrink -> bundle."""
        monkeypatch.setenv(FAULT_ENV_VAR, "optimize.dominance")
        config = _tiny_campaign(
            tmp_path,
            iterations=2,
            checks=("optimize_search",),
            cadence={"optimize_search": 1},
            shrink=True,
            max_shrink_trials=16,
            stop_on_first=True,
        )
        result = run_campaign(config)
        assert not result.ok
        assert result.violations[0].oracle == "optimize_search"
        assert "dominated" in result.violations[0].message
        assert len(result.bundle_paths) == 1

        payload = json.loads(
            (tmp_path / "bundle_seed0_optimize_search.json").read_text()
        )
        assert payload["schema"] == BUNDLE_SCHEMA
        assert payload["environment"]["fault_inject"] == "optimize.dominance"
        shrunk = payload["shrunk"]
        assert shrunk["messages"], "the shrunk design must still fail"
        original_spec, shrunk_spec = payload["spec"], shrunk["spec"]
        for field in ("stages", "regs_per_stage", "data_width", "expr_depth", "control_regs"):
            assert shrunk_spec[field] <= original_spec[field]

        # Replay reproduces under the fault and clears without it.
        assert replay_bundle(result.bundle_paths[0])
        monkeypatch.delenv(FAULT_ENV_VAR)
        assert replay_bundle(result.bundle_paths[0]) == []

    def test_shrink_reaches_minimal_single_register_design(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load")
        seed = design_seed_for(0, 0)
        fuzz = generate_fuzz_design(seed, "tiny")
        reduced, messages, trials = shrink_design(fuzz, "incremental_vs_full", seed)
        assert messages
        assert trials > 0
        assert reduced.spec.stages == 1
        assert reduced.spec.regs_per_stage == 1
        assert reduced.spec.data_width == 1


class TestCLI:
    def test_cli_clean_run_writes_report(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        code = main(
            [
                "--seed", "0",
                "--iterations", "1",
                "--size-classes", "tiny",
                "--checks", "interpret_vs_simulate,incremental_vs_full",
                "--artifacts-dir", str(tmp_path / "artifacts"),
                "--bench-out", str(bench),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        payload = json.loads(bench.read_text())
        assert payload["stage_calls"]["fuzz.campaign"] == 1
        assert any(name.startswith("fuzz.oracle.") for name in payload["stages"])
        assert payload["counters"]["fuzz_designs"] == 1

    def test_cli_rejects_unknown_check(self, capsys):
        assert main(["--checks", "nonsense"]) == 2
        assert "unknown checks" in capsys.readouterr().out

    def test_cli_rejects_unknown_size_class(self, capsys):
        assert main(["--size-classes", "tiny,galactic"]) == 2
        assert "unknown size classes" in capsys.readouterr().out

    def test_campaign_validates_upfront(self):
        with pytest.raises(ValueError, match="size classes"):
            run_campaign(_tiny_campaign(size_classes=("tiny", "galactic")))
        with pytest.raises(ValueError, match="unknown checks"):
            run_campaign(_tiny_campaign(checks=("nonsense",)))

    def test_cli_fault_run_fails_and_writes_bundle(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load")
        code = main(
            [
                "--seed", "0",
                "--iterations", "1",
                "--size-classes", "tiny",
                "--checks", "incremental_vs_full",
                "--no-shrink",
                "--artifacts-dir", str(tmp_path),
                "--bench-out", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out
        assert list(tmp_path.glob("bundle_*.json"))
