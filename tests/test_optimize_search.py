"""Tests for the search-based optimizer (`repro.optimize`).

Covers the tentpole contracts of the subsystem:

* seed-replay determinism — same ``(seed, strategy, budget)`` means a
  byte-identical canonical payload, across runs, STA kernels and
  ``REPRO_JOBS`` settings;
* re-anchoring — incremental drift raises :class:`DriftError` instead of
  silently corrupting a search (proved with the ``incremental.extra_load``
  fault);
* Pareto-front integrity — deterministic dominance/tie-breaking, the
  ``optimize.dominance`` fault tooth, staircase hypervolume;
* artifact round-trip — a written ``repro-optimize-run/1`` artifact replays
  to the recorded front exactly;
* edge cases — single-signal rankings, budgets exhausted mid-generation,
  all-candidates-worse searches and canonical-key collision safety.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.core.optimize import options_from_ranking, ranking_from_labels
from repro.faults import FAULT_ENV_VAR
from repro.incremental import whatif
from repro.incremental.patches import AddExtraLoad
from repro.optimize import (
    CandidateSpec,
    DriftError,
    ParetoFront,
    ParetoPoint,
    SearchConfig,
    canonical_option_key,
    canonical_payload,
    default_spec,
    dominates,
    hypervolume,
    load_artifact,
    mutate_spec,
    reference_point,
    replay_artifact,
    run_search,
    synthesis_key,
    write_artifact,
)
from repro.runtime.cache import ArtifactCache
from repro.settings import configure
from repro.synth.optimizer import PathGroup, SynthesisOptions


def _no_cache() -> ArtifactCache:
    return ArtifactCache(enabled=False)


def _search(record, ranking, **kwargs):
    config = SearchConfig(**kwargs)
    return run_search(record, ranking, config, cache=_no_cache())


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------


class TestParetoFront:
    def _point(self, wns, area, step=0, key=None):
        return ParetoPoint(
            wns=wns, tns=wns * 3, area=area, key=key or f"p{wns}/{area}", step=step
        )

    def test_dominates_requires_no_worse_and_one_better(self):
        a = self._point(-1.0, 100.0)
        assert dominates(a, self._point(-2.0, 100.0))
        assert dominates(a, self._point(-1.0, 110.0))
        assert dominates(a, self._point(-2.0, 110.0))
        assert not dominates(a, self._point(-1.0, 100.0))  # equal: no
        assert not dominates(a, self._point(-0.5, 110.0))  # trade-off: no
        assert not dominates(a, self._point(-2.0, 90.0))

    def test_insert_filters_dominated_both_ways(self):
        front = ParetoFront()
        assert front.insert(self._point(-2.0, 100.0))
        assert not front.insert(self._point(-3.0, 110.0))  # dominated: rejected
        assert front.insert(self._point(-1.0, 120.0))  # trade-off: kept
        assert front.insert(self._point(-1.0, 90.0))  # dominates both others
        assert [(p.wns, p.area) for p in front.points] == [(-1.0, 90.0)]

    def test_duplicate_objectives_first_seen_wins(self):
        front = ParetoFront()
        assert front.insert(self._point(-2.0, 100.0, key="first"))
        assert not front.insert(self._point(-2.0, 100.0, key="second"))
        assert [p.key for p in front.points] == ["first"]

    def test_sort_order_is_deterministic(self):
        front = ParetoFront()
        front.insert(self._point(-1.0, 120.0, step=5))
        front.insert(self._point(-3.0, 90.0, step=2))
        front.insert(self._point(-2.0, 100.0, step=9))
        assert [p.wns for p in front.points] == [-1.0, -2.0, -3.0]

    def test_dominance_fault_keeps_dominated_points(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "optimize.dominance")
        front = ParetoFront()
        good = self._point(-1.0, 100.0)
        bad = self._point(-2.0, 110.0)
        assert front.insert(good)
        assert front.insert(bad)  # filter disabled: the dominated point stays
        assert len(front) == 2
        # The pure predicate is untouched — that is what the oracle audits.
        assert dominates(good, bad)

    def test_hypervolume_staircase(self):
        reference = (-4.0, 200.0)
        points = [self._point(-1.0, 150.0), self._point(-2.0, 100.0)]
        # (-1 - -4) * (200-150) + (-2 - -4) * (150-100) = 150 + 100
        assert hypervolume(points, reference) == pytest.approx(250.0)
        assert hypervolume([], reference) == 0.0
        # Points outside the reference box contribute nothing.
        assert hypervolume([self._point(-9.0, 500.0)], reference) == 0.0

    def test_reference_point_tracks_baseline(self):
        baseline = self._point(-5.0, 100.0)
        wns_ref, area_ref = reference_point(baseline, period=10.0)
        assert wns_ref == pytest.approx(-6.0)
        assert area_ref == pytest.approx(125.0)


# ---------------------------------------------------------------------------
# Candidate space
# ---------------------------------------------------------------------------


class TestCandidateSpace:
    def test_default_spec_realizes_classic_options(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        classic = options_from_ranking(ranking, seed=3)
        realized = default_spec().realize(ranking, seed=3)
        assert repr(realized) == repr(classic)
        assert canonical_option_key(realized) == canonical_option_key(classic)

    def test_spec_roundtrips_through_dict(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        rng = random.Random(7)
        spec = default_spec()
        for _ in range(5):
            spec = mutate_spec(spec, ranking, rng)
        clone = CandidateSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert repr(clone.realize(ranking, seed=1)) == repr(spec.realize(ranking, seed=1))

    def test_mutations_stay_on_grid_and_in_bounds(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        rng = random.Random(11)
        spec = default_spec()
        for _ in range(64):
            spec = mutate_spec(spec, ranking, rng)
            assert list(spec.group_fractions) == sorted(spec.group_fractions)
            for fraction in spec.group_fractions:
                assert 0.01 <= fraction <= 0.95
                assert round(fraction, 2) == fraction
            assert 0.01 <= spec.retime_fraction <= 0.25
            for signal, group in spec.moves:
                assert signal in ranking
                assert 1 <= group <= spec.n_groups

    def test_canonical_key_covers_every_option_field(self):
        base = SynthesisOptions(
            effort_passes=3,
            critical_fraction=0.1,
            path_groups=[PathGroup("g1", ("a", "b"), 2.0)],
            group_effort_passes=2,
            retime_signals=["a"],
            area_recovery=True,
            area_recovery_slack_fraction=0.3,
            seed=1,
        )
        key = canonical_option_key(base)
        assert key == canonical_option_key(base)  # stable
        variants = [
            replace(base, effort_passes=4),
            replace(base, critical_fraction=0.2),
            replace(base, path_groups=[PathGroup("g1", ("a", "b"), 3.0)]),
            replace(base, group_effort_passes=1),
            replace(base, retime_signals=["b"]),
            replace(base, area_recovery=False),
            replace(base, area_recovery_slack_fraction=0.4),
            replace(base, seed=2),
        ]
        assert all(canonical_option_key(variant) != key for variant in variants)

    def test_synthesis_key_safe_under_option_mutation(self, tiny_record):
        """Mutating any option must change the cache key; equal content
        must collide (that is what makes the cache *safe*, not lucky)."""
        ranking = ranking_from_labels(tiny_record)
        options = options_from_ranking(ranking, seed=1)
        clock = tiny_record.clock
        key = synthesis_key(tiny_record, clock, options, seed=0)
        same = synthesis_key(
            tiny_record, clock, options_from_ranking(ranking, seed=1), seed=0
        )
        assert key == same
        mutated = options_from_ranking(ranking, retime_fraction=0.2, seed=1)
        assert synthesis_key(tiny_record, clock, mutated, seed=0) != key
        assert synthesis_key(tiny_record, clock, options, seed=5) != key


# ---------------------------------------------------------------------------
# Search determinism + replay
# ---------------------------------------------------------------------------


class TestSearchDeterminism:
    @pytest.mark.parametrize("strategy", ["anneal", "evolution"])
    def test_same_triple_same_canonical_payload(self, tiny_record, strategy):
        ranking = ranking_from_labels(tiny_record)
        runs = [
            _search(tiny_record, ranking, strategy=strategy, budget=10, seed=3)
            for _ in range(2)
        ]
        first, second = (canonical_payload(run) for run in runs)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_payload_invariant_to_kernel_and_jobs(self, tiny_record, monkeypatch):
        ranking = ranking_from_labels(tiny_record)

        def payload():
            result = _search(
                tiny_record, ranking, strategy="anneal", budget=8, seed=5
            )
            return json.dumps(canonical_payload(result), sort_keys=True)

        baseline = payload()
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert payload() == baseline

    def test_different_seeds_diverge(self, tiny_record):
        """Sanity: the determinism above is not because the search ignores
        its seed (seeds steer the mutation/acceptance streams)."""
        ranking = ranking_from_labels(tiny_record)
        trajectories = set()
        for seed in range(4):
            result = _search(
                tiny_record, ranking, strategy="anneal", budget=8, seed=seed
            )
            trajectories.add(
                json.dumps(canonical_payload(result)["trajectory"], sort_keys=True)
            )
        assert len(trajectories) > 1

    def test_artifact_roundtrip_replays_exactly(self, tiny_record, tmp_path):
        ranking = ranking_from_labels(tiny_record)
        result = _search(
            tiny_record, ranking, strategy="evolution", budget=8, seed=2
        )
        path = write_artifact(tmp_path, result, tiny_record)
        payload = load_artifact(path)
        assert payload["schema"] == "repro-optimize-run/1"
        assert payload["source"] == tiny_record.source
        assert replay_artifact(path, cache=_no_cache()) == []

    def test_tampered_artifact_reports_divergence(self, tiny_record, tmp_path):
        ranking = ranking_from_labels(tiny_record)
        result = _search(tiny_record, ranking, strategy="anneal", budget=6, seed=2)
        path = write_artifact(tmp_path, result, tiny_record)
        payload = load_artifact(path)
        payload["front"][0]["wns"] += 1.0
        path.write_text(json.dumps(payload))
        messages = replay_artifact(path, cache=_no_cache())
        assert any("front" in message for message in messages)


# ---------------------------------------------------------------------------
# Search behaviour + budget accounting
# ---------------------------------------------------------------------------


class TestSearchBehaviour:
    def test_anneal_improves_over_baseline(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        result = _search(tiny_record, ranking, strategy="anneal", budget=12, seed=1)
        assert result.best.wns >= result.baseline.wns
        assert len(result.front) >= 1
        assert result.accounting["evals"] <= 12
        assert result.front_hypervolume() >= 0.0

    def test_front_never_keeps_points_dominated_by_baseline(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        for strategy in ("anneal", "evolution"):
            result = _search(tiny_record, ranking, strategy=strategy, budget=10, seed=4)
            points = result.front.points
            for point in points:
                if point.key != result.baseline.key:
                    assert not dominates(result.baseline, point)
            for i, a in enumerate(points):
                for b in points[i + 1 :]:
                    assert not dominates(a, b) and not dominates(b, a)

    def test_anchors_fire_at_cadence(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        result = _search(
            tiny_record, ranking, strategy="anneal", budget=10, seed=3, reanchor_every=2
        )
        anchors = [e for e in result.trajectory if e.kind == "anchor"]
        assert result.accounting["anchors"] == len(anchors) > 0
        for anchor in anchors:
            assert anchor.drift is not None and anchor.drift <= 1e-9

    def test_drift_raises_instead_of_corrupting(self, tiny_record, monkeypatch):
        """The incremental.extra_load fault makes the incremental engine lie;
        the first re-anchor must catch it as DriftError."""
        monkeypatch.setenv(FAULT_ENV_VAR, "incremental.extra_load")
        ranking = ranking_from_labels(tiny_record)
        config = SearchConfig(strategy="anneal", budget=8, seed=1, reanchor_every=1)
        # Negative slack threshold marks every endpoint as an area-recovery
        # victim, guaranteeing AddExtraLoad patches (where the fault lives).
        monkeypatch.setattr(whatif, "RELAX_SLACK_FRACTION", -1.0)
        with pytest.raises(DriftError):
            run_search(tiny_record, ranking, config, cache=_no_cache())

    def test_single_signal_ranking(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)[:1]
        for strategy in ("anneal", "evolution"):
            result = _search(tiny_record, ranking, strategy=strategy, budget=4, seed=2)
            assert len(result.front) >= 1
            assert result.accounting["evals"] >= 1
            # Tiny spaces hit the step backstop instead of spinning forever
            # (the backstop is checked before a step; one trailing batch of
            # proposals/anchors may still land after it trips).
            assert result.accounting["steps"] <= 4 * 4 + 8

    def test_evolution_budget_exhausted_mid_generation(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        result = _search(
            tiny_record, ranking, strategy="evolution", budget=5, seed=6, mu=2, lam=6
        )
        assert result.accounting["exhausted"] is True
        assert result.accounting["evals"] == 5
        # The partial generation is still logged and selectable.
        generations = [
            e.generation
            for e in result.trajectory
            if e.kind == "eval" and e.generation is not None
        ]
        assert generations, "offspring of the partial generation must be logged"
        points = result.front.points
        for i, a in enumerate(points):
            for b in points[i + 1 :]:
                assert not dominates(a, b) and not dominates(b, a)

    def test_all_candidates_worse_keeps_baseline_only(self, tiny_record, monkeypatch):
        """When every projection strictly hurts timing at equal area, the
        returned front is exactly the default-options baseline point."""
        import repro.optimize.search as search_mod

        def pessimal_patches(netlist, report, options, config=None, path_cache=None):
            worst = min(report.endpoints, key=lambda e: e.slack)
            return [AddExtraLoad(netlist.vertices[worst.driver].id, 50.0)]

        monkeypatch.setattr(search_mod, "patches_for_options", pessimal_patches)
        ranking = ranking_from_labels(tiny_record)
        result = _search(tiny_record, ranking, strategy="anneal", budget=6, seed=1)
        assert [p.key for p in result.front.points] == ["baseline"]
        assert result.best.key == "baseline"

    def test_memo_hits_do_not_consume_budget(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)[:2]  # tiny space -> collisions
        result = _search(tiny_record, ranking, strategy="evolution", budget=6, seed=3)
        accounting = result.accounting
        assert accounting["evals"] <= 6
        evals = [e for e in result.trajectory if e.kind == "eval"]
        assert sum(1 for e in evals if not e.memo) == accounting["evals"]

    def test_config_from_env_and_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_STRATEGY", "evolution")
        monkeypatch.setenv("REPRO_OPT_REANCHOR", "3")
        monkeypatch.setenv("REPRO_OPT_AREA_WEIGHT", "0.75")
        config = configure(SearchConfig, budget=17)
        assert (config.strategy, config.budget) == ("evolution", 17)
        assert (config.reanchor_every, config.area_weight) == (3, 0.75)
        override = configure(SearchConfig, strategy="anneal", budget=9, reanchor_every=None)
        assert (override.strategy, override.budget, override.reanchor_every) == ("anneal", 9, 3)
        monkeypatch.setenv("REPRO_OPT_STRATEGY", "sideways")
        with pytest.raises(ValueError, match="sideways"):
            configure(SearchConfig)
        with pytest.raises(ValueError, match="budget"):
            SearchConfig(budget=0)

    def test_sweep_requires_candidates(self, tiny_record):
        ranking = ranking_from_labels(tiny_record)
        with pytest.raises(ValueError):
            run_search(
                tiny_record,
                ranking,
                SearchConfig(strategy="sweep", budget=4),
                cache=_no_cache(),
            )
