"""Tests for HDL slack annotation and prediction-driven optimization."""

import re

import pytest

from repro.core.annotate import annotate_design, ranking_groups
from repro.core.metrics import DEFAULT_GROUP_FRACTIONS, criticality_groups, group_boundaries
from repro.core.optimize import (
    generate_candidates,
    options_from_ranking,
    ranking_from_labels,
    run_optimization_experiment,
    run_optimization_sweep,
    summarize_outcomes,
)
from repro.hdl.parser import parse_source
from repro.incremental.whatif import evaluate_candidates
from repro.optimize.space import canonical_option_key


class TestRankingGroups:
    def test_four_groups_assigned(self):
        scores = {f"s{i}": float(100 - i) for i in range(40)}
        groups = ranking_groups(scores)
        assert set(groups.values()) <= {1, 2, 3, 4}
        assert groups["s0"] == 1  # highest score = most critical
        assert groups["s39"] == 4

    def test_all_signals_assigned(self):
        scores = {f"s{i}": float(i) for i in range(10)}
        groups = ranking_groups(scores)
        assert set(groups) == set(scores)

    def test_tiny_rankings_start_at_group_one(self):
        """The most critical signal always lands in g1, even for tiny n."""
        for n in (1, 2, 3):
            scores = {f"s{i}": float(100 - i) for i in range(n)}
            groups = ranking_groups(scores)
            assert groups["s0"] == 1
            assert sorted(set(groups.values())) == list(range(1, len(set(groups.values())) + 1))


class TestAnnotationFallbackGroup:
    def test_unranked_signal_gets_least_critical_group(self, tiny_record):
        """Regression: a signal missing from the ranking must fall back to the
        least-critical group in use, not to the group *count* (which collides
        with a real group when fewer than four groups exist)."""
        signals = sorted(tiny_record.signal_slack_labels())
        assert len(signals) >= 3
        hot, cold, unranked = signals[0], signals[1], signals[2]
        ranking = {hot: 10.0, cold: 1.0}  # two groups: hot=g1, cold=g2
        slacks = {hot: -5.0, cold: 3.0, unranked: 1.0}
        annotated = annotate_design(
            tiny_record, slacks, ranking, {"wns": 0.0, "tns": 0.0}
        )
        ranks = dict(re.findall(r"\((\w+)\) Slack@\S+ rank@g(\d+)", annotated))
        assert ranks[hot] == "1"
        # The fallback matches the least-critical ranked signal's group...
        assert ranks[unranked] == ranks[cold]
        # ...and never collides with a more-critical group.
        assert ranks[unranked] != ranks[hot]

    def test_empty_ranking_falls_back_to_group_four(self, tiny_record):
        signal = sorted(tiny_record.signal_slack_labels())[0]
        annotated = annotate_design(
            tiny_record, {signal: 1.0}, {}, {"wns": 0.0, "tns": 0.0}
        )
        assert "rank@g4" in annotated


class TestAnnotation:
    def test_annotation_contains_header_and_signal_comments(self, tiny_record):
        signal_labels = tiny_record.signal_slack_labels()
        ranking = {s: -v for s, v in signal_labels.items()}  # worse slack = more critical
        annotated = annotate_design(
            tiny_record,
            signal_labels,
            ranking,
            {"wns": tiny_record.wns_label, "tns": tiny_record.tns_label},
        )
        assert annotated.startswith("// Tech:")
        assert "Predicted WNS" in annotated
        some_signal = next(iter(signal_labels))
        assert f"({some_signal}) Slack@" in annotated
        assert "rank@g" in annotated

    def test_annotated_source_still_parses(self, tiny_record):
        signal_labels = tiny_record.signal_slack_labels()
        ranking = {s: -v for s, v in signal_labels.items()}
        annotated = annotate_design(tiny_record, signal_labels, ranking, {"wns": 0, "tns": 0})
        module = parse_source(annotated)
        assert module.name == tiny_record.design.name

    def test_annotation_preserves_line_count(self, tiny_record):
        signal_labels = tiny_record.signal_slack_labels()
        ranking = {s: -v for s, v in signal_labels.items()}
        annotated = annotate_design(tiny_record, signal_labels, ranking, {"wns": 0, "tns": 0})
        original_lines = tiny_record.source.splitlines()
        annotated_lines = annotated.splitlines()
        assert len(annotated_lines) == len(original_lines) + 3  # three header lines


class TestOptimizationOptions:
    def test_options_from_ranking_builds_four_groups(self):
        signals = [f"sig{i}" for i in range(40)]
        options = options_from_ranking(signals)
        assert options.uses_grouping and options.uses_retiming
        assert len(options.path_groups) == 4
        grouped = [s for group in options.path_groups for s in group.signals]
        assert sorted(grouped) == sorted(signals)
        assert options.retime_signals == signals[:2]

    def test_empty_ranking_gives_default_options(self):
        options = options_from_ranking([])
        assert not options.uses_grouping and not options.uses_retiming

    @pytest.mark.parametrize("n", [1, 2, 3, 25])
    def test_group_split_matches_metric_grouping(self, n):
        """Regression: annotation grouping and synthesis options must split a
        ranking identically — both now share ``group_boundaries``."""
        signals = [f"sig{i:02d}" for i in range(n)]
        scores = [float(n - i) for i in range(n)]
        metric_sizes = [len(g) for g in criticality_groups(scores) if len(g)]
        options = options_from_ranking(signals)
        option_sizes = [len(g.signals) for g in options.path_groups]
        assert option_sizes == metric_sizes
        # Boundaries are the shared helper's output in both cases.
        boundaries = group_boundaries(n, DEFAULT_GROUP_FRACTIONS)
        assert boundaries == sorted(set(boundaries))
        assert all(1 <= b <= n for b in boundaries)
        # Every signal lands in exactly one group, most critical first.
        flattened = [s for g in options.path_groups for s in g.signals]
        assert flattened == signals

    def test_group_boundaries_tiny_and_regular(self):
        assert group_boundaries(0) == []
        assert group_boundaries(1) == [1]
        assert group_boundaries(2) == [1]
        assert group_boundaries(3) == [1, 2]
        assert group_boundaries(100) == [5, 40, 70]

    def test_ranking_from_labels_orders_by_arrival(self, tiny_record):
        ranked = ranking_from_labels(tiny_record)
        labels = tiny_record.signal_labels()
        values = [labels[s] for s in ranked]
        assert values == sorted(values, reverse=True)


class TestOptimizationExperiment:
    def test_experiment_produces_comparable_runs(self, tiny_record):
        ranked = ranking_from_labels(tiny_record)
        outcome = run_optimization_experiment(tiny_record, ranked, ranking_source="real")
        assert outcome.design == tiny_record.name
        assert outcome.default.qor.area > 0
        assert outcome.optimized.qor.area > 0
        row = outcome.as_row()
        assert {"wns_pct", "tns_pct", "power_pct", "area_pct"} <= set(row)

    def test_summary_avg1_avg2(self, tiny_record):
        ranked = ranking_from_labels(tiny_record)
        outcome = run_optimization_experiment(tiny_record, ranked)
        summary = summarize_outcomes([outcome])
        assert "avg1_tns_pct" in summary and "avg2_tns_pct" in summary
        if outcome.improved:
            assert summary["avg1_tns_pct"] == pytest.approx(summary["avg2_tns_pct"])
        else:
            assert summary["avg2_tns_pct"] == 0.0

    def test_ranking_ties_break_on_name(self):
        class FakeRecord:
            @staticmethod
            def signal_labels():
                return {"zed": 5.0, "abe": 5.0, "mid": 7.0}

        assert ranking_from_labels(FakeRecord()) == ["mid", "abe", "zed"]


class TestOptimizationSweep:
    def test_sweep_evaluates_candidates_and_synthesizes_best(self, tiny_record):
        ranked = ranking_from_labels(tiny_record)
        outcome = run_optimization_sweep(tiny_record, ranked, k=6)
        # Tiny rankings collapse some grid points; every candidate kept is a
        # genuinely distinct option set.
        assert 1 < outcome.n_candidates <= 6
        assert 0 <= outcome.chosen_index < outcome.n_candidates
        chosen = outcome.candidates[outcome.chosen_index]
        # The chosen candidate has the best projected timing of the sweep.
        assert all(
            (chosen.tns, chosen.wns) >= (other.tns, other.wns)
            for other in outcome.candidates
        )
        assert outcome.options is chosen.options
        row = outcome.as_row()
        assert row["n_candidates"] == float(outcome.n_candidates)
        assert row["estimated_tns"] == chosen.tns

    def test_sweep_estimates_are_evaluate_candidates(self, tiny_records):
        """The sweep scores exactly ``evaluate_candidates`` over the same
        generated candidates, field for field."""

        def fields(estimates):
            return [
                (canonical_option_key(e.options), e.wns, e.tns, e.n_patches, e.stats)
                for e in estimates
            ]

        for record in tiny_records:
            ranked = ranking_from_labels(record)
            outcome = run_optimization_sweep(record, ranked, k=8)
            direct = evaluate_candidates(record, generate_candidates(ranked, k=8, seed=7))
            assert outcome.n_candidates > 1
            assert fields(outcome.candidates) == fields(direct)

    def test_sweep_with_k1_matches_experiment(self, tiny_record):
        """k=1 degenerates to the paper's two-synthesis protocol."""
        ranked = ranking_from_labels(tiny_record)
        sweep = run_optimization_sweep(tiny_record, ranked, k=1)
        experiment = run_optimization_experiment(tiny_record, ranked)
        assert sweep.n_candidates == 0  # what-if projection skipped entirely
        assert sweep.wns_change_pct == experiment.wns_change_pct
        assert sweep.tns_change_pct == experiment.tns_change_pct
        assert sweep.area_change_pct == experiment.area_change_pct

    def test_sweep_synthesis_goes_through_artifact_cache(self, tiny_record, tmp_path):
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(directory=tmp_path / "cache", enabled=True)
        ranked = ranking_from_labels(tiny_record)
        first = run_optimization_sweep(tiny_record, ranked, k=2, cache=cache)
        assert cache.stats.stores == 2  # default + chosen candidate
        second = run_optimization_sweep(tiny_record, ranked, k=2, cache=cache)
        assert cache.stats.hits == 2  # both syntheses served from cache
        assert second.wns_change_pct == first.wns_change_pct
        assert second.tns_change_pct == first.tns_change_pct

    def test_generate_candidates_deterministic_and_distinct(self):
        signals = [f"sig{i}" for i in range(60)]
        first = generate_candidates(signals, k=16)
        second = generate_candidates(signals, k=16)
        assert len(first) == 16
        for a, b in zip(first, second):
            assert a.retime_signals == b.retime_signals
            assert [g.signals for g in a.path_groups] == [g.signals for g in b.path_groups]
        # Candidate 0 is the paper's configuration.
        classic = options_from_ranking(signals)
        assert first[0].retime_signals == classic.retime_signals
        assert [g.signals for g in first[0].path_groups] == [
            g.signals for g in classic.path_groups
        ]
        # Every candidate is a distinct option set (duplicates are skipped).
        distinct = {
            (
                tuple(c.retime_signals or ()),
                tuple(tuple(g.signals) for g in c.path_groups or ()),
            )
            for c in first
        }
        assert len(distinct) == len(first)
        # Tiny rankings collapse the grid instead of emitting duplicates.
        tiny = generate_candidates(["a", "b", "c"], k=32)
        assert 1 <= len(tiny) < 32
        tiny_keys = {
            (
                tuple(c.retime_signals or ()),
                tuple(tuple(g.signals) for g in c.path_groups or ()),
            )
            for c in tiny
        }
        assert len(tiny_keys) == len(tiny)

    def test_percentage_sign_convention(self, tiny_record):
        ranked = ranking_from_labels(tiny_record)
        outcome = run_optimization_experiment(tiny_record, ranked)
        # A negative WNS/TNS percentage means the violation magnitude shrank.
        if abs(outcome.optimized.tns) < abs(outcome.default.tns):
            assert outcome.tns_change_pct < 0
        else:
            assert outcome.tns_change_pct >= 0


class TestSummaryAndDedupeRegressions:
    """Regressions for satellite fixes: canonical-key dedupe in
    ``generate_candidates`` and empty-safe ``summarize_outcomes``."""

    def test_generate_candidates_dedupe_uses_canonical_keys(self):
        from repro.core.optimize import canonical_option_key

        ranking = [f"sig{i}" for i in range(40)]
        candidates = generate_candidates(ranking, k=24)
        keys = [canonical_option_key(options) for options in candidates]
        assert len(keys) == len(set(keys))
        # The canonical key is the same dedupe notion the search memoizes
        # on, so a grid candidate can never double-spend search budget.
        tiny = generate_candidates(["a", "b"], k=32)
        tiny_keys = [canonical_option_key(options) for options in tiny]
        assert len(tiny_keys) == len(set(tiny_keys))

    def test_summarize_outcomes_empty_is_well_defined(self):
        from repro.core.optimize import SUMMARY_KEYS

        summary = summarize_outcomes([])
        assert summary["n_designs"] == 0.0
        for key in SUMMARY_KEYS:
            assert summary[key] == 0.0
        # Same schema as the non-empty aggregation.
        assert set(summary) == set(SUMMARY_KEYS) | {"n_designs"}
