"""Fig. 5: per-design example b18_1 — scatter series and optimized distribution.

Reproduces the four panels as data series:
(a) pseudo-STA (RTL-STA) arrival of each representation vs post-synthesis label,
(b) bit-wise prediction vs label,
(c) signal-wise prediction vs label,
(d) arrival distribution before/after prediction-driven optimization.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.bog.graph import BOG_VARIANTS
from repro.core.metrics import pearson_r
from repro.core.optimize import run_optimization_experiment


DESIGN = "b18_1"


def test_fig5_scatter_and_distribution(cv_results, benchmark):
    record = cv_results.record(DESIGN)
    names = record.endpoint_names
    labels = np.array([record.labels[n] for n in names])

    def compute():
        series = {}
        # (a) RTL-STA of the four representations vs label.
        for variant in BOG_VARIANTS:
            arrival_of = record.pseudo_reports[variant].register_arrivals()
            arrivals = np.array([arrival_of[n] for n in names])
            series[f"rtl_sta_{variant}"] = pearson_r(labels, arrivals)
        # (b) bit-wise ensemble prediction vs label.
        bit_preds = cv_results.bitwise[DESIGN]
        series["bitwise_prediction"] = pearson_r(
            labels, np.array([bit_preds[n] for n in names])
        )
        # (c) signal-wise prediction vs label.
        signal_labels = record.signal_labels()
        signal_preds = cv_results.signal_arrival[DESIGN]
        signals = sorted(signal_labels)
        series["signalwise_prediction"] = pearson_r(
            [signal_labels[s] for s in signals], [signal_preds[s] for s in signals]
        )
        return series

    series = benchmark.pedantic(compute, rounds=1, iterations=1)

    # (d) optimized arrival distribution.
    ranking_scores = cv_results.signal_ranking[DESIGN]
    predicted_ranking = sorted(ranking_scores, key=lambda s: -ranking_scores[s])
    outcome = run_optimization_experiment(record, predicted_ranking, "predicted")
    default_arrivals = outcome.default.report.endpoint_arrivals()
    optimized_arrivals = outcome.optimized.report.endpoint_arrivals()
    bins = np.histogram_bin_edges(np.concatenate([default_arrivals, optimized_arrivals]), bins=8)
    default_hist, _ = np.histogram(default_arrivals, bins=bins)
    optimized_hist, _ = np.histogram(optimized_arrivals, bins=bins)

    rows = [[key, f"{value:.2f}"] for key, value in series.items()]
    rows.append(["default arrival histogram", " ".join(map(str, default_hist))])
    rows.append(["optimized arrival histogram", " ".join(map(str, optimized_hist))])
    rows.append(["default WNS/TNS", f"{outcome.default.wns:.1f} / {outcome.default.tns:.1f}"])
    rows.append(["optimized WNS/TNS", f"{outcome.optimized.wns:.1f} / {outcome.optimized.tns:.1f}"])
    print_table(f"Fig. 5: design example {DESIGN}", ["Series", "Value"], rows)

    # Shape: the learned bit-wise prediction correlates at least as well as the
    # best raw pseudo-STA series, and the signal-wise prediction stays strong.
    best_rtl_sta = max(series[f"rtl_sta_{v}"] for v in BOG_VARIANTS)
    assert series["bitwise_prediction"] >= best_rtl_sta - 0.1
    assert series["signalwise_prediction"] > 0.5
