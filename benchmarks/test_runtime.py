"""Section 4.5: runtime analysis.

The paper reports that RTL-Timer's whole evaluation costs a small fraction of
the default synthesis runtime (RTL processing ~4 %, inference < 0.1 s) and
that the option-driven optimization flow extends synthesis runtime by ~45 %.
This benchmark measures the same ratios on our substrate.
"""

import time

from benchmarks.conftest import FAST_CONFIG, print_table
from repro.core import RTLTimer
from repro.core.features import extract_path_dataset
from repro.core.optimize import options_from_ranking, ranking_from_labels
from repro.core.sampling import SamplingConfig
from repro.bog.transforms import build_variants
from repro.synth.flow import synthesize_bog
from repro.synth.optimizer import SynthesisOptions


def test_runtime_fractions(dataset_records, benchmark):
    # Train on a prefix of the suite, evaluate runtime on one mid-size design.
    train = dataset_records[:8]
    record = dataset_records[10]
    timer = RTLTimer(FAST_CONFIG).fit(train)

    # Default synthesis runtime (label flow).
    started = time.perf_counter()
    default = synthesize_bog(record.sog, record.clock, SynthesisOptions(seed=3), seed=3)
    synthesis_runtime = time.perf_counter() - started

    # RTL processing runtime: representation construction + path sampling/features.
    started = time.perf_counter()
    build_variants(record.design)
    for variant in record.pseudo_networks:
        extract_path_dataset(record, variant, SamplingConfig())
    rtl_processing_runtime = time.perf_counter() - started

    # Model inference runtime.
    inference_runtime = benchmark.pedantic(
        lambda: timer.predict(record).runtime_seconds, rounds=1, iterations=1
    )

    # Optimization flow runtime overhead.
    ranking = ranking_from_labels(record)
    started = time.perf_counter()
    optimized = synthesize_bog(record.sog, record.clock, options_from_ranking(ranking, seed=3), seed=3)
    optimized_runtime = time.perf_counter() - started

    rows = [
        ["default synthesis (s)", f"{synthesis_runtime:.2f}"],
        ["RTL processing (s)", f"{rtl_processing_runtime:.2f}"],
        ["model inference (s)", f"{inference_runtime:.2f}"],
        ["RTL-Timer total / synthesis", f"{(rtl_processing_runtime + inference_runtime) / synthesis_runtime:.2f}x"],
        ["optimized synthesis (s)", f"{optimized_runtime:.2f}"],
        ["optimization overhead", f"{(optimized_runtime / synthesis_runtime - 1.0) * 100.0:+.0f}%"],
        ["sizing passes (default / optimized)", f"{default.trace.passes} / {optimized.trace.passes}"],
        ["upsized cells (default / optimized)", f"{default.trace.upsized} / {optimized.trace.upsized}"],
    ]
    print_table("Section 4.5: runtime analysis (design " + record.name + ")", ["Quantity", "Value"], rows)

    # Shape: evaluation is cheap in absolute terms and the option-driven
    # synthesis flow does more work than the default flow.  (The paper's "4 %
    # of synthesis runtime" ratio does not transfer directly: our pure-Python
    # synthesis substrate is itself tiny on these scaled-down designs, so the
    # ratio is dominated by Python overhead rather than tool work.)  The extra
    # work is asserted as sizing passes and upsized cells, not as a ratio of
    # two ~25 ms wall clocks, which a scheduling hiccup can flip.
    assert inference_runtime < 5.0
    assert rtl_processing_runtime < 60.0
    assert optimized.trace.passes > default.trace.passes
    assert optimized.trace.upsized > default.trace.upsized
