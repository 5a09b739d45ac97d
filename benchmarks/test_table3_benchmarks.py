"""Table 3: benchmark suite summary (designs, sizes, endpoints, HDL family)."""

from collections import defaultdict

from benchmarks.conftest import print_table
from repro.core.dataset import dataset_summary
from repro.hdl.generate import BENCHMARK_SPECS


def test_table3_benchmark_summary(dataset_records, benchmark):
    spec_of = {spec.name: spec for spec in BENCHMARK_SPECS}

    def compute():
        per_suite = defaultdict(lambda: {"designs": 0, "gates": [], "endpoints": [], "hdl": ""})
        for row in dataset_summary(dataset_records):
            spec = spec_of[row["name"]]
            suite = {
                "itc99": "ITC'99",
                "opencores": "OpenCores",
                "chipyard": "Chipyard",
                "vexriscv": "VexRiscv",
            }[spec.family]
            entry = per_suite[suite]
            entry["designs"] += 1
            entry["gates"].append(row["n_gates"])
            entry["endpoints"].append(row["n_endpoints"])
            entry["hdl"] = spec.hdl_type
        return per_suite

    per_suite = benchmark(compute)
    rows = []
    for suite, entry in sorted(per_suite.items()):
        rows.append(
            [
                suite,
                entry["designs"],
                f"{min(entry['gates']):.0f} - {max(entry['gates']):.0f}",
                f"{min(entry['endpoints']):.0f} - {max(entry['endpoints']):.0f}",
                entry["hdl"],
            ]
        )
    print_table(
        "Table 3: benchmark design information (scaled-down synthetic suite)",
        ["Suite", "#Designs", "Gates", "Endpoints", "HDL"],
        rows,
    )
    assert sum(entry["designs"] for entry in per_suite.values()) == 21
    assert set(per_suite) == {"ITC'99", "OpenCores", "Chipyard", "VexRiscv"}
