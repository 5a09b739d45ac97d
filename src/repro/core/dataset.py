"""Dataset construction: designs, representations, pseudo-STA and labels.

One :class:`DesignRecord` bundles everything RTL-Timer needs for a single
design:

* the word-level design parsed from (generated or user) Verilog,
* the SOG, the one BOG read after lowering (label synthesis maps it),
* the timing networks and pseudo-STA reports of all four BOG variants
  (:data:`~repro.bog.graph.BOG_VARIANTS`); the AIG, AIMG and XAG graphs
  themselves are dropped once lowered,
* the ground-truth synthesis run (default options) whose netlist STA provides
  the per-endpoint arrival-time labels, plus design WNS/TNS,
* the per-design clock constraint.

The clock period is chosen per design as a fraction of the design's maximum
post-synthesis arrival time so that every design has a realistic population
of violating endpoints (the paper assumes a fixed technology clock; the exact
period only shifts slacks by a constant and does not affect the learning
problem, which is driven by arrival times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bog.graph import BOG
from repro.bog.transforms import build_variants
from repro.hdl.design import Design, analyze
from repro.hdl.generate import BENCHMARK_SPECS, DesignSpec, generate_design
from repro.hdl.parser import parse_source
from repro.runtime.cache import record_key
from repro.runtime.report import stage as _stage
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import STAReport, analyze as sta_analyze
from repro.sta.network import TimingNetwork, from_bog
from repro.synth.flow import SynthesisResult, synthesize_bog
from repro.synth.optimizer import SynthesisOptions


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs for dataset generation."""

    clock_utilization: float = 0.82
    pseudo_clock_period: float = 1000.0


@dataclass
class DesignRecord:
    """All per-design artefacts used for training and evaluation.

    ``key`` is the build key :func:`build_design_record` gives the record
    (:func:`~repro.runtime.cache.record_key`), its identity for the artifact,
    path-feature and pool-worker caches.  A record assembled or changed by
    hand must carry ``key=None``; its features are then never cached.
    """

    name: str
    spec: Optional[DesignSpec]
    design: Design
    source: str
    sog: BOG
    pseudo_networks: Dict[str, TimingNetwork]
    pseudo_reports: Dict[str, STAReport]
    synthesis: SynthesisResult
    clock: ClockConstraint
    labels: Dict[str, float] = field(default_factory=dict)
    key: Optional[str] = None

    # -- derived -----------------------------------------------------------------

    @property
    def endpoint_names(self) -> List[str]:
        """Register endpoints present both in the RTL representation and netlist."""
        return sorted(self.labels)

    @property
    def label_report(self) -> STAReport:
        return self.synthesis.report

    def endpoint_signal(self, endpoint_name: str) -> str:
        return endpoint_name.split("[")[0]

    def signal_labels(self) -> Dict[str, float]:
        """Word-level signal -> max arrival over its bits (the signal label)."""
        signals: Dict[str, float] = {}
        for name, arrival in self.labels.items():
            signal = self.endpoint_signal(name)
            if signal not in signals or arrival > signals[signal]:
                signals[signal] = arrival
        return signals

    def signal_slack_labels(self) -> Dict[str, float]:
        """Word-level signal -> worst slack over its bits."""
        required = self.clock.required_time(self._setup_time())
        return {signal: required - arrival for signal, arrival in self.signal_labels().items()}

    def endpoint_slack_labels(self) -> Dict[str, float]:
        required = self.clock.required_time(self._setup_time())
        return {name: required - arrival for name, arrival in self.labels.items()}

    def _setup_time(self) -> float:
        endpoints = self.synthesis.netlist.endpoints
        for endpoint in endpoints:
            if endpoint.kind == "register":
                return endpoint.setup_time
        return 0.0

    @property
    def wns_label(self) -> float:
        return self.label_report.wns

    @property
    def tns_label(self) -> float:
        return self.label_report.tns

    def summary(self) -> Dict[str, float]:
        stats = self.sog.stats()
        return {
            "n_endpoints": float(len(self.labels)),
            "n_signals": float(len(self.signal_labels())),
            "n_gates": float(self.synthesis.netlist.gate_count()),
            "n_registers": float(self.synthesis.netlist.register_count()),
            "sog_nodes": stats["n_nodes"],
            "clock_period": self.clock.period,
            "wns": self.wns_label,
            "tns": self.tns_label,
        }


def build_design_record(
    spec_or_source,
    config: Optional[DatasetConfig] = None,
    name: Optional[str] = None,
) -> DesignRecord:
    """Build the full record for one design.

    ``spec_or_source`` is either a :class:`DesignSpec` (the design is
    generated) or a Verilog source string (user RTL).
    """
    config = config or DatasetConfig()

    if isinstance(spec_or_source, DesignSpec):
        spec: Optional[DesignSpec] = spec_or_source
        source = generate_design(spec_or_source)
        design_name = spec_or_source.name
    else:
        spec = None
        source = str(spec_or_source)
        design_name = name or "user_design"

    with _stage("dataset.parse_analyze"):
        module = parse_source(source)
        design = analyze(module, source=source)
    if name:
        design_name = name

    with _stage("dataset.bog_variants"):
        bogs = build_variants(design)

    pseudo_clock = ClockConstraint(period=config.pseudo_clock_period)
    pseudo_networks: Dict[str, TimingNetwork] = {}
    pseudo_reports: Dict[str, STAReport] = {}
    with _stage("dataset.pseudo_sta"):
        for variant, bog in bogs.items():
            network = from_bog(bog)
            pseudo_networks[variant] = network
            pseudo_reports[variant] = sta_analyze(network, pseudo_clock)

    # Nothing reads the AIG, AIMG or XAG graphs once they are lowered.
    sog = bogs["sog"]
    with _stage("dataset.label_synthesis"):
        # Ground-truth synthesis with default options.
        provisional_clock = ClockConstraint(period=config.pseudo_clock_period)
        synthesis = synthesize_bog(sog, provisional_clock, SynthesisOptions())

        # Choose the design clock so that a realistic fraction of endpoints
        # violate, then recompute the label report against that clock.
        arrivals = synthesis.report.endpoint_arrivals()
        max_arrival = float(arrivals.max()) if arrivals.size else 1.0
        period = max(50.0, config.clock_utilization * max_arrival)
        clock = ClockConstraint(period=period)
        label_report = sta_analyze(synthesis.netlist, clock)
        synthesis.report = label_report
        synthesis.qor = synthesis.netlist.qor(label_report)

    labels = label_report.register_arrivals()
    # Keep only endpoints that also exist in the RTL representation (register
    # consistency; retiming is never applied to the label run so in practice
    # this keeps everything).
    rtl_endpoints = {e.name for e in sog.endpoints if e.kind == "register"}
    labels = {name: arrival for name, arrival in labels.items() if name in rtl_endpoints}

    return DesignRecord(
        name=design_name,
        spec=spec,
        design=design,
        source=source,
        sog=sog,
        pseudo_networks=pseudo_networks,
        pseudo_reports=pseudo_reports,
        synthesis=synthesis,
        clock=clock,
        labels=labels,
        key=record_key(spec_or_source, config, name),
    )


def build_dataset(
    specs: Sequence[DesignSpec] = BENCHMARK_SPECS,
    config: Optional[DatasetConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache=None,
    report=None,
) -> List[DesignRecord]:
    """Build records for a benchmark suite (Table 3 of the paper).

    Delegates to the :mod:`repro.runtime` engine: specs (and raw-source
    :class:`~repro.runtime.parallel.SourceItem` items) already present in the
    content-addressed artifact cache are loaded from disk, the rest are
    elaborated in one fan-out across ``jobs`` worker processes
    (``REPRO_JOBS`` env var, default ``os.cpu_count()``), and results come
    back in spec order — element-wise identical to a serial build.  See
    :func:`repro.runtime.parallel.build_dataset_parallel` for the knobs.
    """
    from repro.runtime.parallel import build_dataset_parallel

    return build_dataset_parallel(specs, config, jobs=jobs, cache=cache, report=report)


def build_dataset_serial(
    specs: Sequence[DesignSpec] = BENCHMARK_SPECS,
    config: Optional[DatasetConfig] = None,
) -> List[DesignRecord]:
    """The seed's uncached in-process build; reference path for determinism tests."""
    config = config or DatasetConfig()
    return [build_design_record(spec, config) for spec in specs]


def dataset_summary(records: Sequence[DesignRecord]) -> List[Dict[str, float]]:
    """Per-design summary table (used by the Table 3 benchmark)."""
    return [dict(name=record.name, **record.summary()) for record in records]
