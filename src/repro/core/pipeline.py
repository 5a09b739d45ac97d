"""The RTL-Timer public API: end-to-end fine-grained RTL timing evaluation.

:class:`RTLTimer` ties the whole workflow of Fig. 3 together:

1. register-oriented RTL processing over the four BOG variants,
2. bit-wise endpoint arrival modelling with the max-arrival loss + ensemble,
3. signal-wise max-arrival regression and LambdaMART criticality ranking,
4. design-level WNS/TNS prediction,
5. automatic slack annotation on the HDL source,
6. prediction-driven synthesis options (``group_path`` + ``retime``).

Typical usage::

    records = build_dataset(BENCHMARK_SPECS)
    timer = RTLTimer().fit(records[:-1])
    prediction = timer.predict(records[-1])
    print(prediction.overall)                  # predicted WNS / TNS
    annotated = timer.annotate(records[-1])    # Verilog with slack comments
    options = timer.synthesis_options(records[-1])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.annotate import annotate_design, ranking_groups
from repro.core.bitwise import BitwiseArrivalModel, BitwiseConfig
from repro.core.dataset import DesignRecord
from repro.core.metrics import regression_metrics
from repro.core.optimize import generate_candidates, options_from_ranking
from repro.core.state import config_from_state, config_to_state
from repro.incremental.whatif import evaluate_candidates
from repro.core.overall import OverallConfig, OverallTimingModel
from repro.core.signalwise import SignalwiseConfig, SignalwiseModel
from repro.runtime.report import RuntimeReport, stage as report_stage
from repro.synth.optimizer import SynthesisOptions


@dataclass(frozen=True)
class RTLTimerConfig:
    """Top-level configuration bundling the per-stage configurations."""

    bitwise: BitwiseConfig = field(default_factory=BitwiseConfig)
    signalwise: SignalwiseConfig = field(default_factory=SignalwiseConfig)
    overall: OverallConfig = field(default_factory=OverallConfig)


@dataclass
class RTLTimerPrediction:
    """Everything RTL-Timer predicts for one design."""

    design: str
    bitwise_arrival: Dict[str, float]
    signal_arrival: Dict[str, float]
    signal_ranking: Dict[str, float]
    signal_slack: Dict[str, float]
    rank_group: Dict[str, int]
    overall: Dict[str, float]
    runtime_seconds: float

    def ranked_signals(self) -> List[str]:
        """Signals ordered from most critical to least critical.

        Score ties break on the signal name, so the ranking is a pure
        function of the prediction rather than of dict insertion order.
        """
        return sorted(self.signal_ranking, key=lambda s: (-self.signal_ranking[s], s))


@dataclass
class BatchPrediction:
    """Result of :meth:`RTLTimer.predict_batch`: predictions + stage timings.

    Behaves like the list of per-design predictions (iteration, indexing,
    ``len``) while carrying the :class:`~repro.runtime.report.RuntimeReport`
    with per-stage wall time and counters for the whole batch.
    """

    predictions: List[RTLTimerPrediction]
    report: RuntimeReport

    def __iter__(self):
        return iter(self.predictions)

    def __len__(self) -> int:
        return len(self.predictions)

    def __getitem__(self, index):
        return self.predictions[index]


class RTLTimer:
    """Fine-grained general RTL timing estimator (the paper's contribution)."""

    def __init__(self, config: Optional[RTLTimerConfig] = None):
        self.config = config or RTLTimerConfig()
        self.bitwise = BitwiseArrivalModel(self.config.bitwise)
        self.signalwise = SignalwiseModel(self.config.signalwise)
        self.overall = OverallTimingModel(self.config.overall)

    # -- training ---------------------------------------------------------------------

    def fit(self, records: Sequence[DesignRecord]) -> "RTLTimer":
        """Train all stages on the given designs (cross-design training set)."""
        self.bitwise.fit(records)
        bitwise_predictions = {
            record.name: prediction
            for record, prediction in zip(records, self.bitwise.training_predictions_)
        }
        self.signalwise.fit(records, bitwise_predictions)
        self.overall.fit(records, bitwise_predictions)
        self.training_designs_ = [record.name for record in records]
        return self

    # -- inference --------------------------------------------------------------------

    def predict(self, record: DesignRecord) -> RTLTimerPrediction:
        """Run the full prediction stack on one (unseen) design (a batch of one)."""
        return self.predict_batch([record]).predictions[0]

    def predict_batch(
        self,
        records: Sequence[DesignRecord],
        report: Optional[RuntimeReport] = None,
    ) -> BatchPrediction:
        """Run the prediction stack over many designs, one stage at a time.

        Dispatching stage-by-stage instead of design-by-design amortizes the
        per-stage model setup across the whole batch and lets each stage be
        timed as a unit: the returned :class:`BatchPrediction` carries a
        :class:`~repro.runtime.report.RuntimeReport` with ``inference.*``
        stage wall times next to the per-design predictions (which are
        identical to calling :meth:`predict` on each record).
        """
        report = report if report is not None else RuntimeReport()
        records = list(records)
        for record in records:
            record.require_registers()
        per_design = [0.0] * len(records)

        def timed(index: int, compute):
            started = time.perf_counter()
            value = compute()
            per_design[index] += time.perf_counter() - started
            return value

        with report.stage("inference.batch"):
            with report.stage("inference.bitwise"):
                outputs = [
                    timed(i, lambda i=i: self.bitwise.predict_with_critical(records[i]))
                    for i in range(len(records))
                ]
                bitwise = [arrival for arrival, _ in outputs]
                critical = [rows for _, rows in outputs]
            with report.stage("inference.signalwise"):
                signal = [
                    timed(i, lambda i=i: self.signalwise.predict(records[i], bitwise[i], critical[i]))
                    for i in range(len(records))
                ]
            with report.stage("inference.overall"):
                overall = [
                    timed(i, lambda i=i: self.overall.predict(records[i], bitwise[i]))
                    for i in range(len(records))
                ]
            with report.stage("inference.assemble"):
                predictions = [
                    timed(i, lambda i=i: self._assemble_prediction(records[i], bitwise[i], signal[i], overall[i]))
                    for i in range(len(records))
                ]
                # runtime_seconds covers every stage, assembly included.
                for i, prediction in enumerate(predictions):
                    prediction.runtime_seconds = per_design[i]
        report.incr("inference_designs", len(records))
        return BatchPrediction(predictions=predictions, report=report)

    def _assemble_prediction(
        self,
        record: DesignRecord,
        bitwise_arrival: Dict[str, float],
        signal_prediction: Mapping[str, Dict[str, float]],
        overall: Dict[str, float],
    ) -> RTLTimerPrediction:
        # Python floats, not numpy scalars: float() is exact, and a prediction
        # pickled back from a pool worker is about 40% smaller and over ten
        # times faster to dump and load.
        required = float(record.clock.required_time(record._setup_time()))
        arrival = {signal: float(value) for signal, value in signal_prediction["arrival"].items()}
        ranking = {signal: float(value) for signal, value in signal_prediction["ranking"].items()}
        return RTLTimerPrediction(
            design=record.name,
            bitwise_arrival={name: float(value) for name, value in bitwise_arrival.items()},
            signal_arrival=arrival,
            signal_ranking=ranking,
            signal_slack={signal: required - value for signal, value in arrival.items()},
            rank_group=ranking_groups(ranking),
            overall=overall,
            runtime_seconds=0.0,
        )

    # -- persistence --------------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Serializable snapshot of the whole fitted stack.

        The state is a plain dict of scalars, lists and numpy arrays — no
        live estimator objects — and restoring it with :meth:`from_state`
        yields a timer whose predictions are bit-identical to this one.
        The exact per-stage configuration (feature, sampling and model
        knobs) rides along, because predictions are only reproducible under
        the config the models were trained with.
        """
        if not hasattr(self, "training_designs_"):
            raise RuntimeError("RTLTimer must be fitted before to_state()")
        return {
            "model": "RTLTimer",
            "config": config_to_state(self.config),
            "bitwise": self.bitwise.to_state(),
            "signalwise": self.signalwise.to_state(),
            "overall": self.overall.to_state(),
            "training_designs": list(self.training_designs_),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RTLTimer":
        """Rebuild a fitted timer from a :meth:`to_state` snapshot."""
        if state.get("model") != "RTLTimer":
            raise ValueError(f"state is for {state.get('model')!r}, not RTLTimer")
        timer = cls(config_from_state(state["config"]))
        timer.bitwise = BitwiseArrivalModel.from_state(state["bitwise"])
        timer.signalwise = SignalwiseModel.from_state(state["signalwise"])
        timer.overall = OverallTimingModel.from_state(state["overall"])
        timer.training_designs_ = list(state.get("training_designs", []))
        return timer

    def save(self, path) -> "str":
        """Write this fitted timer as a single-file model bundle at ``path``.

        Returns the bundle id (content hash).  For named, versioned storage
        use :class:`repro.serve.registry.ModelRegistry` instead.
        """
        from repro.serve.registry import write_bundle_file

        return write_bundle_file(self, path)

    @classmethod
    def load(cls, path) -> "RTLTimer":
        """Load a timer saved with :meth:`save`; verifies the bundle hash."""
        from repro.serve.registry import read_bundle_file

        return read_bundle_file(path)

    # -- applications -------------------------------------------------------------------

    def annotate(self, record: DesignRecord, prediction: Optional[RTLTimerPrediction] = None) -> str:
        """Return the design's Verilog annotated with predicted slack info."""
        prediction = prediction or self.predict(record)
        return annotate_design(
            record,
            prediction.signal_slack,
            prediction.signal_ranking,
            prediction.overall,
        )

    def synthesis_options(
        self, record: DesignRecord, prediction: Optional[RTLTimerPrediction] = None
    ) -> SynthesisOptions:
        """Prediction-driven ``group_path`` + ``retime`` synthesis options."""
        prediction = prediction or self.predict(record)
        return options_from_ranking(prediction.ranked_signals())

    def what_if(
        self,
        record: DesignRecord,
        candidates: Optional[Sequence[SynthesisOptions]] = None,
        prediction: Optional[RTLTimerPrediction] = None,
        k: int = 8,
    ):
        """Project candidate option sets with the incremental timing engine.

        ``candidates`` defaults to ``k`` option sets generated around the
        predicted criticality ranking.  Each candidate is translated into a
        patch set on the record's baseline synthesis netlist and re-timed on
        its override columns (one array sweep; the netlist is never edited)
        — no re-synthesis happens.  Returns
        one :class:`~repro.incremental.whatif.WhatIfEstimate` per candidate,
        in candidate order.
        """
        if candidates is None:
            prediction = prediction or self.predict(record)
            candidates = generate_candidates(prediction.ranked_signals(), k=k)
        with report_stage("inference.what_if"):
            return evaluate_candidates(record, candidates)

    # -- evaluation ---------------------------------------------------------------------

    def evaluate_bitwise(self, record: DesignRecord) -> Dict[str, float]:
        """R / R2 / MAPE / COVR of the bit-wise predictions on one design."""
        prediction = self.bitwise.predict(record)
        names = [n for n in record.endpoint_names if n in prediction]
        labels = [record.labels[n] for n in names]
        values = [prediction[n] for n in names]
        return regression_metrics(labels, values)

    def evaluate_signalwise(self, record: DesignRecord) -> Dict[str, float]:
        """Metrics of the signal-wise regression and LTR ranking on one design."""
        prediction = self.predict(record)
        signal_labels = record.signal_labels()
        signals = [s for s in sorted(signal_labels) if s in prediction.signal_arrival]
        labels = [signal_labels[s] for s in signals]
        regression = regression_metrics(labels, [prediction.signal_arrival[s] for s in signals])
        from repro.core.metrics import ranking_coverage

        ranking_covr = ranking_coverage(labels, [prediction.signal_ranking[s] for s in signals])
        regression["ranking_covr"] = ranking_covr
        return regression
