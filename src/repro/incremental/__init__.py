"""Incremental what-if timing engine.

The subsystem has three layers:

* :mod:`repro.incremental.patches` — invertible local edits
  (:class:`SetDerate`, :class:`SwapCell`, :class:`AddExtraLoad`,
  :class:`RewireFanins`) with declared timing footprints,
* :mod:`repro.incremental.engine` — :class:`IncrementalSTA`, dirty-cone
  re-propagation that matches a full re-analysis bit for bit,
* :mod:`repro.incremental.whatif` — projection of
  :class:`~repro.synth.optimizer.SynthesisOptions` candidates onto patch
  sets, powering ``RTLTimer.what_if`` and the multi-candidate optimization
  sweep of :mod:`repro.core.optimize`.
"""

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import (
    AddExtraLoad,
    RewireFanins,
    SetDerate,
    SwapCell,
    TimingPatch,
)
from repro.incremental.whatif import (
    WhatIfEstimate,
    evaluate_candidates,
    patches_for_options,
)

__all__ = [
    "IncrementalSTA",
    "PropagationStats",
    "AddExtraLoad",
    "RewireFanins",
    "SetDerate",
    "SwapCell",
    "TimingPatch",
    "WhatIfEstimate",
    "evaluate_candidates",
    "patches_for_options",
]
