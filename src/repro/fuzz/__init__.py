"""Cross-stack differential fuzzing.

A seed-replayable random-RTL corpus (:mod:`repro.fuzz.corpus`), differential
equivalence oracles spanning every stage of the stack
(:mod:`repro.fuzz.oracles`), and a bounded campaign runner with shrinking and
failing-seed bundles (:mod:`repro.fuzz.runner`), exposed as
``python -m repro.fuzz``.
"""

from repro.fuzz.corpus import (
    SIZE_CLASSES,
    FuzzDesign,
    construct_profile,
    generate_fuzz_design,
)
from repro.fuzz.oracles import ORACLES, FuzzContext, OracleViolation
from repro.fuzz.runner import CampaignConfig, CampaignResult, main, run_campaign

__all__ = [
    "SIZE_CLASSES",
    "FuzzDesign",
    "construct_profile",
    "generate_fuzz_design",
    "ORACLES",
    "FuzzContext",
    "OracleViolation",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "main",
]
