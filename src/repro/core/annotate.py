"""Automatic slack annotation on HDL source (Section 3.5.1 of the paper).

Given RTL-Timer's predictions for a design, this module writes the predicted
slack and criticality ranking group of every sequential signal as a trailing
comment on the line that declares it, and a file header carrying the
technology node and the predicted overall WNS/TNS — exactly the artefact
shown in Fig. 3 (step 3) of the paper.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.dataset import DesignRecord
from repro.core.metrics import criticality_groups
from repro.hdl.writer import annotate_lines


#: Technology named in the annotated file header.
TECHNOLOGY = "NanGate45-like (synthetic)"
#: Unit of every annotated time.
TIME_UNIT = "ps"


def ranking_groups(scores: Mapping[str, float]) -> Dict[str, int]:
    """Assign each signal a criticality group (1 = most critical .. 4).

    ``scores`` maps signal name to a criticality score where larger means
    more critical (predicted arrival or LTR ranking score).
    """
    names = sorted(scores)
    values = [scores[name] for name in names]
    groups = criticality_groups(values)
    assignment: Dict[str, int] = {}
    for group_index, members in enumerate(groups):
        for member in members:
            assignment[names[member]] = group_index + 1
    return assignment


def annotate_design(
    record: DesignRecord,
    signal_slacks: Mapping[str, float],
    ranking_scores: Mapping[str, float],
    overall: Mapping[str, float],
) -> str:
    """Return the design's Verilog source with slack annotations added.

    ``signal_slacks`` maps each sequential signal to its predicted slack,
    ``ranking_scores`` to its predicted criticality score, and ``overall``
    carries the predicted ``wns`` / ``tns`` of the whole design.
    """
    groups = ranking_groups(ranking_scores)

    comments: Dict[str, str] = {}
    # A signal absent from the ranking falls back to the least-critical group
    # actually in use (not the group *count*, which would collide with a real
    # mid-criticality group).
    fallback_group = max(groups.values(), default=4)
    for signal, slack in signal_slacks.items():
        group = groups.get(signal, fallback_group)
        comments[signal] = f"({signal}) Slack@{slack:.1f}{TIME_UNIT} rank@g{group}"

    header = [
        f"Tech: {TECHNOLOGY}",
        (
            f"Predicted WNS: {overall.get('wns', 0.0):.1f}{TIME_UNIT}, "
            f"TNS: {overall.get('tns', 0.0):.1f}{TIME_UNIT}"
        ),
        "Annotated by RTL-Timer reproduction (per-signal predicted slack and rank group)",
    ]
    return annotate_lines(record.source, comments, header)
