"""Seeded inputs of every workload.

The workload seed fixes everything the program under test receives: the
never-seen cold sources (Table-3 shapes with fresh generator seeds), the
hot set, the request order and route mix, and ``retrain``'s
``--fuzz-seeds``.  The same seed always gives the same inputs.

Cold requests use five Table-3 shapes of three families whose cold work
is close (about 0.4-0.7 s each on a 2-core machine), so a median over a
run is a median over like requests, not the latency of whichever shape
happens to sit in the middle; and a run can afford three rounds of them,
where the largest shapes (2-5 s each) would allow one.  ``retrain`` still
trains and evaluates on the full-size designs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, NamedTuple

#: Shapes of every cold round.
COLD_SHAPES = ("syscdes", "FPU", "b20", "b22", "Vex_3")

#: Shapes of the hot set, two sources each.  Fixed, so its cost does not
#: swing with the seed; the four smallest shapes, whose warm costs are close
#: (a hot set mixing them with larger shapes has a two-humped latency
#: distribution whose median jumps between the humps from run to run), and
#: which keep warming the set and serving it through the pool cheap.
HOT_SHAPES = ("b20", "b22", "Vex_1", "Vex_2")
HOT_COPIES = 2

#: ``/whatif`` requests per pass over the hot set in ``warm_mixed`` (1 in 4).
WHATIFS_PER_PASS = 2

#: Candidate option sets per ``/whatif``.
WHATIF_K = 8

#: Medium fuzz designs ``retrain`` ingests per cycle.
FUZZ_DESIGNS = 4

#: Source size band (characters) of those designs: about the 20th to 40th
#: percentile of the ``medium`` class.
FUZZ_SOURCE_CHARS = (5500, 7500)


class Source(NamedTuple):
    name: str
    text: str


def _rng(purpose: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{purpose}/{seed}")


def _reseed(spec, rng: random.Random, tag: str) -> Source:
    from repro.hdl.generate import generate_design

    fresh = dataclasses.replace(spec, seed=rng.randrange(1, 2**31), name=f"{spec.name}_{tag}")
    return Source(fresh.name, generate_design(fresh))


def _shapes(names) -> list:
    from repro.hdl.generate import BENCHMARK_SPECS

    by_name = {spec.name: spec for spec in BENCHMARK_SPECS}
    return [by_name[name] for name in names]


def cold_round(seed: int, round_index: int) -> List[Source]:
    """Every cold shape once, re-seeded and shuffled; no round repeats a source."""
    rng = _rng(f"cold/{round_index}", seed)
    sources = [_reseed(spec, rng, f"c{seed}r{round_index}") for spec in _shapes(COLD_SHAPES)]
    rng.shuffle(sources)
    return sources


def hot_set(seed: int) -> List[Source]:
    rng = _rng("hot", seed)
    return [
        _reseed(spec, rng, f"h{seed}c{copy}")
        for copy in range(HOT_COPIES)
        for spec in _shapes(HOT_SHAPES)
    ]


def request_stream(seed: int, passes: int, sources: int, whatifs_per_pass: int):
    """(route, source index) pairs, ``passes`` balanced passes over the hot set.

    Each pass sends every hot source once, in a seeded order, with
    ``whatifs_per_pass`` of them routed to ``/whatif``: every run sends the
    same mix of designs and routes, in a different order.
    """
    rng = _rng("stream", seed)
    stream = []
    for _ in range(passes):
        order = rng.sample(range(sources), sources)
        whatif = set(rng.sample(range(sources), whatifs_per_pass))
        stream.extend(("whatif" if index in whatif else "predict", index) for index in order)
    return stream


def fuzz_seeds(seed: int, cycle: int) -> List[int]:
    """Seeded ``medium`` fuzz seeds whose designs fall in :data:`FUZZ_SOURCE_CHARS`.

    Medium fuzz designs range from 3 KB to 40 KB of source, and a retrain
    cycle's time and memory follow their size (one 40 KB draw nearly
    doubles both), so only seeds inside one band are drawn.
    """
    from repro.fuzz.corpus import generate_fuzz_design

    low, high = FUZZ_SOURCE_CHARS
    rng = _rng(f"fuzz/{cycle}", seed)
    chosen: List[int] = []
    while len(chosen) < FUZZ_DESIGNS:
        candidate = rng.randrange(1, 10**6)
        size = len(generate_fuzz_design(candidate, "medium").source)
        if low <= size <= high and candidate not in chosen:
            chosen.append(candidate)
    return chosen


def sample(seed: int, population: int, k: int) -> List[int]:
    """Seeded indices of the cold replies checked against a fresh elaboration."""
    return sorted(_rng("sample", seed).sample(range(population), min(k, population)))
