"""Compositional random-RTL corpus for differential fuzzing.

Every fuzz design is a pure function of a ``(seed, size_class)`` pair: the
seed drives one explicit ``random.Random`` that samples a
:class:`~repro.hdl.generate.DesignSpec` (module shape) and a
:class:`~repro.hdl.generate.GeneratorConfig` (construct mix), and a second
derived stream drives the statement-level generator itself.  Replaying the
pair regenerates the identical Verilog source, which is what makes failing
seeds shippable as JSON bundles.

The corpus deliberately reaches beyond the 21 fixed benchmark designs:

* the full construct grammar the parser supports — nested ``if``/``else``
  trees, replication ``{N{...}}``, reduction operators, split part-select
  assigns, the complete comparison/logical alphabet, concat/slice, variable
  shifts and rotates, mixed-width arithmetic;
* degenerate shapes the fixed suite never produces — 1-bit datapaths,
  single-register single-stage modules, zero control registers;
* deep pipelines and fan-in-heavy mux cones at the top of each size class.

:func:`construct_profile` classifies a source by the AST constructs it
contains; the corpus-coverage test asserts that the fuzz corpus exercises
constructs absent from every fixed design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.hdl.ast_nodes import (
    BinaryOp,
    Concat,
    Expression,
    IfStatement,
    Module,
    PartSelect,
    Repeat,
    Statement,
    Ternary,
    UnaryOp,
)
from repro.hdl.design import Design, analyze
from repro.hdl.generate import DesignSpec, GeneratorConfig, generate_design
from repro.hdl.parser import parse_source

_FAMILIES = ("itc99", "opencores", "chipyard", "vexriscv")

#: Reduction operators (1-bit result over a word operand).
_REDUCTION_OPS = frozenset({"&", "|", "^", "~&", "~|", "~^", "^~", "!"})

#: Comparison/logical binary operators outside the fixed designs' alphabet.
_RICH_COMPARE_OPS = frozenset({"!=", ">", ">=", "<=", "&&", "||"})


@dataclass(frozen=True)
class SizeClass:
    """Inclusive sampling ranges for one corpus size class."""

    name: str
    data_width: Tuple[int, int]
    stages: Tuple[int, int]
    regs_per_stage: Tuple[int, int]
    control_regs: Tuple[int, int]
    expr_depth: Tuple[int, int]
    #: Probability that the design collapses to a degenerate shape
    #: (1-bit datapath and/or a single register).
    degenerate_probability: float = 0.15


SIZE_CLASSES: Dict[str, SizeClass] = {
    "tiny": SizeClass("tiny", (1, 6), (1, 2), (1, 3), (0, 3), (1, 3), 0.25),
    "small": SizeClass("small", (2, 10), (2, 4), (2, 4), (0, 4), (2, 4), 0.1),
    "medium": SizeClass("medium", (6, 16), (3, 6), (3, 6), (2, 6), (2, 5), 0.0),
    # 1k+ node designs for the array/packed kernel oracles; too slow for
    # synthesis-heavy oracles, so campaigns pair it with a check subset and
    # a wall-clock budget (``CampaignConfig.max_seconds``).
    "large": SizeClass("large", (16, 32), (6, 10), (6, 10), (4, 8), (3, 6), 0.0),
}


@dataclass(frozen=True)
class FuzzDesign:
    """One replayable corpus member: ``(seed, size_class)`` plus its expansion."""

    seed: int
    size_class: str
    spec: DesignSpec
    config: GeneratorConfig
    source: str

    @property
    def name(self) -> str:
        return self.spec.name

    def analyzed(self) -> Design:
        """Parse and analyze the source (not cached; callers hold the result)."""
        return analyze(parse_source(self.source), source=self.source)


def _draw(rng: random.Random, bounds: Tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def sample_spec(
    seed: int, size_class: str = "small"
) -> Tuple[DesignSpec, GeneratorConfig]:
    """Sample the ``(spec, config)`` pair for one fuzz design.

    Deterministic in ``(seed, size_class)``; the statement-level generator
    stream is derived from the same seed (see :func:`generate_fuzz_design`).
    """
    klass = SIZE_CLASSES[size_class]
    rng = random.Random(f"repro-fuzz/{size_class}/{seed}")
    data_width = _draw(rng, klass.data_width)
    stages = _draw(rng, klass.stages)
    regs_per_stage = _draw(rng, klass.regs_per_stage)
    control_regs = _draw(rng, klass.control_regs)
    expr_depth = _draw(rng, klass.expr_depth)
    if rng.random() < klass.degenerate_probability:
        # Degenerate corner: a 1-bit and/or single-register design.
        if rng.random() < 0.5:
            data_width = 1
        if rng.random() < 0.5:
            stages, regs_per_stage = 1, 1
    spec = DesignSpec(
        name=f"fuzz_{size_class}_{seed}",
        family=rng.choice(_FAMILIES),
        hdl_type="Verilog",
        seed=rng.randrange(1 << 31),
        data_width=data_width,
        stages=stages,
        regs_per_stage=regs_per_stage,
        control_regs=control_regs,
        expr_depth=expr_depth,
        use_multiplier=rng.random() < 0.2,
    )
    config = GeneratorConfig(
        max_expr_depth=expr_depth,
        enable_probability=rng.uniform(0.3, 0.7),
        feedback_probability=rng.uniform(0.1, 0.5),
        output_fraction=rng.uniform(0.15, 0.5),
        reduction_probability=rng.uniform(0.1, 0.3),
        replicate_probability=rng.uniform(0.08, 0.25),
        nested_if_probability=rng.uniform(0.2, 0.5),
        partselect_assign_probability=rng.uniform(0.15, 0.4),
        rich_compare_probability=rng.uniform(0.1, 0.3),
        width_jitter_probability=rng.uniform(0.1, 0.4),
    )
    return spec, config


def generate_fuzz_design(
    seed: int,
    size_class: str = "small",
    spec: Optional[DesignSpec] = None,
    config: Optional[GeneratorConfig] = None,
) -> FuzzDesign:
    """Expand a ``(seed, size_class)`` pair into a full corpus member.

    ``spec``/``config`` override the sampled pair (used by the shrinker to
    regenerate with a reduced spec while keeping the seed's RNG streams).
    """
    sampled_spec, sampled_config = sample_spec(seed, size_class)
    spec = sampled_spec if spec is None else spec
    config = sampled_config if config is None else config
    body_rng = random.Random(f"repro-fuzz-body/{size_class}/{seed}")
    source = generate_design(spec, config, rng=body_rng)
    return FuzzDesign(
        seed=seed, size_class=size_class, spec=spec, config=config, source=source
    )


# ---------------------------------------------------------------------------
# Construct coverage
# ---------------------------------------------------------------------------


def construct_profile(source: str) -> FrozenSet[str]:
    """The set of construct tags present in a Verilog source.

    Classification walks the parsed AST (not the text), so formatting cannot
    fake coverage.  Tags are stable strings used by the corpus-coverage test
    and by failing-seed bundles.
    """
    module = parse_source(source)
    tags = set()

    def walk_expr(expr: Expression) -> None:
        if isinstance(expr, UnaryOp):
            if expr.op in _REDUCTION_OPS and expr.op != "~":
                tags.add("reduction-op")
            if expr.op == "-":
                tags.add("unary-minus")
            walk_expr(expr.operand)
        elif isinstance(expr, BinaryOp):
            if expr.op in _RICH_COMPARE_OPS:
                tags.add("rich-compare")
            if expr.op == "*":
                tags.add("multiplier")
            if expr.op in ("<<", ">>"):
                tags.add("shift")
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, Ternary):
            tags.add("mux")
            walk_expr(expr.cond)
            walk_expr(expr.if_true)
            walk_expr(expr.if_false)
        elif isinstance(expr, Concat):
            tags.add("concat")
            for part in expr.parts:
                walk_expr(part)
        elif isinstance(expr, Repeat):
            tags.add("replication")
            walk_expr(expr.expr)

    def walk_stmt(stmt: Statement, in_if: bool) -> None:
        if isinstance(stmt, IfStatement):
            if in_if:
                tags.add("nested-if")
            if stmt.else_body:
                tags.add("else-branch")
            walk_expr(stmt.cond)
            for inner in stmt.then_body:
                walk_stmt(inner, True)
            for inner in stmt.else_body:
                walk_stmt(inner, True)
        else:
            walk_expr(stmt.value)

    for assign in module.assigns:
        if isinstance(assign.target, PartSelect):
            tags.add("partselect-assign")
        walk_expr(assign.value)
    for block in module.always_blocks:
        for stmt in block.body:
            walk_stmt(stmt, False)

    widths = {_port_width(module, port.name) for port in module.ports}
    if 1 in {w for w in widths if w is not None} or _has_one_bit_reg(module):
        tags.add("one-bit-signal")
    return frozenset(tags)


def _port_width(module: Module, name: str):
    for port in module.ports:
        if port.name == name:
            return port.width
    return None


def _has_one_bit_reg(module: Module) -> bool:
    return any(net.kind == "reg" and net.width == 1 for net in module.nets)
