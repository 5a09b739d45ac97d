"""Synthetic benchmark design generator.

The paper trains and evaluates on 21 open-source designs drawn from four
suites (ITC'99, OpenCores, Chipyard, VexRiscv).  Those designs and the
commercial flow that labels them are not available here, so this module
generates a *synthetic benchmark suite* with the same shape:

* 21 designs carrying the same names as Table 6 of the paper,
* four structural families that mimic the character of the four suites
  (control/FSM-heavy ITC'99 circuits, crypto/bus OpenCores blocks,
  Rocket-style CPU datapaths, VexRiscv-style pipelines across a wide size
  range),
* widely varying sizes, operator mixes, pipeline depths and register counts
  so that cross-design generalization is genuinely exercised.

Every generated design is plain Verilog text in the subset supported by
:mod:`repro.hdl.parser`, so the whole flow (parse -> analyze -> bit-blast ->
synthesize -> STA) runs on it exactly as it would on user RTL.

Sizes are scaled down relative to the paper (hundreds to a few thousand
registers bits rather than 6K-510K gates) to keep the pure-Python synthesis
and STA substrate tractable; the scaling factor is uniform across designs and
documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.report import stage as _stage


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs shared by all generated designs.

    The construct probabilities below the first block default to 0.0 and are
    *draw-order neutral* when disabled: the fixed 21-design benchmark suite
    generates byte-identical sources with a default config before and after
    these knobs existed.  The fuzz corpus (:mod:`repro.fuzz.corpus`) enables
    them to reach grammar regions — reduction operators, replication,
    nested ``if``/``else``, split part-select assigns, the full comparison
    alphabet, mixed register widths — that none of the fixed designs use.
    """

    max_expr_depth: int = 3
    enable_probability: float = 0.55
    feedback_probability: float = 0.35
    output_fraction: float = 0.25

    # -- fuzz-corpus construct knobs (0.0 == disabled, no RNG draws) --------
    reduction_probability: float = 0.0
    replicate_probability: float = 0.0
    nested_if_probability: float = 0.0
    partselect_assign_probability: float = 0.0
    rich_compare_probability: float = 0.0
    width_jitter_probability: float = 0.0


@dataclass(frozen=True)
class DesignSpec:
    """Parameters for one synthetic benchmark design."""

    name: str
    family: str  # "itc99", "opencores", "chipyard", "vexriscv"
    hdl_type: str  # reported HDL family, mirroring Table 3
    seed: int
    data_width: int
    stages: int
    regs_per_stage: int
    control_regs: int = 4
    expr_depth: int = 3
    use_multiplier: bool = False

    @property
    def approx_register_bits(self) -> int:
        """Rough number of register bits the design will contain."""
        return self.stages * self.regs_per_stage * self.data_width + self.control_regs


# Operator mixes per family: (binary word ops, weights).
_FAMILY_OPS: Dict[str, List[Tuple[str, float]]] = {
    # Control-dominated circuits: lots of comparisons and boolean logic.
    "itc99": [
        ("&", 2.0),
        ("|", 2.0),
        ("^", 1.5),
        ("+", 1.0),
        ("==", 1.2),
        ("mux", 2.0),
        ("~", 1.0),
    ],
    # Crypto / bus blocks: wide xor networks, rotations, substitutions.
    "opencores": [
        ("^", 3.0),
        ("&", 1.5),
        ("|", 1.5),
        ("+", 1.0),
        ("rot", 1.5),
        ("mux", 1.5),
        ("~", 1.0),
    ],
    # Rocket-style datapaths: arithmetic and bypass muxes.
    "chipyard": [
        ("+", 2.5),
        ("-", 1.5),
        ("&", 1.0),
        ("|", 1.0),
        ("^", 1.0),
        ("<", 1.0),
        ("mux", 2.0),
        ("shift", 1.0),
    ],
    # VexRiscv-style pipelines: balanced mix with shifts and compares.
    "vexriscv": [
        ("+", 2.0),
        ("&", 1.2),
        ("|", 1.2),
        ("^", 1.5),
        ("==", 1.0),
        ("mux", 2.0),
        ("shift", 1.2),
        ("rot", 0.8),
    ],
}


# The 21 designs of Table 3 / Table 6, with scaled-down sizes.  The relative
# ordering of sizes follows the paper (VexRiscv spans the widest range,
# Rocket cores are mid-size, ITC'99 are small-to-mid, OpenCores small).
BENCHMARK_SPECS: Tuple[DesignSpec, ...] = (
    DesignSpec("syscdes", "opencores", "Verilog", 101, 16, 3, 4, 6, 3),
    DesignSpec("syscaes", "opencores", "Verilog", 102, 16, 4, 5, 6, 3),
    DesignSpec("conmax", "opencores", "Verilog", 103, 12, 4, 6, 8, 2),
    DesignSpec("FPU", "opencores", "Verilog", 104, 12, 4, 5, 6, 3, use_multiplier=True),
    DesignSpec("Marax", "opencores", "Verilog", 105, 14, 4, 5, 6, 3),
    DesignSpec("b17", "itc99", "VHDL", 201, 8, 4, 6, 10, 3),
    DesignSpec("b17_1", "itc99", "VHDL", 202, 8, 4, 6, 10, 3),
    DesignSpec("b18", "itc99", "VHDL", 203, 10, 5, 7, 12, 3),
    DesignSpec("b18_1", "itc99", "VHDL", 204, 10, 5, 7, 12, 3),
    DesignSpec("b20", "itc99", "VHDL", 205, 8, 3, 4, 8, 2),
    DesignSpec("b22", "itc99", "VHDL", 206, 8, 3, 5, 8, 2),
    DesignSpec("Rocket1", "chipyard", "Chisel", 301, 16, 5, 5, 8, 3),
    DesignSpec("Rocket2", "chipyard", "Chisel", 302, 16, 5, 6, 8, 3),
    DesignSpec("Rocket3", "chipyard", "Chisel", 303, 16, 6, 5, 8, 3),
    DesignSpec("Vex_1", "vexriscv", "SpinalHDL", 401, 8, 3, 3, 4, 2),
    DesignSpec("Vex_2", "vexriscv", "SpinalHDL", 402, 8, 3, 4, 4, 2),
    DesignSpec("Vex_3", "vexriscv", "SpinalHDL", 403, 12, 4, 4, 6, 3),
    DesignSpec("Vex_4", "vexriscv", "SpinalHDL", 404, 12, 4, 5, 6, 3),
    DesignSpec("Vex5", "vexriscv", "SpinalHDL", 405, 16, 5, 5, 6, 3),
    DesignSpec("Vex6", "vexriscv", "SpinalHDL", 406, 16, 5, 6, 8, 3),
    DesignSpec("Vex7", "vexriscv", "SpinalHDL", 407, 16, 6, 7, 8, 3),
)


def generate_design(
    spec: DesignSpec,
    config: Optional[GeneratorConfig] = None,
    rng: Optional[random.Random] = None,
) -> str:
    """Generate the Verilog source for one design described by ``spec``.

    ``rng`` injects the statement-level random stream; by default a fresh
    ``random.Random(spec.seed)`` is used so every ``(spec, config)`` pair is
    replayable.  The fuzz corpus passes its own seeded stream so the fixed
    benchmark suite and randomized fuzz designs share this one generator
    core.
    """
    config = config or GeneratorConfig()
    with _stage("hdl.generate_design"):
        return _DesignWriter(spec, config, rng=rng).build()


# ---------------------------------------------------------------------------
# Internal generator machinery
# ---------------------------------------------------------------------------


@dataclass
class _SignalRef:
    """A generated signal available as an expression operand."""

    name: str
    width: int


class _DesignWriter:
    """Builds the Verilog text for a single synthetic design."""

    def __init__(
        self,
        spec: DesignSpec,
        config: GeneratorConfig,
        rng: Optional[random.Random] = None,
    ):
        self.spec = spec
        self.config = config
        self.rng = rng if rng is not None else random.Random(spec.seed)
        self.ops = _FAMILY_OPS[spec.family]
        self.port_lines: List[str] = []
        self.decl_lines: List[str] = []
        self.assign_lines: List[str] = []
        self.always_lines: List[str] = []
        self.port_names: List[str] = ["clk"]
        self._wire_counter = 0

    # -- public -------------------------------------------------------------

    def build(self) -> str:
        spec = self.spec

        inputs = self._make_inputs()
        control_inputs = self._make_control_inputs()

        stage_regs: List[List[_SignalRef]] = []
        control_regs = self._make_control_registers(control_inputs)

        previous: List[_SignalRef] = list(inputs)
        for stage in range(spec.stages):
            regs = self._make_stage(stage, previous, control_regs, control_inputs)
            stage_regs.append(regs)
            # Later stages see both the previous stage and (sometimes) inputs,
            # modelling bypass/forwarding paths.
            previous = list(regs)
            if self.rng.random() < self.config.feedback_probability and stage_regs:
                previous.append(self.rng.choice(stage_regs[0]))
            if self.rng.random() < 0.5:
                previous.append(self.rng.choice(inputs))

        self._make_outputs(stage_regs, control_regs)

        return self._render()

    # -- inputs / outputs ----------------------------------------------------

    def _make_inputs(self) -> List[_SignalRef]:
        width = self.spec.data_width
        count = max(2, self.spec.regs_per_stage // 2 + 1)
        refs = []
        for index in range(count):
            name = f"in_data{index}"
            self.port_lines.append(f"  input [{width - 1}:0] {name};")
            self.port_names.append(name)
            refs.append(_SignalRef(name, width))
        return refs

    def _make_control_inputs(self) -> List[_SignalRef]:
        refs = []
        for index in range(max(2, self.spec.control_regs // 2)):
            name = f"in_ctrl{index}"
            self.port_lines.append(f"  input {name};")
            self.port_names.append(name)
            refs.append(_SignalRef(name, 1))
        return refs

    def _make_outputs(
        self, stage_regs: List[List[_SignalRef]], control_regs: List[_SignalRef]
    ) -> None:
        last_stage = stage_regs[-1]
        n_outputs = max(1, int(len(last_stage) * self.config.output_fraction))
        for index in range(n_outputs):
            reg = last_stage[index % len(last_stage)]
            name = f"out_data{index}"
            self.port_lines.append(f"  output [{reg.width - 1}:0] {name};")
            self.port_names.append(name)
            self.decl_lines.append(f"  wire [{reg.width - 1}:0] {name};")
            self.assign_lines.append(f"  assign {name} = {reg.name};")
        if control_regs:
            self.port_lines.append("  output out_flag;")
            self.port_names.append("out_flag")
            self.decl_lines.append("  wire out_flag;")
            terms = " ^ ".join(ref.name for ref in control_regs[:4])
            self.assign_lines.append(f"  assign out_flag = {terms};")

    # -- registers -----------------------------------------------------------

    def _make_control_registers(self, control_inputs: List[_SignalRef]) -> List[_SignalRef]:
        """Small FSM-like single-bit registers used as enables and selects."""
        refs = []
        for index in range(self.spec.control_regs):
            name = f"ctrl_r{index}"
            self.decl_lines.append(f"  reg {name};")
            source = self.rng.choice(control_inputs)
            other = self.rng.choice(control_inputs)
            prev = refs[-1].name if refs else source.name
            expr = f"({source.name} ^ {prev}) | (~{other.name} & {prev})"
            self.always_lines.append(f"      {name} <= {expr};")
            refs.append(_SignalRef(name, 1))
        return refs

    def _make_stage(
        self,
        stage: int,
        sources: List[_SignalRef],
        control_regs: List[_SignalRef],
        control_inputs: List[_SignalRef],
    ) -> List[_SignalRef]:
        spec = self.spec
        regs: List[_SignalRef] = []
        for index in range(spec.regs_per_stage):
            width = spec.data_width
            if self._maybe(self.config.width_jitter_probability):
                # Mixed register widths force zero-extension/truncation in
                # downstream arithmetic (none of the fixed designs mix widths
                # within a stage).
                width = 1 + self.rng.randrange(spec.data_width + 2)
            reg_name = f"s{stage}_r{index}"
            self.decl_lines.append(f"  reg [{width - 1}:0] {reg_name};")

            if width >= 2 and self._maybe(self.config.partselect_assign_probability):
                wire_name = self._emit_split_wire(sources, width, spec.expr_depth)
            else:
                expr = self._expression(sources, width, spec.expr_depth)
                wire_name = self._emit_wire(width, expr)

            controls = control_regs + control_inputs
            if controls and self._maybe(self.config.nested_if_probability):
                self._emit_nested_update(reg_name, wire_name, sources, width, controls)
                regs.append(_SignalRef(reg_name, width))
                continue

            use_enable = self.rng.random() < self.config.enable_probability
            if use_enable and control_regs:
                enable = self.rng.choice(control_regs + control_inputs).name
                self.always_lines.append(
                    f"      if ({enable}) {reg_name} <= {wire_name};"
                )
            else:
                self.always_lines.append(f"      {reg_name} <= {wire_name};")
            regs.append(_SignalRef(reg_name, width))

        # Occasionally add a multiplier-fed register for the FPU-like design.
        if spec.use_multiplier and stage == spec.stages // 2:
            width = min(8, spec.data_width)
            reg_name = f"s{stage}_mul"
            self.decl_lines.append(f"  reg [{width - 1}:0] {reg_name};")
            a = self._coerce(self.rng.choice(sources), width)
            b = self._coerce(self.rng.choice(sources), width)
            wire_name = self._emit_wire(width, f"{a} * {b}")
            self.always_lines.append(f"      {reg_name} <= {wire_name};")
            regs.append(_SignalRef(reg_name, width))
        return regs

    # -- fuzz-corpus constructs ----------------------------------------------

    def _maybe(self, probability: float) -> bool:
        """Draw against an optional-construct knob.

        The knob check short-circuits *before* the RNG draw, so a disabled
        construct (probability 0.0, the default) consumes no randomness and
        the fixed benchmark designs stay byte-identical.
        """
        return probability > 0.0 and self.rng.random() < probability

    def _select_bit(self, sources: List[_SignalRef]) -> str:
        """A 1-bit expression string: a scalar signal or a random bit select."""
        ref = self.rng.choice(sources)
        if ref.width == 1:
            return ref.name
        return f"{ref.name}[{self.rng.randrange(ref.width)}]"

    def _emit_split_wire(self, sources: List[_SignalRef], width: int, depth: int) -> str:
        """A wire driven by two part-select assigns (``w[h:m]`` / ``w[m-1:0]``)."""
        name = f"w{self._wire_counter}"
        self._wire_counter += 1
        self.decl_lines.append(f"  wire [{width - 1}:0] {name};")
        mid = self.rng.randrange(1, width)
        high = self._expression(sources, width - mid, max(depth - 1, 0))
        low = self._expression(sources, mid, max(depth - 1, 0))
        self.assign_lines.append(f"  assign {name}[{width - 1}:{mid}] = {high};")
        self.assign_lines.append(f"  assign {name}[{mid - 1}:0] = {low};")
        return name

    def _emit_nested_update(
        self,
        reg_name: str,
        wire_name: str,
        sources: List[_SignalRef],
        width: int,
        controls: List[_SignalRef],
    ) -> None:
        """Register update through a nested ``if``/``else`` tree."""
        outer = self.rng.choice(controls).name
        inner = self.rng.choice(controls).name
        alt = self._emit_wire(width, self._expression(sources, width, 1))
        self.always_lines.append(f"      if ({outer}) begin")
        self.always_lines.append(f"        if ({inner}) {reg_name} <= {wire_name};")
        self.always_lines.append(f"        else {reg_name} <= {alt};")
        if self.rng.random() < 0.5:
            other = self._emit_wire(width, self._expression(sources, width, 1))
            self.always_lines.append("      end else begin")
            self.always_lines.append(f"        {reg_name} <= {other};")
            self.always_lines.append("      end")
        else:
            self.always_lines.append("      end")

    def _replicate_expr(self, sources: List[_SignalRef], width: int, depth: int) -> str:
        """Replication mask: ``({W{bit}} op operand)``."""
        bit = self._select_bit(sources)
        op = self.rng.choice(["&", "^", "|"])
        operand = self._expression(sources, width, max(depth - 1, 0))
        return f"({{{width}{{{bit}}}}} {op} ({operand}))"

    def _reduction_expr(self, sources: List[_SignalRef], width: int, depth: int) -> str:
        """A reduction-operator select feeding a mux."""
        op = self.rng.choice(["&", "|", "^", "~&", "~|", "~^"])
        ref = self.rng.choice(sources)
        a = self._expression(sources, width, max(depth - 1, 0))
        b = self._expression(sources, width, max(depth - 1, 0))
        return f"(({op}{ref.name}) ? ({a}) : ({b}))"

    def _rich_compare_expr(self, sources: List[_SignalRef], width: int, depth: int) -> str:
        """Comparison/logical operators outside the fixed designs' alphabet."""
        op = self.rng.choice(["!=", ">", ">=", "&&", "||"])
        a = self._expression(sources, width, max(depth - 1, 0))
        b = self._expression(sources, width, max(depth - 1, 0))
        cmp_wire = self._emit_wire(1, f"({a}) {op} ({b})")
        value = self._expression(sources, width, max(depth - 1, 0))
        return f"({cmp_wire} ? ({value}) : (~({value})))"

    # -- expressions ---------------------------------------------------------

    def _emit_wire(self, width: int, expr: str) -> str:
        name = f"w{self._wire_counter}"
        self._wire_counter += 1
        if width == 1:
            self.decl_lines.append(f"  wire {name};")
        else:
            self.decl_lines.append(f"  wire [{width - 1}:0] {name};")
        self.assign_lines.append(f"  assign {name} = {expr};")
        return name

    def _pick_op(self) -> str:
        ops, weights = zip(*self.ops)
        return self.rng.choices(ops, weights=weights, k=1)[0]

    def _coerce(self, ref: _SignalRef, width: int) -> str:
        """Return an expression string of exactly ``width`` bits from ``ref``."""
        if ref.width == width:
            return ref.name
        if ref.width > width:
            return f"{ref.name}[{width - 1}:0]"
        # Zero-extend via concatenation with a sized constant.
        pad = width - ref.width
        return f"{{{pad}'d0, {ref.name}}}"

    def _expression(self, sources: List[_SignalRef], width: int, depth: int) -> str:
        """Generate a random expression string of ``width`` bits."""
        if depth > 0:
            # Optional fuzz-corpus constructs; every branch is gated by
            # _maybe so the default config draws nothing here.
            if self._maybe(self.config.replicate_probability):
                return self._replicate_expr(sources, width, depth)
            if self._maybe(self.config.reduction_probability):
                return self._reduction_expr(sources, width, depth)
            if self._maybe(self.config.rich_compare_probability):
                return self._rich_compare_expr(sources, width, depth)
        if depth <= 0 or (depth < self.spec.expr_depth and self.rng.random() < 0.25):
            return self._coerce(self.rng.choice(sources), width)

        op = self._pick_op()
        if op == "~":
            return f"~({self._expression(sources, width, depth - 1)})"
        if op == "mux":
            sel_ref = self.rng.choice(sources)
            sel = (
                sel_ref.name
                if sel_ref.width == 1
                else f"{sel_ref.name}[{self.rng.randrange(sel_ref.width)}]"
            )
            a = self._expression(sources, width, depth - 1)
            b = self._expression(sources, width, depth - 1)
            return f"({sel} ? ({a}) : ({b}))"
        if op == "shift":
            amount = self.rng.randrange(1, max(2, width // 2))
            direction = self.rng.choice(["<<", ">>"])
            inner = self._expression(sources, width, depth - 1)
            return f"(({inner}) {direction} {amount})"
        if op == "rot":
            amount = self.rng.randrange(1, width) if width > 1 else 0
            ref = self.rng.choice(sources)
            operand = self._coerce(ref, width)
            if amount == 0 or width == 1:
                return operand
            # Rotation via part selects requires a named signal; materialise it.
            if "[" in operand or "{" in operand or ref.width != width:
                operand = self._emit_wire(width, operand)
            return (
                f"{{{operand}[{amount - 1}:0], {operand}[{width - 1}:{amount}]}}"
            )
        if op in ("==", "<"):
            a = self._expression(sources, width, depth - 1)
            b = self._expression(sources, width, depth - 1)
            cmp_wire = self._emit_wire(1, f"({a}) {op} ({b})")
            value = self._expression(sources, width, depth - 1)
            return f"({cmp_wire} ? ({value}) : (~({value})))"
        # Plain binary word operators.
        a = self._expression(sources, width, depth - 1)
        b = self._expression(sources, width, depth - 1)
        return f"(({a}) {op} ({b}))"

    # -- rendering -----------------------------------------------------------

    def _render(self) -> str:
        spec = self.spec
        lines: List[str] = []
        lines.append(f"// Synthetic benchmark design: {spec.name}")
        lines.append(f"// family={spec.family} hdl={spec.hdl_type} seed={spec.seed}")
        lines.append(f"module {spec.name} (")
        lines.append("  " + ", ".join(self.port_names))
        lines.append(");")
        lines.append("  input clk;")
        lines.extend(self.port_lines)
        lines.append("")
        lines.extend(self.decl_lines)
        lines.append("")
        lines.extend(self.assign_lines)
        lines.append("")
        lines.append("  always @(posedge clk) begin")
        lines.extend(self.always_lines)
        lines.append("  end")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"
