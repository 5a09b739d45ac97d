"""Word-level design intermediate representation.

:func:`analyze` lowers a parsed :class:`~repro.hdl.ast_nodes.Module` into a
:class:`Design`, resolving declarations into :class:`Signal` objects and
flattening ``always @(posedge clk)`` bodies into one next-state expression
per register target (``if``/``else`` trees become nested ternaries, and a
register that is not assigned on some path holds its value).

The :class:`Design` is the hand-off point to :mod:`repro.bog`, which
bit-blasts the word-level expressions into Boolean operator graphs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdl.ast_nodes import (
    BinaryOp,
    BitSelect,
    Concat,
    Expression,
    Identifier,
    IfStatement,
    Module,
    NonBlocking,
    Number,
    PartSelect,
    Repeat,
    Statement,
    Ternary,
    UnaryOp,
)


class AnalysisError(ValueError):
    """Raised when the module uses undeclared signals or inconsistent widths."""


class SignalKind(enum.Enum):
    """Role of a signal in the design."""

    INPUT = "input"
    OUTPUT = "output"
    WIRE = "wire"
    REGISTER = "register"


@dataclass
class Signal:
    """A named word-level signal with its width and role."""

    name: str
    width: int
    kind: SignalKind
    msb: int = 0
    lsb: int = 0

    @property
    def is_register(self) -> bool:
        return self.kind is SignalKind.REGISTER

    def __repr__(self) -> str:
        return f"Signal({self.name}, width={self.width}, {self.kind.value})"


@dataclass
class RegisterUpdate:
    """Next-state expression for one register signal."""

    target: str
    expression: Expression
    clock: str


@dataclass
class WireAssign:
    """Continuous assignment for a wire/output signal (full width)."""

    target: str
    expression: Expression
    # For part-select targets ``w[msb:lsb] = ...``: the assigned bit range.
    msb: Optional[int] = None
    lsb: Optional[int] = None


@dataclass
class Design:
    """Word-level view of a module: signals, wire assigns and register updates."""

    name: str
    signals: Dict[str, Signal] = field(default_factory=dict)
    assigns: List[WireAssign] = field(default_factory=list)
    registers: List[RegisterUpdate] = field(default_factory=list)
    clock: Optional[str] = None
    source: str = ""

    # -- convenience queries -------------------------------------------------

    @property
    def inputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind is SignalKind.INPUT]

    @property
    def outputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind is SignalKind.OUTPUT]

    @property
    def register_signals(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind is SignalKind.REGISTER]

    @property
    def wires(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.kind is SignalKind.WIRE]

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError as exc:
            raise AnalysisError(f"unknown signal {name!r} in design {self.name}") from exc

    def width_of(self, name: str) -> int:
        return self.signal(name).width

    @property
    def total_register_bits(self) -> int:
        return sum(s.width for s in self.register_signals)

    def summary(self) -> Dict[str, int]:
        """Return a small dictionary with design size statistics."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "wires": len(self.wires),
            "registers": len(self.register_signals),
            "register_bits": self.total_register_bits,
            "assigns": len(self.assigns),
        }


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def analyze(module: Module, source: str = "") -> Design:
    """Lower a parsed module into the word-level :class:`Design` IR."""
    design = Design(name=module.name, source=source)
    _collect_signals(module, design)
    _collect_assigns(module, design)
    _collect_registers(module, design)
    _check_references(module, design)
    return design


def _collect_signals(module: Module, design: Design) -> None:
    reg_names = {net.name for net in module.nets if net.kind == "reg"}
    reg_names |= {port.name for port in module.ports if port.is_reg}

    for port in module.ports:
        if port.name in design.signals:
            raise AnalysisError(f"duplicate declaration of {port.name!r}")
        if port.direction == "input":
            kind = SignalKind.INPUT
        elif port.name in reg_names:
            kind = SignalKind.REGISTER
        else:
            kind = SignalKind.OUTPUT
        design.signals[port.name] = Signal(
            port.name, port.width, kind, msb=port.msb, lsb=port.lsb
        )

    for net in module.nets:
        if net.name in design.signals:
            existing = design.signals[net.name]
            # A port redeclared as wire/reg keeps its port role (plus reg-ness).
            if net.kind == "reg" and existing.kind is SignalKind.OUTPUT:
                existing.kind = SignalKind.REGISTER
            continue
        kind = SignalKind.REGISTER if net.kind == "reg" else SignalKind.WIRE
        design.signals[net.name] = Signal(
            net.name, net.width, kind, msb=net.msb, lsb=net.lsb
        )


def _collect_assigns(module: Module, design: Design) -> None:
    for assign in module.assigns:
        target = assign.target
        if isinstance(target, Identifier):
            design.assigns.append(WireAssign(target.name, assign.value))
        elif isinstance(target, PartSelect):
            design.assigns.append(
                WireAssign(target.name, assign.value, msb=target.msb, lsb=target.lsb)
            )
        elif isinstance(target, BitSelect):
            design.assigns.append(
                WireAssign(target.name, assign.value, msb=target.index, lsb=target.index)
            )
        else:
            raise AnalysisError(f"unsupported assign target {target}")


def _collect_registers(module: Module, design: Design) -> None:
    for block in module.always_blocks:
        if design.clock is None:
            design.clock = block.clock
        elif design.clock != block.clock:
            raise AnalysisError(
                f"multiple clocks are not supported ({design.clock!r} vs {block.clock!r})"
            )
        updates = _flatten_statements(block.body, design)
        for target, expression in updates.items():
            design.registers.append(
                RegisterUpdate(target=target, expression=expression, clock=block.clock)
            )


def _flatten_statements(
    statements: Tuple[Statement, ...], design: Design
) -> Dict[str, Expression]:
    """Flatten a statement list into per-register next-state expressions.

    Later assignments to the same register override earlier ones (Verilog
    non-blocking last-write-wins semantics within a block); ``if``/``else``
    branches become ternary selections, with an unassigned branch holding the
    register's current value.
    """
    updates: Dict[str, Expression] = {}
    for statement in statements:
        if isinstance(statement, NonBlocking):
            name = _target_name(statement.target)
            updates[name] = statement.value
        elif isinstance(statement, IfStatement):
            then_updates = _flatten_statements(statement.then_body, design)
            else_updates = _flatten_statements(statement.else_body, design)
            for name in set(then_updates) | set(else_updates):
                current = updates.get(name, Identifier(name))
                then_value = then_updates.get(name, current)
                else_value = else_updates.get(name, current)
                updates[name] = Ternary(
                    cond=statement.cond, if_true=then_value, if_false=else_value
                )
        else:
            raise AnalysisError(f"unsupported statement {statement}")
    return updates


def _target_name(target: Expression) -> str:
    if isinstance(target, Identifier):
        return target.name
    if isinstance(target, (BitSelect, PartSelect)):
        raise AnalysisError(
            "bit/part-select register targets are not supported; assign the full register"
        )
    raise AnalysisError(f"unsupported register target {target}")


def _check_references(module: Module, design: Design) -> None:
    """Verify every identifier used in an expression is declared."""
    clock = design.clock

    def check(expr: Expression) -> None:
        if isinstance(expr, Identifier):
            if expr.name == clock:
                return
            if expr.name not in design.signals:
                raise AnalysisError(
                    f"use of undeclared signal {expr.name!r} in design {design.name}"
                )
        elif isinstance(expr, (BitSelect, PartSelect)):
            if expr.name not in design.signals:
                raise AnalysisError(
                    f"use of undeclared signal {expr.name!r} in design {design.name}"
                )
        elif isinstance(expr, UnaryOp):
            check(expr.operand)
        elif isinstance(expr, BinaryOp):
            check(expr.left)
            check(expr.right)
        elif isinstance(expr, Ternary):
            check(expr.cond)
            check(expr.if_true)
            check(expr.if_false)
        elif isinstance(expr, Concat):
            for part in expr.parts:
                check(part)
        elif isinstance(expr, Repeat):
            check(expr.expr)
        elif isinstance(expr, Number):
            return

    for assign in design.assigns:
        design.signal(assign.target)
        check(assign.expression)
    for update in design.registers:
        signal = design.signal(update.target)
        if not signal.is_register:
            raise AnalysisError(
                f"non-blocking assignment to non-register {update.target!r}"
            )
        check(update.expression)


def expression_width(expr: Expression, design: Design) -> int:
    """Best-effort width of ``expr`` following Verilog self-determined rules."""
    if isinstance(expr, Identifier):
        return design.width_of(expr.name)
    if isinstance(expr, Number):
        if expr.width is not None:
            return expr.width
        return max(1, expr.value.bit_length())
    if isinstance(expr, BitSelect):
        return 1
    if isinstance(expr, PartSelect):
        return abs(expr.msb - expr.lsb) + 1
    if isinstance(expr, UnaryOp):
        if expr.op in ("!", "&", "|", "^", "~&", "~|", "~^", "^~"):
            return 1
        return expression_width(expr.operand, design)
    if isinstance(expr, BinaryOp):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return expression_width(expr.left, design)
        return max(
            expression_width(expr.left, design), expression_width(expr.right, design)
        )
    if isinstance(expr, Ternary):
        return max(
            expression_width(expr.if_true, design),
            expression_width(expr.if_false, design),
        )
    if isinstance(expr, Concat):
        return sum(expression_width(part, design) for part in expr.parts)
    if isinstance(expr, Repeat):
        return expr.count * expression_width(expr.expr, design)
    raise AnalysisError(f"cannot compute width of {expr}")
