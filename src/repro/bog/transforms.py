"""Conversions between BOG operator alphabets (SOG -> AIG / AIMG / XAG).

The paper ensembles four representation variants of the same design
(Section 3.1).  All four are functionally identical; they differ only in the
operator alphabet, which changes node counts, logic depth and therefore the
pseudo-STA patterns the downstream models learn from:

* **SOG** — AND, OR, XOR, NOT, MUX (closest to the mapped netlist),
* **AIG** — AND, NOT only (finest decomposition),
* **AIMG** — AND, NOT, MUX,
* **XAG** — AND, XOR, NOT.

:func:`convert` rewrites a SOG into a target variant in one pass over its
type codes and fanin CSR, in topological (node-id) order, reusing structural
hashing in the destination graph so the result stays compact.
:func:`build_variants` is the convenience front end used by the RTL-Timer
pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bog.builder import build_sog
from repro.bog.graph import (
    BOG,
    BOG_VARIANTS,
    NODE_TYPE_CODE,
    VARIANT_OPERATORS,
    EndpointColumns,
    NodeType,
)
from repro.hdl.design import Design


def convert(sog: BOG, variant: str) -> BOG:
    """Convert a SOG into the requested variant (returns a new graph).

    One pass over the SOG's type codes and fanin CSR in node-id order: each
    node goes through the target's folding, structurally hashed op
    constructors, with the OR/XOR/MUX templates of ``variant`` chosen once.
    The SOG is validated first, so every endpoint's driver and register node
    name a node.
    """
    if variant == "sog":
        return sog
    if variant not in BOG_VARIANTS:
        raise ValueError(f"unknown BOG variant {variant!r}")
    sog.validate()
    target = BOG(sog.name, variant=variant)
    codes, indptr, indices = sog.fanin_csr()
    fanins = indices.tolist()
    ops = _emitters(target, sog.node_names())
    mapping: List[int] = []
    emit = mapping.append
    bounds = indptr.tolist()
    for node_id, (code, lo, hi) in enumerate(zip(codes.tolist(), bounds, bounds[1:])):
        arity = hi - lo
        if arity == 2:
            emit(ops[code](mapping[fanins[lo]], mapping[fanins[lo + 1]]))
        elif arity == 1:
            emit(ops[code](mapping[fanins[lo]]))
        elif arity == 0:
            emit(ops[code](node_id))
        else:
            emit(ops[code](mapping[fanins[lo]], mapping[fanins[lo + 1]], mapping[fanins[lo + 2]]))

    node_of = np.array(mapping, dtype=np.int32)
    endpoints = sog.endpoint_columns()
    reg_nodes = endpoints.reg_nodes
    target.set_endpoint_columns(
        EndpointColumns(
            endpoints.names,
            endpoints.signals,
            endpoints.bits,
            node_of[endpoints.drivers],
            endpoints.kinds,
            np.where(reg_nodes >= 0, node_of[reg_nodes], -1).astype(np.int32),
        )
    )
    target.validate()
    return target


def build_variants(design: Design, variants: tuple = BOG_VARIANTS) -> Dict[str, BOG]:
    """Build the requested BOG variants for ``design`` (SOG is built once)."""
    sog = build_sog(design)
    graphs: Dict[str, BOG] = {}
    for variant in variants:
        graphs[variant] = sog if variant == "sog" else convert(sog, variant)
    return graphs


# ---------------------------------------------------------------------------
# Per-variant templates
# ---------------------------------------------------------------------------


def _emitters(target: BOG, names: List[Optional[str]]) -> Tuple[Callable[..., int], ...]:
    """Per SOG type code, the function emitting that node into ``target``.

    Sources take the SOG node id; operators take their mapped fanins.  OR,
    XOR and MUX outside the target's alphabet are rebuilt from the operators
    it has.
    """
    AND, NOT, XOR, MUX = target.AND, target.NOT, target.XOR, target.MUX
    allowed = VARIANT_OPERATORS[target.variant]

    def or_via_and(a: int, b: int) -> int:
        # De Morgan: a | b = ~(~a & ~b)
        return NOT(AND(NOT(a), NOT(b)))

    def xor_via_mux(a: int, b: int) -> int:
        # a ^ b = a ? ~b : b
        return MUX(a, NOT(b), b)

    def xor_via_and(a: int, b: int) -> int:
        # a ^ b = ~(~(a & ~b) & ~(~a & b))
        left = AND(a, NOT(b))
        right = AND(NOT(a), b)
        return NOT(AND(NOT(left), NOT(right)))

    def mux_via_xor(sel: int, a: int, b: int) -> int:
        # sel ? a : b  =  b ^ (sel & (a ^ b))
        return XOR(b, AND(sel, XOR(a, b)))

    def mux_via_and(sel: int, a: int, b: int) -> int:
        # sel ? a : b  =  ~(~(sel & a) & ~(~sel & b))
        left = AND(sel, a)
        right = AND(NOT(sel), b)
        return NOT(AND(NOT(left), NOT(right)))

    emitters = {
        NodeType.CONST0: lambda node_id: target.const0(),
        NodeType.CONST1: lambda node_id: target.const1(),
        NodeType.INPUT: lambda node_id: target.add_input(names[node_id] or f"pi_{node_id}"),
        NodeType.REG: lambda node_id: target.add_register(names[node_id] or f"reg_{node_id}"),
        NodeType.AND: AND,
        NodeType.OR: target.OR if NodeType.OR in allowed else or_via_and,
        NodeType.XOR: (
            XOR
            if NodeType.XOR in allowed
            else xor_via_mux if NodeType.MUX in allowed else xor_via_and
        ),
        NodeType.NOT: NOT,
        NodeType.MUX: (
            MUX
            if NodeType.MUX in allowed
            else mux_via_xor if NodeType.XOR in allowed else mux_via_and
        ),
    }
    return tuple(emitters[node_type] for node_type in NODE_TYPE_CODE)
