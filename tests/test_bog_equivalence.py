"""Functional equivalence: bit-blasting, variants and the word interpreter.

These are the strongest correctness tests of the front end: for random
stimulus, the next-state values computed by (a) the word-level interpreter,
(b) the SOG and (c) every derived variant must agree exactly.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bog.builder import bit_name, build_sog
from repro.bog.graph import VARIANT_OPERATORS
from repro.bog.simulate import evaluate_signal_words
from repro.bog.transforms import build_variants, convert
from repro.hdl.design import analyze
from repro.hdl.generate import DesignSpec, generate_design
from repro.hdl.interpret import Interpreter
from repro.hdl.parser import parse_source


def _random_stimulus(design, rng):
    values = {}
    for signal in design.inputs + design.register_signals:
        values[signal.name] = rng.getrandbits(signal.width)
    return values


def _source_bits(design, values):
    bits = {}
    for signal in design.inputs + design.register_signals:
        for i in range(signal.width):
            bits[bit_name(signal.name, i)] = (values[signal.name] >> i) & 1
    return bits


def _check_equivalence(design, n_vectors=4, seed=0):
    rng = random.Random(seed)
    interpreter = Interpreter(design)
    variants = build_variants(design)
    for _ in range(n_vectors):
        values = _random_stimulus(design, rng)
        reference = interpreter.evaluate_step(values)
        source_bits = _source_bits(design, values)
        for name, graph in variants.items():
            words = evaluate_signal_words(graph, source_bits)
            for register in design.register_signals:
                assert words[register.name] == reference[register.name], (
                    f"{name} mismatch on {register.name}"
                )


def test_simple_design_equivalence(simple_design):
    _check_equivalence(simple_design, n_vectors=8)


@pytest.mark.parametrize("family", ["itc99", "opencores", "chipyard", "vexriscv"])
def test_generated_design_equivalence(family):
    spec = DesignSpec(f"eq_{family}", family, "Verilog", 77, 6, 2, 3, 4, 2)
    design = analyze(parse_source(generate_design(spec)))
    _check_equivalence(design, n_vectors=3)


def test_variants_only_use_their_operator_alphabet(simple_design):
    variants = build_variants(simple_design)
    sources = {"const0", "const1", "input", "reg"}
    for name, graph in variants.items():
        allowed = {node_type.value for node_type in VARIANT_OPERATORS[name]}
        assert set(graph.type_counts()) - sources <= allowed


def test_variants_share_endpoints(simple_design):
    variants = build_variants(simple_design)
    reference = {(e.name, e.signal, e.bit, e.kind) for e in variants["sog"].endpoints}
    for graph in variants.values():
        assert {(e.name, e.signal, e.bit, e.kind) for e in graph.endpoints} == reference


def test_aig_is_largest_sog_is_smallest(simple_design):
    variants = build_variants(simple_design)
    assert len(variants["aig"]) >= len(variants["aimg"]) >= len(variants["sog"])
    assert len(variants["aig"]) >= len(variants["xag"])


def test_convert_sog_returns_same_object(simple_design):
    sog = build_sog(simple_design)
    assert convert(sog, "sog") is sog


def test_convert_unknown_variant_rejected(simple_design):
    sog = build_sog(simple_design)
    with pytest.raises(ValueError):
        convert(sog, "bdd")
@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
    sel=st.integers(min_value=0, max_value=1),
)
def test_arithmetic_bitblasting_matches_python(a, b, sel):
    """Adders, comparators and muxes bit-blast to the correct arithmetic."""
    source = """
    module arith (clk, a, b, sel, q);
      input clk; input [7:0] a; input [7:0] b; input sel; output [7:0] q;
      reg [7:0] q;
      wire [7:0] total;
      wire lt;
      assign total = a + b;
      assign lt = a < b;
      always @(posedge clk) q <= sel ? total : (lt ? a : (a - b));
    endmodule
    """
    design = analyze(parse_source(source))
    sog = build_sog(design)
    bits = {}
    for i in range(8):
        bits[f"a[{i}]"] = (a >> i) & 1
        bits[f"b[{i}]"] = (b >> i) & 1
    bits["sel[0]"] = sel
    words = evaluate_signal_words(sog, bits)
    if sel:
        expected = (a + b) & 0xFF
    elif a < b:
        expected = a
    else:
        expected = (a - b) & 0xFF
    assert words["q"] == expected


def test_shift_and_rotate_bitblasting():
    source = """
    module shifty (clk, a, n, q);
      input clk; input [7:0] a; input [2:0] n; output [7:0] q;
      reg [7:0] q;
      always @(posedge clk) q <= (a << n) | (a >> 2);
    endmodule
    """
    design = analyze(parse_source(source))
    sog = build_sog(design)
    for a, n in [(0b10110101, 3), (0xFF, 7), (1, 0)]:
        bits = {f"a[{i}]": (a >> i) & 1 for i in range(8)}
        bits.update({f"n[{i}]": (n >> i) & 1 for i in range(3)})
        words = evaluate_signal_words(sog, bits)
        assert words["q"] == (((a << n) | (a >> 2)) & 0xFF)


def test_multiplier_bitblasting():
    source = """
    module mul (clk, a, b, q);
      input clk; input [3:0] a; input [3:0] b; output [3:0] q;
      reg [3:0] q;
      always @(posedge clk) q <= a * b;
    endmodule
    """
    design = analyze(parse_source(source))
    sog = build_sog(design)
    for a, b in [(3, 5), (15, 15), (0, 9), (7, 2)]:
        bits = {f"a[{i}]": (a >> i) & 1 for i in range(4)}
        bits.update({f"b[{i}]": (b >> i) & 1 for i in range(4)})
        assert evaluate_signal_words(sog, bits)["q"] == (a * b) & 0xF
