"""Tests for the synthetic benchmark design generator."""

import pytest

from repro.hdl.generate import (
    BENCHMARK_SPECS,
    DesignSpec,
    GeneratorConfig,
    generate_design,
)
from repro.hdl.design import analyze
from repro.hdl.parser import parse_source


def _generate_and_analyze(spec, config=None):
    """Generate, parse and analyze one design, as ``build_design_record`` does."""
    source = generate_design(spec, config)
    return analyze(parse_source(source), source=source)


def test_benchmark_has_21_designs_like_the_paper():
    assert len(BENCHMARK_SPECS) == 21
    names = {spec.name for spec in BENCHMARK_SPECS}
    # Spot-check the design names used in Table 6 of the paper.
    assert {"b18_1", "Rocket1", "Vex7", "syscaes", "conmax", "FPU"} <= names


def test_four_families_are_covered():
    families = {spec.family for spec in BENCHMARK_SPECS}
    assert families == {"itc99", "opencores", "chipyard", "vexriscv"}


def test_generation_is_deterministic():
    spec = BENCHMARK_SPECS[0]
    assert generate_design(spec) == generate_design(spec)


def test_different_seeds_give_different_designs():
    spec_a = DesignSpec("a", "itc99", "Verilog", 1, 8, 2, 3, 4, 2)
    spec_b = DesignSpec("b", "itc99", "Verilog", 2, 8, 2, 3, 4, 2)
    assert generate_design(spec_a) != generate_design(spec_b)


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.name)
def test_every_benchmark_design_parses_and_analyzes(spec):
    design = _generate_and_analyze(spec)
    assert design.name == spec.name
    assert design.register_signals, "every design must contain registers"
    assert design.total_register_bits >= spec.data_width


def test_register_bits_scale_with_spec():
    small = DesignSpec("small", "vexriscv", "Verilog", 5, 4, 2, 2, 3, 2)
    large = DesignSpec("large", "vexriscv", "Verilog", 5, 16, 4, 6, 8, 2)
    assert (
        _generate_and_analyze(large).total_register_bits
        > _generate_and_analyze(small).total_register_bits
    )


def test_multiplier_design_contains_multiplication():
    spec = next(s for s in BENCHMARK_SPECS if s.use_multiplier)
    assert "*" in generate_design(spec)


def test_generator_config_output_fraction():
    spec = BENCHMARK_SPECS[0]
    few = _generate_and_analyze(spec, GeneratorConfig(output_fraction=0.1))
    many = _generate_and_analyze(spec, GeneratorConfig(output_fraction=0.9))
    assert len(many.outputs) >= len(few.outputs)


def test_approx_register_bits_property():
    spec = BENCHMARK_SPECS[0]
    assert spec.approx_register_bits > 0
