"""Verilog front end: lexer, parser, AST, word-level design IR and generators.

This package implements the RTL-handling substrate that the RTL-Timer paper
obtains from commercial front ends.  It supports a synthesizable Verilog
subset sufficient for the benchmark families used in the paper's evaluation
(register banks, datapaths, FSMs, pipelines, bus fabrics):

* module declarations with ``input`` / ``output`` ports,
* ``wire`` / ``reg`` declarations with vector ranges,
* continuous ``assign`` statements,
* ``always @(posedge clk)`` processes with non-blocking assignments and
  ``if``/``else`` trees,
* expressions over the usual bitwise, arithmetic, relational, logical,
  reduction, shift, concatenation, replication, ternary and select operators.

The public entry points are :func:`parse_source` (text -> :class:`Module`
AST), :func:`analyze` (AST -> :class:`~repro.hdl.design.Design` word-level
IR) and :func:`generate_design` (synthetic benchmark designs mirroring
Table 3 of the paper).
"""

from repro.hdl.ast_nodes import (
    Module,
    PortDecl,
    NetDecl,
    Assign,
    AlwaysFF,
    NonBlocking,
    IfStatement,
    Identifier,
    Number,
    UnaryOp,
    BinaryOp,
    Ternary,
    BitSelect,
    PartSelect,
    Concat,
    Repeat,
)
from repro.hdl.lexer import Lexer, Token, TokenKind, LexerError
from repro.hdl.parser import Parser, ParseError, parse_source
from repro.hdl.design import Design, Signal, SignalKind, analyze, AnalysisError
from repro.hdl.generate import (
    DesignSpec,
    GeneratorConfig,
    generate_design,
    BENCHMARK_SPECS,
)
from repro.hdl.writer import write_verilog

__all__ = [
    "Module",
    "PortDecl",
    "NetDecl",
    "Assign",
    "AlwaysFF",
    "NonBlocking",
    "IfStatement",
    "Identifier",
    "Number",
    "UnaryOp",
    "BinaryOp",
    "Ternary",
    "BitSelect",
    "PartSelect",
    "Concat",
    "Repeat",
    "Lexer",
    "Token",
    "TokenKind",
    "LexerError",
    "Parser",
    "ParseError",
    "parse_source",
    "Design",
    "Signal",
    "SignalKind",
    "analyze",
    "AnalysisError",
    "DesignSpec",
    "GeneratorConfig",
    "generate_design",
    "BENCHMARK_SPECS",
    "write_verilog",
]
