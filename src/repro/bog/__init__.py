"""Boolean operator graph (BOG) representations of RTL designs.

Implements the bit-level RTL representation family from Section 3.1 of the
paper: the SOG built by bit-blasting the word-level design, and the AIG,
AIMG and XAG variants derived from it.  Also provides functional simulation
used to verify that all variants are equivalent.
"""

from repro.bog.graph import BOG, BOG_VARIANTS, Endpoint, Node, NodeType, VARIANT_OPERATORS
from repro.bog.builder import build_sog, bit_name
from repro.bog.transforms import convert, build_variants
from repro.bog.simulate import (
    PACKED_LANES,
    evaluate_endpoints,
    evaluate_nodes,
    evaluate_nodes_packed,
    evaluate_signal_words,
    pack_source_vectors,
    unpack_lane,
)

__all__ = [
    "BOG",
    "BOG_VARIANTS",
    "Endpoint",
    "Node",
    "NodeType",
    "VARIANT_OPERATORS",
    "build_sog",
    "bit_name",
    "convert",
    "build_variants",
    "PACKED_LANES",
    "evaluate_endpoints",
    "evaluate_nodes",
    "evaluate_nodes_packed",
    "evaluate_signal_words",
    "pack_source_vectors",
    "unpack_lane",
]
