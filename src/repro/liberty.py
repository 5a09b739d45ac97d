"""Liberty-like standard cell library.

Stands in for the NanGate 45 nm PDK used by the paper.  Each cell carries a
simplified NLDM-style timing model::

    delay(cell, input_slew, load) = intrinsic + resistance * load
                                    + slew_factor * input_slew
    output_slew(cell, load)       = slew_intrinsic + slew_resistance * load

plus per-pin input capacitance, area and leakage power.  The absolute numbers
are loosely calibrated to a 45 nm class library (picoseconds, femtofarads,
square microns, nanowatts); what matters for the reproduction is that they
are internally consistent so synthesis, STA and the ML labels agree.

Two libraries are exposed:

* :func:`nangate45_like` — the target library used for technology mapping and
  netlist STA (multiple drive strengths per function).
* :func:`pseudo_library` — single-size "pseudo cells" for the BOG operator
  types, used by the pseudo-STA pass the paper runs directly on the RTL
  representation (Section 3.2: the BOG is treated as a pseudo netlist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Cell:
    """One standard cell with a simplified NLDM timing model."""

    name: str
    function: str  # e.g. "NAND2", "INV", "DFF"
    n_inputs: int
    area: float  # um^2
    input_cap: float  # fF per input pin
    intrinsic_delay: float  # ps
    resistance: float  # ps per fF of load
    slew_factor: float  # ps of delay per ps of input slew
    slew_intrinsic: float  # ps
    slew_resistance: float  # ps per fF of load
    leakage: float  # nW
    drive: int = 1  # drive strength index (X1, X2, X4 ...)
    is_sequential: bool = False
    clk_to_q: float = 0.0  # ps (sequential cells only)
    setup_time: float = 0.0  # ps (sequential cells only)

    def delay(self, input_slew: float, load: float) -> float:
        """Pin-to-pin delay for the given input slew and output load."""
        return self.intrinsic_delay + self.resistance * load + self.slew_factor * input_slew

    def output_slew(self, load: float) -> float:
        """Output transition time for the given output load."""
        return self.slew_intrinsic + self.slew_resistance * load

    def dynamic_energy(self, load: float) -> float:
        """Switching energy proxy (fJ) per output transition."""
        return 0.5 * (load + self.n_inputs * self.input_cap)


class Library:
    """A collection of cells indexed by logic function and drive strength."""

    def __init__(self, name: str, cells: List[Cell]):
        self.name = name
        self.cells: Dict[str, Cell] = {cell.name: cell for cell in cells}
        self._by_function: Dict[str, List[Cell]] = {}
        for cell in cells:
            self._by_function.setdefault(cell.function, []).append(cell)
        for variants in self._by_function.values():
            variants.sort(key=lambda c: c.drive)
        self._picked: Dict[Tuple[str, int], Cell] = {}

    def __getstate__(self) -> dict:
        # The pick memo depends on which cells were asked for, not on the library.
        state = self.__dict__.copy()
        state["_picked"] = {}
        return state

    def cell(self, name: str) -> Cell:
        """Look up a cell by its full name (e.g. ``"NAND2_X2"``)."""
        return self.cells[name]

    def functions(self) -> List[str]:
        return sorted(self._by_function)

    def variants(self, function: str) -> List[Cell]:
        """All drive strengths implementing ``function`` (weakest first)."""
        try:
            return list(self._by_function[function])
        except KeyError as exc:
            raise KeyError(f"library {self.name!r} has no cell for {function!r}") from exc

    def pick(self, function: str, drive: int = 1) -> Cell:
        """Cell implementing ``function`` with drive closest to ``drive`` (memoised)."""
        best = self._picked.get((function, drive))
        if best is None:
            variants = self.variants(function)
            best = self._picked[(function, drive)] = min(
                variants, key=lambda c: abs(c.drive - drive)
            )
        return best

    def upsize(self, cell: Cell) -> Optional[Cell]:
        """Next stronger drive strength of the same function, if any."""
        variants = self.variants(cell.function)
        stronger = [c for c in variants if c.drive > cell.drive]
        return stronger[0] if stronger else None

    def downsize(self, cell: Cell) -> Optional[Cell]:
        """Next weaker drive strength of the same function, if any."""
        variants = self.variants(cell.function)
        weaker = [c for c in variants if c.drive < cell.drive]
        return weaker[-1] if weaker else None

    def __contains__(self, function: str) -> bool:
        return function in self._by_function

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self.cells)} cells)"


# ---------------------------------------------------------------------------
# Library construction
# ---------------------------------------------------------------------------


def _drive_variants(
    name: str,
    function: str,
    n_inputs: int,
    area: float,
    input_cap: float,
    intrinsic: float,
    resistance: float,
    slew_factor: float,
    leakage: float,
    drives: Tuple[int, ...] = (1, 2, 4),
) -> List[Cell]:
    """Build X1/X2/X4 variants: stronger cells are faster driving loads but
    bigger, more capacitive and leakier."""
    cells = []
    for drive in drives:
        cells.append(
            Cell(
                name=f"{name}_X{drive}",
                function=function,
                n_inputs=n_inputs,
                area=area * (0.7 + 0.35 * drive),
                input_cap=input_cap * (0.8 + 0.25 * drive),
                intrinsic_delay=intrinsic * (1.05 - 0.05 * drive),
                resistance=resistance / drive,
                slew_factor=slew_factor,
                slew_intrinsic=8.0 + intrinsic * 0.3,
                slew_resistance=1.2 / drive,
                leakage=leakage * drive,
                drive=drive,
            )
        )
    return cells


def nangate45_like() -> Library:
    """The target standard-cell library used for mapping and netlist STA."""
    cells: List[Cell] = []
    # name, function, inputs, area, cap, intrinsic, resistance, slew_factor, leakage
    #
    # The delay gap between alternative decompositions of the same operator
    # (e.g. AND2 vs NAND2+INV) is intentionally pronounced: the mapper picks
    # between them pseudo-randomly, which is the structured mapping noise
    # that separates RTL-stage estimates from post-synthesis timing.
    combinational = [
        ("INV", "INV", 1, 0.53, 1.6, 7.0, 2.0, 0.08, 1.0),
        ("BUF", "BUF", 1, 0.80, 1.7, 14.0, 1.9, 0.07, 1.3),
        ("NAND2", "NAND2", 2, 0.80, 1.8, 10.0, 2.4, 0.09, 1.5),
        ("NOR2", "NOR2", 2, 0.80, 1.9, 12.0, 2.7, 0.10, 1.5),
        ("AND2", "AND2", 2, 1.06, 1.8, 25.0, 2.6, 0.09, 1.8),
        ("OR2", "OR2", 2, 1.06, 1.9, 28.0, 2.8, 0.10, 1.8),
        ("XOR2", "XOR2", 2, 1.60, 2.4, 26.0, 2.9, 0.12, 2.6),
        ("XNOR2", "XNOR2", 2, 1.60, 2.4, 30.0, 3.1, 0.12, 2.6),
        ("MUX2", "MUX2", 3, 1.86, 2.2, 24.0, 2.7, 0.11, 2.9),
        ("AOI21", "AOI21", 3, 1.33, 2.0, 15.0, 2.7, 0.10, 2.1),
        ("OAI21", "OAI21", 3, 1.33, 2.0, 16.0, 2.7, 0.10, 2.1),
    ]
    for row in combinational:
        cells.extend(_drive_variants(*row))

    # Sequential cells: one D flip-flop in two drive strengths.
    for drive in (1, 2):
        cells.append(
            Cell(
                name=f"DFF_X{drive}",
                function="DFF",
                n_inputs=1,
                area=4.52 * (0.8 + 0.2 * drive),
                input_cap=1.9,
                intrinsic_delay=0.0,
                resistance=2.0 / drive,
                slew_factor=0.0,
                slew_intrinsic=14.0,
                slew_resistance=1.1 / drive,
                leakage=4.0 * drive,
                drive=drive,
                is_sequential=True,
                clk_to_q=78.0 - 6.0 * drive,
                setup_time=42.0,
            )
        )
    return Library("nangate45_like", cells)


def pseudo_library() -> Library:
    """Pseudo standard cells for BOG operator nodes (pseudo-STA).

    One cell per Boolean operator type; delays roughly track the relative
    complexity of the operators so the pseudo-STA arrival times correlate
    with (but do not equal) the post-synthesis arrival times, exactly the
    situation the paper's feature table describes (``Avg. R`` ~ 0.4-0.6).
    """
    rows = [
        # name, function, inputs, area, cap, intrinsic, resistance, slew, leak
        ("PSEUDO_NOT", "NOT", 1, 0.5, 1.5, 9.0, 2.0, 0.08, 1.0),
        ("PSEUDO_AND", "AND", 2, 1.0, 1.8, 18.0, 2.4, 0.09, 1.7),
        ("PSEUDO_OR", "OR", 2, 1.0, 1.9, 20.0, 2.5, 0.10, 1.7),
        ("PSEUDO_XOR", "XOR", 2, 1.6, 2.4, 27.0, 2.9, 0.12, 2.5),
        ("PSEUDO_MUX", "MUX", 3, 1.8, 2.2, 25.0, 2.7, 0.11, 2.8),
    ]
    cells: List[Cell] = []
    for name, function, n_in, area, cap, intrinsic, res, slew, leak in rows:
        cells.append(
            Cell(
                name=name,
                function=function,
                n_inputs=n_in,
                area=area,
                input_cap=cap,
                intrinsic_delay=intrinsic,
                resistance=res,
                slew_factor=slew,
                slew_intrinsic=10.0,
                slew_resistance=1.2,
                leakage=leak,
            )
        )
    cells.append(
        Cell(
            name="PSEUDO_REG",
            function="REG",
            n_inputs=1,
            area=4.5,
            input_cap=1.9,
            intrinsic_delay=0.0,
            resistance=2.0,
            slew_factor=0.0,
            slew_intrinsic=14.0,
            slew_resistance=1.1,
            leakage=4.0,
            is_sequential=True,
            clk_to_q=75.0,
            setup_time=42.0,
        )
    )
    return Library("pseudo_bog", cells)


#: Mapping from BOG node types to pseudo-cell functions.
PSEUDO_FUNCTION_OF_NODE = {
    "and": "AND",
    "or": "OR",
    "xor": "XOR",
    "not": "NOT",
    "mux": "MUX",
    "reg": "REG",
}
