"""Color-code groups (stabilizer / gauge / logical) built from colexes.

Self-dual CSS throughout: every X-type generator has a Z-type twin on the
same support, so codes are described by support families:

  * triangular 2D:  S = G = all plaquettes; logicals live on all qubits
  * tetrahedral 3D: G = all plaquettes, S = all cells; logicals on all qubits
  * inner 3D:       G = inner plaquettes; S = inner cells plus the inner
                    restrictions of interface cells; no logical qubits

Region operators (products of single-qubit flips over a boundary region) tie
the boundary stratification to the group structure: a region is free exactly
when its X and Z operators anticommute, and frozen regions contribute
stabilizer elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryStructure, Region, boundary_structure
from .colex import Colex, color_set
from .gf2 import BitMatrix
from .pauli import (
    PauliGroup,
    PauliOperator,
    css_min_weight,
    logical_qubit_count,
    min_weight_logical,
)
from .split import SplitResult


@dataclass
class CodeTriple:
    n: int
    S: PauliGroup
    G: PauliGroup
    L: PauliGroup
    kind: str  # Triangular2D / Tetrahedral3D / Inner3D
    colex: Colex
    qubit_map: dict[int, int]  # colex vertex -> qubit index
    # compiled on first use from the fields above, never part of equality
    _dual_structure: object = field(default=None, compare=False, repr=False)
    _single_shot_plan: object = field(default=None, compare=False, repr=False)

    def x_support_rows(self, group: str) -> np.ndarray:
        """Supports of the X-type generators of S/G/L as a dense 0/1 matrix."""
        gens = {"S": self.S, "G": self.G, "L": self.L}[group].generators
        return BitMatrix([g.x for g in gens if g.x and not g.z], self.n).to_dense()


def _support_group(n: int, supports) -> PauliGroup:
    gens = []
    for sup in supports:
        gens.append(PauliOperator.from_support(n, "X", sup))
        gens.append(PauliOperator.from_support(n, "Z", sup))
    return PauliGroup(n, gens)


def _sorted_supports(colex: Colex, elements) -> list[tuple]:
    """Canonical generator order: by (color set, min vertex id)."""
    return [vs for vs, _ in sorted(elements, key=lambda e: (e[1], min(e[0])))]


def build_2d(colex2: Colex) -> CodeTriple:
    """Triangular 2D color code: plaquettes generate both S and G."""
    if colex2.dimension != 2:
        raise ValueError("build_2d needs a 2-colex")
    bs = boundary_structure(colex2)
    corner_colors = sorted(c.color for c in bs.corners)
    if len(bs.regions) != 1 or corner_colors != ["b", "g", "r"]:
        raise ValueError("not a triangular 2-colex boundary")
    n = colex2.n_vertices
    plaq = _sorted_supports(colex2, colex2.plaquettes)
    S = _support_group(n, plaq)
    G = _support_group(n, plaq)
    L = _support_group(n, [tuple(range(n))])
    return CodeTriple(n, S, G, L, "Triangular2D", colex2, {v: v for v in range(n)})


def build_3d(colex3: Colex) -> CodeTriple:
    """Tetrahedral 3D gauge color code: plaquettes gauge, cells stabilizer."""
    if colex3.dimension != 3:
        raise ValueError("build_3d needs a 3-colex")
    bs = boundary_structure(colex3)
    triples = sorted(r.colors for r in bs.regions)
    if triples != ["gby", "rby", "rgb", "rgy"] or any(
        r.classification != "free" for r in bs.regions
    ):
        raise ValueError("not a tetrahedral 3-colex boundary")
    n = colex3.n_vertices
    S = _support_group(n, _sorted_supports(colex3, colex3.cells))
    G = _support_group(n, _sorted_supports(colex3, colex3.plaquettes))
    L = _support_group(n, [tuple(range(n))])
    return CodeTriple(n, S, G, L, "Tetrahedral3D", colex3, {v: v for v in range(n)})


def build_inner(split: SplitResult) -> CodeTriple:
    """Inner code of a split: k = 0; interface-cell restrictions included."""
    inner = split.inner
    n = inner.n_vertices
    inner_index = split.inner_index
    stab_supports = list(_sorted_supports(inner, inner.cells))
    for ci in split.interface_cells:
        verts = [
            inner_index[v]
            for v in split.parent.cell_vertices(ci)
            if v in inner_index
        ]
        stab_supports.append(tuple(sorted(verts)))
    S = _support_group(n, stab_supports)
    G = _support_group(n, _sorted_supports(inner, inner.plaquettes))
    L = PauliGroup(n, [])
    return CodeTriple(n, S, G, L, "Inner3D", inner, {v: v for v in range(n)})


def region_operator(code: CodeTriple, region: Region, kind: str) -> PauliOperator:
    """X_R or Z_R: product of single-qubit operators over the region."""
    if kind not in ("X", "Z"):
        raise ValueError("kind must be 'X' or 'Z'")
    try:
        qubits = [code.qubit_map[v] for v in sorted(region.vertices)]
    except KeyError as exc:
        raise ValueError(f"region vertex {exc} is not a qubit of this code") from exc
    return PauliOperator.from_support(code.n, kind, qubits)


def verify_redundancy(code: CodeTriple, structure: BoundaryStructure | None = None) -> bool:
    """Cell-product identity on colexes whose corners all share one color.

    For each pair kk' of the non-corner colors, the product of all cell
    operators whose triples are kk'+corner-color or the full non-corner
    triple equals the product of the kk'-family region operators. Checked
    for X and Z types.
    """
    colex = code.colex
    if structure is None:
        structure = boundary_structure(colex)
    corner_colors = {c.color for c in structure.corners}
    if len(corner_colors) != 1:
        raise ValueError("redundancy identity needs single-color corners")
    y = next(iter(corner_colors))
    others = [c for c in colex.palette if c != y]
    base_triple = color_set(others)
    for i, a in enumerate(others):
        for b in others[i + 1 :]:
            mixed_triple = color_set((a, b, y))
            acc = np.zeros(code.n, dtype=np.uint8)
            for vs, cs in colex.cells:
                if cs in (base_triple, mixed_triple):
                    for v in vs:
                        acc[code.qubit_map[v]] ^= 1
            for region in structure.regions:
                if region.colors == mixed_triple:
                    for v in region.vertices:
                        acc[code.qubit_map[v]] ^= 1
            if acc.any():
                return False
    return True


def restrict_gauge_to_outer(code3: CodeTriple, split: SplitResult) -> PauliGroup:
    """The gauge group constrained to outer qubits: outer edge operators.

    Every interface plaquette restricts to one outer edge, and outer
    plaquettes are products of their own pair edges, so the edge operators
    generate the whole restriction.
    """
    outer = split.outer
    gens = []
    for a, b, _ in outer.edges:
        gens.append(PauliOperator.from_support(outer.n_vertices, "X", (a, b)))
        gens.append(PauliOperator.from_support(outer.n_vertices, "Z", (a, b)))
    return PauliGroup(outer.n_vertices, gens)


def shared_logicals(code3: CodeTriple, code2: CodeTriple, split: SplitResult) -> PauliGroup:
    """Common logical representatives: X and Z over all outer qubits.

    Verified to centralize the 3D gauge group (extended by identity on inner
    qubits) and the 2D gauge group; rejects colexes where this fails.
    """
    n2 = code2.n
    L = _support_group(n2, [tuple(range(n2))])
    cent2 = code2.G.centralizer()
    for gen in L.generators:
        if not cent2.contains(gen, up_to_sign=True):
            raise ValueError("all-outer-qubit logical fails on the 2D code")
    n3 = code3.n
    for kind in ("X", "Z"):
        big = PauliOperator.from_support(
            n3, kind, [code3.qubit_map[v] for v in split.outer_vertices]
        )
        for gen in code3.G.generators:
            if not big.commutes_with(gen):
                raise ValueError(
                    "all-outer-qubit logical does not centralize the 3D gauge group"
                )
    return L


def code_parameters(code: CodeTriple, want_distance: bool = True):
    """(n, k, d); d by brute force below 21 qubits, kernel sweep otherwise."""
    k = logical_qubit_count(code.S, code.G)
    d = None
    if want_distance and k > 0:
        if code.n <= 20:
            d = min_weight_logical(code.S, code.G, code.L)
        else:
            z_rows = [g.z for g in code.S.generators if g.z and not g.x]
            checks = BitMatrix(z_rows, code.n).to_dense()
            trivial = np.vstack([code.x_support_rows("S"), code.x_support_rows("G")])
            d = css_min_weight(checks, trivial)
    return code.n, k, d
