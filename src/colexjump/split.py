"""Splitting a tetrahedral colex at a facet: outer 2-colex, inner colex, duals.

The outer colex is the chosen facet (a triangular 2-colex in its own right);
the inner colex keeps the vertices, edges and cells with no contact with the
facet. Cells and plaquettes straddling the two are interface elements: each
interface cell owns exactly one outer plaquette (anything else is rejected
as pathological), and each interface plaquette restricts to a single outer
edge. Those two maps drive both the flux machinery and the gauge-group
restriction.

Dual edges: every inner plaquette of a given color pair pierces one dual
edge joining the (at most two) cells that meet at it. An endpoint is the
inner cell itself, the outer plaquette owned by an interface cell, or the
lateral facet when the plaquette has no second cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boundary import BoundaryError, boundary_structure
from .colex import Colex, color_set

INNER_CELL = "cell"
OUTER_PLAQUETTE = "outer"
FACET = "facet"


@dataclass(frozen=True)
class Endpoint:
    kind: str  # INNER_CELL / OUTER_PLAQUETTE / FACET
    index: int | None = None

    def __repr__(self) -> str:
        if self.kind == FACET:
            return "Facet"
        return f"{self.kind.capitalize()}({self.index})"


@dataclass(frozen=True)
class DualEdge:
    plaquette: int  # inner plaquette id in the parent 3-colex
    endpoints: tuple[Endpoint, Endpoint]

    def inner_cells(self) -> list[int]:
        return [e.index for e in self.endpoints if e.kind == INNER_CELL]

    def outer_plaquettes(self) -> list[int]:
        return [e.index for e in self.endpoints if e.kind == OUTER_PLAQUETTE]


class SplitError(ValueError):
    pass


@dataclass
class SplitResult:
    parent: Colex
    facet: str
    outer: Colex
    inner: Colex
    outer_vertices: list[int]  # outer id -> parent vertex
    inner_vertices: list[int]  # inner id -> parent vertex
    outer_plaquette_of_cell: dict[int, int]  # interface cell -> outer plaquette id
    outer_edge_of_plaquette: dict[int, int]  # interface plaquette -> outer edge id
    interface_cells: list[int]
    interface_plaquettes: list[int]
    # basis -> the parent's plaquette operators of that type by plaquette id,
    # built once by `flux.extract_flux`
    plaquette_ops: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def outer_index(self) -> dict[int, int]:
        return {pv: i for i, pv in enumerate(self.outer_vertices)}

    @property
    def inner_index(self) -> dict[int, int]:
        return {pv: i for i, pv in enumerate(self.inner_vertices)}


def split_colex(colex3: Colex, facet) -> SplitResult:
    """Split a tetrahedral 3-colex at one of its facets."""
    facet = color_set(facet)
    if colex3.dimension != 3:
        raise SplitError("split requires a 3-colex")
    structure = boundary_structure(colex3)
    matches = structure.region_with_colors(facet)
    if len(matches) != 1:
        raise SplitError(
            f"expected exactly one {facet} region, found {len(matches)}"
        )
    outer_set = set(structure.regions[matches[0]].vertices)
    colex3._build_indexes()

    outer_vertices = sorted(outer_set)
    outer_index = {v: i for i, v in enumerate(outer_vertices)}
    outer_edges = []
    for a, b, c in colex3.edges:
        if a in outer_set and b in outer_set:
            if c not in facet:
                raise SplitError(
                    f"edge ({a},{b}) inside the {facet} facet has color {c!r}"
                )
            outer_edges.append((outer_index[a], outer_index[b], c))
    outer_plaquettes = []
    outer_plaq_parent = []
    for pi, (vs, cs) in enumerate(colex3.plaquettes):
        if set(vs) <= outer_set:
            outer_plaquettes.append(([outer_index[v] for v in vs], cs))
            outer_plaq_parent.append(pi)
    outer = Colex(
        2,
        len(outer_vertices),
        outer_edges,
        outer_plaquettes,
        name=f"{colex3.name or 'colex'}-outer-{facet}",
    )
    outer_plaq_id = {pi: i for i, pi in enumerate(outer_plaq_parent)}

    inner_vertices = sorted(set(range(colex3.n_vertices)) - outer_set)
    inner_index = {v: i for i, v in enumerate(inner_vertices)}
    inner_set = set(inner_vertices)
    inner_edges = [
        (inner_index[a], inner_index[b], c)
        for a, b, c in colex3.edges
        if a in inner_set and b in inner_set
    ]
    inner_plaquettes = []
    for vs, cs in colex3.plaquettes:
        if set(vs) <= inner_set:
            inner_plaquettes.append(([inner_index[v] for v in vs], cs))
    inner_cells = []
    for vs, cs in colex3.cells:
        if set(vs) <= inner_set:
            inner_cells.append(([inner_index[v] for v in vs], cs))
    inner = Colex(
        3,
        len(inner_vertices),
        inner_edges,
        inner_plaquettes,
        inner_cells,
        name=f"{colex3.name or 'colex'}-inner-{facet}",
    )

    # interface maps
    outer_plaquette_of_cell: dict[int, int] = {}
    interface_cells = []
    for ci, (vs, cs) in enumerate(colex3.cells):
        vset = set(vs)
        if vset & outer_set and vset & inner_set:
            interface_cells.append(ci)
            owned = [
                pi
                for pi in range(len(colex3.plaquettes))
                if pi in outer_plaq_id
                and set(colex3.plaquette_vertices(pi)) <= vset
                and set(colex3.plaquette_colors(pi)) <= set(cs)
            ]
            if len(owned) != 1:
                raise SplitError(
                    f"pathological colex: interface cell {ci} ({cs}) owns "
                    f"{len(owned)} outer plaquettes instead of 1"
                )
            outer_plaquette_of_cell[ci] = outer_plaq_id[owned[0]]

    outer_edge_index = {}
    for i, (a, b, c) in enumerate(outer.edges):
        outer_edge_index[(a, b)] = i
    outer_edge_of_plaquette: dict[int, int] = {}
    interface_plaquettes = []
    for pi, (vs, cs) in enumerate(colex3.plaquettes):
        vset = set(vs)
        if vset & outer_set and vset & inner_set:
            interface_plaquettes.append(pi)
            ends = sorted(outer_index[v] for v in vset & outer_set)
            if len(ends) != 2 or (ends[0], ends[1]) not in outer_edge_index:
                raise SplitError(
                    f"pathological colex: interface plaquette {pi} does not "
                    f"restrict to a single outer edge (outer part {ends})"
                )
            outer_edge_of_plaquette[pi] = outer_edge_index[(ends[0], ends[1])]

    return SplitResult(
        parent=colex3,
        facet=facet,
        outer=outer,
        inner=inner,
        outer_vertices=outer_vertices,
        inner_vertices=inner_vertices,
        outer_plaquette_of_cell=outer_plaquette_of_cell,
        outer_edge_of_plaquette=outer_edge_of_plaquette,
        interface_cells=interface_cells,
        interface_plaquettes=interface_plaquettes,
    )


def inner_plaquettes_of_pair(split: SplitResult, pair: str) -> list[int]:
    """Parent ids of inner plaquettes with the given color pair."""
    pair = color_set(pair)
    inner_set = set(split.inner_vertices)
    return [
        pi
        for pi, (vs, cs) in enumerate(split.parent.plaquettes)
        if cs == pair and set(vs) <= inner_set
    ]


def dual_edges(split: SplitResult, pair: str) -> list[DualEdge]:
    """One dual edge per inner plaquette of the pair, endpoints classified."""
    pair = color_set(pair)
    if not set(pair) <= set(split.facet):
        raise SplitError(
            f"pair {pair!r} is incompatible with collapse onto the {split.facet} facet"
        )
    parent = split.parent
    parent._build_indexes()
    inner_set = set(split.inner_vertices)
    out = []
    for pi in inner_plaquettes_of_pair(split, pair):
        endpoints = []
        for ci in parent.plaquette_cells[pi]:
            cset = set(parent.cell_vertices(ci))
            if cset <= inner_set:
                endpoints.append(Endpoint(INNER_CELL, ci))
            else:
                endpoints.append(
                    Endpoint(OUTER_PLAQUETTE, split.outer_plaquette_of_cell[ci])
                )
        while len(endpoints) < 2:
            endpoints.append(Endpoint(FACET))
        if len(endpoints) != 2:
            raise SplitError(f"inner plaquette {pi} meets {len(endpoints)} cells")
        out.append(DualEdge(pi, tuple(endpoints)))
    return out
