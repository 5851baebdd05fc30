"""Boundary stratification of a colex ball: regions, borders, corners.

Everything is reconstructed intrinsically from incidence counts, with no
reference to an embedding complex:

  * 3D: a plaquette on the boundary lies in exactly one cell (interior
    plaquettes lie in two). An edge lies in three cells in the bulk, two
    when it is interior to a region, and one when it sits on a border.
  * The color pair of a border edge is the unique pair, among those
    containing the edge's own color, with no present plaquette through the
    edge: that plaquette is exactly what the boundary removed.
  * A corner is a vertex where three distinct borders meet (two in 2D); its
    color is the common color of the meeting pairs, or the color absent
    from all of them when they have none in common.
  * Regions are connected components of boundary plaquettes, where
    adjacency is sharing a region-interior edge (cell count two). A
    region's color triple is the union of its plaquette pairs and incident
    border pairs.

In 2D the same scheme degenerates gracefully: plaquettes replace cells in
the counts and the single disc is the only region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colex import Colex, color_set, validate


@dataclass
class Border:
    pair: str
    edges: tuple[int, ...]
    regions: tuple[int, int]
    endpoints: tuple[int, ...]  # corner vertices (empty for closed loops)
    odd: bool = False


@dataclass
class Corner:
    color: str
    vertex: int


@dataclass
class Region:
    colors: str
    vertices: frozenset
    plaquettes: tuple[int, ...]
    borders: tuple[int, ...] = ()
    classification: str = "other"  # free / frozen / other


@dataclass
class BoundaryStructure:
    regions: list[Region]
    borders: list[Border]
    corners: list[Corner]

    def region_with_colors(self, colors) -> list[int]:
        want = color_set(colors)
        return [i for i, r in enumerate(self.regions) if r.colors == want]


class BoundaryError(ValueError):
    pass


def boundary_structure(colex: Colex) -> BoundaryStructure:
    """Compute the full boundary stratification. Raises on invalid colexes."""
    report = validate(colex)
    if not report.ok:
        raise BoundaryError(f"colex fails validation: {report!r}")
    colex._build_indexes()
    if colex.dimension == 3:
        return _boundary_3d(colex)
    return _boundary_2d(colex)


def _border_pair(colex: Colex, ei: int, present_container_pairs) -> str:
    """Pair of the border through edge ei: the missing plaquette's pair."""
    _, _, ecolor = colex.edges[ei]
    candidates = [color_set((ecolor, c)) for c in colex.palette if c != ecolor]
    missing = [p for p in candidates if p not in present_container_pairs]
    if len(missing) != 1:
        raise BoundaryError(
            f"edge {ei} has {len(missing)} candidate border pairs; "
            "boundary structure is not intrinsically recoverable"
        )
    return missing[0]


def _group_border_edges(colex: Colex, border_edges: dict[int, str]):
    """Split border edges into connected runs of a common pair."""
    by_vertex: dict[int, list[int]] = {}
    for ei in border_edges:
        a, b, _ = colex.edges[ei]
        by_vertex.setdefault(a, []).append(ei)
        by_vertex.setdefault(b, []).append(ei)
    unassigned = set(border_edges)
    groups: list[tuple[str, list[int]]] = []
    while unassigned:
        seed = min(unassigned)
        pair = border_edges[seed]
        comp = {seed}
        frontier = [seed]
        unassigned.discard(seed)
        while frontier:
            ei = frontier.pop()
            a, b, _ = colex.edges[ei]
            for v in (a, b):
                for ej in by_vertex[v]:
                    if ej in unassigned and border_edges[ej] == pair:
                        unassigned.discard(ej)
                        comp.add(ej)
                        frontier.append(ej)
        groups.append((pair, sorted(comp)))
    return groups, by_vertex


def _corner_color(colex: Colex, vertex: int, pairs: list[str]) -> str:
    common = set(pairs[0])
    for p in pairs[1:]:
        common &= set(p)
    if len(common) == 1:
        color = next(iter(common))
    else:
        absent = set(colex.palette) - set().union(*(set(p) for p in pairs))
        if len(absent) != 1:
            raise BoundaryError(
                f"corner at vertex {vertex}: border pairs {pairs} do not "
                "determine a corner color"
            )
        color = next(iter(absent))
    # cross-check against the missing edge color when the vertex is truncated
    colex._build_indexes()
    have = set(colex.vertex_edges[vertex])
    if len(have) == colex.dimension:
        missing = set(colex.palette) - have
        if missing != {color}:
            raise BoundaryError(
                f"corner at vertex {vertex}: border pairs give {color!r} but "
                f"the missing edge color is {missing}"
            )
    return color


def _classify(region_pairs_odd_counts: dict[str, int], triple: str) -> str:
    pairs_in_triple = [
        color_set((a, b))
        for i, a in enumerate(triple)
        for b in triple[i + 1 :]
    ]
    counts = [region_pairs_odd_counts.get(p, 0) for p in pairs_in_triple]
    if all(c == 0 for c in counts):
        return "frozen"
    if all(c % 2 == 1 for c in counts):
        return "free"
    return "other"


def _assemble(colex, boundary_plaquettes, border_edges, region_of_plaquette, n_regions):
    """Common 2D/3D tail: borders, corners, regions, classification."""
    groups, by_vertex = _group_border_edges(colex, border_edges)

    # corner candidates: vertices where edges of >= dimension-1 distinct
    # groups meet (3 borders in 3D, 2 in 2D)
    group_of_edge = {}
    for gi, (_, eids) in enumerate(groups):
        for ei in eids:
            group_of_edge[ei] = gi
    corners = []
    corner_vertices = {}
    for v, eids in sorted(by_vertex.items()):
        gids = sorted({group_of_edge[ei] for ei in eids})
        if len(gids) >= (3 if colex.dimension == 3 else 2):
            pairs = [groups[g][0] for g in gids]
            color = _corner_color(colex, v, pairs)
            corner_vertices[v] = color
            corners.append(Corner(color, v))

    borders = []
    for pair, eids in groups:
        # endpoint vertices: incident to exactly one edge of this border
        count: dict[int, int] = {}
        for ei in eids:
            a, b, _ = colex.edges[ei]
            count[a] = count.get(a, 0) + 1
            count[b] = count.get(b, 0) + 1
        endpoints = tuple(sorted(v for v, k in count.items() if k == 1))
        # adjoining regions: regions of the boundary plaquettes through the edges
        adjoining = set()
        for ei in eids:
            for pi in colex.edge_plaquettes[ei]:
                if pi in region_of_plaquette:
                    adjoining.add(region_of_plaquette[pi])
        if colex.dimension == 3:
            if len(adjoining) != 2:
                raise BoundaryError(
                    f"border {pair} with edges {eids} adjoins {len(adjoining)} regions"
                )
            regions_pair = tuple(sorted(adjoining))
        else:
            regions_pair = (0, 0)
        odd = False
        if len(endpoints) == 2:
            ca = corner_vertices.get(endpoints[0])
            cb = corner_vertices.get(endpoints[1])
            odd = ca is not None and cb is not None and ca != cb
        borders.append(Border(pair, tuple(eids), regions_pair, endpoints, odd))

    # region assembly
    plaquettes_by_region: list[list[int]] = [[] for _ in range(n_regions)]
    for pi, ri in region_of_plaquette.items():
        plaquettes_by_region[ri].append(pi)
    regions = []
    for ri in range(n_regions):
        plist = sorted(plaquettes_by_region[ri])
        colors = set()
        verts = set()
        for pi in plist:
            colors |= set(colex.plaquette_colors(pi))
            verts |= set(colex.plaquette_vertices(pi))
        my_borders = tuple(
            bi for bi, border in enumerate(borders) if ri in border.regions
        )
        for bi in my_borders:
            colors |= set(borders[bi].pair)
        odd_counts: dict[str, int] = {}
        for bi in my_borders:
            if borders[bi].odd:
                odd_counts[borders[bi].pair] = odd_counts.get(borders[bi].pair, 0) + 1
        triple = color_set(colors)
        if len(triple) != 3:
            raise BoundaryError(f"region {ri} has color set {triple!r}, expected 3")
        regions.append(
            Region(triple, frozenset(verts), tuple(plist), my_borders, _classify(odd_counts, triple))
        )
    return BoundaryStructure(regions, borders, corners)


def _boundary_3d(colex: Colex) -> BoundaryStructure:
    boundary_plaquettes = [
        pi for pi in range(len(colex.plaquettes)) if len(colex.plaquette_cells[pi]) == 1
    ]
    bset = set(boundary_plaquettes)
    border_edges = {}
    for ei in range(len(colex.edges)):
        ncells = len(colex.edge_cells[ei])
        if ncells == 1:
            present = {colex.plaquette_colors(pi) for pi in colex.edge_plaquettes[ei]}
            border_edges[ei] = _border_pair(colex, ei, present)
        elif ncells == 0:
            raise BoundaryError(f"edge {ei} belongs to no cell")

    # regions: union boundary plaquettes across region-interior edges
    parent = {pi: pi for pi in boundary_plaquettes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ei in range(len(colex.edges)):
        if len(colex.edge_cells[ei]) == 2:
            here = [pi for pi in colex.edge_plaquettes[ei] if pi in bset]
            for a, b in zip(here, here[1:]):
                parent[find(a)] = find(b)

    roots = sorted({find(pi) for pi in boundary_plaquettes})
    region_index = {root: i for i, root in enumerate(roots)}
    region_of_plaquette = {pi: region_index[find(pi)] for pi in boundary_plaquettes}
    return _assemble(colex, boundary_plaquettes, border_edges, region_of_plaquette, len(roots))


def _boundary_2d(colex: Colex) -> BoundaryStructure:
    border_edges = {}
    for ei in range(len(colex.edges)):
        nplq = len(colex.edge_plaquettes[ei])
        if nplq == 1:
            present = {colex.plaquette_colors(pi) for pi in colex.edge_plaquettes[ei]}
            border_edges[ei] = _border_pair(colex, ei, present)
        elif nplq == 0:
            raise BoundaryError(f"edge {ei} belongs to no plaquette")
    # the whole disc is the single region
    region_of_plaquette = {pi: 0 for pi in range(len(colex.plaquettes))}
    return _assemble(
        colex,
        list(range(len(colex.plaquettes))),
        border_edges,
        region_of_plaquette,
        1,
    )
