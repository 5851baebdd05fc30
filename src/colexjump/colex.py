"""Colored cell complexes (2- and 3-colexes): construction, validation, I/O.

A colex is a D-dimensional lattice with (D+1)-colored edges in which
plaquettes carry two colors and cells (3D) carry three. The bundled minimal
instances place a vertex at every nonzero vector of GF(2)^(D+1); the color-k
edge at v joins v and v^bit(k) when both are nonzero, plaquettes are the
4-element cosets of two-bit subspaces that avoid zero, and cells the
8-element cosets of three-bit subspaces. The resulting 7- and 15-vertex
complexes are the triangular and tetrahedral codes of smallest size.

Vertex/element ids are dense 0-based integers, stable under save/load: the
canonical serialization sorts every list, and ids are positions in sorted
order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

COLORS = ("r", "g", "b", "y")


def color_set(colors) -> str:
    """Canonical string for an unordered color set, e.g. 'gr' -> 'rg'."""
    seen = set(colors)
    bad = seen - set(COLORS)
    if bad:
        raise ValueError(f"unknown colors: {sorted(bad)}")
    return "".join(c for c in COLORS if c in seen)


def color_pairs(palette) -> list[str]:
    out = []
    for i, a in enumerate(palette):
        for b in palette[i + 1 :]:
            out.append(color_set((a, b)))
    return out


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    elements: tuple = ()


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, elements=()):
        self.violations.append(Violation(code, message, tuple(elements)))

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        lines = [f"  [{v.code}] {v.message} {list(v.elements)}" for v in self.violations]
        return "ValidationReport(\n" + "\n".join(lines) + "\n)"


class Colex:
    """Immutable colored complex. Construct once, then only read."""

    def __init__(self, dimension, n_vertices, edges, plaquettes, cells=(), name=""):
        self.dimension = int(dimension)
        self.n_vertices = int(n_vertices)
        # canonical element order: sorted tuples, sorted lists
        self.edges = sorted((min(a, b), max(a, b), c) for a, b, c in edges)
        self.plaquettes = sorted(
            (tuple(sorted(vs)), color_set(cs)) for vs, cs in plaquettes
        )
        self.cells = sorted((tuple(sorted(vs)), color_set(cs)) for vs, cs in cells)
        self.name = name
        self._indexes_built = False

    # -- derived incidence maps (built on first use) ---------------------------

    def _build_indexes(self):
        if self._indexes_built:
            return
        self.vertex_edges: list[dict[str, int]] = [dict() for _ in range(self.n_vertices)]
        for i, (a, b, c) in enumerate(self.edges):
            for v in (a, b):
                if 0 <= v < self.n_vertices and c not in self.vertex_edges[v]:
                    self.vertex_edges[v][c] = i
        self._plaq_vsets = [frozenset(vs) for vs, _ in self.plaquettes]
        self._cell_vsets = [frozenset(vs) for vs, _ in self.cells]
        self.edge_plaquettes: list[list[int]] = [[] for _ in self.edges]
        for pi, (vset, pc) in enumerate(zip(self._plaq_vsets, self.plaquettes)):
            for ei, (a, b, c) in enumerate(self.edges):
                if a in vset and b in vset and c in pc[1]:
                    self.edge_plaquettes[ei].append(pi)
        self.edge_cells: list[list[int]] = [[] for _ in self.edges]
        self.plaquette_cells: list[list[int]] = [[] for _ in self.plaquettes]
        for ci, (cset, cc) in enumerate(zip(self._cell_vsets, self.cells)):
            for ei, (a, b, c) in enumerate(self.edges):
                if a in cset and b in cset and c in cc[1]:
                    self.edge_cells[ei].append(ci)
            for pi, pvs in enumerate(self._plaq_vsets):
                if pvs <= cset and set(self.plaquettes[pi][1]) <= set(cc[1]):
                    self.plaquette_cells[pi].append(ci)
        self._indexes_built = True

    def plaquette_vertices(self, pi: int) -> tuple:
        return self.plaquettes[pi][0]

    def plaquette_colors(self, pi: int) -> str:
        return self.plaquettes[pi][1]

    def cell_vertices(self, ci: int) -> tuple:
        return self.cells[ci][0]

    def cell_colors(self, ci: int) -> str:
        return self.cells[ci][1]

    @property
    def palette(self) -> tuple:
        return COLORS[: self.dimension + 1]

    def __repr__(self) -> str:
        return (
            f"Colex({self.name or 'unnamed'}: dim={self.dimension}, "
            f"v={self.n_vertices}, e={len(self.edges)}, p={len(self.plaquettes)}, "
            f"c={len(self.cells)})"
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vertices": self.n_vertices,
            "edges": [{"a": a, "b": b, "color": c} for a, b, c in self.edges],
            "plaquettes": [
                {"vertices": list(vs), "colors": cs} for vs, cs in self.plaquettes
            ],
            "cells": [{"vertices": list(vs), "colors": cs} for vs, cs in self.cells],
            "name": self.name,
        }

    def canonical_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


# -- construction of the bundled minimal instances ------------------------------


def minimal_colex(dimension: int) -> Colex:
    """The minimal simplicial colex: 2^(D+1)-1 vertices, one cell per triple."""
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    ncolors = dimension + 1
    palette = COLORS[:ncolors]
    size = 1 << ncolors
    # vertex id = value - 1 for values 1..size-1
    edges = []
    for v in range(1, size):
        for k, color in enumerate(palette):
            w = v ^ (1 << k)
            if w and v < w:
                edges.append((v - 1, w - 1, color))
    plaquettes = []
    for i in range(ncolors):
        for j in range(i + 1, ncolors):
            mask = (1 << i) | (1 << j)
            seen = set()
            for v in range(1, size):
                base = v & ~mask
                if base == 0 or base in seen:
                    continue
                seen.add(base)
                coset = [base | s for s in (0, 1 << i, 1 << j, mask)]
                plaquettes.append(
                    ([w - 1 for w in coset], color_set((palette[i], palette[j])))
                )
    cells = []
    if dimension == 3:
        for missing in range(ncolors):
            mask = size - 1 - (1 << missing)
            base = 1 << missing
            coset = [base | s for s in range(size) if s & ~mask == 0]
            triple = color_set(c for k, c in enumerate(palette) if k != missing)
            cells.append(([w - 1 for w in coset], triple))
    name = {2: "tri7", 3: "tetra15"}[dimension]
    return Colex(dimension, size - 1, edges, plaquettes, cells, name=name)


# -- validation ------------------------------------------------------------------


def validate(colex: Colex) -> ValidationReport:
    """Checks every structural invariant; violations are data, not errors."""
    report = ValidationReport()
    palette = set(colex.palette)
    if colex.dimension not in (2, 3):
        report.add("dimension", f"unsupported dimension {colex.dimension}")
        return report
    if colex.dimension == 2 and colex.cells:
        report.add("cells-in-2d", "a 2-colex cannot contain cells")

    incident: list[dict[str, list[int]]] = [dict() for _ in range(colex.n_vertices)]
    for ei, (a, b, c) in enumerate(colex.edges):
        if c not in palette:
            report.add("edge-color", f"edge {ei} has color {c!r} outside palette", (ei,))
            continue
        if a == b or not (0 <= a < colex.n_vertices and 0 <= b < colex.n_vertices):
            report.add("edge-endpoints", f"edge {ei} has bad endpoints ({a},{b})", (ei,))
            continue
        for v in (a, b):
            incident[v].setdefault(c, []).append(ei)
    for v, by_color in enumerate(incident):
        for c, eids in by_color.items():
            if len(eids) > 1:
                report.add(
                    "duplicate-color-at-vertex",
                    f"vertex {v} lies in {len(eids)} {c}-edges",
                    (v, *eids),
                )
        if sum(len(e) for e in by_color.values()) > colex.dimension + 1:
            report.add("vertex-degree", f"vertex {v} exceeds degree {colex.dimension+1}", (v,))

    def check_element(kind, idx, vertices, colors, want_colors):
        vset = set(vertices)
        if len(colors) != want_colors:
            report.add(f"{kind}-colors", f"{kind} {idx} carries {colors!r}", (idx,))
            return
        if not set(colors) <= palette:
            report.add(f"{kind}-colors", f"{kind} {idx} colors outside palette", (idx,))
            return
        inside = [
            (a, b, c) for (a, b, c) in colex.edges if a in vset and b in vset
        ]
        for a, b, c in inside:
            if c not in colors:
                report.add(
                    f"{kind}-foreign-edge",
                    f"{kind} {idx} contains a {c}-edge ({a},{b}) outside its colors",
                    (idx, a, b),
                )
        own = [(a, b) for (a, b, c) in inside if c in colors]
        # connectivity over the element's own edges
        if vset:
            reached = {min(vset)}
            frontier = [min(vset)]
            adj: dict[int, list[int]] = {v: [] for v in vset}
            for a, b in own:
                adj[a].append(b)
                adj[b].append(a)
            while frontier:
                v = frontier.pop()
                for w in adj[v]:
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
            if reached != vset:
                report.add(
                    f"{kind}-disconnected",
                    f"{kind} {idx} is not connected via its own edges",
                    (idx,),
                )
        if kind == "plaquette":
            # a closed two-colored cycle: one edge of each color per vertex
            by_v: dict[int, set[str]] = {v: set() for v in vset}
            for a, b, c in inside:
                if c in colors:
                    by_v[a].add(c)
                    by_v[b].add(c)
            for v, cs in by_v.items():
                if len(cs) != 2:
                    report.add(
                        "plaquette-open",
                        f"plaquette {idx} vertex {v} lacks one of its two edge colors",
                        (idx, v),
                    )

    for pi, (vs, cs) in enumerate(colex.plaquettes):
        check_element("plaquette", pi, vs, cs, 2)
    for ci, (vs, cs) in enumerate(colex.cells):
        check_element("cell", ci, vs, cs, 3)
    return report


# -- file format -----------------------------------------------------------------


def save(colex: Colex, path) -> None:
    with open(path, "w") as fh:
        json.dump(colex.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_text(path) -> str:
    """The text of an input file; one that is not UTF-8 is an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def load(path) -> Colex:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return from_json_dict(data, origin=str(path))


def from_json_dict(data: dict, origin: str = "<dict>") -> Colex:
    for key in ("dimension", "vertices", "edges", "plaquettes"):
        if key not in data:
            raise ValueError(f"{origin}: missing field {key!r}")
    nv = int(data["vertices"])
    edges = []
    for i, e in enumerate(data["edges"]):
        color = e.get("color")
        if color not in COLORS:
            raise ValueError(f"{origin}: edge {i}: unknown color token {color!r}")
        a, b = int(e["a"]), int(e["b"])
        for v in (a, b):
            if not 0 <= v < nv:
                raise ValueError(f"{origin}: edge {i} references missing vertex {v}")
        edges.append((a, b, color))
    plaquettes = []
    for i, p in enumerate(data["plaquettes"]):
        vs = [int(v) for v in p["vertices"]]
        for v in vs:
            if not 0 <= v < nv:
                raise ValueError(f"{origin}: plaquette {i} references missing vertex {v}")
        plaquettes.append((vs, p["colors"]))
    cells = []
    for i, c in enumerate(data.get("cells", [])):
        vs = [int(v) for v in c["vertices"]]
        for v in vs:
            if not 0 <= v < nv:
                raise ValueError(f"{origin}: cell {i} references missing vertex {v}")
        cells.append((vs, c["colors"]))
    colex = Colex(int(data["dimension"]), nv, edges, plaquettes, cells, data.get("name", ""))
    report = validate(colex)
    if not report.ok:
        raise ValueError(f"{origin}: colex fails validation: {report!r}")
    return colex
