"""Flux lines, syndrome repair by matching, and string corrections.

Measuring the inner plaquettes of one color pair yields a set of dual edges
(those reading -1). On an intact encoded state that set has no endpoint at
an inner cell, so any inner endpoints observed after noisy readout must be
paired up: the repair picks a minimum-cardinality edge set with the same
inner endpoints (a minimum T-join, computed as a perfect matching over
shortest dual paths with a shared boundary sink). Ties between equal-size
candidates prefer the edges actually observed, then lowest edge ids, making
replay deterministic. `t_join` is that search on any graph of cells and a
sink; single-shot error correction uses it on the cell graph of a
standalone code.

String corrections translate repaired outer syndromes back into qubit
flips: a syndrome on kk'-plaquettes is cleared by a product of edges of the
third color, the lightest one read off the `gf2.checks_table` of the
plaquette parities over those edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colex import Colex, color_set
from .codes import CodeTriple
from .gf2 import checks_table
from .pauli import PauliOperator
from .split import INNER_CELL, SplitResult, dual_edges
from .tableau import Tableau


@dataclass(frozen=True)
class FluxConfiguration:
    pair: str
    basis: str  # which operator type was measured, "X" or "Z"
    edges: frozenset  # indices into duals
    duals: tuple

    def inner_endpoints(self) -> tuple[int, ...]:
        count: dict[int, int] = {}
        for i in self.edges:
            for c in self.duals[i].inner_cells():
                count[c] = count.get(c, 0) + 1
        return tuple(sorted(c for c, k in count.items() if k % 2 == 1))

    def outer_endpoints(self) -> tuple[int, ...]:
        count: dict[int, int] = {}
        for i in self.edges:
            for p in self.duals[i].outer_plaquettes():
                count[p] = count.get(p, 0) + 1
        return tuple(sorted(p for p, k in count.items() if k % 2 == 1))

    def replaced(self, edges) -> "FluxConfiguration":
        return FluxConfiguration(self.pair, self.basis, frozenset(edges), self.duals)

    def __xor__(self, other_edges) -> "FluxConfiguration":
        return self.replaced(self.edges ^ frozenset(other_edges))


def plaquette_operator(colex: Colex, pi: int, basis: str) -> PauliOperator:
    return PauliOperator.from_support(
        colex.n_vertices, basis, colex.plaquette_vertices(pi)
    )


def extract_flux(
    state3: Tableau,
    split: SplitResult,
    pair: str,
    basis: str,
    rng: np.random.Generator | None = None,
    duals: tuple | None = None,
) -> FluxConfiguration:
    """Measure the inner pair-plaquettes of one type; -1 readings form the flux."""
    pair = color_set(pair)
    if duals is None:
        duals = tuple(dual_edges(split, pair))
    hot = set()
    for i, dual in enumerate(duals):
        op = plaquette_operator(split.parent, dual.plaquette, basis)
        if state3.measure(op, rng) == -1:
            hot.add(i)
    return FluxConfiguration(pair, basis, frozenset(hot), duals)


# -- dual graph and repair -------------------------------------------------------

SINK = "sink"  # the boundary node: one shared partner for every endpoint


def t_join(ends, endpoints, observed=frozenset()) -> frozenset:
    """Minimum-cardinality edge set whose odd cells are exactly `endpoints`.

    `ends[i]` is the pair of nodes edge i joins, each ("cell", c) or SINK;
    the sink may end any number of chosen edges. The set is the symmetric
    difference of the shortest paths of the cheapest pairing of endpoints
    with each other or the sink. Ties between equal-size sets prefer more
    `observed` edges, then the lowest sorted edge ids.
    """
    paths = _shortest_paths(ends, endpoints, observed)
    if len(endpoints) > 10:
        return _blossom_t_join(endpoints, paths)
    return _exact_t_join(endpoints, paths, observed)


def _shortest_paths(ends, endpoints, observed):
    """Endpoint -> its `_best_paths` on the graph of `ends`."""
    adj: dict = {}
    for i, (a, b) in enumerate(ends):
        for u, v in ((a, b), (b, a)):
            if u != SINK:
                adj.setdefault(u, []).append((i, v))
    return {c: _best_paths(adj, c, observed) for c in endpoints}


def _best_paths(adj, source, observed):
    """Cheapest path from source to every node.

    Cost of a path is (#edges, -#observed edges, sorted edge tuple); the
    triple ordering realizes the size/likelihood/replay tie break exactly.
    """
    start = ("cell", source)
    best = {start: (0, 0, ())}
    frontier = [start]
    while frontier:
        node = frontier.pop(0)
        if node == SINK:
            continue
        d, o, path = best[node]
        for edge, nbr in sorted(adj.get(node, [])):
            if edge in path:
                continue
            cand = (
                d + 1,
                o - (1 if edge in observed else 0),
                tuple(sorted(path + (edge,))),
            )
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                frontier.append(nbr)
    return best


def _exact_t_join(endpoints, paths, observed) -> frozenset:
    """Exact search over every pairing of the endpoints (and the sink)."""
    best_total = None

    def explore(remaining, acc_edges):
        nonlocal best_total
        if not remaining:
            edges = frozenset()
            for path in acc_edges:
                edges ^= frozenset(path)
            overlap = len(edges & observed)
            cand = (len(edges), -overlap, tuple(sorted(edges)))
            if best_total is None or cand < best_total:
                best_total = cand
            return
        first, rest = remaining[0], remaining[1:]
        options = []
        if SINK in paths[first]:
            options.append((paths[first][SINK], rest))
        for i, other in enumerate(rest):
            key = ("cell", other)
            if key in paths[first]:
                options.append((paths[first][key], rest[:i] + rest[i + 1 :]))
        if not options:
            raise ValueError(f"endpoint {first} cannot be matched to any partner")
        for (_, _, path), new_rest in options:
            explore(new_rest, acc_edges + [path])

    explore(list(endpoints), [])
    return frozenset(best_total[2])


def _blossom_t_join(endpoints, paths) -> frozenset:
    """Blossom matching for many endpoints (beyond bundled-instance scale).

    The size is minimal, but ties do not prefer observed edges.
    """
    import networkx as nx

    g = nx.Graph()
    for i, a in enumerate(endpoints):
        for b in endpoints[i + 1 :]:
            key = ("cell", b)
            if key in paths[a]:
                cost, _, path = paths[a][key]
                g.add_edge(("e", a), ("e", b), weight=cost, path=path)
        if SINK in paths[a]:
            cost, _, path = paths[a][SINK]
            g.add_edge(("e", a), ("s", a), weight=cost, path=path)
        for b in endpoints:
            if b != a:
                g.add_edge(("s", a), ("s", b), weight=0, path=())
    matching = nx.min_weight_matching(g)
    edges = frozenset()
    for u, v in matching:
        edges ^= frozenset(g.edges[u, v]["path"])
    return edges


def _dual_ends(duals) -> list[tuple]:
    """Node pair of each dual edge; outer plaquettes and the facet are the sink."""
    return [
        tuple(("cell", e.index) if e.kind == INNER_CELL else SINK for e in d.endpoints)
        for d in duals
    ]


def repair_flux(observed: FluxConfiguration):
    """Minimum-cardinality dual-edge set with the observed inner endpoints.

    Returns (delta0, gamma_eff) with gamma_eff = observed ^ delta0, which by
    construction has no inner endpoints.
    """
    endpoints = observed.inner_endpoints()
    if not endpoints:
        return frozenset(), observed
    delta0 = t_join(_dual_ends(observed.duals), endpoints, observed.edges)
    gamma_eff = observed ^ delta0
    if gamma_eff.inner_endpoints():
        raise AssertionError("repair left inner endpoints behind")
    return delta0, gamma_eff


# -- string corrections ----------------------------------------------------------


def string_color(pair: str) -> str:
    """Strings of this color move syndrome between plaquettes of the pair."""
    return next(iter(set("rgb") - set(pair)))


def string_correction(
    code2: CodeTriple, syndrome_plaquettes, pair: str, basis: str
) -> PauliOperator:
    """Minimal product of third-color edge operators with the given syndrome.

    `syndrome_plaquettes` lists plaquette ids (of `pair`) whose `basis`-dual
    operators read -1; the correction is of type `basis` itself (an X string
    fixes Z-plaquette syndromes and vice versa).
    """
    pair = color_set(pair)
    colex = code2.colex
    target_ids = [
        pi for pi in range(len(colex.plaquettes)) if colex.plaquette_colors(pi) == pair
    ]
    bad = set(syndrome_plaquettes) - set(target_ids)
    if bad:
        raise ValueError(f"syndrome plaquettes {sorted(bad)} are not {pair}-plaquettes")
    col = string_color(pair)
    edge_ids = [i for i, (a, b, c) in enumerate(colex.edges) if c == col]
    # check j: the candidate edges with one end on target plaquette j
    edge_ends = [set(colex.edges[ei][:2]) for ei in edge_ids]
    checks = []
    for pi in target_ids:
        vs = set(colex.plaquette_vertices(pi))
        checks.append([k for k, ends in enumerate(edge_ends) if len(ends & vs) % 2])
    hot = set(syndrome_plaquettes)
    syndrome = tuple(int(pi in hot) for pi in target_ids)
    best = checks_table(len(edge_ids), checks).get(syndrome)
    if best is None:
        raise ValueError("no string operator realizes the requested syndrome")
    support = []
    for k in best:
        a, b, _ = colex.edges[edge_ids[k]]
        support.extend((a, b))
    return PauliOperator.from_support(code2.n, basis, support)
