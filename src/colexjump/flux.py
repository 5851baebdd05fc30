"""Flux lines, syndrome repair by matching, and string corrections.

Measuring the inner plaquettes of one color pair yields a set of dual edges
(those reading -1). On an intact encoded state that set has no endpoint at
an inner cell, so any inner endpoints observed after noisy readout must be
paired up: the repair picks a minimum-cardinality edge set with the same
inner endpoints (a minimum T-join, computed as a perfect matching over
shortest dual paths with a shared boundary sink; Edmonds & Johnson, 1973).
Ties between equal-size candidates prefer the edges actually observed, then
lowest edge ids, making replay deterministic. `t_join` folds that whole
order into one integer weight per edge, so a single exact search (Dijkstra
paths, then a DP over the endpoints left, O(2^k * k) for k endpoints) serves
every endpoint count. It runs on any graph of cells and a sink; single-shot
error correction uses it on the cell graph of a standalone code. The graph
of each edge list is built once and cached.

String corrections translate repaired outer syndromes back into qubit
flips: a syndrome on kk'-plaquettes is cleared by a product of edges of the
third color, the lightest one read off the `gf2.checks_table` of the
plaquette parities over those edges.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .colex import Colex, color_set
from .codes import CodeTriple
from .gf2 import checks_table
from .pauli import PauliOperator
from .split import INNER_CELL, SplitResult, dual_edges
from .tableau import Tableau


class FluxConfiguration(NamedTuple):
    """The dual edges of one color pair's inner plaquettes that read -1
    when one operator type was measured: an immutable value, built once
    per slot of every tableau collapse trial."""

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

    def record(self) -> dict[int, int]:
        """Plaquette id -> reading (-1 on a flux edge, else +1) of every dual."""
        return {d.plaquette: -1 if i in self.edges else 1 for i, d in enumerate(self.duals)}


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
    """Measure the inner pair-plaquettes of one type; -1 readings form the flux.

    With `duals` given, `pair` must already be canonical (`color_set`) and
    `duals` its dual edges, as `jump._measure_slots` passes them from
    `ctx.slots`; neither is resolved again."""
    if duals is None:
        pair = color_set(pair)
        duals = tuple(dual_edges(split, pair))
    ops = split.plaquette_ops.get(basis)
    if ops is None:
        parent = split.parent
        ops = split.plaquette_ops[basis] = tuple(
            plaquette_operator(parent, pi, basis) for pi in range(len(parent.plaquettes))
        )
    measure = state3.measure
    hot = [i for i, dual in enumerate(duals) if measure(ops[dual.plaquette], rng) == -1]
    return FluxConfiguration(pair, basis, frozenset(hot), duals)


# -- dual graph and repair -------------------------------------------------------

SINK = "sink"  # the boundary node: one shared partner for every endpoint


def t_join(ends, endpoints, observed=frozenset()) -> frozenset:
    """Minimum-cardinality edge set whose odd cells are exactly `endpoints`.

    `ends[i]` is the pair of nodes edge i joins, each ("cell", c) or SINK;
    the sink may end any number of chosen edges. Ties between equal-size
    sets prefer more `observed` edges, then the lowest sorted edge ids.

    Edge i of E weighs K1 - K2*[i observed] - 2^(E-1-i), with K2 = 2^(E+1)
    and K1 = (E+1)*K2. No two edge sets share a total, and totals order sets
    exactly by (size, -observed edges, sorted ids): K1 outweighs everything
    else, K2 outweighs the id terms, and among sets of equal size and
    overlap the one holding the lowest id of their symmetric difference has
    the larger id sum. All weights are positive, so the lightest set is the
    symmetric difference of the Dijkstra paths of the lightest pairing of
    each endpoint with another or with the sink. That pairing is a DP
    memoised on the endpoints left, pairing the lowest first: O(2^k * k)
    steps for k endpoints at worst.
    """
    adj = _adjacency(tuple(ends))
    n = len(ends)
    k2 = 2 << n
    k1 = (n + 1) * k2
    weight = [k1 - k2 * (i in observed) - (1 << (n - 1 - i)) for i in range(n)]
    paths = {c: _lightest_paths(adj, weight, ("cell", c)) for c in endpoints}
    memo = {(): (0, 0)}

    def pairing(left):
        """(total weight, edge mask) of the lightest pairing of `left`."""
        if left in memo:
            return memo[left]
        first, rest = left[0], left[1:]
        options = [(SINK, rest)]
        options += [(("cell", c), rest[:j] + rest[j + 1 :]) for j, c in enumerate(rest)]
        best = None
        for partner, others in options:
            path = paths[first].get(partner)
            tail = path and pairing(others)
            if tail and (best is None or path[0] + tail[0] < best[0]):
                best = path[0] + tail[0], path[1] ^ tail[1]
        memo[left] = best
        return best

    best = pairing(tuple(sorted(endpoints)))
    if best is None:
        raise ValueError(f"endpoints {tuple(endpoints)} cannot be paired")
    return frozenset(i for i in range(n) if best[1] >> i & 1)


@cache
def _adjacency(ends: tuple) -> dict:
    """Cell -> [(edge id, far node)] of the graph of `ends`, built once per
    graph. The sink has no entry, so a path that reaches it ends there."""
    adj: dict = {}
    for i, (a, b) in enumerate(ends):
        for u, v in ((a, b), (b, a)):
            if u != SINK:
                adj.setdefault(u, []).append((i, v))
    return adj


def _lightest_paths(adj, weight, source) -> dict:
    """Node -> (weight, edge mask) of its lightest path from `source`.

    Distinct edge sets have distinct weights, so heap entries never tie on
    weight without naming the same path.
    """
    best = {source: (0, 0)}
    heap = [(0, 0, source)]
    while heap:
        d, mask, node = heappop(heap)
        if d > best[node][0]:
            continue
        for edge, nbr in adj.get(node, ()):
            cand = d + weight[edge]
            if nbr not in best or cand < best[nbr][0]:
                best[nbr] = cand, mask | 1 << edge
                heappush(heap, (cand, mask | 1 << edge, nbr))
    return best


@cache
def _dual_ends(duals: tuple) -> tuple:
    """Node pair of each dual edge, read once per pair's duals; outer
    plaquettes and the facet are the sink."""
    return tuple(
        tuple(("cell", e.index) if e.kind == INNER_CELL else SINK for e in d.endpoints)
        for d in duals
    )


def repair_flux(observed: FluxConfiguration):
    """Minimum-cardinality dual-edge set with the observed inner endpoints.

    Returns (delta0, gamma_eff) with gamma_eff = observed ^ delta0, which by
    construction has no inner endpoints.
    """
    endpoints = observed.inner_endpoints()
    if not endpoints:
        return frozenset(), observed
    delta0 = t_join(_dual_ends(observed.duals), endpoints, observed.edges)
    gamma_eff = FluxConfiguration(
        observed.pair, observed.basis, observed.edges ^ delta0, observed.duals
    )
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
