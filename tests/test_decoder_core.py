"""The exact decoder core against the searches it replaced.

`gf2.min_weight_table` replaced a builder that sorted all 2^n supports, and
through `gf2.checks_table` it also replaced the combination search of
`string_correction` and the edge table of `ideal_collapse`; `flux.t_join`
replaced the single-shot cell matching. Tie-breaks are semantic (a
different one can move a correction into another logical coset), so the old
searches are kept here as oracles and every bundled table must equal theirs
entry for entry, in the same order.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from colexjump import flux, gf2
from colexjump.boundary import boundary_structure
from colexjump.codes import build_2d
from colexjump.colex import color_set
from colexjump.hexfamily import builtin_colex
from colexjump.jump import _code_dual_structure, _edge_table
from colexjump.pauli import PauliOperator


# -- oracles: the replaced code ------------------------------------------------


def _syndrome_fn(check_supports):
    def fn(support):
        s = set(support)
        return tuple(len(s & set(chk)) % 2 for chk in check_supports)

    return fn


def _sorted_table(n, syndrome_of):
    """Enumerate all 2^n supports sorted by (weight, lex); the first hit wins."""
    table = {}
    supports = sorted(
        (tuple(c) for w in range(n + 1) for c in itertools.combinations(range(n), w)),
        key=lambda s: (len(s), s),
    )
    for sup in supports:
        syn = syndrome_of(sup)
        if syn not in table:
            table[syn] = sup
    return table


def _old_string_correction(code2, syndrome_plaquettes, pair, basis):
    """Combination search over third-color edges, lowest sorted ids on ties."""
    pair = color_set(pair)
    colex = code2.colex
    target_ids = [
        pi for pi in range(len(colex.plaquettes)) if colex.plaquette_colors(pi) == pair
    ]
    col = flux.string_color(pair)
    edge_ids = [i for i, (a, b, c) in enumerate(colex.edges) if c == col]
    rows = []
    for ei in edge_ids:
        a, b, _ = colex.edges[ei]
        rows.append(
            [len({a, b} & set(colex.plaquette_vertices(pi))) % 2 for pi in target_ids]
        )
    target = np.array([1 if pi in set(syndrome_plaquettes) else 0 for pi in target_ids])
    best = None
    for r in range(len(edge_ids) + 1):
        for combo in itertools.combinations(range(len(edge_ids)), r):
            acc = np.zeros(len(target_ids), dtype=np.uint8)
            for i in combo:
                acc ^= np.array(rows[i], dtype=np.uint8)
            if np.array_equal(acc, target):
                chosen = tuple(sorted(edge_ids[i] for i in combo))
                if best is None or chosen < best:
                    best = chosen
        if best is not None:
            break
    if best is None:
        raise ValueError("no string operator realizes the requested syndrome")
    support = []
    for ei in best:
        a, b, _ = colex.edges[ei]
        support.extend((a, b))
    return PauliOperator.from_support(code2.n, basis, support)


def _old_edge_table(colex2):
    """Lightest edge products, sorted by (total edge support, lex)."""
    checks = [tuple(vs) for vs, _ in colex2.plaquettes]
    edge_supports = [(a, b) for a, b, _ in colex2.edges]
    syndrome_of = _syndrome_fn(checks)

    def edge_syndrome(edge_subset):
        acc = [0] * len(checks)
        for ei in edge_subset:
            for j, bit in enumerate(syndrome_of(edge_supports[ei])):
                acc[j] ^= bit
        return tuple(acc)

    table = {}
    combos = sorted(
        (
            tuple(c)
            for w in range(len(edge_supports) + 1)
            for c in itertools.combinations(range(len(edge_supports)), w)
        ),
        key=lambda s: (sum(len(edge_supports[i]) for i in s), s),
    )
    for combo in combos:
        syn = edge_syndrome(combo)
        if syn not in table:
            table[syn] = tuple(v for ei in combo for v in edge_supports[ei])
    return table


def _match_cells_to_edges(entries, mismatched):
    """Single-shot cell matching: entries are (plaquette id, adjacent cells);
    a plaquette with fewer than two cells ends at a sink."""
    adj = {}
    for pi, cells in entries:
        ends = [("cell", c) for c in cells]
        while len(ends) < 2:
            ends.append("sink")
        a, b = ends
        for u, v in ((a, b), (b, a)):
            if u != "sink":
                adj.setdefault(u, []).append((pi, v))
    best_paths = {}
    for c in mismatched:
        start = ("cell", c)
        best = {start: (0, ())}
        frontier = [start]
        while frontier:
            node = frontier.pop(0)
            if node == "sink":
                continue
            d, path = best[node]
            for edge, nbr in sorted(adj.get(node, [])):
                if edge in path:
                    continue
                cand = (d + 1, tuple(sorted(path + (edge,))))
                if nbr not in best or cand < best[nbr]:
                    best[nbr] = cand
                    frontier.append(nbr)
        best_paths[c] = best
    best_total = None

    def explore(remaining, acc):
        nonlocal best_total
        if not remaining:
            edges = frozenset()
            for p in acc:
                edges ^= frozenset(p)
            cand = (len(edges), tuple(sorted(edges)))
            if best_total is None or cand < best_total:
                best_total = cand
            return
        first, rest = remaining[0], remaining[1:]
        options = []
        if "sink" in best_paths[first]:
            options.append((best_paths[first]["sink"][1], rest))
        for i, other in enumerate(rest):
            key = ("cell", other)
            if key in best_paths[first]:
                options.append((best_paths[first][key][1], rest[:i] + rest[i + 1 :]))
        if not options:
            raise ValueError(f"cell {first} cannot be matched to any partner")
        for path, new_rest in options:
            explore(new_rest, acc + [path])

    explore(list(mismatched), [])
    return best_total[1]


# -- tables -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tri_hex_d3():
    return builtin_colex("tri-hex-d3")


def _bundled_check_sets(tri7, tri_hex_d3, ctx, code3, inner_code):
    """(n, checks) of every table the package builds on a bundled lattice
    with n <= 15, apart from string corrections and edge tables."""
    sets = {}
    for name, colex in (("tri7", tri7), ("tri-hex-d3", tri_hex_d3), ("outer", ctx.code2.colex)):
        n = colex.n_vertices
        plaquettes = [tuple(vs) for vs, _ in colex.plaquettes]
        sets[f"{name} plaquettes"] = (n, plaquettes)
        sets[f"{name} cosets"] = (n, plaquettes + [tuple(range(n))])
    for name, code in (("tetra15", code3), ("inner", inner_code)):
        cells = [tuple(vs) for vs, _ in code.colex.cells]
        regions = [tuple(sorted(r.vertices)) for r in boundary_structure(code.colex).regions]
        sets[f"{name} cells"] = (code.n, cells)
        sets[f"{name} cells+regions"] = (code.n, cells + regions)
    return sets


def test_min_weight_table_equals_sorted_builder(tri7, tri_hex_d3, ctx, code3, inner_code):
    for name, (n, checks) in _bundled_check_sets(
        tri7, tri_hex_d3, ctx, code3, inner_code
    ).items():
        assert n <= 15
        want = _sorted_table(n, _syndrome_fn(checks))
        assert list(gf2.min_weight_table(n, checks).items()) == list(want.items()), name


def test_min_weight_table_on_dependent_and_empty_checks():
    """The walk stops at 2^rank syndromes, so rank-deficient check sets
    (repeated, dependent or empty checks) must still fill every entry."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(0, 8)
        checks = [
            tuple(q for q in range(n) if rng.random() < 0.4) for _ in range(rng.randrange(0, 5))
        ]
        checks += rng.sample(checks, min(len(checks), 2))
        want = _sorted_table(n, _syndrome_fn(checks))
        assert list(gf2.min_weight_table(n, checks).items()) == list(want.items())


def test_checks_table_caches_per_check_set():
    checks = [(0, 1), (1, 2)]
    assert gf2.checks_table(3, checks) is gf2.checks_table(3, [[0, 1], [1, 2]])
    assert gf2.checks_table(4, checks) is not gf2.checks_table(3, checks)


def test_string_correction_equals_combination_search(tri7, tri_hex_d3, ctx):
    for colex in (tri7, tri_hex_d3, ctx.code2.colex):
        code2 = build_2d(colex)
        for pair in ("rg", "rb", "gb"):
            ids = [pi for pi in range(len(colex.plaquettes)) if colex.plaquette_colors(pi) == pair]
            for bits in range(2 ** len(ids)):
                syndrome = [ids[i] for i in range(len(ids)) if bits >> i & 1]
                got = flux.string_correction(code2, syndrome, pair, "Z")
                want = _old_string_correction(code2, syndrome, pair, "Z")
                assert got.z == want.z and got.sign == want.sign


def test_ideal_collapse_edge_table_equals_sorted_builder(tri7, tri_hex_d3, ctx):
    for colex in (tri7, tri_hex_d3, ctx.code2.colex):
        got = _edge_table(build_2d(colex))
        assert list(got.items()) == list(_old_edge_table(colex).items())


# -- T-join -------------------------------------------------------------------


def test_t_join_equals_single_shot_cell_matching(code3, inner_code):
    """Every set of mismatched cells of every pair, on both standalone
    codes of tetra15: the same plaquettes flip, or both searches fail."""
    checked = 0
    for code in (code3, inner_code):
        colex = code.colex
        for pair, entries in _code_dual_structure(code).by_pair.items():
            old_entries = [(pi, list(colex.plaquette_cells[pi])) for pi, _ in entries]
            cells = [
                ci for ci in range(len(colex.cells)) if set(pair) <= set(colex.cell_colors(ci))
            ]
            for r in range(1, len(cells) + 1):
                for mismatched in itertools.combinations(cells, r):
                    try:
                        want = _match_cells_to_edges(old_entries, list(mismatched))
                    except ValueError:
                        with pytest.raises(ValueError):
                            flux.t_join([e for _, e in entries], list(mismatched))
                        continue
                    got = flux.t_join([e for _, e in entries], list(mismatched))
                    assert tuple(sorted(entries[i][0] for i in got)) == want
                    checked += 1
    assert checked == 21


def _synthetic_graph(seed, cells=16, extra=12, sinks=3):
    """A connected random graph of cells with a few edges to the sink, and
    11 endpoints."""
    rng = random.Random(seed)
    ends = [(("cell", c), ("cell", rng.randrange(c))) for c in range(1, cells)]
    for _ in range(extra):
        a, b = rng.sample(range(cells), 2)
        ends.append((("cell", a), ("cell", b)))
    ends += [(("cell", c), flux.SINK) for c in rng.sample(range(cells), sinks)]
    rng.shuffle(ends)
    return ends, sorted(rng.sample(range(cells), 11))


def _odd_cells(ends, edges):
    degree = Counter(node for i in edges for node in ends[i] if node != flux.SINK)
    return sorted(c for (_, c), k in degree.items() if k % 2)


@pytest.mark.parametrize("seed", [0, 1])
def test_blossom_branch_is_minimal_with_eleven_endpoints(seed):
    """Above 10 endpoints `t_join` switches to blossom matching: its edge
    set is as small as the exact search's and ends exactly at the endpoints."""
    ends, endpoints = _synthetic_graph(seed)
    paths = flux._shortest_paths(ends, endpoints, frozenset())
    exact = flux._exact_t_join(endpoints, paths, frozenset())
    large = flux.t_join(ends, endpoints)
    assert large == flux._blossom_t_join(endpoints, paths)
    assert len(large) == len(exact)
    assert _odd_cells(ends, large) == endpoints == _odd_cells(ends, exact)
