"""Code groups from colexes: structure relations and region-operator laws."""

import numpy as np
import pytest

from colexjump import gf2
from colexjump.boundary import boundary_structure
from colexjump.codes import (
    build_2d,
    build_3d,
    code_parameters,
    region_operator,
    restrict_gauge_to_outer,
    shared_logicals,
    verify_redundancy,
)
from colexjump.colex import color_set
from colexjump.flux import string_color
from colexjump.jump import embed_operator
from colexjump.noise import to_mask
from colexjump.pauli import PauliGroup, PauliOperator, commutes


def test_parameters(code2, code3, inner_code):
    assert code_parameters(code2) == (7, 1, 3)
    assert code_parameters(code3) == (15, 1, 3)
    assert code_parameters(inner_code) == (8, 0, None)


def test_css_self_duality(code2, code3, inner_code):
    for code in (code2, code3, inner_code):
        x_supports = sorted(g.x for g in code.S.generators if g.x)
        z_supports = sorted(g.z for g in code.S.generators if g.z)
        assert x_supports == z_supports
        gx = sorted(g.x for g in code.G.generators if g.x)
        gz = sorted(g.z for g in code.G.generators if g.z)
        assert gx == gz


def test_plaquette_commutation_law(code2, code3):
    """In 2D every X-plaquette commutes with every Z-plaquette. In 3D an
    X-plaquette can anticommute only with Z-plaquettes of the complementary
    color pair (rg with by, rb with gy, gb with ry)."""
    xs2 = [g for g in code2.G.generators if g.x]
    zs2 = [g for g in code2.G.generators if g.z]
    for a in xs2:
        for b in zs2:
            assert commutes(a, b)

    colex = code3.colex
    pair_of_support = {
        frozenset(vs): set(cs) for vs, cs in colex.plaquettes
    }
    xs3 = [g for g in code3.G.generators if g.x]
    zs3 = [g for g in code3.G.generators if g.z]
    for a in xs3:
        pa = pair_of_support[frozenset(a.support)]
        for b in zs3:
            pb = pair_of_support[frozenset(b.support)]
            complementary = pa.isdisjoint(pb)
            if not commutes(a, b):
                assert complementary, f"{sorted(pa)} vs {sorted(pb)} anticommute"
            if not complementary:
                assert commutes(a, b)


def test_eq1_exact_group_check(code2, code3, inner_code):
    """G intersect centralizer(G) equals S exactly as GF(2) row spaces."""
    for code in (code2, code3, inner_code):
        cent = code.G.centralizer()
        inter = gf2.intersection(code.G.packed(), cent.packed())
        s_ech = gf2.echelon_from(code.S.packed())
        i_ech = gf2.echelon_from(inter)
        for i in range(inter.nrows):
            assert s_ech.contains(inter.row(i))
        for g in code.S.generators:
            assert i_ech.contains(g.x | g.z << code.n)
        assert not code.S.minus_identity_in_group()


def test_cell_equals_product_of_pair_plaquettes(code3):
    """Every cell operator is the product of its own pair-plaquettes, for
    each of the three pairs inside the cell's triple."""
    colex = code3.colex
    for vs, cs in colex.cells:
        cell_vec = np.zeros(code3.n, dtype=np.uint8)
        for v in vs:
            cell_vec[v] ^= 1
        for i, a in enumerate(cs):
            for b in cs[i + 1 :]:
                pair = color_set((a, b))
                acc = np.zeros(code3.n, dtype=np.uint8)
                hits = 0
                for pvs, pcs in colex.plaquettes:
                    if pcs == pair and set(pvs) <= set(vs):
                        hits += 1
                        for v in pvs:
                            acc[v] ^= 1
                assert hits >= 2
                assert np.array_equal(acc, cell_vec)


def _embed_group(group, n_total, positions):
    return PauliGroup(
        n_total, [embed_operator(g, n_total, positions) for g in group.generators]
    )


def test_gauge_fixing_inclusions(ctx):
    """S3 inside S2*Sin and G2*Gin inside G3, signs included."""
    s2 = _embed_group(ctx.code2.S, ctx.n3, ctx.split.outer_vertices)
    s_in = _embed_group(ctx.inner_code.S, ctx.n3, ctx.split.inner_vertices)
    joint_s = s2.product_group(s_in)
    assert ctx.code3.S.is_subgroup_of(joint_s)

    g2 = _embed_group(ctx.code2.G, ctx.n3, ctx.split.outer_vertices)
    g_in = _embed_group(ctx.inner_code.G, ctx.n3, ctx.split.inner_vertices)
    joint_g = g2.product_group(g_in)
    assert joint_g.is_subgroup_of(ctx.code3.G)


def test_inner_code_structure(inner_code):
    for i, a in enumerate(inner_code.S.generators):
        for b in inner_code.S.generators[i + 1 :]:
            assert commutes(a, b)
    cent = inner_code.G.centralizer()
    for g in inner_code.S.generators:
        assert cent.contains(g, up_to_sign=True)


def test_region_operator_laws(code3, inner_code):
    """Free regions anticommute their own X/Z; cross-region anticommutation
    happens exactly on an odd number of shared odd borders; frozen regions
    with single-color corners satisfy the plaquette-product identity."""
    for code in (code3, inner_code):
        bs = boundary_structure(code.colex)
        for ri, region in enumerate(bs.regions):
            x_r = region_operator(code, region, "X")
            z_r = region_operator(code, region, "Z")
            anticommute = not commutes(x_r, z_r)
            assert anticommute == (region.classification == "free")
            for rj, other in enumerate(bs.regions):
                if rj == ri:
                    continue
                shared_odd = sum(
                    1
                    for bi in region.borders
                    if bi in other.borders and bs.borders[bi].odd
                )
                z_other = region_operator(code, other, "Z")
                assert commutes(x_r, z_other) == (shared_odd % 2 == 0)
        if all(r.classification == "frozen" for r in bs.regions):
            y = {c.color for c in bs.corners}.pop()
            for region in bs.regions:
                pair = color_set(set(region.colors) - {y})
                acc = np.zeros(code.n, dtype=np.uint8)
                for pi in region.plaquettes:
                    if code.colex.plaquette_colors(pi) == pair:
                        for v in code.colex.plaquette_vertices(pi):
                            acc[code.qubit_map[v]] ^= 1
                x_r = region_operator(code, region, "X")
                assert to_mask(acc) == x_r.x


def test_redundancy_identity(inner_code):
    assert verify_redundancy(inner_code)


def test_redundancy_fails_when_region_omitted(inner_code):
    """Dropping one region operator breaks the product identity on exactly
    that region's qubits."""
    from colexjump.boundary import boundary_structure

    structure = boundary_structure(inner_code.colex)
    y = {c.color for c in structure.corners}.pop()
    region = structure.regions[0]
    pair = color_set(set(region.colors) - {y})
    mixed_triple = region.colors
    base_triple = color_set(set(inner_code.colex.palette) - {y})
    acc = np.zeros(inner_code.n, dtype=np.uint8)
    for vs, cs in inner_code.colex.cells:
        if cs in (base_triple, mixed_triple):
            for v in vs:
                acc[v] ^= 1
    others = [r for r in structure.regions if r.colors == mixed_triple and r is not region]
    for r in others:
        for v in r.vertices:
            acc[v] ^= 1
    assert acc.any()  # identity without `region` leaves its qubits uncovered
    assert set(np.flatnonzero(acc)) == set(region.vertices)


def test_redundancy_requires_single_corner_color(code3):
    with pytest.raises(ValueError):
        verify_redundancy(code3)


def test_restricted_gauge_generators_are_edges(ctx):
    restricted = restrict_gauge_to_outer(ctx.code3, ctx.split)
    edge_sets = {frozenset((a, b)) for a, b, _ in ctx.split.outer.edges}
    for g in restricted.generators:
        assert frozenset(g.support) in edge_sets
        assert g.weight == 2


def test_outer_plaquette_is_product_of_its_pair_edges(ctx):
    colex2 = ctx.split.outer
    restricted = restrict_gauge_to_outer(ctx.code3, ctx.split)
    for vs, pair in colex2.plaquettes:
        target = PauliOperator.from_support(ctx.n2, "X", vs)
        assert restricted.contains(target)


def test_string_anticommutes_iff_endpoint(ctx):
    """A string along third-color edges anticommutes with exactly the
    pair-plaquettes at its endpoints (exhaustive over single edges)."""
    colex2 = ctx.split.outer
    for pair in ("rg", "rb", "gb"):
        col = string_color(pair)
        plaquettes = [
            (pi, set(colex2.plaquette_vertices(pi)))
            for pi in range(len(colex2.plaquettes))
            if colex2.plaquette_colors(pi) == pair
        ]
        for a, b, c in colex2.edges:
            if c != col:
                continue
            op = PauliOperator.from_support(ctx.n2, "X", (a, b))
            for pi, vs in plaquettes:
                z_p = PauliOperator.from_support(ctx.n2, "Z", vs)
                endpoint = len({a, b} & vs) % 2 == 1
                assert commutes(op, z_p) == (not endpoint)


def test_shared_logicals(ctx):
    L = shared_logicals(ctx.code3, ctx.code2, ctx.split)
    ops = {("X" if g.x else "Z"): g for g in L.generators}
    assert not commutes(ops["X"], ops["Z"])  # odd overlap (7 qubits)
    # nontrivial modulo the 2D stabilizer
    assert not ctx.code2.S.contains(ops["X"], up_to_sign=True)
    assert not ctx.code2.S.contains(ops["Z"], up_to_sign=True)


def test_build_rejects_wrong_shapes(tri7, tetra15):
    with pytest.raises(ValueError):
        build_2d(tetra15)
    with pytest.raises(ValueError):
        build_3d(tri7)
