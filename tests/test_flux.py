"""Flux extraction, matching repair, string corrections."""

import itertools

import numpy as np
import pytest
from collapse_oracle import with_edges

from colexjump.flux import (
    FluxConfiguration,
    extract_flux,
    repair_flux,
    string_color,
    string_correction,
)
from colexjump.jump import encoded_3d
from colexjump.noise import trial_rng
from colexjump.pauli import PauliOperator, commutes
from colexjump.split import dual_edges


def random_gauge_state(ctx, trial):
    """Encoded state scrambled by a random gauge element (flux randomizer)."""
    rng = trial_rng(99, trial)
    state = encoded_3d(ctx, "zero" if trial % 2 == 0 else "plus")
    for g in ctx.code3.G.generators:
        if rng.random() < 0.5:
            state.apply(g)
    return state, rng


def test_measured_family_mutually_commutes(ctx):
    """All inner pair-plaquette operators of the facet pairs, both types,
    commute pairwise (exhaustive on the 15-qubit instance)."""
    from colexjump.flux import plaquette_operator

    ops = []
    for basis in ("X", "Z"):
        for pair in ctx.pairs:
            for dual in ctx.duals[pair]:
                ops.append(plaquette_operator(ctx.colex3, dual.plaquette, basis))
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)


def test_noiseless_flux_has_no_inner_endpoints(ctx):
    for trial in range(200):
        state, rng = random_gauge_state(ctx, trial)
        for pair in ctx.pairs:
            flux = extract_flux(state, ctx.split, pair, "Z", rng, ctx.duals[pair])
            assert flux.inner_endpoints() == ()


def test_cell_closedness_every_trajectory(ctx):
    """The product of a cell's pair-plaquette outcomes equals the cell value."""
    from colexjump.flux import plaquette_operator

    for trial in range(100):
        state, rng = random_gauge_state(ctx, trial)
        for pair in ctx.pairs:
            # record cell expectations before measuring (encoded: always +1)
            cell_vals = {}
            for ci in range(len(ctx.colex3.cells)):
                if set(pair) <= set(ctx.colex3.cell_colors(ci)):
                    op = PauliOperator.from_support(
                        ctx.n3, "Z", ctx.colex3.cell_vertices(ci)
                    )
                    cell_vals[ci] = state.expect(op)
                    assert cell_vals[ci] == 1
            flux = extract_flux(state, ctx.split, pair, "Z", rng, ctx.duals[pair])
            outcome = {
                flux.duals[i].plaquette: (-1 if i in flux.edges else 1)
                for i in range(len(flux.duals))
            }
            inner_set = set(ctx.split.inner_vertices)
            for ci, val in cell_vals.items():
                prod = 1
                hits = 0
                for pi in range(len(ctx.colex3.plaquettes)):
                    if ctx.colex3.plaquette_colors(pi) != pair:
                        continue
                    vs = set(ctx.colex3.plaquette_vertices(pi))
                    if vs <= set(ctx.colex3.cell_vertices(ci)):
                        hits += 1
                        if vs <= inner_set:
                            prod *= outcome[pi]
                        else:
                            op = PauliOperator.from_support(ctx.n3, "Z", sorted(vs))
                            prod *= state.expect(op)
                assert hits >= 2 and prod == val


def test_outer_plaquette_parity_rule(ctx):
    """An outer plaquette reads -1 exactly when it terminates an odd number
    of flux lines."""
    for trial in range(100):
        state, rng = random_gauge_state(ctx, trial)
        for pair in ctx.pairs:
            flux = extract_flux(state, ctx.split, pair, "Z", rng, ctx.duals[pair])
            hot_outer = set(flux.outer_endpoints())
            for pi_outer in range(len(ctx.split.outer.plaquettes)):
                if ctx.split.outer.plaquette_colors(pi_outer) != pair:
                    continue
                op = PauliOperator.from_support(
                    ctx.n3,
                    "Z",
                    [
                        ctx.split.outer_vertices[v]
                        for v in ctx.split.outer.plaquette_vertices(pi_outer)
                    ],
                )
                val = state.expect(op)
                assert (val == -1) == (pi_outer in hot_outer)


def oracle_min_delta(observed: FluxConfiguration):
    """Exhaustive-subset oracle: all minimum sets with the same inner endpoints."""
    target = observed.inner_endpoints()
    best = None
    hits = []
    m = len(observed.duals)
    for size in range(m + 1):
        if best is not None and size > best:
            break
        for combo in itertools.combinations(range(m), size):
            cand = with_edges(observed, combo)
            if cand.inner_endpoints() == target:
                best = size
                hits.append(frozenset(combo))
        if best is not None:
            break
    return best, hits


def test_repair_no_endpoints_is_identity(ctx):
    duals = ctx.duals["rg"]
    observed = FluxConfiguration("rg", "Z", frozenset(), duals)
    delta0, gamma_eff = repair_flux(observed)
    assert delta0 == frozenset()
    assert gamma_eff.edges == observed.edges


def test_repair_matches_exhaustive_oracle(ctx):
    """|delta0| equals the exhaustive-subset minimum and delta0 prefers the
    observed edges among ties."""
    for pair in ctx.pairs:
        duals = ctx.duals[pair]
        m = len(duals)
        for bits in range(2**m):
            observed = FluxConfiguration(
                pair, "Z", frozenset(i for i in range(m) if bits >> i & 1), duals
            )
            delta0, gamma_eff = repair_flux(observed)
            best, hits = oracle_min_delta(observed)
            assert len(delta0) == best
            assert gamma_eff.inner_endpoints() == ()
            max_overlap = max(len(h & observed.edges) for h in hits)
            assert len(delta0 & observed.edges) == max_overlap


def test_repair_minimality_invariant(ctx):
    """|delta0 + omega| >= |delta0| for every endpoint-free residual loop."""
    rng = np.random.default_rng(17)
    for pair in ctx.pairs:
        duals = ctx.duals[pair]
        m = len(duals)
        for _ in range(50):
            delta = frozenset(int(i) for i in np.flatnonzero(rng.random(m) < 0.4))
            observed = FluxConfiguration(pair, "Z", delta, duals)
            delta0, _ = repair_flux(observed)
            for bits in range(2**m):
                omega = frozenset(i for i in range(m) if bits >> i & 1)
                if not omega:
                    continue
                cand = FluxConfiguration(pair, "Z", omega, duals)
                if cand.inner_endpoints() == ():
                    assert len(delta0 ^ omega) >= len(delta0)


def test_string_correction_empty(ctx):
    corr = string_correction(ctx.code2, (), "rg", "X")
    assert corr.is_identity()


def test_string_correction_round_trip_all_syndromes(ctx):
    """Recomputing the syndrome of the returned string reproduces the input,
    for every subset of pair-plaquettes, and the support is minimal among
    third-color edge products (exhaustive oracle)."""
    colex2 = ctx.code2.colex
    for pair in ctx.pairs:
        target_ids = [
            pi
            for pi in range(len(colex2.plaquettes))
            if colex2.plaquette_colors(pi) == pair
        ]
        col = string_color(pair)
        edges = [(a, b) for a, b, c in colex2.edges if c == col]
        for bits in range(2 ** len(target_ids)):
            syndrome = [
                target_ids[i] for i in range(len(target_ids)) if bits >> i & 1
            ]
            corr = string_correction(ctx.code2, syndrome, pair, "X")
            # round trip
            recomputed = []
            for pi in target_ids:
                vs = set(colex2.plaquette_vertices(pi))
                if len(set(corr.support) & vs) % 2 == 1:
                    recomputed.append(pi)
            assert recomputed == sorted(syndrome)
            # minimality among edge products
            best = None
            for r in range(len(edges) + 1):
                if best is not None:
                    break
                for combo in itertools.combinations(edges, r):
                    acc = set()
                    for a, b in combo:
                        acc ^= {a, b}
                    got = [
                        pi
                        for pi in target_ids
                        if len(acc & set(colex2.plaquette_vertices(pi))) % 2 == 1
                    ]
                    if got == sorted(syndrome):
                        best = 2 * r
                        break
            assert corr.weight == best


def test_string_correction_single_plaquette_reaches_border(ctx):
    """One hot plaquette: the minimal string is one third-color edge running
    to the border."""
    for pair in ctx.pairs:
        target = [
            pi
            for pi in range(len(ctx.code2.colex.plaquettes))
            if ctx.code2.colex.plaquette_colors(pi) == pair
        ]
        corr = string_correction(ctx.code2, target[:1], pair, "X")
        assert corr.weight == 2


def test_string_correction_rejects_wrong_pair(ctx):
    rg_plaquettes = [
        pi
        for pi in range(len(ctx.code2.colex.plaquettes))
        if ctx.code2.colex.plaquette_colors(pi) == "rg"
    ]
    with pytest.raises(ValueError):
        string_correction(ctx.code2, rg_plaquettes, "rb", "X")
