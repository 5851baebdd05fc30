"""Acceptance criteria, one test per criterion, each within its time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Budgets are asserted, not just observed.
"""

import itertools
import json
import time

import numpy as np
import pytest

import colexjump as cj
from colexjump import gf2
from colexjump.boundary import boundary_structure
from colexjump.codes import code_parameters, region_operator, verify_redundancy
from colexjump.colex import color_set
from colexjump.flux import FluxConfiguration, extract_flux, repair_flux
from colexjump.jump import embed_operator, encoded_3d, encoded_state, logical_operator
from colexjump.montecarlo import (
    exhaustive_weight1_collapse,
    run_collapse_trials,
    wilson_interval,
)
from colexjump.noise import NoiseSpec, measure_K, to_mask, trial_rng
from colexjump.pauli import PauliGroup, PauliOperator, commutes


def report(num, ok, desc, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  {desc}  ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_code_parameters(code2, code3):
    t0 = time.time()
    p2 = code_parameters(code2)
    t_tri = time.time() - t0
    t1 = time.time()
    p3 = code_parameters(code3)
    t_tet = time.time() - t1
    ok = p2 == (7, 1, 3) and p3 == (15, 1, 3) and t_tri < 10 and t_tet < 10
    report(1, ok, f"tri7 {p2}, tetra15 {p3}", time.time() - t0, 20)


def test_criterion_02_structure_relations(ctx):
    t0 = time.time()
    s2 = PauliGroup(
        ctx.n3,
        [embed_operator(g, ctx.n3, ctx.split.outer_vertices) for g in ctx.code2.S.generators],
    )
    s_in = PauliGroup(
        ctx.n3,
        [embed_operator(g, ctx.n3, ctx.split.inner_vertices) for g in ctx.inner_code.S.generators],
    )
    ok = ctx.code3.S.is_subgroup_of(s2.product_group(s_in))
    g2 = PauliGroup(
        ctx.n3,
        [embed_operator(g, ctx.n3, ctx.split.outer_vertices) for g in ctx.code2.G.generators],
    )
    g_in = PauliGroup(
        ctx.n3,
        [embed_operator(g, ctx.n3, ctx.split.inner_vertices) for g in ctx.inner_code.G.generators],
    )
    ok &= g2.product_group(g_in).is_subgroup_of(ctx.code3.G)
    ok &= cj.logical_qubit_count(ctx.inner_code.S, ctx.inner_code.G) == 0
    shared = cj.shared_logicals(ctx.code3, ctx.code2, ctx.split)
    ok &= all(g.weight == ctx.n2 for g in shared.generators)
    report(2, ok, "S3<=S2*Sin, G2*Gin<=G3, inner k=0, shared L on all outer", time.time() - t0, 1)


def test_criterion_03_region_operator_laws(code3, inner_code):
    t0 = time.time()
    ok = True
    for code in (code3, inner_code):
        bs = boundary_structure(code.colex)
        for ri, region in enumerate(bs.regions):
            x_r = region_operator(code, region, "X")
            z_r = region_operator(code, region, "Z")
            ok &= (not commutes(x_r, z_r)) == (region.classification == "free")
            for rj, other in enumerate(bs.regions):
                if ri == rj:
                    continue
                shared_odd = sum(
                    1 for bi in region.borders if bi in other.borders and bs.borders[bi].odd
                )
                ok &= commutes(x_r, region_operator(code, other, "Z")) == (
                    shared_odd % 2 == 0
                )
        if all(r.classification == "frozen" for r in bs.regions):
            y = {c.color for c in bs.corners}.pop()
            for region in bs.regions:
                pair = color_set(set(region.colors) - {y})
                acc = np.zeros(code.n, dtype=np.uint8)
                for pi in region.plaquettes:
                    if code.colex.plaquette_colors(pi) == pair:
                        for v in code.colex.plaquette_vertices(pi):
                            acc[code.qubit_map[v]] ^= 1
                ok &= to_mask(acc) == region_operator(code, region, "X").x
            ok &= verify_redundancy(code, bs)
    report(3, ok, "free<->anticommute, border rule, product identities", time.time() - t0, 1)


def test_criterion_04_flux_laws(ctx):
    t0 = time.time()
    trials = 10_000
    bases = {
        "zero": encoded_3d(ctx, "zero"),
        "plus": encoded_3d(ctx, "plus"),
    }
    gauge_xz = [(g.x, g.z) for g in ctx.code3.G.generators]
    # per-pair bookkeeping: cells carrying the pair, their non-inner plaquettes
    cells_of_pair = {}
    for pair in ctx.pairs:
        entries = []
        inner_plaquettes = {d.plaquette for d in ctx.duals[pair]}
        for ci in range(len(ctx.colex3.cells)):
            if not set(pair) <= set(ctx.colex3.cell_colors(ci)):
                continue
            cell_op = PauliOperator.from_support(ctx.n3, "Z", ctx.colex3.cell_vertices(ci))
            inner_here, outer_here = [], []
            for pi in range(len(ctx.colex3.plaquettes)):
                if ctx.colex3.plaquette_colors(pi) != pair:
                    continue
                if set(ctx.colex3.plaquette_vertices(pi)) <= set(
                    ctx.colex3.cell_vertices(ci)
                ):
                    op = PauliOperator.from_support(
                        ctx.n3, "Z", ctx.colex3.plaquette_vertices(pi)
                    )
                    (inner_here if pi in inner_plaquettes else outer_here).append((pi, op))
            entries.append((cell_op, inner_here, outer_here))
        cells_of_pair[pair] = entries
    outer_plaq_ops = {}
    for pair in ctx.pairs:
        ops = []
        for pi_out in range(len(ctx.split.outer.plaquettes)):
            if ctx.split.outer.plaquette_colors(pi_out) != pair:
                continue
            ops.append(
                (
                    pi_out,
                    PauliOperator.from_support(
                        ctx.n3,
                        "Z",
                        [
                            ctx.split.outer_vertices[v]
                            for v in ctx.split.outer.plaquette_vertices(pi_out)
                        ],
                    ),
                )
            )
        outer_plaq_ops[pair] = ops
    ok = True
    for t in range(trials):
        rng = trial_rng(404, t)
        state = bases["zero" if t % 2 == 0 else "plus"].copy()
        picks = rng.random(len(gauge_xz)) < 0.5
        if picks.any():
            x = z = 0
            for i in np.flatnonzero(picks):
                x ^= gauge_xz[i][0]
                z ^= gauge_xz[i][1]
            state.apply(PauliOperator(ctx.n3, x, z))
        for pair in ctx.pairs:
            flux = extract_flux(state, ctx.split, pair, "Z", rng, ctx.duals[pair])
            ok &= flux.inner_endpoints() == ()
            values = {
                flux.duals[i].plaquette: (-1 if i in flux.edges else 1)
                for i in range(len(flux.duals))
            }
            for cell_op, inner_here, outer_here in cells_of_pair[pair]:
                prod = 1
                for pi, _ in inner_here:
                    prod *= values[pi]
                for _, op in outer_here:
                    prod *= state.expect(op)
                ok &= prod == state.expect(cell_op)
            hot = set(flux.outer_endpoints())
            for pi_out, op in outer_plaq_ops[pair]:
                ok &= (state.expect(op) == -1) == (pi_out in hot)
        if not ok:
            break
    report(4, ok, f"{trials} noiseless trajectories of flux laws", time.time() - t0, 30)


def test_criterion_05_weight1_fault_tolerance(ctx):
    t0 = time.time()
    failures = exhaustive_weight1_collapse(ctx)
    report(5, failures == [], "all single faults decode cleanly", time.time() - t0, 60)


def _oracle_min_sizes(observed):
    target = observed.inner_endpoints()
    m = len(observed.duals)
    for size in range(m + 1):
        hits = [
            frozenset(c)
            for c in itertools.combinations(range(m), size)
            if observed.replaced(frozenset(c)).inner_endpoints() == target
        ]
        if hits:
            return size, hits
    raise AssertionError("oracle found no candidate")


def test_criterion_06_repair_minimality(ctx):
    t0 = time.time()
    ok = True
    # complete coverage: every observable flux configuration of every pair
    for pair in ctx.pairs:
        duals = ctx.duals[pair]
        for bits in range(2 ** len(duals)):
            observed = FluxConfiguration(
                pair, "Z", frozenset(i for i in range(len(duals)) if bits >> i & 1), duals
            )
            delta0, gamma_eff = repair_flux(observed)
            best, _ = _oracle_min_sizes(observed)
            ok &= len(delta0) == best
            ok &= gamma_eff.inner_endpoints() == ()
    # per-trial form: noisy samples, oracle match and the half-edges bound
    for t in range(10_000):
        rng = trial_rng(606, t)
        pair = ctx.pairs[t % len(ctx.pairs)]
        duals = ctx.duals[pair]
        delta = frozenset(int(i) for i in np.flatnonzero(rng.random(len(duals)) < 0.25))
        observed = FluxConfiguration(pair, "Z", delta, duals)
        delta0, gamma_eff = repair_flux(observed)
        best, _ = _oracle_min_sizes(observed)
        ok &= len(delta0) == best
        # every endpoint-free omega satisfies |delta0 ^ omega| >= |delta0|
        for bits in range(2 ** len(duals)):
            omega = frozenset(i for i in range(len(duals)) if bits >> i & 1)
            if omega and observed.replaced(omega).inner_endpoints() == ():
                ok &= len(delta0 ^ omega) >= len(delta0)
        if not ok:
            break
    report(6, ok, "delta0 matches the exhaustive oracle everywhere", time.time() - t0, 300)


def test_criterion_07_noiseless_round_trip(ctx):
    t0 = time.time()
    rng = trial_rng(707, 0)
    failures = 0
    for t in range(100):
        logical = "zero" if t % 2 == 0 else "plus"
        kind = "Z" if logical == "zero" else "X"
        state2 = encoded_state(ctx.code2, logical)
        state3, _ = cj.blow_up(ctx, state2, 0.0, rng)
        out = cj.collapse(ctx, state3, 0.0, rng)
        if out.logical_flip_flags[kind] != 1:
            failures += 1
    report(7, failures == 0, "100 blow-up/collapse round trips", time.time() - t0, 10)


def test_criterion_08_monotonicity(ctx):
    t0 = time.time()
    trials = 100_000
    low = run_collapse_trials(ctx, NoiseSpec(0.001, 0.001, seed=808), trials)
    high = run_collapse_trials(ctx, NoiseSpec(0.05, 0.05, seed=808), trials)
    lo_low, lo_high = wilson_interval(low.total_failures, trials)
    hi_low, hi_high = wilson_interval(high.total_failures, trials)
    ok = low.total_failures / trials <= high.total_failures / trials
    ok &= lo_high < hi_low  # non-overlapping 3-sigma intervals
    report(
        8,
        ok,
        f"rate {low.total_failures}/{trials} < {high.total_failures}/{trials}, CIs disjoint",
        time.time() - t0,
        300,
    )


def test_criterion_09_lattice_constant(ctx):
    t0 = time.time()
    k_values = [{p: measure_K(ctx, p, 4) for p in ctx.pairs} for _ in range(2)]
    ok = k_values[0] == k_values[1]
    k_hat = max(k_values[0].values())
    # every single-measurement-flip residual respects |supp E| <= K_hat * |omega|
    for pair in ctx.pairs:
        for basis in ("Z", "X"):
            for ei in range(len(ctx.duals[pair])):
                state = encoded_3d(ctx, "zero")
                out = cj.collapse(
                    ctx, state, 0.0, trial_rng(909, ei), injected_flips={(pair, basis): {ei}}
                )
                delta0, _, _ = out.repair_record[(pair, basis)]
                omega = set(delta0) ^ {ei}
                corr_type = "X" if basis == "Z" else "Z"
                residual = out.applied_correction[corr_type].weight
                ok &= residual <= k_hat * max(len(omega), 1)
    report(9, ok, f"K_hat={k_hat} stable; flip residuals within K bound", time.time() - t0, 60)


def test_criterion_10_scheduler():
    t0 = time.time()
    from colexjump.scheduler import StackState, advance, schedule, verify

    # the worked trace
    state = StackState.initial([0, 1, 2, 3], [1, 2, 3, 4])
    new, (r1, r2) = advance(state, 5)
    ok = new.labels.tolist() == [2, 3, 5, 4] and r1 == ((1, 2),) and r2 == ((2, 3),)
    # ten thousand random sequences within the bounds, including the extremes
    for trial in range(10_000):
        rng = trial_rng(1010, trial)
        if trial % 100 == 0:
            n, length = 128, 1000
        else:
            n = int(2 ** rng.uniform(0, 7.01))
            length = int(10 ** rng.uniform(0, 2.2))
        seq = rng.integers(0, n, size=length).tolist()
        sched = schedule(seq, range(n))
        ok &= len(sched.steps) == length  # exactly two rounds per step
        ok &= all(len(step) == 2 for step in sched.steps)
        result = verify(sched)
        ok &= bool(result)
        if not ok:
            break
    report(10, ok, "worked trace + 10000 verified schedules", time.time() - t0, 60)


def test_criterion_11_byte_identical_outputs(tmp_path):
    t0 = time.time()
    from colexjump.cli import main

    ok = True
    runs = {
        "collapse": [
            "simulate", "collapse", "--builtin", "tetra15", "--p", "0.02", "--q", "0.02",
            "--trials", "200", "--seed", "11", "--trace",
        ],
        "singleshot": [
            "simulate", "singleshot", "--builtin", "tetra15", "--kind", "inner",
            "--p", "0.02", "--q", "0.02", "--trials", "50", "--seed", "11",
        ],
        "measurek": [
            "simulate", "measure-k", "--builtin", "tetra15", "--cap", "4",
        ],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        full = argv + ["--label", "out", "--out-dir", str(out)]
        main(full)
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        main(full)  # identical invocation, clobbering the same files
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        ok &= first == second and len(first) > 0
    report(11, ok, "rerun CSV/JSON/trace outputs byte-identical", time.time() - t0, 120)
