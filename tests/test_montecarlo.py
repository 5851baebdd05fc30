"""Monte Carlo harness: engine equivalence, determinism, statistics."""

import functools
import hashlib
import io
import itertools
import json
import operator
import random
from collections import Counter

import numpy as np
import pytest
from decoder_oracle import oracle_decode
from frame_oracle import frame_trials
from hypothesis import given, settings, strategies as st

from colexjump import flux, gf2, jump, montecarlo, noise, tableau
from colexjump.codes import build_3d, build_inner
from colexjump.colex import Colex
from colexjump.jump import (
    check_readout,
    decode_checks,
    encoded_state,
    logical_operator,
    make_context,
    single_shot_ec,
)
from colexjump.montecarlo import (
    BATCH_TRIALS,
    CollapseEngine,
    TrialStats,
    collapse_plan,
    exhaustive_weight1_collapse,
    jump_trial,
    run_collapse_trials,
    run_single_shot_trials,
    stats_csv_rows,
    wilson_interval,
)
from colexjump.noise import NoiseSpec, sample_qubit_noise, to_mask, trial_rng
from colexjump.pauli import PauliOperator
from colexjump.tableau import Tableau


def _class_min_support(ctx, vec: np.ndarray) -> np.ndarray:
    """Reference oracle: minimum-weight member of vec * stabilizer-span (one
    CSS side), ties broken by the lexicographically first support, found by
    enumerating every product of outer plaquettes."""
    stabs = [
        np.array(
            [1 if q in set(vs) else 0 for q in range(ctx.n2)], dtype=np.uint8
        )
        for vs, _ in ctx.code2.colex.plaquettes
    ]
    best = vec
    for r in range(len(stabs) + 1):
        for combo in itertools.combinations(stabs, r):
            cand = vec.copy()
            for s in combo:
                cand = cand ^ s
            if cand.sum() < best.sum() or (
                cand.sum() == best.sum()
                and tuple(np.flatnonzero(cand)) < tuple(np.flatnonzero(best))
            ):
                best = cand
    return best


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (0.06, 0.0), (0.0, 0.06), (0.1, 0.1)])
def test_fast_engine_matches_tableau(ctx, p, q):
    """The sign-linear engine and the tableau pipeline produce bit-identical
    trials: same traces, same statistics."""
    spec = NoiseSpec(p, q, seed=23)
    tr_fast, tr_tab = io.StringIO(), io.StringIO()
    fast = run_collapse_trials(ctx, spec, 60, engine="fast", trace_fh=tr_fast)
    tab = run_collapse_trials(ctx, spec, 60, engine="tableau", trace_fh=tr_tab)
    assert tr_fast.getvalue() == tr_tab.getvalue()
    assert fast.as_dict() == tab.as_dict()


def test_tableau_batch_keeps_results_only_for_a_trace(ctx):
    spec = NoiseSpec(0.1, 0.1, seed=8)
    kept = montecarlo._tableau_batch(ctx, spec, 4, 3, keep=True)
    bare = montecarlo._tableau_batch(ctx, spec, 4, 3, keep=False)
    for name in ("keys", "delta0_sizes", "failed"):
        assert np.array_equal(getattr(kept, name), getattr(bare, name))
    assert kept.result(2) == montecarlo._tableau_trial(ctx, spec, 6)
    with pytest.raises(IndexError):
        bare.result(0)
    traced = run_collapse_trials(ctx, spec, 9, engine="tableau", trace_fh=io.StringIO())
    assert run_collapse_trials(ctx, spec, 9, engine="tableau").as_dict() == traced.as_dict()


_RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    offset=st.integers(0, 10**9),
    p=_RATES,
    q=_RATES,
)
def test_fast_engine_matches_tableau_fuzzed(ctx, seed, offset, p, q):
    spec = NoiseSpec(p, q, seed=seed)
    tr_fast, tr_tab = io.StringIO(), io.StringIO()
    fast = run_collapse_trials(
        ctx, spec, 5, trial_offset=offset, engine="fast", trace_fh=tr_fast
    )
    tab = run_collapse_trials(
        ctx, spec, 5, trial_offset=offset, engine="tableau", trace_fh=tr_tab
    )
    assert tr_fast.getvalue() == tr_tab.getvalue()
    assert fast.as_dict() == tab.as_dict()


@pytest.mark.parametrize("engine", ["Fast", "numpy", ""])
def test_unknown_engine_is_an_error(ctx, engine):
    with pytest.raises(ValueError, match='"fast".*"tableau"'):
        run_collapse_trials(ctx, NoiseSpec(0.1, 0.1, seed=1), 3, engine=engine)


def test_last_trial_indices_match_tableau(ctx):
    """Trial indices 2^64 - 2 and 2^64 - 1 key the generator like any other."""
    spec = NoiseSpec(0.2, 0.2, seed=5)
    runs = []
    for engine in ("fast", "tableau"):
        trace = io.StringIO()
        stats = run_collapse_trials(
            ctx, spec, 2, trial_offset=2**64 - 2, engine=engine, trace_fh=trace
        )
        runs.append((stats.as_dict(), trace.getvalue()))
    assert runs[0] == runs[1]
    assert [json.loads(line)["trial"] for line in runs[0][1].splitlines()] == [
        2**64 - 2,
        2**64 - 1,
    ]


@pytest.mark.parametrize("engine", ["fast", "tableau"])
@pytest.mark.parametrize("offset,trials", [(2**64 - 2, 3), (-1, 2), (-5, 3)])
def test_trial_indices_outside_uint64_are_an_error(ctx, monkeypatch, engine, offset, trials):
    """Nothing runs: a batch's keys must not wrap onto trial 0's stream."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    for name in ("philox_words", "trial_rng"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    trace = io.StringIO()
    with pytest.raises(ValueError, match="2\\^64"):
        run_collapse_trials(
            ctx, NoiseSpec(0.1, 0.1, seed=1), trials, trial_offset=offset,
            engine=engine, trace_fh=trace,
        )
    assert trace.getvalue() == ""


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


_GOLDEN_TRIALS = 1030  # more than one batch of the fast engine
# SHA-256 prefixes of {"stats": as_dict(), "trace": trace text} over
# _GOLDEN_TRIALS trials, keyed by (p, q, seed, first trial); recorded with the
# per-trial fast engine that the batched one replaced
_COLLAPSE_GOLDEN = {
    (0, 0, 3, 0): "77d96c63d8",
    (0, 0, 2**64 - 1, 2**64 - 1030): "a7ef55f75b",
    (0.05, 0.05, 3, 0): "7ff3b184c7",
    (0.05, 0.05, 2**64 - 1, 2**64 - 1030): "f02f961241",
    (1, 1, 3, 0): "2a22f30cfd",
    (1, 1, 2**64 - 1, 2**64 - 1030): "3d7248b3fe",
    (0.3, 0, 3, 0): "8019cfab26",
    (0.3, 0, 2**64 - 1, 2**64 - 1030): "e408b2594e",
    (0, 0.3, 3, 0): "c2ad1650cc",
    (0, 0.3, 2**64 - 1, 2**64 - 1030): "b7c72649f5",
}


@pytest.mark.parametrize("p,q,seed,first", list(_COLLAPSE_GOLDEN))
def test_collapse_output_pinned(ctx, p, q, seed, first):
    assert _GOLDEN_TRIALS > BATCH_TRIALS
    trace = io.StringIO()
    stats = run_collapse_trials(
        ctx, NoiseSpec(p, q, seed), _GOLDEN_TRIALS, trial_offset=first, trace_fh=trace
    )
    payload = {"stats": stats.as_dict(), "trace": trace.getvalue()}
    assert _digest(payload) == _COLLAPSE_GOLDEN[p, q, seed, first]


def test_shards_across_batch_boundaries_merge_to_one_run(ctx):
    """Shards cut just before, just after and far from batch boundaries
    give the same statistics and trace as one call."""
    spec = NoiseSpec(0.1, 0.08, seed=41)
    offset, total = 7, 2 * BATCH_TRIALS + 50
    whole_trace = io.StringIO()
    whole = run_collapse_trials(ctx, spec, total, trial_offset=offset, trace_fh=whole_trace)
    cuts = [0, BATCH_TRIALS - 3, BATCH_TRIALS + 5, BATCH_TRIALS + 6, total]
    merged, traces = TrialStats(), []
    for lo, hi in zip(cuts, cuts[1:]):
        trace = io.StringIO()
        part = run_collapse_trials(
            ctx, spec, hi - lo, trial_offset=offset + lo, trace_fh=trace
        )
        merged = merged.merge(part)
        traces.append(trace.getvalue())
    assert merged.as_dict() == whole.as_dict()
    assert "".join(traces) == whole_trace.getvalue()


def test_run_trial_is_a_batch_of_one(ctx):
    spec = NoiseSpec(0.15, 0.1, seed=12)
    trace = io.StringIO()
    run_collapse_trials(ctx, spec, 6, trial_offset=99, trace_fh=trace)
    engine = CollapseEngine(ctx)
    lines = [
        montecarlo._trace_line(spec, t, engine.run_trial(spec, t))
        for t in range(99, 105)
    ]
    assert "\n".join(lines) + "\n" == trace.getvalue()


def test_fast_engine_repairs_nothing_after_build(tetra15, monkeypatch):
    """The plan's program runs flux repair and string correction once per
    (slot, pattern) when it is compiled, and the fast engine's trials then
    run no repair, string correction, T-join or residual search, and build
    no per-trial generator."""
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial repaired, searched or built a generator")

    monkeypatch.setattr(jump, "repair_flux", counting("repair", jump.repair_flux))
    monkeypatch.setattr(
        jump.JumpContext,
        "cached_string_correction",
        counting("string", jump.JumpContext.cached_string_correction),
    )
    ctx = make_context(tetra15, "rgb")
    plan = collapse_plan(ctx)
    plan.program(True, True)  # reads the slot table
    entries = sum(2 ** len(duals) for *_, duals in ctx.slots)
    assert entries == 24
    assert calls == Counter(repair=entries, string=entries)
    assert [len(repairs) for repairs in ctx.slot_repairs] == [4] * len(ctx.slots)
    for target, name in (
        (jump, "repair_flux"),
        (jump.JumpContext, "cached_string_correction"),
        (flux, "t_join"),
        (montecarlo, "_max_component"),
        (montecarlo, "trial_rng"),
    ):
        monkeypatch.setattr(target, name, forbidden)
    spec = NoiseSpec(0.05, 0.05, seed=3)
    for offset in (0, 3000):
        stats = run_collapse_trials(ctx, spec, 3000, trial_offset=offset)
        assert stats.trials == 3000 and stats.delta0_hist.keys() - {0}
    assert collapse_plan(ctx) is plan


def test_tableau_collapse_repairs_nothing_after_build(tetra15, monkeypatch):
    """Once the context's slot table is built, no tableau collapse (the
    tableau engine, the round trip, the exhaustive weight-1 sweep) runs a
    flux repair, a string correction or a T-join, or resolves a slot's
    color pair again."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a tableau collapse repaired a slot")

    ctx = make_context(tetra15, "rgb")
    assert [len(repairs) for repairs in ctx.slot_repairs] == [4] * len(ctx.slots)
    for target, name in (
        (jump, "repair_flux"),
        (jump.JumpContext, "cached_string_correction"),
        (flux, "t_join"),
        (flux, "color_set"),
    ):
        monkeypatch.setattr(target, name, forbidden)
    spec = NoiseSpec(0.1, 0.1, seed=4)
    stats = run_collapse_trials(ctx, spec, 60, engine="tableau", trace_fh=io.StringIO())
    assert stats.trials == 60 and stats.delta0_hist.keys() - {0}
    for t in range(10):
        montecarlo.jump_trial(ctx, spec, "roundtrip", t)
    assert exhaustive_weight1_collapse(ctx) == []


def _largest_cluster(ctx, support) -> int:
    """Largest set of support qubits linked through shared edges or
    plaquettes of the 2D lattice, by union-find."""
    parent = {q: q for q in support}

    def root(q):
        while parent[q] != q:
            q = parent[q]
        return q

    colex = ctx.code2.colex
    groups = [(a, b) for a, b, _ in colex.edges] + [tuple(vs) for vs, _ in colex.plaquettes]
    for group in groups:
        inside = [q for q in group if q in parent]
        for q in inside[1:]:
            parent[root(q)] = root(inside[0])
    return max(Counter(root(q) for q in support).values(), default=0)


def test_dense_tables_equal_their_fillers(tetra15):
    """Every residual entry of a fresh plan, and every slot lookup of its
    programs, equals its value recomputed here from the coset table,
    `repair_flux` and an uncached string correction; `decoded_flip` holds,
    per side key, whether the 2D decode of the coset's lightest member
    leaves the logical flipped. A slot lookup's entry changes only the
    residual key, by the key bits of its correction."""
    ctx = make_context(tetra15, "rgb")
    plan = montecarlo.CollapsePlan(ctx)
    keys = 1 << 2 * plan.side_bits
    assert keys == 256 and len(plan.coset_min) == 1 << plan.side_bits
    for key in range(keys):
        key_x, key_z = plan.split_key(key)
        sx, sz = plan.coset_min[key_x], plan.coset_min[key_z]
        assert plan.residual_weight[key] == len(sx) + len(sz)
        assert plan.residual_component[key] == _largest_cluster(ctx, set(sx) | set(sz))
    assert plan.decoded_flip.shape == (1 << plan.side_bits,) == (16,)
    decode = gf2.checks_table(ctx.n2, jump.plaquette_checks(ctx.code2))
    for key in range(1 << plan.side_bits):
        member = plan.coset_min.get(key)
        if member is None:
            assert not plan.decoded_flip[key]
            continue
        syndrome = tuple(key >> j & 1 for j in range(plan.side_bits - 1))
        assert plan.decoded_flip[key] == (len(member) + len(decode[syndrome])) % 2
    programs = [plan.program(noisy, flips) for noisy in (False, True) for flips in (False, True)]
    for program in programs:
        assert len(program.lookups) == len(ctx.slots)
        assert program.size_rows.shape == (4 * len(ctx.slots), 1)
    for slot, (basis, pair, duals) in enumerate(ctx.slots):
        for pattern in range(2 ** len(duals)):
            seen = frozenset(i for i in range(len(duals)) if pattern >> i & 1)
            delta0, gamma = flux.repair_flux(flux.FluxConfiguration(pair, basis, seen, duals))
            kind = "X" if basis == "Z" else "Z"
            corr = flux.string_correction(ctx.code2, gamma.outer_endpoints(), pair, kind)
            mask = corr.x if kind == "X" else corr.z
            key = plan.residual_key(0, 0, {"X": 0, "Z": 0} | {kind: mask})
            got = ctx.slot_repairs[slot][pattern]
            assert got.delta0 == tuple(sorted(delta0))
            assert got.gamma_eff == tuple(sorted(gamma.edges))
            assert (got.kind, got.correction) == (kind, corr)
            assert got.record == {d.plaquette: -1 if i in seen else 1 for i, d in enumerate(duals)}
            later = sum(len(d) for *_, d in ctx.slots[slot + 1 :])  # the key bits after it
            for program in programs:
                bits, effects = program.lookups[slot]
                assert bits == len(duals) and effects.shape == (1, 2 ** len(duals))
                size = program.size_rows[program.size_offsets[slot] + pattern]
                assert (effects[0, pattern], size) == (key << later, len(delta0))


def test_plan_residual_table_matches_exhaustive_oracle(ctx):
    """Every outer vector, as an injected error or as an applied correction
    on either side, keys the oracle's lightest coset member."""
    plan = collapse_plan(ctx)
    outer = list(ctx.split.outer_vertices)
    for bits in itertools.product((0, 1), repeat=ctx.n2):
        vec = np.array(bits, dtype=np.uint8)
        want = tuple(np.flatnonzero(_class_min_support(ctx, vec)).tolist())
        mask = to_mask(vec)
        err = sum(1 << outer[q] for q in range(ctx.n2) if bits[q])
        keys = plan.split_key(plan.residual_key(err, 0, {"X": 0, "Z": mask}))
        keys += plan.split_key(plan.residual_key(0, err, {"X": mask, "Z": 0}))
        assert [plan.coset_min[k] for k in keys] == [want] * 4


def test_plan_tables_built_once_per_context(tetra15, monkeypatch):
    built = []
    real = gf2.min_weight_table

    def counting(n, checks):
        built.append((n, len(checks)))
        return real(n, checks)

    # the table cache is process-wide: start from an empty one
    monkeypatch.setattr(gf2, "_CHECK_TABLES", {})
    monkeypatch.setattr(gf2, "min_weight_table", counting)
    ctx = make_context(tetra15, "rgb")
    m = len(ctx.code2.colex.plaquettes)
    spec = NoiseSpec(0.05, 0.05, seed=3)
    run_collapse_trials(ctx, spec, 10)
    assert built[:2] == [(ctx.n2, m + 1), (ctx.n2, m)]  # residual cosets, 2D decode
    first = list(built)  # the plan's tables, then string corrections
    for engine in ("fast", "tableau"):
        run_collapse_trials(ctx, spec, 10, trial_offset=10, engine=engine)
    assert built == first


def _relabelled(colex, perm):
    return Colex(
        colex.dimension,
        colex.n_vertices,
        [(perm[a], perm[b], c) for a, b, c in colex.edges],
        [([perm[v] for v in vs], cs) for vs, cs in colex.plaquettes],
        [([perm[v] for v in vs], cs) for vs, cs in colex.cells],
        name="relabelled",
    )


def test_single_shot_decode_tables_are_per_lattice(tetra15):
    """Two tetrahedral codes of one kind, differing only in vertex labels,
    each correct every single-qubit error with their own cell table."""
    perm = list(range(1, tetra15.n_vertices)) + [0]
    for code in (build_3d(tetra15), build_3d(_relabelled(tetra15, perm))):
        cells = [
            PauliOperator.from_support(code.n, "Z", vs) for vs, _ in code.colex.cells
        ]
        for q in range(code.n):
            state = encoded_state(code, "zero")
            state.apply(PauliOperator.from_support(code.n, "X", [q]))
            decode_checks(state, check_readout(code.n, [vs for vs, _ in code.colex.cells]))
            assert state.expect(logical_operator(code, "Z")) == 1
            assert all(state.expect(c) == 1 for c in cells)


def test_noiseless_trials_never_fail(ctx):
    stats = run_collapse_trials(ctx, NoiseSpec(0, 0, seed=1), 300)
    assert stats.total_failures == 0
    assert stats.residual_weight_hist == {0: 300}
    assert stats.max_residual_component == 0


def test_exhaustive_weight1_no_failures(ctx):
    assert exhaustive_weight1_collapse(ctx) == []


def _rows(state: Tableau):
    return state.xs, state.zs, state.signs


def _run_every_tableau_trial(ctx, trials):
    spec = NoiseSpec(0.1, 0.1, seed=12)
    for action in ("blowup", "roundtrip"):
        for t in range(trials):
            montecarlo.jump_trial(ctx, spec, action, t)
    run_collapse_trials(ctx, spec, trials, engine="tableau", trace_fh=io.StringIO())
    exhaustive_weight1_collapse(ctx)


def test_trials_leave_the_cached_states_as_built(tetra15):
    """Trials copy the context's encoded states and never change them."""
    ctx = make_context(tetra15, "rgb")
    _run_every_tableau_trial(ctx, 6)
    for logical in ("zero", "plus"):
        assert _rows(ctx.states2[logical]) == _rows(encoded_state(ctx.code2, logical))
        assert _rows(ctx.states3[logical]) == _rows(jump.encoded_3d(ctx, logical))


def test_encoded_states_are_built_once_per_context(tetra15, monkeypatch):
    calls = Counter()
    build = jump.encoded_state

    def counting(code, *args, **kwargs):
        calls[code.kind] += 1
        return build(code, *args, **kwargs)

    monkeypatch.setattr(jump, "encoded_state", counting)
    ctx = make_context(tetra15, "rgb")
    _run_every_tableau_trial(ctx, 2)
    first = dict(calls)
    assert sum(first.values()) == 4  # zero and plus, in 2D and in 3D
    _run_every_tableau_trial(ctx, 8)
    assert calls == first


def test_jump_trial_rejects_an_unknown_action(ctx):
    with pytest.raises(ValueError, match="unknown jump action"):
        montecarlo.jump_trial(ctx, NoiseSpec(), "collapse", 0)


def test_failure_rate_monotonicity_small(ctx):
    lo = run_collapse_trials(ctx, NoiseSpec(0.001, 0.001, seed=2), 2000)
    hi = run_collapse_trials(ctx, NoiseSpec(0.05, 0.05, seed=2), 2000)
    assert lo.total_failures <= hi.total_failures


def test_stats_merge_matches_single_run(ctx):
    spec = NoiseSpec(0.05, 0.05, seed=9)
    whole = run_collapse_trials(ctx, spec, 100)
    first = run_collapse_trials(ctx, spec, 60)
    second = run_collapse_trials(ctx, spec, 40, trial_offset=60)
    assert first.merge(second).as_dict() == whole.as_dict()


def test_trace_determinism(ctx):
    spec = NoiseSpec(0.08, 0.04, seed=4)
    a, b = io.StringIO(), io.StringIO()
    run_collapse_trials(ctx, spec, 50, trace_fh=a)
    run_collapse_trials(ctx, spec, 50, trace_fh=b)
    assert a.getvalue() == b.getvalue()


def test_residual_locality_proxy(ctx):
    """At low measurement noise every residual component stays within the
    lattice-constant bound times the repaired flux size."""
    from colexjump.noise import measure_K

    k_hat = max(measure_K(ctx, pair, 4) for pair in ctx.pairs)
    spec = NoiseSpec(0.0, 0.01, seed=6)
    stats = run_collapse_trials(ctx, spec, 3000)
    edges_per_side = sum(len(ctx.duals[pair]) for pair in ctx.pairs)
    bound = k_hat * 2 * edges_per_side  # coarse per-trial ceiling
    assert stats.max_residual_component <= bound


def _tableau_single_shot_trials(code, noise, trials, trial_offset=0) -> TrialStats:
    """Reference oracle: the single-shot harness on a full tableau per trial
    (one `single_shot_ec` per round, then a tableau ideal decode)."""
    stats = TrialStats()
    has_logical = bool(code.L.generators)
    cells = [tuple(vs) for vs, _ in code.colex.cells]
    bases = {}
    if has_logical:
        bases["zero"] = encoded_state(code, "zero")
        bases["plus"] = encoded_state(code, "plus")
    else:
        bases[None] = encoded_state(code, None)
    for t in range(trial_offset, trial_offset + trials):
        rng = trial_rng(noise.seed, t)
        logical = (
            ("zero" if t % 2 == 0 else "plus") if has_logical else None
        )
        state = bases[logical].copy()
        ex, ez = sample_qubit_noise(noise.p_qubit, code.n, rng)
        if ex or ez:
            state.apply(PauliOperator(code.n, ex, ez))
        for basis in ("Z", "X"):
            state, report = single_shot_ec(state, code, basis, noise.q_meas, rng)
            for pair, size in report.delta0_sizes.items():
                stats.delta0_hist[size] += 1
        stats.trials += 1
        if has_logical:
            kind = "Z" if logical == "zero" else "X"
            decode_checks(state, check_readout(code.n, cells))
            if state.expect(logical_operator(code, kind)) != 1:
                stats.failures[kind] += 1
        else:
            violated = any(state.expect(g) != 1 for g in code.S.generators)
            if violated:
                stats.failures["stabilizer"] += 1
    return stats


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.05), (0.1, 0.1), (1.0, 1.0)])
@pytest.mark.parametrize("which", ["inner_code", "code3"])
def test_frame_engine_matches_tableau(request, which, p, q):
    code = request.getfixturevalue(which)
    spec = NoiseSpec(p, q, seed=17)
    frame = run_single_shot_trials(code, spec, 40, trial_offset=3)
    assert frame.as_dict() == _tableau_single_shot_trials(code, spec, 40, 3).as_dict()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    offset=st.integers(0, 10**9),
    p=_RATES,
    q=_RATES,
)
def test_frame_engine_matches_tableau_fuzzed(inner_code, code3, seed, offset, p, q):
    """Odd and even offsets start the tetrahedral trials on either logical."""
    spec = NoiseSpec(p, q, seed=seed)
    for code in (inner_code, code3):
        frame = run_single_shot_trials(code, spec, 4, trial_offset=offset)
        oracle = _tableau_single_shot_trials(code, spec, 4, trial_offset=offset)
        assert frame.as_dict() == oracle.as_dict()


def test_single_shot_plan_compiled_once_per_code(split15, monkeypatch):
    """A second call on the same code prepares no state and derives no
    boundary structure; no trial calls a tableau method."""
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("from_stabilizers", "boundary_structure"):
        monkeypatch.setattr(jump, name, counting(name, getattr(jump, name)))
    code = build_inner(split15)
    spec = NoiseSpec(0.1, 0.1, seed=5)
    run_single_shot_trials(code, spec, 3)
    assert calls["from_stabilizers"] == 1 and calls["boundary_structure"] == 1
    calls.clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("a tableau method ran inside a trial")

    for name in ("copy", "apply", "expect", "measure", "pivot_row"):
        monkeypatch.setattr(Tableau, name, forbidden)
    run_single_shot_trials(code, spec, 20, trial_offset=3)
    assert calls == Counter()


def test_tableau_trials_synthesize_no_state(ctx, monkeypatch):
    """Once a context has its encoded states, neither a tableau collapse
    batch nor `jump_trial` (blow-up or round trip) synthesizes a tableau:
    no trial calls `from_stabilizers`, `_flip_operator` or `gf2.solve`."""
    spec = NoiseSpec(0.2, 0.2, seed=3)
    run_collapse_trials(ctx, spec, 2, engine="tableau")
    for action in ("blowup", "roundtrip"):
        jump_trial(ctx, spec, action, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial synthesized a tableau")

    for module, name in (
        (jump, "from_stabilizers"),
        (tableau, "from_stabilizers"),
        (tableau, "_flip_operator"),
        (gf2, "solve"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    run_collapse_trials(ctx, spec, 40, trial_offset=2, engine="tableau")
    for action in ("blowup", "roundtrip"):
        for t in range(1, 21):
            jump_trial(ctx, spec, action, t)


def test_tableau_batches_draw_once_each(ctx, monkeypatch):
    """A tableau collapse run of two batches makes two `philox_words`
    calls, one per batch, and no trial builds its own generator."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a tableau trial built its own generator")

    calls, draw = [], noise.philox_words

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(montecarlo, "trial_rng", forbidden)
    for module in (montecarlo, noise):  # a trial's redraw would go through noise
        monkeypatch.setattr(module, "philox_words", counting)
    run_collapse_trials(
        ctx, NoiseSpec(0.05, 0.05, seed=6), BATCH_TRIALS + 3, trial_offset=5, engine="tableau"
    )
    width = 2 * ctx.n3 + sum(len(duals) for _, _, duals in ctx.slots)
    assert calls == [(6, 5, BATCH_TRIALS, width), (6, 5 + BATCH_TRIALS, 3, width)]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    offset=st.one_of(st.integers(0, 10**9), st.integers(2**64 - 2 * BATCH_TRIALS, 2**64 - 1)),
    trials=st.one_of(st.integers(1, 12), st.just(BATCH_TRIALS + 3)),
    p=_RATES,
    q=_RATES,
)
def test_compiled_batches_match_the_frame_oracle_per_trial(
    inner_code, code3, seed, offset, trials, p, q
):
    """Every trial's round keys and failure bit equal the step loop's, on
    both references, across a batch boundary and up to trial 2^64 - 1."""
    trials = min(trials, 2**64 - offset)
    spec = NoiseSpec(p, q, seed=seed)
    for code in (inner_code, code3):
        plan = montecarlo.single_shot_plan(code)
        got = []
        for _, keys, failed in montecarlo._single_shot_batches(plan, spec, offset, trials):
            got += zip(map(tuple, keys.tolist()), failed.tolist())
        assert got == frame_trials(code, spec, offset, trials)


def _frame_operator(code, kind: str, k: int) -> PauliOperator:
    """A Hermitian Pauli on the code's qubits, picked by k: a plaquette or
    a cell of either type, or X and Z masks from k's bits with an even
    number of Y factors."""
    n, colex = code.n, code.colex
    basis = "ZX"[k & 1]
    if kind == "plaquette":
        support = colex.plaquette_vertices(k % len(colex.plaquettes))
        return PauliOperator.from_support(n, basis, support)
    if kind == "cell":
        return PauliOperator.from_support(n, basis, colex.cells[k % len(colex.cells)][0])
    x, z = k & (1 << n) - 1, k >> n & (1 << n) - 1
    if (x & z).bit_count() & 1:  # an odd Y count: swap X and Y on the lowest X factor
        z ^= x & -x
    return PauliOperator(n, x, z)


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(["zero", "plus", None]),  # None: the inner code's state
    ops=st.lists(
        st.tuples(st.sampled_from(["plaquette", "cell", "random"]), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=12,
    ),
    noisy=st.booleans(),
    values=st.integers(0, 2**64 - 1),
)
def test_frame_outcomes_match_a_forced_tableau(inner_code, code3, which, ops, noisy, values):
    """Each outcome bit a `_Frame` measures, evaluated at random values of
    its variables, equals the outcome of a tableau that starts from the
    reference with the frame's noise applied and forces each random outcome
    to +1 exactly when its outcome draw is 1. Afterwards every stabilizer
    row of the frame's reference reads the tableau's value through `read`,
    and a check the tableau holds no value of makes `read` raise."""
    code = code3 if which else inner_code
    state = encoded_state(code, which)
    forms = montecarlo._Forms()
    frame = montecarlo._Frame(forms, state, noisy)
    noise_x, noise_z = frame.fx[:], frame.fz[:]
    picked = [_frame_operator(code, kind, k) for kind, k in ops]
    bits = [frame.measure(op) for op in picked]
    # variable 0 is the constant 1
    assignment = values << 1 | 1

    def value(form: int) -> int:
        return (form & assignment).bit_count() & 1

    n = code.n
    trial = state.copy()
    trial.apply(PauliOperator(n, *(to_mask([value(f) for f in fs]) for fs in (noise_x, noise_z))))
    ups = iter(v for kind, v in zip(forms.kinds, forms.draws) if kind == montecarlo._OUTCOME)
    want = []
    for op in picked:
        force = None
        if trial.pivot_row(op) is not None:
            force = 1 if value(1 << next(ups)) else -1
        want.append(1 if trial.measure(op, force=force) == -1 else 0)
    assert next(ups, None) is None
    assert [value(bit) for bit in bits] == want
    ref = frame.state
    for r in range(n, 2 * n):
        op = PauliOperator(n, ref.xs[r], ref.zs[r])
        assert value(frame.read(op)) == (trial.expect(op) == -1)
    for _, k in ops:
        op = _frame_operator(code, "random", k)
        if trial.expect(op) is None:
            with pytest.raises(ValueError, match="no definite value"):
                frame.read(op)
        else:
            assert value(frame.read(op)) == (trial.expect(op) == -1)


def test_collapse_program_is_one_block_for_both_states(tetra15, ctx):
    """Every inner plaquette reads +1 on both encoded 3D states, so the
    collapse program compiled from the plus state, on a fresh context whose
    `states3` has zero and plus swapped, holds the same tables as the one
    compiled from the zero state."""
    swapped = make_context(tetra15, "rgb")
    swapped.states3 = {"zero": ctx.states3["plus"], "plus": ctx.states3["zero"]}
    for noisy in (False, True):
        for flips in (False, True):
            got = montecarlo.CollapsePlan(swapped).program(noisy, flips)
            want = collapse_plan(ctx).program(noisy, flips)
            assert np.array_equal(got.tables, want.tables)
            assert np.array_equal(got.kinds, want.kinds)
            for (bits, effect), (want_bits, want_effect) in zip(got.lookups, want.lookups):
                assert bits == want_bits and np.array_equal(effect, want_effect)
            assert len(got.lookups) == len(want.lookups)


_DRAW_KINDS = (montecarlo._NOISE, montecarlo._OUTCOME, montecarlo._FLIP)  # at p, 1/2, q


# (key bits, correction bits, what the key reads) per lookup: "all" the
# variables so far, "draws" only the draw columns, "previous" all of them
# with key bit 0 reading the previous lookup's first correction bit
_CHAINED = ((2, 3, "all"), (3, 2, "all"))
_MERGING = ((2, 3, "draws"), (3, 2, "draws"), (2, 2, "previous"))


def _edge_program(rand, widths: tuple, refs: int, shapes: tuple = _CHAINED):
    """A `FrameProgram` of one hand-made `_Forms` block per entry of
    `widths` (its draw columns), on random forms: by default two lookups,
    the second keyed partly by the first's correction, then a 3-bit final
    key; `shapes` sets the lookups."""
    tables = [
        (np.array([[rand.getrandbits(1) for _ in range(c)] for _ in range(1 << k)]),
         np.array([[rand.randrange(9)] for _ in range(1 << k)]))
        for k, c, _ in shapes
    ]
    blocks = []
    for width in widths:
        forms = montecarlo._Forms()
        for _ in range(width):
            forms.draw(rand.choice(_DRAW_KINDS))
        drawn = forms.vars
        for (bits, _, reads), (table, sizes) in zip(shapes, tables):
            span = drawn if reads == "draws" else forms.vars
            key = [rand.getrandbits(span) for _ in range(bits)]
            if reads == "previous":
                key[0] |= 1 << forms.lookups[-1][2]
            forms.look_up(key, table, sizes)
        forms.outputs += [rand.getrandbits(forms.vars) for _ in range(3)]
        blocks.append(forms)
    fail = np.array([[rand.getrandbits(1) for _ in range(8)] for _ in range(refs)], dtype=bool)
    return blocks, montecarlo.FrameProgram(blocks, fail)


def _edge_trial(blocks, fail, noise, t):
    """Trial t of `_edge_program`'s blocks, evaluated form by form on its
    own generator's draws: (reference, draw bits, lookup keys, final key)."""
    ref = t % len(fail)
    forms = blocks[ref % len(blocks)]
    rates = dict(zip(_DRAW_KINDS, (noise.p_qubit, 0.5, noise.q_meas)))
    draws = trial_rng(noise.seed, t).random(len(forms.kinds))
    bits = [int(u < rates[kind]) for u, kind in zip(draws, forms.kinds)]
    values = forms.one | sum(bit << var for bit, var in zip(bits, forms.draws))

    def key(lo, count):
        forms_ = forms.outputs[lo : lo + count]
        return sum(((form & values).bit_count() & 1) << i for i, form in enumerate(forms_))

    keys = []
    for lo, bits_, var, table, _ in forms.lookups:
        keys.append(key(lo, bits_))
        values |= sum(int(bit) << var + i for i, bit in enumerate(table[keys[-1]]))
    end = forms.lookups[-1][0] + forms.lookups[-1][1]
    return ref, bits, keys, key(end, len(forms.outputs) - end)


@pytest.mark.parametrize(
    "widths,refs",
    [((0,), 1), ((7,), 2), ((8,), 1), ((9,), 2), ((64,), 1)]
    + [((0, 7), 2), ((8, 9), 2), ((64, 8), 2), ((9, 64), 2)],
)
def test_frame_program_matches_its_forms_per_trial(widths, refs):
    """A frame program runs every trial of a batch as its forms do, at draw
    widths on and beside octet edges, on one or two blocks of different
    widths, for batches of 1, 8 and `BATCH_TRIALS` + 3 trials and p, q in
    {0, 1, drawn}."""
    rand = random.Random(repr((widths, refs)))
    blocks, program = _edge_program(rand, widths, refs)
    _assert_runs_as_its_forms(rand, blocks, program)


@pytest.mark.parametrize("widths,refs", [((9,), 1), ((64, 8), 2)])
def test_merged_lookups_match_their_forms_per_trial(widths, refs):
    """Two lookups whose keys read no correction run as one step over
    their joined key, and a third, keyed partly by the second's
    correction, as a step of its own; every trial still runs as its forms
    do, with one key per lookup."""
    rand = random.Random(repr((widths, refs, _MERGING)))
    blocks, program = _edge_program(rand, widths, refs, _MERGING)
    assert [(bits, len(shifts)) for bits, shifts, _, _ in program.steps] == [(5, 2), (2, 1)]
    _assert_runs_as_its_forms(rand, blocks, program)


def _assert_runs_as_its_forms(rand, blocks, program):
    """Every trial of batches of 1, 8 and `BATCH_TRIALS` + 3 trials at p, q
    in {0, 1, drawn} runs as `_edge_trial` evaluates its forms."""
    widths = [len(forms.kinds) for forms in blocks]
    drawn = rand.random()
    rates = (0.0, 1.0, drawn)
    for p, q, count in itertools.product(rates, rates, (1, 8, BATCH_TRIALS + 3)):
        noise = NoiseSpec(p, q, seed=rand.getrandbits(64))
        first = rand.randrange(2**64 - count)
        ref, bits, keys, final, failed = program.run(noise, first, count)
        assert bits.shape == (count, max(widths))
        sizes = program.sizes(keys)
        for i, t in enumerate(range(first, first + count)):
            want_ref, want_bits, want_keys, want_final = _edge_trial(blocks, program.fail, noise, t)
            assert ref[i] == want_ref
            assert bits[i].tolist() == want_bits + [0] * (bits.shape[1] - len(want_bits))
            assert keys[i].tolist() == want_keys and final[i] == want_final
            assert failed[i] == program.fail[want_ref, want_final]
            want_sizes = [look[4][k].tolist() for look, k in zip(blocks[0].lookups, want_keys)]
            assert sizes[i].tolist() == want_sizes


def _two_lookups(bits: tuple) -> montecarlo.FrameProgram:
    """A program of two lookups of `bits` key bits, both keyed by the one
    draw column only, so neither key reads a correction."""
    forms = montecarlo._Forms()
    draw = forms.draw(montecarlo._NOISE)
    for k in bits:
        table = np.ones((1 << k, 1), dtype=np.uint8)
        forms.look_up([draw] * k, table, np.zeros((1 << k, 1), dtype=np.uint8))
    forms.outputs.append(forms.one)
    return montecarlo.FrameProgram([forms], np.zeros((1, 2), dtype=bool))


def test_lookups_merge_up_to_the_row_bound(ctx, code3, inner_code):
    """The tetra15 collapse's slot lookups run as one step of 2^12 rows,
    single-shot's two rounds as two steps (round 2 reads round 1's
    correction), and lookups whose joined key would pass
    `MERGED_KEY_BITS` stay split."""
    bound = montecarlo.MERGED_KEY_BITS
    assert bound == 12
    plan = collapse_plan(ctx)
    for noisy, flips in itertools.product((False, True), repeat=2):
        steps = plan.program(noisy, flips).steps
        assert [len(shifts) for _, shifts, _, _ in steps] == [len(ctx.slots)]
        assert steps[0][0] == 2 * len(ctx.slots) and steps[0][3].shape == (1, 1 << bound)
    for code in (code3, inner_code):
        steps = montecarlo.single_shot_plan(code).program(True, True).steps
        assert [len(shifts) for _, shifts, _, _ in steps] == [1, 1]
    assert [s[0] for s in _two_lookups((bound - 5, 5)).steps] == [bound]
    assert [s[0] for s in _two_lookups((bound - 5, 6)).steps] == [bound - 5, 6]


def test_jump_trials_are_the_jump_trial_values(ctx, monkeypatch):
    """The batched jump loop reads, on every trial and across batch
    boundaries, the value and the state that `jump_trial` on the trial's
    own generator reads, for both actions."""
    from tableau_checks import signed_group

    for action in ("blowup", "roundtrip"):  # warm-up: states, tables
        jump_trial(ctx, NoiseSpec(0.1, 0.1), action, 0)
    read = []
    expect = Tableau.expect

    def recording(self, op):
        value = expect(self, op)
        read.append((value, signed_group(self, expect)))
        return value

    monkeypatch.setattr(Tableau, "expect", recording)
    monkeypatch.setattr(montecarlo, "BATCH_TRIALS", 3)
    for action in ("blowup", "roundtrip"):
        for p, q in ((0.05, 0.1), (0.0, 0.0), (1.0, 1.0), (0.3, 0.0)):
            spec = NoiseSpec(p, q, seed=17)
            want = [jump_trial(ctx, spec, action, t) for t in range(8)]
            alone, read[:] = read[:], []
            got = list(montecarlo.jump_trials(ctx, spec, action, 8))
            assert got == want and read == alone, (action, p, q)
            read.clear()
    assert list(montecarlo.jump_trials(ctx, NoiseSpec(0.1, 0.1), "blowup", 0)) == []


@pytest.mark.parametrize("kind", ["inner", "3d", "collapse"])
def test_single_shot_programs_cached_per_noise_structure(tetra15, split15, monkeypatch, kind):
    """A code (single-shot) or a context (collapse) compiles one program
    per (p > 0, q > 0) and sets the rates per call, so interleaved runs on
    one code or context equal runs on fresh ones."""

    if kind == "collapse":
        cls, plan_of = montecarlo.CollapsePlan, collapse_plan

        def make():
            return make_context(tetra15, "rgb")

        def run(ctx, spec):
            trace = io.StringIO()
            stats = run_collapse_trials(ctx, spec, 600, trial_offset=5, trace_fh=trace)
            return stats.as_dict(), trace.getvalue()

    else:
        cls, plan_of = montecarlo.SingleShotPlan, montecarlo.single_shot_plan

        def make():
            return build_inner(split15) if kind == "inner" else build_3d(tetra15)

        def run(code, spec):
            return run_single_shot_trials(code, spec, 600, trial_offset=5).as_dict()

    compiled = []
    real = cls._forms

    def counting(plan, noisy, flips):
        compiled.append((plan, noisy, flips))
        return real(plan, noisy, flips)

    monkeypatch.setattr(cls, "_forms", counting)
    shared = make()
    specs = [
        NoiseSpec(0.1, 0, seed=7),
        NoiseSpec(0.1, 0.3, seed=7),
        NoiseSpec(0.05, 0, seed=8),
        NoiseSpec(0, 0.2, seed=9),
        NoiseSpec(0, 0, seed=3),
    ]
    for spec in specs:
        assert run(shared, spec) == run(make(), spec)
    structures = [c[1:] for c in compiled if c[0] is plan_of(shared)]
    assert structures == [(True, False), (True, True), (False, True), (False, False)]
    assert len(compiled) == 4 + len(specs)


# SHA-256 prefixes of `as_dict()` over 60 trials from offset 0, recorded with
# the tableau harness (now `_tableau_single_shot_trials`)
_SINGLE_SHOT_GOLDEN = {
    ("inner_code", 0.02, 0.02, 808): "9c62df7711",
    ("inner_code", 0.1, 0.05, 3): "2cdee4764f",
    ("inner_code", 1, 1, 2): "526b92807e",
    ("code3", 0.02, 0.02, 808): "701db73c19",
    ("code3", 0.1, 0.05, 3): "6e94d08479",
    ("code3", 1, 1, 2): "3dade003ed",
}


@pytest.mark.parametrize("which,p,q,seed", list(_SINGLE_SHOT_GOLDEN))
def test_single_shot_statistics_pinned(request, which, p, q, seed):
    code = request.getfixturevalue(which)
    stats = run_single_shot_trials(code, NoiseSpec(p, q, seed), 60)
    assert _digest(stats.as_dict()) == _SINGLE_SHOT_GOLDEN[which, p, q, seed]


# SHA-256 prefixes of `as_dict()` over _GOLDEN_TRIALS single-shot trials
# (more than two batches), keyed by (code, p, q, seed, first trial); recorded
# with the per-trial frame engine that the batched one replaced
_SINGLE_SHOT_BATCH_GOLDEN = {
    ("inner_code", 0, 0, 3, 0): "b6750da4a2",
    ("inner_code", 0, 0, 2**64 - 1, 2**64 - 1030): "b6750da4a2",
    ("inner_code", 0.02, 0.02, 3, 0): "3614498f10",
    ("inner_code", 0.02, 0.02, 2**64 - 1, 2**64 - 1030): "b12ad4d3bd",
    ("inner_code", 1, 1, 3, 0): "215de8ce47",
    ("inner_code", 1, 1, 2**64 - 1, 2**64 - 1030): "215de8ce47",
    ("inner_code", 0.3, 0, 3, 0): "b6750da4a2",
    ("inner_code", 0.3, 0, 2**64 - 1, 2**64 - 1030): "b6750da4a2",
    ("inner_code", 0, 0.3, 3, 0): "2f6b266b48",
    ("inner_code", 0, 0.3, 2**64 - 1, 2**64 - 1030): "75b53808ed",
    ("code3", 0, 0, 3, 0): "95836e1be9",
    ("code3", 0, 0, 2**64 - 1, 2**64 - 1030): "95836e1be9",
    ("code3", 0.02, 0.02, 3, 0): "34112e70a8",
    ("code3", 0.02, 0.02, 2**64 - 1, 2**64 - 1030): "8ad9ce553b",
    ("code3", 1, 1, 3, 0): "c3d908f222",
    ("code3", 1, 1, 2**64 - 1, 2**64 - 1030): "c3d908f222",
    ("code3", 0.3, 0, 3, 0): "417129979c",
    ("code3", 0.3, 0, 2**64 - 1, 2**64 - 1030): "d537a4dcb6",
    ("code3", 0, 0.3, 3, 0): "267798870d",
    ("code3", 0, 0.3, 2**64 - 1, 2**64 - 1030): "662ab2b2e2",
}


@pytest.mark.parametrize("which,p,q,seed,first", list(_SINGLE_SHOT_BATCH_GOLDEN))
def test_single_shot_output_pinned_across_batches(request, which, p, q, seed, first):
    assert _GOLDEN_TRIALS > 2 * BATCH_TRIALS
    code = request.getfixturevalue(which)
    stats = run_single_shot_trials(
        code, NoiseSpec(p, q, seed), _GOLDEN_TRIALS, trial_offset=first
    )
    assert _digest(stats.as_dict()) == _SINGLE_SHOT_BATCH_GOLDEN[which, p, q, seed, first]


@pytest.mark.parametrize("which", ["inner_code", "code3"])
def test_single_shot_shards_across_batch_boundaries_merge_to_one_run(request, which):
    code = request.getfixturevalue(which)
    spec = NoiseSpec(0.1, 0.1, seed=41)
    total = 2 * BATCH_TRIALS + 50
    whole = run_single_shot_trials(code, spec, total)
    cuts = [0, BATCH_TRIALS - 3, BATCH_TRIALS + 5, BATCH_TRIALS + 6, total]
    merged = TrialStats()
    for lo, hi in zip(cuts, cuts[1:]):
        merged = merged.merge(run_single_shot_trials(code, spec, hi - lo, trial_offset=lo))
    assert merged.as_dict() == whole.as_dict()


@pytest.mark.parametrize("which", ["inner_code", "code3"])
def test_single_shot_last_trial_indices_match_tableau(request, which):
    code = request.getfixturevalue(which)
    spec = NoiseSpec(0.2, 0.2, seed=5)
    frame = run_single_shot_trials(code, spec, 2, trial_offset=2**64 - 2)
    oracle = _tableau_single_shot_trials(code, spec, 2, trial_offset=2**64 - 2)
    assert frame.trials == 2
    assert frame.as_dict() == oracle.as_dict()


@pytest.mark.parametrize("which", ["inner_code", "code3"])
@pytest.mark.parametrize("offset,trials", [(2**64 - 2, 3), (-1, 2)])
def test_single_shot_trial_indices_outside_uint64_are_an_error(
    request, monkeypatch, which, offset, trials
):
    """Nothing runs: a batch's keys must not wrap onto trial 0's stream."""
    code = request.getfixturevalue(which)

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(montecarlo, "philox_words", forbidden)
    with pytest.raises(ValueError, match="2\\^64"):
        run_single_shot_trials(code, NoiseSpec(0.1, 0.1, seed=1), trials, trial_offset=offset)


def _round_outcomes(plan, x: int) -> tuple[int, list[int]]:
    """(decode key, outcomes in plan order) of a round whose plaquette j
    reads -1 iff bit j of x is set."""
    order = plan.dual.order
    outcomes = [-1 if x >> j & 1 else 1 for j in range(len(order))]
    key = 0
    for j, pi in enumerate(order):
        if x >> j & 1:
            key ^= plan.dual.key_masks[pi]
    return key, outcomes


def _direct_decode(plan, basis: str, outcomes: list[int]) -> tuple[int, tuple, tuple]:
    report = oracle_decode(plan.code, plan.dual, dict(zip(plan.dual.order, outcomes)), basis)
    corr = report.correction
    return corr.x if basis == "Z" else corr.z, tuple(report.delta0_sizes.values()), report.syndrome


def _table_entry(plan, key: int) -> tuple[int, tuple, tuple]:
    """(correction mask, delta0 sizes, syndrome) that the code's decode
    table holds for a key."""
    dual = plan.dual
    return (
        to_mask(dual.corrections[key]),
        tuple(dual.delta0_sizes[key].tolist()),
        tuple(dual.syndromes[key].tolist()),
    )


def _one_pattern_per_key(plan) -> dict[int, int]:
    """Decode key -> the lowest outcome pattern (bit j: plaquette j of the
    plan order reads -1) that produces it, over every pattern."""
    xs = np.arange(2 ** len(plan.dual.order), dtype=np.int64)
    keys = np.zeros_like(xs)
    for j, pi in enumerate(plan.dual.order):
        keys ^= (xs >> j & 1) * plan.dual.key_masks[pi]
    found, first = np.unique(keys, return_index=True)
    return dict(zip(found.tolist(), first.tolist()))


def _assert_table_is_the_oracle_on_every_key(plan) -> None:
    """Every key a round can produce holds the outcome oracle's decode of
    one of its patterns, in both bases; every other row is zero."""
    patterns = _one_pattern_per_key(plan)
    for basis in ("Z", "X"):
        for key, x in patterns.items():
            outcomes = _round_outcomes(plan, x)[1]
            assert _table_entry(plan, key) == _direct_decode(plan, basis, outcomes)
    others = [k for k in range(1 << plan.dual.key_bits) if k not in patterns]
    for table in (plan.dual.corrections, plan.dual.delta0_sizes, plan.dual.syndromes):
        assert not table[others].any()


def test_decode_table_exact_on_every_inner_pattern(inner_code):
    """The inner code's 64 patterns give its 64 keys (of 2^9), each decoded
    as the oracle decodes it; the other 448 keys are never decoded."""
    plan = montecarlo.SingleShotPlan(inner_code)
    assert len(plan.dual.order) == 6 and plan.dual.key_bits == 9
    assert len(_one_pattern_per_key(plan)) == 2**6
    _assert_table_is_the_oracle_on_every_key(plan)


def test_decode_key_determines_the_tetra_decode(code3):
    """Outcome patterns that differ by a kernel element of the key map
    decode alike, and the table, built from the keys alone, equals the
    outcome oracle on every one of the 4096 keys."""
    plan = montecarlo.SingleShotPlan(code3)
    order, key_masks = plan.dual.order, plan.dual.key_masks
    m = len(order)
    width = functools.reduce(operator.or_, key_masks.values()).bit_length()
    key_map = gf2.BitMatrix(
        [sum((key_masks[pi] >> b & 1) << j for j, pi in enumerate(order)) for b in range(width)],
        m,
    )
    kernel = gf2.nullspace(key_map).rows
    assert width == plan.dual.key_bits == 12 and len(kernel) == m - gf2.rank(key_map) >= 6
    rng = np.random.default_rng(9)
    for basis in ("Z", "X"):
        for _ in range(300):
            x = int(rng.integers(2**m))
            k = 0
            for row in kernel:
                if rng.random() < 0.5:
                    k ^= row
            key, outcomes = _round_outcomes(plan, x)
            key_k, outcomes_k = _round_outcomes(plan, x ^ k)
            assert key == key_k
            assert _direct_decode(plan, basis, outcomes) == _direct_decode(
                plan, basis, outcomes_k
            )
    assert len(_one_pattern_per_key(plan)) == 2**12
    _assert_table_is_the_oracle_on_every_key(plan)


def test_single_shot_trials_decode_nothing_after_build(tetra15, split15, monkeypatch):
    """Each code's decode table is built once, with its plan; trials then
    run no T-join and no decode, and build no per-trial generator or noise
    vector."""
    built = Counter()
    real = jump._decode_every_key

    def counting(dual, n):
        built[n] += 1
        return real(dual, n)

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial decoded, or built a generator or noise vector")

    monkeypatch.setattr(jump, "_decode_every_key", counting)
    spec = NoiseSpec(0.05, 0.05, seed=3)
    codes = (build_inner(split15), build_3d(tetra15))
    plans = [montecarlo.single_shot_plan(code) for code in codes]
    assert built == Counter({code.n: 1 for code in codes})
    for module in (jump, flux):
        monkeypatch.setattr(module, "t_join", forbidden)
    monkeypatch.setattr(jump, "_decode_every_key", forbidden)
    for name in ("trial_rng", "sample_qubit_noise", "to_mask"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    for code, plan in zip(codes, plans):
        for offset in (0, 3000):
            stats = run_single_shot_trials(code, spec, 3000, trial_offset=offset)
            assert stats.trials == 3000 and stats.delta0_hist.keys() - {0}
        assert montecarlo.single_shot_plan(code) is plan


def test_single_shot_trials_inner_noiseless(inner_code):
    stats = run_single_shot_trials(inner_code, NoiseSpec(0, 0, seed=1), 50)
    assert stats.total_failures == 0


def test_single_shot_trials_inner_with_noise(inner_code):
    stats = run_single_shot_trials(inner_code, NoiseSpec(0.02, 0.02, seed=1), 200)
    assert stats.trials == 200  # failures possible but counted coherently
    assert stats.total_failures <= 200


def test_single_shot_trials_tetra_noiseless(code3):
    stats = run_single_shot_trials(code3, NoiseSpec(0, 0, seed=1), 40)
    assert stats.total_failures == 0


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.02
    lo2, hi2 = wilson_interval(500, 1000)
    assert lo2 < 0.5 < hi2


def test_csv_rows(ctx):
    spec = NoiseSpec(0.01, 0.02, seed=5)
    stats = run_collapse_trials(ctx, spec, 20)
    rows = stats_csv_rows([(spec, stats)])
    assert rows[0]["p"] == 0.01 and rows[0]["q"] == 0.02
    assert rows[0]["trials"] == 20
    assert 0 <= rows[0]["wilson_low_3sigma"] <= rows[0]["wilson_high_3sigma"] <= 1
