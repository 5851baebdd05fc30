"""Monte Carlo harness: engine equivalence, determinism, statistics."""

import functools
import hashlib
import io
import itertools
import json
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexjump import gf2, jump, montecarlo
from colexjump.codes import build_3d, build_inner
from colexjump.colex import Colex
from colexjump.jump import (
    encoded_state,
    ideal_decode,
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
    base = {logical: jump.encoded_3d(ctx, logical) for logical in ("zero", "plus")}
    kept = montecarlo._tableau_batch(ctx, base, spec, 4, 3, keep=True)
    bare = montecarlo._tableau_batch(ctx, base, spec, 4, 3, keep=False)
    for name in ("keys", "delta0_sizes", "failed"):
        assert np.array_equal(getattr(kept, name), getattr(bare, name))
    assert kept.result(2) == montecarlo._tableau_trial(ctx, base, spec, 6)
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
def test_trial_indices_outside_uint64_are_an_error(ctx, engine, offset, trials):
    """Nothing runs: a batch's keys must not wrap onto trial 0's stream."""
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


def test_fast_engine_repairs_only_new_patterns(tetra15, monkeypatch):
    """Flux repair and string correction run once per (slot, observed
    pattern) a trial reaches, not per trial; no per-trial generator is
    built."""
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-trial generator was built")

    monkeypatch.setattr(montecarlo, "repair_flux", counting("repair", montecarlo.repair_flux))
    monkeypatch.setattr(
        jump.JumpContext,
        "cached_string_correction",
        counting("string", jump.JumpContext.cached_string_correction),
    )
    monkeypatch.setattr(montecarlo, "trial_rng", forbidden)
    ctx = make_context(tetra15, "rgb")
    plan = collapse_plan(ctx)
    spec = NoiseSpec(0.05, 0.05, seed=3)
    run_collapse_trials(ctx, spec, 3000)
    reached = sum(len(table) for table in plan._repairs)
    assert len(plan.slots) < reached <= sum(2 ** len(d) for *_, d in plan.slots)
    assert calls == Counter(repair=reached, string=reached)
    run_collapse_trials(ctx, spec, 3000, trial_offset=3000)
    reached = sum(len(table) for table in collapse_plan(ctx)._repairs)
    assert calls == Counter(repair=reached, string=reached)


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
            ideal_decode(state, code.n, [vs for vs, _ in code.colex.cells])
            assert state.expect(logical_operator(code, "Z")) == 1
            assert all(state.expect(c) == 1 for c in cells)


def test_noiseless_trials_never_fail(ctx):
    stats = run_collapse_trials(ctx, NoiseSpec(0, 0, seed=1), 300)
    assert stats.total_failures == 0
    assert stats.residual_weight_hist == {0: 300}
    assert stats.max_residual_component == 0


def test_exhaustive_weight1_no_failures(ctx):
    assert exhaustive_weight1_collapse(ctx) == []


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
        if ex.any() or ez.any():
            state.apply(PauliOperator(code.n, to_mask(ex), to_mask(ez)))
        for basis in ("Z", "X"):
            state, report = single_shot_ec(state, code, basis, noise.q_meas, rng)
            for pair, size in report.delta0_sizes.items():
                stats.delta0_hist[size] += 1
        stats.trials += 1
        if has_logical:
            kind = "Z" if logical == "zero" else "X"
            ideal_decode(state, code.n, cells)
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

    monkeypatch.setattr(montecarlo, "philox_uniforms", forbidden)
    with pytest.raises(ValueError, match="2\\^64"):
        run_single_shot_trials(code, NoiseSpec(0.1, 0.1, seed=1), trials, trial_offset=offset)


def _round_outcomes(plan, x: int) -> tuple[int, list[int]]:
    """(decode key, outcomes in plan order) of a round whose plaquette j
    reads -1 iff bit j of x is set."""
    outcomes = [-1 if x >> j & 1 else 1 for j in range(len(plan.order))]
    key = 0
    for j, pi in enumerate(plan.order):
        if x >> j & 1:
            key ^= plan.key_masks[pi]
    return key, outcomes


def _direct_decode(plan, basis: str, outcomes: list[int]) -> tuple[int, tuple]:
    report = jump.single_shot_decode(
        plan.code, plan.dual, dict(zip(plan.order, outcomes)), basis
    )
    corr = report.correction
    return corr.x if basis == "Z" else corr.z, tuple(report.delta0_sizes.values())


def test_decode_table_exact_on_every_inner_pattern(inner_code):
    plan = montecarlo.SingleShotPlan(inner_code)
    m = len(plan.order)
    assert m == 6
    rng = np.random.default_rng(4)
    for basis in ("Z", "X"):
        # fill the table in a scrambled order, then read every pattern back
        for x in rng.permutation(2**m).tolist():
            plan.decode(basis, *_round_outcomes(plan, x))
        for x in range(2**m):
            key, outcomes = _round_outcomes(plan, x)
            assert plan.decoded[basis][key] == _direct_decode(plan, basis, outcomes)
        assert len(plan.decoded[basis]) <= 2**9


def test_decode_key_determines_the_tetra_decode(code3):
    """Outcome patterns that differ by a kernel element of the key map
    decode alike, and the table (filled by whichever pattern reached a key
    first) equals the direct decode on random patterns."""
    plan = montecarlo.SingleShotPlan(code3)
    m = len(plan.order)
    width = functools.reduce(operator.or_, plan.key_masks.values()).bit_length()
    key_map = gf2.BitMatrix(
        [
            sum((plan.key_masks[pi] >> b & 1) << j for j, pi in enumerate(plan.order))
            for b in range(width)
        ],
        m,
    )
    kernel = gf2.nullspace(key_map).rows
    assert width == 12 and len(kernel) == m - gf2.rank(key_map) >= 6
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
        for _ in range(2000):
            key, outcomes = _round_outcomes(plan, int(rng.integers(2**m)))
            assert plan.decode(basis, key, outcomes) == _direct_decode(plan, basis, outcomes)
        assert len(plan.decoded[basis]) <= 2**12


def test_single_shot_decodes_only_new_keys(tetra15, split15, monkeypatch):
    """`single_shot_decode` runs once per table entry, not per round; no
    per-trial generator or noise vector is built."""
    calls = Counter()
    real = montecarlo.single_shot_decode

    def counting(*args, **kwargs):
        calls["decode"] += 1
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-trial generator or noise vector was built")

    monkeypatch.setattr(montecarlo, "single_shot_decode", counting)
    for name in ("trial_rng", "sample_qubit_noise", "to_mask"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    spec = NoiseSpec(0.05, 0.05, seed=3)
    for code, bits in ((build_inner(split15), 9), (build_3d(tetra15), 12)):
        calls.clear()
        run_single_shot_trials(code, spec, 3000)
        tables = montecarlo.single_shot_plan(code).decoded.values()
        entries = sum(len(table) for table in tables)
        assert 2 < entries <= 2 * 2**bits
        assert calls == Counter(decode=entries)
        run_single_shot_trials(code, spec, 3000)
        assert calls == Counter(decode=entries)


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
