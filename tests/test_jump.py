"""Collapse, blow-up, and single-shot error correction."""

import numpy as np
import numpy_oracle as oracle
import pytest
from collapse_oracle import oracle_collapse
from decoder_oracle import oracle_decode
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tableau_checks import assert_columns, assert_symplectic

from colexjump.jump import (
    TableauTrial,
    _code_dual_structure,
    blow_up,
    collapse,
    discard_qubits,
    embed_operator,
    encoded_3d,
    encoded_state,
    ideal_collapse,
    ideal_decode_2d,
    inner_plaquette_priority,
    logical_operator,
    single_shot_decode,
    single_shot_ec,
)
from colexjump.flux import extract_flux
from colexjump.montecarlo import CollapseEngine
from colexjump.noise import NoiseSpec, trial_rng
from colexjump.pauli import PauliOperator
from colexjump.tableau import Tableau, from_stabilizers


def test_noiseless_collapse_preserves_logicals(ctx):
    for logical, kind in (("zero", "Z"), ("plus", "X")):
        state = encoded_3d(ctx, logical)
        out = collapse(ctx, state, 0.0, trial_rng(0, 0))
        assert out.logical_flip_flags[kind] == 1
        for g in ctx.code2.S.generators:
            assert out.residual_state.expect(g) == 1


def test_trivial_syndrome_identity_correction(ctx):
    state = encoded_3d(ctx, "zero")
    out = collapse(ctx, state, 0.0, trial_rng(0, 1))
    assert out.applied_correction["X"].is_identity()
    assert out.applied_correction["Z"].is_identity()
    assert all(
        v == 1 for rec in out.measurement_record.values() for v in rec.values()
    )


def test_ideal_collapse_noiseless(ctx):
    state = encoded_3d(ctx, "zero")
    out = ideal_collapse(ctx, state, trial_rng(0, 2))
    assert out.logical_flip_flags["Z"] == 1


def test_ideal_collapse_not_fault_tolerant(ctx):
    """A pre-existing single outer-qubit X error survives the direct
    collapse as a logical for most qubits: the restricted-gauge correction
    matching the shifted syndrome differs from the error by a logical. The
    flux-based collapse handles every one of these (see the exhaustive
    weight-1 tests); this is the contrast that motivates the indirection."""
    outcomes = {}
    for q_outer in range(ctx.n2):
        state = encoded_3d(ctx, "zero")
        state.apply(
            embed_operator(
                PauliOperator.from_support(ctx.n2, "X", [q_outer]),
                ctx.n3,
                ctx.split.outer_vertices,
            )
        )
        out = ideal_collapse(ctx, state, trial_rng(0, 3))
        ideal_decode_2d(ctx, out.residual_state)
        outcomes[q_outer] = out.residual_state.expect(
            logical_operator(ctx.code2, "Z")
        )
    # On this instance every single outer error fails: restricted-gauge
    # corrections are products of edge operators and therefore have even
    # weight, so correcting an odd-weight error always leaves an odd-weight
    # residual, which can never be a stabilizer.
    assert all(v == -1 for v in outcomes.values())


def test_collapse_weight1_fault_tolerance_sample(ctx):
    """Spot version of the acceptance criterion: single faults never flip
    the logical after the final ideal decode."""
    # qubit faults
    for q in (0, 7, 14):
        for kind in ("X", "Z"):
            state = encoded_3d(ctx, "zero" if kind == "X" else "plus")
            state.apply(PauliOperator.from_support(ctx.n3, kind, [q]))
            out = collapse(ctx, state, 0.0, trial_rng(1, q))
            ideal_decode_2d(ctx, out.residual_state)
            track = "Z" if kind == "X" else "X"
            assert out.residual_state.expect(logical_operator(ctx.code2, track)) == 1
    # measurement flips
    for pair in ctx.pairs:
        for ei in range(len(ctx.duals[pair])):
            state = encoded_3d(ctx, "zero")
            out = collapse(
                ctx, state, 0.0, trial_rng(1, 50 + ei), injected_flips={(pair, "Z"): {ei}}
            )
            ideal_decode_2d(ctx, out.residual_state)
            assert out.residual_state.expect(logical_operator(ctx.code2, "Z")) == 1


_RATES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def _injected_flips(draw, ctx):
    """None, or a dict of drawn slots to drawn (possibly empty) index lists,
    repeats allowed."""
    if draw(st.booleans()):
        return None
    slots = draw(st.lists(st.sampled_from(ctx.slots), unique=True, max_size=len(ctx.slots)))
    return {
        (pair, basis): draw(st.lists(st.integers(0, len(duals) - 1), max_size=4))
        for basis, pair, duals in slots
    }


def _collapse_view(out):
    s = out.residual_state
    return (
        out.measurement_record,
        out.repair_record,
        {k: (op.x, op.z, op.sign) for k, op in out.applied_correction.items()},
        out.logical_flip_flags,
        (s.xs, s.zs, s.signs),
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 2**63),
    p=_RATES,
    q=_RATES,
    data=st.data(),
)
def test_collapse_matches_per_slot_oracle(ctx, seed, t, p, q, data):
    """`collapse` reads every slot's repair from `ctx.slot_repairs`; the
    oracle runs `repair_slot` on each slot's observed flux. Records, repairs,
    corrections, flags and the residual tableau agree, with qubit noise at p,
    measurement flips at q and drawn injected flips."""
    flips = data.draw(_injected_flips(ctx))
    outcomes = []
    for run in (collapse, oracle_collapse):
        rng = trial_rng(seed, t)
        state = ctx.states3[("zero", "plus")[t % 2]].copy()
        TableauTrial(state, rng).noise(p)
        outcomes.append(_collapse_view(run(ctx, state, q, rng, flips)))
    assert outcomes[0] == outcomes[1]


def test_collapse_records_are_the_callers_own(ctx):
    """Changing a returned measurement record, of a tableau collapse or of a
    fast-engine trial, leaves the slot table, and so every later collapse,
    as it was."""
    noiseless = NoiseSpec(0.0, 0.0, seed=1)
    for _ in range(2):
        for records in (
            collapse(ctx, encoded_3d(ctx, "zero"), 0.0, trial_rng(0, 0)).measurement_record,
            CollapseEngine(ctx).run_trial(noiseless, 0).records,
        ):
            for rec in records.values():
                assert all(v == 1 for v in rec.values())
                for pi in rec:
                    rec[pi] = -1


@pytest.mark.parametrize("index", [-1, 2, 99])
def test_injected_flip_outside_the_duals_is_refused(ctx, index):
    pair = ctx.pairs[0]
    assert len(ctx.duals[pair]) == 2
    with pytest.raises(ValueError, match="leave its 2 duals"):
        collapse(ctx, encoded_3d(ctx, "zero"), 0.0, trial_rng(0, 0), {(pair, "Z"): [index]})


def test_single_flip_residual_bounded_by_K(ctx):
    """Residual after one measurement flip is at most K_hat per repaired
    flux-line edge."""
    from colexjump.noise import measure_K

    for pair in ctx.pairs:
        k_hat = measure_K(ctx, pair, 4)
        for ei in range(len(ctx.duals[pair])):
            state = encoded_3d(ctx, "zero")
            out = collapse(
                ctx, state, 0.0, trial_rng(2, ei), injected_flips={(pair, "Z"): {ei}}
            )
            delta0, gamma_eff, true_flux = out.repair_record[(pair, "Z")]
            omega = set(delta0) ^ {ei}
            residual = out.applied_correction["X"]
            assert residual.weight <= k_hat * max(len(omega), 1) + 1e-9


def test_inner_error_absorbed_as_measurement_error(ctx):
    """A pre-existing single inner-qubit error produces exactly the records
    and outer state of the equivalent measurement-flip pattern."""
    inner = ctx.split.inner_vertices
    inner_set = set(inner)
    for v in inner:
        state_err = encoded_3d(ctx, "zero")
        state_err.apply(PauliOperator.from_support(ctx.n3, "X", [v]))
        out_err = collapse(ctx, state_err, 0.0, trial_rng(3, v))
        # equivalent flips: Z-plaquettes of the facet pairs containing v
        flips = {}
        for pair in ctx.pairs:
            hot = {
                i
                for i, dual in enumerate(ctx.duals[pair])
                if v in ctx.colex3.plaquette_vertices(dual.plaquette)
            }
            if hot:
                flips[(pair, "Z")] = hot
        state_ref = encoded_3d(ctx, "zero")
        out_ref = collapse(ctx, state_ref, 0.0, trial_rng(3, v), injected_flips=flips)
        assert out_err.measurement_record == out_ref.measurement_record
        # observed repairs agree; the underlying true flux legitimately
        # differs (the error really flips the plaquette vs. a readout lie)
        for key in out_err.repair_record:
            d0_err, ge_err, _ = out_err.repair_record[key]
            d0_ref, ge_ref, _ = out_ref.repair_record[key]
            assert (d0_err, ge_err) == (d0_ref, ge_ref)
        for kind in ("X", "Z"):
            assert out_err.applied_correction[kind] == out_ref.applied_correction[kind]
        assert out_err.logical_flip_flags == out_ref.logical_flip_flags


_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20), _RATE, _RATE)
def test_jumps_keep_the_symplectic_pairing(ctx, seed, t, p, q):
    """A noisy blow-up, and the collapse of the noisy 3D state it returns,
    give tableaux whose destabilizer i anticommutes with stabilizer i alone
    and whose destabilizers commute, with columns the transpose of rows."""
    rng = trial_rng(seed, t)
    state2 = ctx.states2[("zero", "plus")[t % 2]].copy()
    TableauTrial(state2, rng).noise(p)
    state3 = blow_up(ctx, state2, q, rng)
    assert_symplectic(state3)
    assert_columns(state3)
    TableauTrial(state3, rng).noise(p)
    residual = collapse(ctx, state3, q, rng).residual_state
    assert_symplectic(residual)
    assert_columns(residual)


def test_blow_up_noiseless_initializes_everything(ctx):
    rng = trial_rng(4, 0)
    for logical, kind in (("zero", "Z"), ("plus", "X")):
        state2 = encoded_state(ctx.code2, logical)
        state3 = blow_up(ctx, state2, 0.0, rng)
        for ci in range(len(ctx.colex3.cells)):
            for basis in ("X", "Z"):
                cell = PauliOperator.from_support(ctx.n3, basis, ctx.colex3.cell_vertices(ci))
                assert state3.expect(cell) == 1
        big = embed_operator(
            logical_operator(ctx.code2, kind), ctx.n3, ctx.split.outer_vertices
        )
        assert state3.expect(big) == 1


def test_roundtrip_preserves_logicals(ctx):
    rng = trial_rng(5, 0)
    for trial in range(10):
        logical = "zero" if trial % 2 == 0 else "plus"
        kind = "Z" if logical == "zero" else "X"
        state2 = encoded_state(ctx.code2, logical)
        state3 = blow_up(ctx, state2, 0.0, rng)
        out = collapse(ctx, state3, 0.0, rng)
        assert out.logical_flip_flags[kind] == 1


def test_blow_up_from_random_inner_product_states(ctx):
    """The inner code encodes nothing, so correction initializes it from any
    starting product state: every trial must end with all stabilizers +1."""
    rng = trial_rng(6, 0)
    for trial in range(25):
        state2 = encoded_state(ctx.code2, "zero")
        rows = [
            embed_operator(state2.stabilizer_row(i), ctx.n3, ctx.split.outer_vertices)
            for i in range(ctx.n2)
        ]
        for v in ctx.split.inner_vertices:
            basis = "Z" if rng.random() < 0.5 else "X"
            sign = 1 if rng.random() < 0.5 else -1
            rows.append(
                PauliOperator(
                    ctx.n3,
                    *(
                        (0, 1 << v)
                        if basis == "Z"
                        else (1 << v, 0)
                    ),
                    sign=sign,
                )
            )
        state3 = from_stabilizers(rows)
        for basis in ("Z", "X"):
            state3, _ = single_shot_ec(
                state3, ctx.inner_code, basis, 0.0, rng, embed=list(ctx.split.inner_vertices)
            )
        for g in ctx.inner_code.S.generators:
            embedded = embed_operator(g, ctx.n3, ctx.split.inner_vertices)
            assert state3.expect(embedded) == 1


def test_single_shot_inner_corrects_single_flips(ctx, inner_code):
    for q in range(inner_code.n):
        state = encoded_state(inner_code, None)
        state.apply(PauliOperator.from_support(inner_code.n, "X", [q]))
        state, report = single_shot_ec(state, inner_code, "Z", 0.0, trial_rng(7, q))
        assert all(state.expect(g) == 1 for g in inner_code.S.generators)
        assert report.correction.weight == 1


def test_single_shot_inner_measurement_flip_bounded(ctx, inner_code):
    """A single wrong measurement leaves residual weight at most K per
    repaired edge (here: weight <= 2)."""
    from colexjump.jump import _code_dual_structure

    for pair, entries in _code_dual_structure(inner_code).by_pair.items():
        for pi, _ in entries:
            state = encoded_state(inner_code, None)
            state, report = _ec_with_flip(state, inner_code, pi)
            violated = [
                g for g in inner_code.S.generators if state.expect(g) != 1
            ]
            assert report.correction.weight <= 2
            # residual after one flip is cleanable by one ideal round
            state, _ = single_shot_ec(state, inner_code, "Z", 0.0, trial_rng(8, pi))
            state, _ = single_shot_ec(state, inner_code, "X", 0.0, trial_rng(8, pi))
            assert all(state.expect(g) == 1 for g in inner_code.S.generators)


def _ec_with_flip(state, code, flip_pi):
    """single_shot_ec's Z round with exactly one recorded outcome inverted."""
    from colexjump.flux import plaquette_operator
    from colexjump.jump import _code_dual_structure, single_shot_decode

    dual = _code_dual_structure(code)
    outcomes = {}
    for pair in sorted(dual.by_pair):
        for pi, _ in dual.by_pair[pair]:
            value = state.measure(plaquette_operator(code.colex, pi, "Z"), trial_rng(9, pi))
            outcomes[pi] = -value if pi == flip_pi else value
    report = single_shot_decode(code, dual, outcomes, "Z")
    state.apply(report.correction)
    return state, report


def test_single_shot_decode_matches_outcome_oracle(inner_code, code3):
    """Every report field equals the outcome-based oracle's, in both bases,
    on all inner patterns and on seeded random tetrahedral patterns, and
    both bases correct on one support."""
    rng = np.random.default_rng(13)
    for code, m, patterns in (
        (inner_code, 6, range(2**6)),
        (code3, 18, rng.integers(2**18, size=5000).tolist()),
    ):
        dual = _code_dual_structure(code)
        assert len(dual.order) == m
        for x in patterns:
            outcomes = {pi: -1 if x >> j & 1 else 1 for j, pi in enumerate(dual.order)}
            got = {b: single_shot_decode(code, dual, outcomes, b) for b in ("Z", "X")}
            for basis, report in got.items():
                want = oracle_decode(code, dual, outcomes, basis)
                assert report == want
                assert list(report.cell_estimates) == list(want.cell_estimates)
                assert list(report.delta0_sizes) == list(want.delta0_sizes)
            assert got["Z"].correction.x == got["X"].correction.z


def test_single_shot_tetra_weight1(ctx, code3):
    """Single qubit errors with noiseless measurements are corrected exactly
    on the tetrahedral code."""
    priority = None
    for q in range(code3.n):
        for kind, basis, track in (("X", "Z", "Z"), ("Z", "X", "X")):
            state = encoded_state(code3, "zero" if track == "Z" else "plus")
            state.apply(PauliOperator.from_support(code3.n, kind, [q]))
            state, _ = single_shot_ec(state, code3, basis, 0.0, trial_rng(10, q))
            assert all(
                state.expect(g) == 1
                for g in code3.S.generators
                if (g.z if basis == "Z" else g.x)
            )
            assert state.expect(logical_operator(code3, track)) == 1


def test_discard_rejects_entangled(ctx):
    state = from_stabilizers(
        [PauliOperator.from_string("XX"), PauliOperator.from_string("ZZ")]
    )
    with pytest.raises(ValueError):
        discard_qubits(state, [1])


def test_discard_rejects_qubits_outside_the_state():
    state = Tableau.computational_zero(3)
    for drop in ([2, 7], [-1], [3], [0, -2]):
        with pytest.raises(ValueError, match="outside"):
            discard_qubits(state, drop)


def test_discard_of_every_qubit_names_the_cause():
    state = Tableau.computational_zero(3)
    for drop in ([0, 1, 2], [2, 1, 0, 1]):
        with pytest.raises(ValueError, match="all 3 qubits"):
            discard_qubits(state, drop)


def test_from_stabilizers_rejects_an_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        from_stabilizers([])


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc)


def _rows(t):
    return t.xs, t.zs, t.signs


_NOISY_TETRA15 = st.tuples(
    st.sampled_from(["zero", "plus"]),
    st.integers(0, 2**32 - 1),  # noise and measurement seed
    st.sampled_from([0.0, 0.05, 0.2, 1.0]),  # qubit error rate per type
    st.integers(0, 6),  # random inner-block Paulis measured after the flux
)


_DROPS = st.one_of(
    st.permutations(list(range(7, 15))),  # tetra15's inner vertices, any order
    st.lists(st.integers(0, 14), min_size=1, max_size=14, unique=True),
)


def _check_discard_against_oracle(ctx, build, state_case, drop):
    """After random Pauli noise and the 12 flux measurements of a collapse
    on the encoded 3D state `build(ctx, logical)`, discarding the inner
    block (in any order) or any other proper qubit subset gives the state,
    or the exception type, of the operator-based elimination, and leaves
    the input state untouched. The states are equal when every stabilizer
    row of each fixes the other with its sign; the rows themselves differ,
    since the oracle re-synthesizes its tableau. The result is a valid
    tableau: symplectic, with its columns the transpose of its rows.

    The flux measurements keep every row pure X or pure Z type, where the
    elimination's sign rule never acts; random Paulis measured on the inner
    block afterwards mix the types and keep the inner block factored out.
    Each has an even number of Y factors: with an odd count it is
    anti-Hermitian in the tableau's X-left form (its square is -1), outside
    the contract of `Tableau.measure`."""
    inner = list(ctx.split.inner_vertices)
    assert inner == list(range(7, 15))
    logical, seed, p, extra = state_case
    rng = np.random.default_rng(seed)
    state = build(ctx, logical)
    ex, ez = (sum(1 << q for q in np.flatnonzero(rng.random(ctx.n3) < p).tolist()) for _ in "XZ")
    state.apply(PauliOperator(ctx.n3, ex, ez))
    for basis in ("Z", "X"):
        for pair in ctx.pairs:
            extract_flux(state, ctx.split, pair, basis, rng, ctx.duals[pair])
    for _ in range(extra):
        x, z = (int(rng.integers(1 << len(inner))) << inner[0] for _ in "XZ")
        if (x & z).bit_count() & 1:  # an odd Y count: swap X and Y on the lowest X factor
            z ^= x & -x
        state.measure(PauliOperator(ctx.n3, x, z), rng)
    before = [row[:] for row in _rows(state)]
    got = _outcome(discard_qubits, state, drop)
    assert [row[:] for row in _rows(state)] == before
    want = _outcome(oracle.discard_qubits, state, drop)
    if isinstance(want, Tableau):
        assert isinstance(got, Tableau) and got.n == want.n
        for a, b in ((got, want), (want, got)):
            for r in range(a.n, 2 * a.n):
                assert b.expect(PauliOperator(a.n, a.xs[r], a.zs[r])) == a.signs[r]
        assert_symplectic(got)
        assert_columns(got)
    else:
        assert got == want


# a case whose raw draw holds an inner-block Pauli with an odd Y count,
# which the check evens before measuring it
_ODD_Y_CASE = {"state_case": ("zero", 12709, 0.0, 4), "drop": [10]}


@settings(max_examples=500, deadline=None)
@given(_NOISY_TETRA15, _DROPS)
@example(**_ODD_Y_CASE)
def test_discard_matches_operator_oracle(ctx, state_case, drop):
    """`_check_discard_against_oracle` from the encoded 3D states that
    trials start from (`encoded_3d`)."""
    _check_discard_against_oracle(ctx, encoded_3d, state_case, drop)


def _assert_same_state(a, b):
    """Each tableau's stabilizer rows fix the other's state with their signs."""
    for s, t in ((a, b), (b, a)):
        for r in range(s.n, 2 * s.n):
            assert t.expect(PauliOperator(s.n, s.xs[r], s.zs[r])) == s.signs[r]


def _noisy_flux_measured(ctx, state, rng, p):
    """Pauli noise at rate p per type on every qubit, then the 12 flux
    measurements of a collapse, on `state` in place."""
    ex, ez = (sum(1 << q for q in np.flatnonzero(rng.random(ctx.n3) < p).tolist()) for _ in "XZ")
    state.apply(PauliOperator(ctx.n3, ex, ez))
    for basis, pair, duals in ctx.slots:
        extract_flux(state, ctx.split, pair, basis, rng, duals)


@pytest.mark.parametrize("logical", ["zero", "plus"])
def test_encoded_3d_rows_are_in_the_discards_reduced_form(ctx, logical, monkeypatch):
    """The stabilizer rows `encoded_3d` builds stay in the form the inner
    block's discard leaves them in after noise and the flux measurements:
    in the discard's pivot order (x then z of each inner qubit, the lowest
    unused row with the bit), every pivot is the only row holding its
    column, so the discard makes no row product (none of its `flip_columns`
    calls happens). The prepared state is the unreduced one: each fixes
    the other's stabilizer rows with their signs."""
    from colexjump import jump

    prepared = encoded_3d(ctx, logical)
    _assert_same_state(prepared, encoded_state(ctx.code3, logical, inner_plaquette_priority(ctx)))
    n = ctx.n3
    inner = list(ctx.split.inner_vertices)
    flips = []
    real = jump.flip_columns
    monkeypatch.setattr(jump, "flip_columns", lambda *args: flips.append(args) or real(*args))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        state = prepared.copy()
        _noisy_flux_measured(ctx, state, rng, (0.05, 0.2, 1.0)[seed % 3])
        used = set()
        for q in inner:
            for part in (state.xs, state.zs):
                hits = {i for i in range(n) if part[n + i] >> q & 1}
                free = hits - used
                if free:
                    pivot = min(free)
                    used.add(pivot)
                    assert hits == {pivot}, (seed, q, sorted(hits))
        assert len(used) == len(inner)
        discard_qubits(state, inner)
        assert flips == []


@settings(max_examples=300, deadline=None)
@given(_NOISY_TETRA15, _DROPS)
@example(**_ODD_Y_CASE)
def test_discard_of_unreduced_states_matches_operator_oracle(ctx, state_case, drop):
    """`_check_discard_against_oracle` from the encoded 3D state as
    `encoded_state` builds it, before `encoded_3d` reduces its rows: there
    the elimination makes row products, so its general path stays under
    the operator-based oracle too."""

    def unreduced(ctx, logical):
        return encoded_state(ctx.code3, logical, inner_plaquette_priority(ctx))

    _check_discard_against_oracle(ctx, unreduced, state_case, drop)
