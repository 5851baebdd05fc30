"""Stabilizer tableau semantics."""

import numpy as np
import numpy_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tableau_checks import assert_columns, assert_symplectic

from colexjump.jump import discard_qubits, encoded_state, logical_operator
from colexjump.pauli import PauliOperator
from colexjump.tableau import Tableau, from_stabilizers


def P(text):
    return PauliOperator.from_string(text)


def test_computational_zero():
    t = Tableau.computational_zero(3)
    assert t.expect(P("ZII")) == 1
    assert t.expect(P("XII")) is None


def test_apply_flips_anticommuting_rows():
    t = Tableau.computational_zero(2)
    t.apply(P("XI"))
    assert t.expect(P("ZI")) == -1
    assert t.expect(P("IZ")) == 1


def test_measurement_collapse_and_repeat():
    t = Tableau.computational_zero(1)
    rng = np.random.default_rng(5)
    first = t.measure(P("X"), rng)
    assert first in (1, -1)
    assert t.expect(P("X")) == first
    assert t.measure(P("X"), rng) == first  # now deterministic


def test_measure_stabilizer_is_deterministic():
    t = from_stabilizers([P("XX"), P("ZZ")])
    assert t.measure(P("XX")) == 1
    assert t.measure(P("ZZ")) == 1
    # sign-only convention: the letter Y denotes XZ (real Pauli up to phase),
    # and XX * ZZ = +(XZ (x) XZ), so its expectation on the Bell state is +1
    assert t.expect(P("YY")) == 1


def test_from_stabilizers_with_negative_targets():
    t = from_stabilizers([P("-Z")])
    assert t.expect(P("Z")) == -1


@pytest.mark.parametrize("rows", [["ZI", "ZI"], ["ZI", "-ZI"]])
def test_from_stabilizers_rejects_dependent_generators(rows):
    """n generators that span fewer than n dimensions fix no single state:
    a repeat would leave a qubit unset, and a generator beside its own
    negative fixes none."""
    with pytest.raises(ValueError, match="independent"):
        from_stabilizers([P(r) for r in rows])


def test_encoded_zero_has_logical_plus_one(code2):
    t = encoded_state(code2, "zero")
    assert t.expect(logical_operator(code2, "Z")) == 1
    for g in code2.S.generators:
        assert t.expect(g) == 1


def test_single_x_flips_exactly_containing_plaquettes(code2):
    """Exhaustive over single-qubit errors: flipped Z-plaquette expectations
    are exactly the plaquettes containing the flipped qubit."""
    plaquettes = [tuple(vs) for vs, _ in code2.colex.plaquettes]
    for q in range(code2.n):
        t = encoded_state(code2, "zero")
        t.apply(PauliOperator.from_support(code2.n, "X", [q]))
        flipped = {
            i
            for i, vs in enumerate(plaquettes)
            if t.expect(PauliOperator.from_support(code2.n, "Z", vs)) == -1
        }
        expected = {i for i, vs in enumerate(plaquettes) if q in vs}
        assert flipped == expected


def test_measurement_order_independence(ctx):
    """Commuting plaquette measurements: outcomes agree for every ordering
    when the state is definite, and the distribution matches on gauge-random
    states (exact check: per-seed agreement of the multiset of outcomes)."""
    from colexjump.flux import plaquette_operator
    from colexjump.jump import encoded_3d

    ops = []
    for pair in ctx.pairs:
        for dual in ctx.duals[pair]:
            ops.append(plaquette_operator(ctx.colex3, dual.plaquette, "Z"))
    import itertools

    orders = list(itertools.permutations(range(len(ops))))[:24]
    base_outcomes = None
    for order in orders:
        t = encoded_3d(ctx, "zero")
        outcomes = {}
        for i in order:
            outcomes[i] = t.measure(ops[i])
        if base_outcomes is None:
            base_outcomes = outcomes
        assert outcomes == base_outcomes  # definite state: order cannot matter


def test_tableau_invariants_after_random_operations(ctx):
    """Stabilizer rows stay mutually commuting and the 2n rows stay full
    rank through applications and measurements."""
    from colexjump import gf2
    from colexjump.jump import encoded_3d

    rng = np.random.default_rng(12)
    t = encoded_3d(ctx, "zero")
    ops = [g for g in ctx.code3.G.generators]
    for step in range(30):
        pick = ops[rng.integers(len(ops))]
        if step % 2:
            t.apply(pick)
        else:
            t.measure(pick, rng)
    n = t.n
    for i in range(n):
        for j in range(i + 1, n):
            assert t.stabilizer_row(i).commutes_with(t.stabilizer_row(j))
    rows = [x | z << n for x, z in zip(t.xs, t.zs)]
    assert gf2.rank(gf2.BitMatrix(rows, 2 * n)) == 2 * n


def test_mismatched_sizes_raise():
    t = Tableau.computational_zero(2)
    with pytest.raises(ValueError):
        t.expect(P("Z"))
    with pytest.raises(ValueError):
        t.apply(P("ZZZ"))


def test_random_measurement_requires_rng():
    t = Tableau.computational_zero(1)
    with pytest.raises(ValueError):
        t.measure(P("X"))


def test_refused_measurement_leaves_the_state_unchanged(ctx):
    """A random-outcome measurement with neither rng nor force raises before
    it changes any row, sign or column."""
    for state, op in (
        (Tableau.computational_zero(2), P("XI")),
        (ctx.states3["zero"].copy(), PauliOperator.from_support(ctx.n3, "X", [0, 1])),
    ):
        before = (state.xs[:], state.zs[:], state.signs[:], state.xcol[:], state.zcol[:])
        with pytest.raises(ValueError, match="needs an rng or force"):
            state.measure(op)
        assert (state.xs, state.zs, state.signs, state.xcol, state.zcol) == before


# -- the numpy tableau as oracle ---------------------------------------------


def _mask(vec) -> int:
    return sum(int(b) << q for q, b in enumerate(vec))


def _vec(mask: int, n: int) -> list[int]:
    return [mask >> q & 1 for q in range(n)]


def _assert_same_rows(t, old):
    assert t.xs == [_mask(row) for row in old.x]
    assert t.zs == [_mask(row) for row in old.z]
    assert t.signs == [int(s) for s in old.signs]


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, AssertionError) as exc:
        return type(exc)


def _steps(n):
    mask = st.integers(0, (1 << n) - 1)
    step = st.tuples(
        st.sampled_from(["apply", "measure", "expect", "pivot_row"]),
        mask,
        mask,
        st.sampled_from([1, -1]),
        st.sampled_from([None, 1, -1]),  # forced outcome, or None to draw one
        st.integers(0, 2**32 - 1),
    )
    return st.tuples(st.just(n), st.lists(step, max_size=30))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(_steps))
def test_tableau_matches_numpy_oracle(case):
    """Random applications, measurements (forced and drawn outcomes),
    expectations and pivot rows from |0...0>: every outcome, row and sign
    equals the numpy tableau's, and so does the synthesis of the final
    stabilizer rows."""
    n, steps = case
    t, old = Tableau.computational_zero(n), oracle.Tableau.computational_zero(n)
    for action, x, z, sign, force, seed in steps:
        op = PauliOperator(n, x, z, sign)
        old_op = oracle.PauliOperator(n, _vec(x, n), _vec(z, n), sign)
        if action == "apply":
            t.apply(op)
            old.apply(old_op)
        elif action == "measure":
            got = _outcome(t.measure, op, np.random.default_rng(seed), force)
            want = _outcome(old.measure, old_op, np.random.default_rng(seed), force)
            assert got == want
        elif action == "expect":
            assert t.expect(op) == old.expect(old_op)
        else:
            assert repr(t.pivot_row(op)) == repr(old.pivot_row(old_op))
        _assert_same_rows(t, old)
    rows = [t.stabilizer_row(i) for i in range(n)]
    old_rows = [old.stabilizer_row(i) for i in range(n)]
    assert [repr(r) for r in rows] == [repr(r) for r in old_rows]
    built = _outcome(from_stabilizers, rows)
    old_built = _outcome(oracle.from_stabilizers, old_rows)
    if isinstance(built, Tableau):
        _assert_same_rows(built, old_built)
    else:
        assert built == old_built


def test_tetra15_steps_match_numpy_oracle(ctx):
    """On the encoded tetra15 states (n = 15), single-qubit flips and
    plaquette measurements, many of them random, reproduce the numpy
    tableau row for row."""
    from colexjump.flux import plaquette_operator
    from colexjump.jump import encoded_3d

    rng = np.random.default_rng(3)
    for logical in ("zero", "plus"):
        t = encoded_3d(ctx, logical)
        old = oracle.Tableau(
            t.n,
            np.array([_vec(x, t.n) for x in t.xs], dtype=np.uint8),
            np.array([_vec(z, t.n) for z in t.zs], dtype=np.uint8),
            np.array(t.signs, dtype=np.int8),
        )
        for step in range(40):
            q = int(rng.integers(t.n))
            kind = "XZ"[step % 2]
            op = PauliOperator.from_support(t.n, kind, [q])
            t.apply(op)
            old.apply(oracle.PauliOperator.from_support(t.n, kind, [q]))
            pi = int(rng.integers(len(ctx.colex3.plaquettes)))
            basis = "ZX"[step % 3 == 0]
            meas = plaquette_operator(ctx.colex3, pi, basis)
            old_meas = oracle.PauliOperator.from_support(
                t.n, basis, ctx.colex3.plaquette_vertices(pi)
            )
            seed = int(rng.integers(2**32))
            got = t.measure(meas, np.random.default_rng(seed))
            assert got == old.measure(old_meas, np.random.default_rng(seed))
            _assert_same_rows(t, old)


def _measured_states(n):
    mask = st.integers(0, (1 << n) - 1)
    measurement = st.tuples(mask, mask, st.sampled_from([1, -1]))
    return st.tuples(
        st.just(n),
        st.lists(measurement, max_size=12),
        st.integers(0, (1 << n) - 1),  # the stabilizer rows to multiply out
        st.sampled_from([1, -1]),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(_measured_states))
def test_stabilizer_products_match_numpy_oracle(case):
    """A product of several stabilizer rows is where the sign rule of
    `expect` and of a determinate `measure` acts, and random operators
    rarely land in the stabilizer group. So from the state that forced
    measurements of random Paulis leave, both read a drawn product of rows,
    times a drawn sign, as the numpy tableau does and as the product's own
    sign says, and the measurement changes no row."""
    n, measurements, subset, sign = case
    t, old = Tableau.computational_zero(n), oracle.Tableau.computational_zero(n)
    for x, z, force in measurements:
        t.measure(PauliOperator(n, x, z), force=force)
        old.measure(oracle.PauliOperator(n, _vec(x, n), _vec(z, n)), force=force)
    _assert_same_rows(t, old)
    product = PauliOperator.identity(n)
    for i in range(n):
        if subset >> i & 1:
            product = product * t.stabilizer_row(i)
    op = PauliOperator(n, product.x, product.z, sign)
    old_op = oracle.PauliOperator(n, _vec(op.x, n), _vec(op.z, n), sign)
    want = product.sign * sign
    assert t.expect(op) == old.expect(old_op) == want
    assert t.measure(op) == old.measure(old_op) == want
    _assert_same_rows(t, old)


# -- the column masks ---------------------------------------------------------


_STEP = st.tuples(
    st.sampled_from(
        ["apply", "measure", "expect", "pivot_row", "copy", "from_stabilizers", "discard"]
    ),
    st.integers(0, 2**15 - 1),
    st.integers(0, 2**15 - 1),
    st.sampled_from([1, -1]),
    st.sampled_from([None, 1, -1]),  # forced outcome, or None to draw one
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["zero", "plus"]), st.lists(_STEP, max_size=25))
def test_columns_stay_the_transpose_of_the_rows(ctx, logical, steps):
    """From an encoded tetra15 state, random applications, measurements
    (drawn and forced), reads, copies, re-syntheses and discards keep every
    column the transpose of the rows and the pairing symplectic, and a
    copy's columns are its own."""
    t = ctx.states3[logical].copy()
    assert_columns(t)
    for action, x, z, sign, force, seed in steps:
        low = (1 << t.n) - 1
        op = PauliOperator(t.n, x & low, z & low, sign)
        if action == "apply":
            t.apply(op)
        elif action == "measure":
            t.measure(op, np.random.default_rng(seed), force)
        elif action == "expect":
            t.expect(op)
        elif action == "pivot_row":
            t.pivot_row(op)
        elif action == "copy":
            original, t = t, t.copy()
            kept = [original.xcol[:], original.zcol[:], original.signs[:]]
            t.apply(PauliOperator(t.n, low, 0))
            t.measure(op, np.random.default_rng(seed))
            assert [original.xcol, original.zcol, original.signs] == kept
            assert_columns(original)
        elif action == "from_stabilizers":
            t = from_stabilizers([t.stabilizer_row(i) for i in range(t.n)])
        else:
            # measure Z on the qubits to drop, so that they factor out
            drop = [q for q in range(t.n) if x >> q & 1][: t.n - 1]
            for q in drop:
                t.measure(PauliOperator(t.n, 0, 1 << q), force=force or 1)
            if drop:
                t = discard_qubits(t, drop)
        assert_columns(t)
        assert_symplectic(t)
