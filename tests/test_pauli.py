"""Pauli algebra: commutation, groups, centralizers, distances."""

import itertools

import numpy as np
import numpy_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colexjump import gf2
from colexjump.pauli import (
    PauliGroup,
    PauliOperator,
    commutes,
    css_min_weight,
    logical_qubit_count,
    min_weight_logical,
    stabilizer_condition_holds,
    export_check_matrix,
)


def P(text):
    return PauliOperator.from_string(text)


def test_commutes_basics():
    assert commutes(P("XX"), P("ZZ"))  # two anticommuting sites cancel
    assert not commutes(P("XI"), P("ZI"))
    assert commutes(P("XI"), P("IZ"))
    with pytest.raises(ValueError):
        commutes(P("X"), P("XX"))


def _mask(bits) -> int:
    return sum(int(b) << q for q, b in enumerate(bits))


def pauli_strategy(n):
    return st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    ).map(lambda t: PauliOperator(n, _mask(t[0]), _mask(t[1])))


@pytest.mark.parametrize(
    "x,z,sign",
    [(0b100, 0, 1), (0, 0b1000, 1), (-1, 0, 1), (0b11, 0b11, 3), (0, 0, 0), (1, 0, -2)],
)
def test_invalid_pauli_is_rejected(x, z, sign):
    """A bit at or above n, or a sign other than +-1, is a ValueError (not an
    assert, which `python -O` strips)."""
    with pytest.raises(ValueError):
        PauliOperator(2, x, z, sign)


@pytest.mark.parametrize("x", [np.array([1, 0], dtype=np.uint8), np.array([1]), np.int64(1)])
def test_array_masks_are_rejected(x):
    """A Pauli takes int masks only; a numpy vector or scalar is a TypeError,
    also where its bits would fit."""
    with pytest.raises(TypeError):
        PauliOperator(2, x, 0)
    with pytest.raises(TypeError):
        PauliOperator(2, 0, x)


def _bits(mask, n):
    return [mask >> q & 1 for q in range(n)]


def _signed_pair(n):
    mask = st.integers(0, (1 << n) - 1)
    sign = st.sampled_from([1, -1])
    return st.tuples(st.just(n), mask, mask, sign, mask, mask, sign)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(_signed_pair))
def test_pauli_algebra_matches_numpy_oracle(case):
    """Product, commutation, weight, support, equality and text form agree
    with the numpy operator the int one replaced."""
    n, ax, az, a_sign, bx, bz, b_sign = case
    a, b = PauliOperator(n, ax, az, a_sign), PauliOperator(n, bx, bz, b_sign)

    def old(x, z, sign):
        return oracle.PauliOperator(n, _bits(x, n), _bits(z, n), sign)

    old_a, old_b = old(ax, az, a_sign), old(bx, bz, b_sign)
    prod, old_prod = a * b, old_a * old_b
    assert (prod.x, prod.z, prod.sign) == (_mask(old_prod.x), _mask(old_prod.z), old_prod.sign)
    assert a.commutes_with(b) == old_a.commutes_with(old_b)
    assert a.weight == old_a.weight
    assert list(a.support) == old_a.support.tolist()
    assert a.is_identity() == old_a.is_identity()
    assert (a == b) == (old_a == old_b)
    assert repr(a) == repr(old_a)
    assert PauliOperator.from_string(repr(a)) == a
    assert hash(PauliOperator.from_string(repr(a))) == hash(a)


@settings(max_examples=100, deadline=None)
@given(pauli_strategy(4), pauli_strategy(4), pauli_strategy(4))
def test_symplectic_bilinearity(p, q, r):
    # commutes respects multiplication: sign of <p, qr> = <p,q> + <p,r>
    lhs = commutes(p, q * r)
    rhs = commutes(p, q) == commutes(p, r)
    assert lhs == rhs


def test_product_signs():
    x, z = P("X"), P("Z")
    assert (x * z).sign == 1  # canonical XZ ordering
    assert (z * x).sign == -1
    y_like = x * z
    assert (y_like * y_like).sign == -1  # (XZ)^2 = -1


def test_group_membership_with_signs():
    g = PauliGroup(2, [P("XX"), P("ZZ")])
    assert g.contains(P("XX"))
    assert g.contains((P("XX") * P("ZZ")))
    assert not g.contains(PauliOperator(2, 0b11, 0, sign=-1))
    assert g.contains(PauliOperator(2, 0b11, 0, sign=-1), up_to_sign=True)
    assert g.contains(P("II"))  # identity in any group


def test_minus_identity_detection():
    y_gen = PauliOperator(1, 1, 1)  # XZ with + sign; (XZ)^2 = -1
    g = PauliGroup(1, [P("X"), P("Z"), y_gen])
    assert g.minus_identity_in_group()
    clean = PauliGroup(2, [P("XX"), P("ZZ")])
    assert not clean.minus_identity_in_group()


def test_minus_identity_from_a_signed_dependency():
    """The product of a dependent set decides, not its last generator."""
    assert PauliGroup(1, [P("+Z"), P("-Z")]).minus_identity_in_group()
    assert PauliGroup(2, [P("XX"), P("ZZ"), P("-YY")]).minus_identity_in_group()
    assert not PauliGroup(1, [P("-Z"), P("-Z")]).minus_identity_in_group()
    assert not PauliGroup(2, [P("XX"), P("ZZ"), P("YY")]).minus_identity_in_group()
    assert PauliGroup(1, [PauliOperator(1, sign=-1)]).minus_identity_in_group()


def test_centralizer_single_qubit():
    g = PauliGroup(1, [P("X")])
    cent = g.centralizer()
    parts = {(op.x, op.z) for op in cent.generators}
    assert parts == {(1, 0)}  # only X itself (up to phase)


def test_centralizer_of_full_pauli_group():
    gens = [P("XI"), P("IX"), P("ZI"), P("IZ")]
    cent = PauliGroup(2, gens).centralizer()
    assert cent.rank == 0  # phases only


def naive_centralizer_rank(group):
    n = group.n
    count = 0
    ech_rows = []
    ech = gf2.Echelon(2 * n)
    for bits in itertools.product((0, 1), repeat=2 * n):
        op = PauliOperator(n, _mask(bits[:n]), _mask(bits[n:]))
        if all(commutes(op, g) for g in group.generators):
            ech.add(op.x | op.z << n)
    return ech.rank


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(pauli_strategy(n), min_size=1, max_size=4)))
def test_centralizer_matches_exhaustive_oracle(gens):
    group = PauliGroup(gens[0].n, gens)
    assert group.centralizer().rank == naive_centralizer_rank(group)


def test_logical_qubit_counts(code2, code3, inner_code):
    assert logical_qubit_count(code2.S, code2.G) == 1
    assert logical_qubit_count(code3.S, code3.G) == 1
    assert logical_qubit_count(inner_code.S, inner_code.G) == 0


def test_eq1_failure_reported():
    # S not inside the gauge group: must fail with a diagnostic
    s = PauliGroup(2, [P("XX")])
    g = PauliGroup(2, [P("ZZ")])
    ok, why = stabilizer_condition_holds(s, g)
    assert not ok and "not in the gauge group" in why


def test_min_weight_trivial_code():
    s = PauliGroup(1, [])
    g = PauliGroup(1, [])
    l = PauliGroup(1, [P("X"), P("Z")])
    assert min_weight_logical(s, g, l) == 1


def test_distances(code2, code3):
    assert min_weight_logical(code2.S, code2.G, code2.L) == 3
    assert min_weight_logical(code3.S, code3.G, code3.L) == 3


def test_css_min_weight_agrees_on_steane(code2):
    checks = gf2.BitMatrix([g.z for g in code2.S.generators if g.z], 7).to_dense()
    stabs = gf2.BitMatrix([g.x for g in code2.S.generators if g.x], 7).to_dense()
    assert css_min_weight(checks, stabs) == 3


def test_export_check_matrix(code2):
    text = export_check_matrix({"S": code2.S, "L": code2.L})
    lines = text.splitlines()
    assert lines[0].startswith("[S] n=7")
    assert any("|" in line for line in lines[1:])
    # canonical: sorted row order, so repeated export is identical
    assert text == export_check_matrix({"S": code2.S, "L": code2.L})
