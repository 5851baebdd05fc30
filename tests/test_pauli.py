"""Pauli algebra: commutation, groups, centralizers, distances."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def pauli_strategy(n):
    return st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    ).map(lambda t: PauliOperator(n, np.array(t[0]), np.array(t[1])))


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
    assert not g.contains(PauliOperator(2, [1, 1], [0, 0], sign=-1))
    assert g.contains(PauliOperator(2, [1, 1], [0, 0], sign=-1), up_to_sign=True)
    assert g.contains(P("II"))  # identity in any group


def test_minus_identity_detection():
    y_gen = PauliOperator(1, [1], [1])  # XZ with + sign; (XZ)^2 = -1
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
    dense = {tuple(op.symplectic().tolist()) for op in cent.generators}
    assert dense == {(1, 0)}  # only X itself (up to phase)


def test_centralizer_of_full_pauli_group():
    gens = [P("XI"), P("IX"), P("ZI"), P("IZ")]
    cent = PauliGroup(2, gens).centralizer()
    assert cent.rank == 0  # phases only


def naive_centralizer_rank(group):
    n = group.n
    count = 0
    ech_rows = []
    from colexjump import gf2

    ech = gf2.Echelon(2 * n)
    for bits in itertools.product((0, 1), repeat=2 * n):
        op = PauliOperator(n, np.array(bits[:n]), np.array(bits[n:]))
        if all(commutes(op, g) for g in group.generators):
            ech.add(gf2.pack_rows(op.symplectic(), 2 * n).row(0))
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
    checks = np.array([g.z for g in code2.S.generators if g.z.any()], dtype=np.uint8)
    stabs = np.array([g.x for g in code2.S.generators if g.x.any()], dtype=np.uint8)
    assert css_min_weight(checks, stabs) == 3


def test_export_check_matrix(code2):
    text = export_check_matrix({"S": code2.S, "L": code2.L})
    lines = text.splitlines()
    assert lines[0].startswith("[S] n=7")
    assert any("|" in line for line in lines[1:])
    # canonical: sorted row order, so repeated export is identical
    assert text == export_check_matrix({"S": code2.S, "L": code2.L})
