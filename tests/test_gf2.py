"""GF(2) linear algebra against naive dense oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colexjump import gf2


def naive_span(rows):
    """All vectors in the row space, by brute force."""
    rows = [tuple(r) for r in rows]
    out = set()
    for picks in itertools.product((0, 1), repeat=len(rows)):
        acc = np.zeros(len(rows[0]) if rows else 0, dtype=np.uint8)
        for p, r in zip(picks, rows):
            if p:
                acc ^= np.array(r, dtype=np.uint8)
        out.add(tuple(acc.tolist()))
    return out


def naive_rank(rows):
    return int(np.log2(len(naive_span(rows)))) if rows else 0


small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=6
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_matches_naive(rows):
    mat = gf2.pack_rows(np.array(rows, dtype=np.uint8))
    assert gf2.rank(mat) == naive_rank(rows)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_nullspace_orthogonal_and_complete(rows):
    arr = np.array(rows, dtype=np.uint8)
    mat = gf2.pack_rows(arr)
    null = gf2.nullspace(mat).to_dense()
    for v in null:
        assert not ((arr @ v) % 2).any()
    n = arr.shape[1]
    assert null.shape[0] == n - naive_rank(rows)
    assert gf2.rank(gf2.pack_rows(null, n)) == null.shape[0] if null.size else True


@settings(max_examples=100, deadline=None)
@given(small_matrix, st.integers(0, 63))
def test_solve_round_trip(rows, pick_bits):
    arr = np.array(rows, dtype=np.uint8)
    picks = [(pick_bits >> i) & 1 for i in range(len(rows))]
    target = np.zeros(arr.shape[1], dtype=np.uint8)
    for p, r in zip(picks, arr):
        if p:
            target ^= r
    mat = gf2.pack_rows(arr)
    coeffs = gf2.solve(mat, gf2.pack_rows(target, arr.shape[1]).row(0))
    assert coeffs is not None
    acc = np.zeros(arr.shape[1], dtype=np.uint8)
    for i, r in enumerate(arr):
        if coeffs >> i & 1:
            acc ^= r
    assert np.array_equal(acc, target)


def test_solve_infeasible():
    mat = gf2.pack_rows([[1, 0, 0], [0, 1, 0]])
    target = gf2.pack_rows([0, 0, 1], 3).row(0)
    assert gf2.solve(mat, target) is None


@settings(max_examples=80, deadline=None)
@given(small_matrix, small_matrix)
def test_intersection_matches_naive(rows_a, rows_b):
    n = len(rows_a[0])
    if len(rows_b[0]) != n:
        rows_b = [r[:n] + [0] * (n - len(r)) if len(r) < n else r[:n] for r in rows_b]
    a = gf2.pack_rows(np.array(rows_a, dtype=np.uint8))
    b = gf2.pack_rows(np.array(rows_b, dtype=np.uint8))
    inter = gf2.intersection(a, b)
    expected = naive_span(rows_a) & naive_span(rows_b)
    got = naive_span(inter.to_dense().tolist()) if inter.nrows else {tuple([0] * n)}
    assert got == expected


def test_is_subspace():
    a = gf2.pack_rows([[1, 1, 0]])
    b = gf2.pack_rows([[1, 0, 0], [0, 1, 0]])
    assert gf2.is_subspace(a, b)
    assert not gf2.is_subspace(b, a)


def test_echelon_membership():
    ech = gf2.echelon_from(gf2.pack_rows([[1, 0, 1], [0, 1, 1]]))
    assert ech.contains(gf2.pack_rows([1, 1, 0], 3).row(0))
    assert not ech.contains(gf2.pack_rows([0, 0, 1], 3).row(0))


def test_wide_matrix_packing():
    # rows wider than a machine word (ncols > 64) round-trip exactly
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 2, size=(20, 130), dtype=np.uint8)
    mat = gf2.pack_rows(arr)
    assert np.array_equal(mat.to_dense(), arr)
    assert gf2.rank(mat) <= 20
