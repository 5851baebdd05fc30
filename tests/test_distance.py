"""The distance searches against the dense code they replaced.

`min_weight_logical` reduced its candidates against a dense uint8 RREF of
its own (`_dense_rref` + `_reduce_batch`), and `css_min_weight` packed every
Gray-code step into a fresh row before its membership test. Both now run on
the int rows of `gf2`; the old code is kept here as the oracle, and the
distances must agree on every bundled code and on random groups, CSS and
non-CSS (only non-CSS groups reach the Y letter).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colexjump import gf2
from colexjump.codes import build_2d, build_3d
from colexjump.hexfamily import builtin_colex
from colexjump.pauli import PauliGroup, PauliOperator, css_min_weight, min_weight_logical


# -- oracles: the replaced code ------------------------------------------------


def _dense_rref(rows: np.ndarray):
    """(rref rows, pivot columns) of a dense 0/1 matrix."""
    rows = (np.array(rows, dtype=np.uint8) & 1).copy()
    pivots = []
    r = 0
    for c in range(rows.shape[1] if rows.size else 0):
        hit = None
        for i in range(r, rows.shape[0]):
            if rows[i, c]:
                hit = i
                break
        if hit is None:
            continue
        rows[[r, hit]] = rows[[hit, r]]
        mask = rows[:, c].astype(bool).copy()
        mask[r] = False
        rows[mask] ^= rows[r]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _reduce_batch(cands: np.ndarray, rref: np.ndarray, pivots) -> np.ndarray:
    """Reduce candidate rows against an RREF basis (vectorized)."""
    res = cands.copy()
    for i, p in enumerate(pivots):
        mask = res[:, p].astype(bool)
        res[mask] ^= rref[i]
    return res


def _vec(mask, n):
    return np.array([mask >> q & 1 for q in range(n)], dtype=np.uint8)


def old_min_weight_logical(S, G, L):
    n = S.n
    swapped = np.array(
        [np.concatenate([_vec(g.z, n), _vec(g.x, n)]) for g in S.generators],
        dtype=np.uint8,
    )
    trivial_rows = np.array(
        [_vec(g.x | g.z << n, 2 * n) for g in S.generators + G.generators],
        dtype=np.uint8,
    )
    rref, pivots = (
        _dense_rref(trivial_rows)
        if len(trivial_rows)
        else (np.zeros((0, 2 * n), np.uint8), [])
    )
    css = all(not (g.x and g.z) for g in S.generators + G.generators)
    kind_rows = [(1, 0), (0, 1)] if css else [(1, 0), (0, 1), (1, 1)]
    kinds = np.array(kind_rows, dtype=np.uint8)
    for w in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(n), w)), dtype=np.intp)
        assignment = np.array(
            list(itertools.product(range(len(kinds)), repeat=w)), dtype=np.intp
        )
        ns, na = len(supports), len(assignment)
        cands = np.zeros((ns * na, 2 * n), dtype=np.uint8)
        for j in range(w):
            cols = supports[:, j]
            xb = kinds[assignment[:, j], 0]
            zb = kinds[assignment[:, j], 1]
            rows = np.arange(ns * na)
            cands[rows, np.repeat(cols, na)] = np.tile(xb, ns)
            cands[rows, np.repeat(cols, na) + n] = np.tile(zb, ns)
        if len(swapped):
            commuting = ~(((cands @ swapped.T) % 2).any(axis=1))
        else:
            commuting = np.ones(len(cands), bool)
        if not commuting.any():
            continue
        residual = _reduce_batch(cands[commuting], rref, pivots)
        if residual.any(axis=1).any():
            return w
    raise ValueError("no logical operator found up to the weight cap")


def old_css_min_weight(check_rows, stabilizer_rows):
    checks = gf2.pack_rows(check_rows)
    n = checks.ncols
    kernel = gf2.nullspace(checks).to_dense()
    k = kernel.shape[0]
    stab = gf2.echelon_from(gf2.pack_rows(stabilizer_rows, n))
    best = n + 1
    current = np.zeros(n, dtype=np.uint8)
    prev = 0
    for counter in range(1, 2**k):
        gray = counter ^ (counter >> 1)
        changed = gray ^ prev
        prev = gray
        current = current ^ kernel[changed.bit_length() - 1]
        w = int(current.sum())
        if w < best and not stab.contains(gf2.pack_rows(current, n).row(0)):
            best = w
    if best > n:
        raise ValueError("no logical representative in the kernel")
    return best


def _outcome(fn, *args):
    """The distance, or "none" where the search finds no logical."""
    try:
        return fn(*args)
    except ValueError:
        return "none"


# -- bundled codes --------------------------------------------------------------


BUNDLED = {
    "tri7": lambda: build_2d(builtin_colex("tri7")),
    "tetra15": lambda: build_3d(builtin_colex("tetra15")),
    "tri-hex-d3": lambda: build_2d(builtin_colex("tri-hex-d3")),
    "tri-hex-d5": lambda: build_2d(builtin_colex("tri-hex-d5")),
}


@pytest.mark.parametrize("name,want", [("tri7", 3), ("tetra15", 3), ("tri-hex-d3", 3), ("tri-hex-d5", 5)])
def test_min_weight_logical_matches_dense_oracle(name, want):
    code = BUNDLED[name]()
    assert old_min_weight_logical(code.S, code.G, code.L) == want
    assert min_weight_logical(code.S, code.G, code.L) == want


def test_min_weight_logical_without_logicals_matches_oracle(inner_code):
    code = inner_code
    assert _outcome(old_min_weight_logical, code.S, code.G, code.L) == "none"
    assert _outcome(min_weight_logical, code.S, code.G, code.L) == "none"


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_css_min_weight_matches_gray_walk_oracle(name):
    code = BUNDLED[name]()
    checks = np.array(
        [_vec(g.z, code.n) for g in code.S.generators if g.z and not g.x], dtype=np.uint8
    )
    trivial = np.vstack([code.x_support_rows("S"), code.x_support_rows("G")])
    assert css_min_weight(checks, trivial) == old_css_min_weight(checks, trivial)


def test_five_qubit_code_reaches_the_y_letter():
    """The [[5,1,3]] code is not CSS: its distance needs the Y letter."""
    gens = [
        PauliOperator.from_string(text) for text in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
    ]
    S, G, L = PauliGroup(5, gens), PauliGroup(5, gens), PauliGroup(5, [])
    assert old_min_weight_logical(S, G, L) == min_weight_logical(S, G, L) == 3


# -- random groups --------------------------------------------------------------


def _op(n, kind, x, z):
    """A random operator of one kind: X type, Z type, or general."""
    x = sum(b << q for q, b in enumerate(x))
    z = sum(b << q for q, b in enumerate(z))
    if kind == "X":
        z = 0
    elif kind == "Z":
        x = 0
    return PauliOperator(n, x, z)


def _ops(n, kinds):
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return st.lists(
        st.builds(lambda k, x, z: _op(n, k, x, z), st.sampled_from(kinds), bits, bits),
        max_size=5,
    )


def _groups(kinds):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), _ops(n, kinds), _ops(n, kinds))
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(_groups(("X", "Z")), _groups(("X", "Z", "XZ"))))
def test_min_weight_logical_random_groups_match_oracle(group):
    n, s_ops, g_ops = group
    S, G, L = PauliGroup(n, s_ops), PauliGroup(n, g_ops), PauliGroup(n, [])
    assert _outcome(min_weight_logical, S, G, L) == _outcome(old_min_weight_logical, S, G, L)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5),
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5),
        )
    )
)
def test_css_min_weight_random_matches_oracle(rows):
    checks, stabs = (np.array(r, dtype=np.uint8) for r in rows)
    assert _outcome(css_min_weight, checks, stabs) == _outcome(old_css_min_weight, checks, stabs)
