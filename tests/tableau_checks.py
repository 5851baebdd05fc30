"""Checks of tableau states that do not depend on their row choice.

`signed_group` is the canonical signed stabilizer group of a state: the
reduced row echelon form over GF(2) of its stabilizer rows (row bits
x | z << n, pivot the lowest set bit, pivots rising), each reduced row with
the sign it has in the state. Two tableaux hold the same state iff their
signed groups are equal, whatever their destabilizers and row order.
`tools/bench_pairs.py digest` hashes the states it runs by it too.

`assert_symplectic` and `assert_columns` check the invariants every tableau
keeps: its pairing and its column masks.
"""

from colexjump import gf2
from colexjump.pauli import PauliOperator
from colexjump.tableau import Tableau


def signed_group(t, expect=Tableau.expect) -> list[tuple[int, int, int]]:
    """(x, z, sign) of each row of t's canonical signed stabilizer group;
    `expect` reads the signs (pass the original when it is patched)."""
    n = t.n
    ech = gf2.Echelon(2 * n)
    for r in range(n, 2 * n):
        ech.add(t.xs[r] | t.zs[r] << n)
    group = []
    for row in ech.basis_matrix().rows:
        x, z = row & ((1 << n) - 1), row >> n
        group.append((x, z, expect(t, PauliOperator(n, x, z))))
    return group


def _anticommute(ax, az, bx, bz) -> int:
    return ((ax & bz) ^ (az & bx)).bit_count() & 1


def assert_symplectic(t):
    """Destabilizer i anticommutes with stabilizer i alone, and the
    destabilizers commute with each other, as do the stabilizers."""
    n, xs, zs = t.n, t.xs, t.zs
    for i in range(n):
        for j in range(n):
            assert _anticommute(xs[i], zs[i], xs[n + j], zs[n + j]) == (i == j)
            if i < j:
                assert not _anticommute(xs[i], zs[i], xs[j], zs[j])
                assert not _anticommute(xs[n + i], zs[n + i], xs[n + j], zs[n + j])


def assert_columns(t):
    """xcol / zcol are the transpose of xs / zs: bit r of column q is bit q
    of row r."""
    rows = range(2 * t.n)
    assert t.xcol == [sum((t.xs[r] >> q & 1) << r for r in rows) for q in range(t.n)]
    assert t.zcol == [sum((t.zs[r] >> q & 1) << r for r in rows) for q in range(t.n)]
