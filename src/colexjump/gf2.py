"""Dense GF(2) linear algebra on Python-int rows, and exact minimum-weight
decoding tables.

A row is a Python int with bit j holding column j, so a row operation is
one `^` and the lowest set bit is `(row & -row).bit_length() - 1`. Every
elimination in the package (rank, membership, centralizers, syndrome
solving, distances) goes through `Echelon`.

Every "lightest support with this syndrome" search of the package (2D and
3D decoders, string corrections, residual cosets, restricted gauge
corrections) is one `min_weight_table`, cached per check set by
`checks_table`.
"""

from __future__ import annotations

import itertools

import numpy as np


def pack_rows(dense: np.ndarray, ncols: int | None = None) -> "BitMatrix":
    """Pack a dense 0/1 array of shape (m, n) into a BitMatrix."""
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim == 1:
        dense = dense[None, :]
    packed = np.packbits(dense, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    return BitMatrix(rows, dense.shape[1] if ncols is None else ncols)


class BitMatrix:
    """A (possibly empty) matrix over GF(2), one int per row."""

    def __init__(self, rows: list[int], ncols: int):
        self.rows = list(rows)
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls([0] * nrows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        return self.rows[i]

    def to_dense(self) -> np.ndarray:
        nbytes = (self.ncols + 7) // 8
        buf = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(self.nrows, nbytes)
        return np.unpackbits(packed, axis=1, count=self.ncols, bitorder="little")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self) -> str:
        rows = ["".join(str(b) for b in r) for r in self.to_dense()]
        return "BitMatrix[\n  " + "\n  ".join(rows) + "\n]"


class Echelon:
    """Incrementally built row-echelon basis over GF(2).

    A row's pivot is its lowest set bit. Rows can carry an int payload
    (e.g. a combination-tracking identity block) that is XORed along with
    them.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self.rows: list[int] = []
        self.aux: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: int, aux: int = 0) -> tuple[int, int]:
        """Reduce `row` against the basis; returns (residual, residual_aux)."""
        for p, r, a in zip(self.pivots, self.rows, self.aux):
            if row >> p & 1:
                row ^= r
                aux ^= a
        return row, aux

    def add(self, row: int, aux: int = 0) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row, aux = self.reduce(row, aux)
        if not row:
            return False
        p = (row & -row).bit_length() - 1
        # back-substitute so stored rows stay fully reduced
        for i, r in enumerate(self.rows):
            if r >> p & 1:
                self.rows[i] = r ^ row
                self.aux[i] ^= aux
        self.pivots.append(p)
        self.rows.append(row)
        self.aux.append(aux)
        return True

    def contains(self, row: int) -> bool:
        return not self.reduce(row)[0]

    def basis_matrix(self) -> BitMatrix:
        """The basis rows in increasing pivot order."""
        return BitMatrix([r for _, r in sorted(zip(self.pivots, self.rows))], self.ncols)


def echelon_from(mat: BitMatrix) -> Echelon:
    ech = Echelon(mat.ncols)
    for row in mat.rows:
        ech.add(row)
    return ech


def rank(mat: BitMatrix) -> int:
    return echelon_from(mat).rank


def in_span(mat: BitMatrix, row: int) -> bool:
    return echelon_from(mat).contains(row)


def is_subspace(sub: BitMatrix, sup: BitMatrix) -> bool:
    """True iff rowspace(sub) is contained in rowspace(sup)."""
    ech = echelon_from(sup)
    return all(ech.contains(row) for row in sub.rows)


def nullspace(mat: BitMatrix) -> BitMatrix:
    """Basis of {x : mat @ x = 0} over GF(2), one solution per free column.

    The solution of free column f sets f and every pivot whose (fully
    reduced) basis row has bit f.
    """
    ech = echelon_from(mat)
    pivots = set(ech.pivots)
    out = []
    for f in range(mat.ncols):
        if f in pivots:
            continue
        x = 1 << f
        for p, r in zip(ech.pivots, ech.rows):
            if r >> f & 1:
                x |= 1 << p
        out.append(x)
    return BitMatrix(out, mat.ncols)


def solve(mat: BitMatrix, target: int) -> int | None:
    """One x with x @ mat == target, or None. x is an int mask of
    combination coefficients: bit i selects row i of mat."""
    ech = Echelon(mat.ncols)
    for i, row in enumerate(mat.rows):
        ech.add(row, 1 << i)
    residual, aux = ech.reduce(target)
    return None if residual else aux


def intersection(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Basis of rowspace(a) intersect rowspace(b)."""
    if a.nrows == 0 or b.nrows == 0:
        return BitMatrix.zeros(0, a.ncols)
    # Zassenhaus: eliminate on [a|a; b|0]; rows whose left block vanished
    # carry intersection elements in the right block.
    ech = Echelon(a.ncols)
    for row in a.rows:
        ech.add(row, row)
    members = Echelon(a.ncols)
    for row in b.rows:
        residual, aux = ech.reduce(row)
        if residual:
            ech.add(row)
        else:
            members.add(aux)
    return members.basis_matrix()


# -- minimum-weight tables --------------------------------------------------


def min_weight_table(n: int, checks) -> dict:
    """Map syndrome tuple -> lexicographically first minimum-weight support.

    `checks` are supports over range(n); the syndrome of a support is the
    parity of its overlap with each check. Supports are visited in (weight,
    lex) order, weight by weight, so the first support to reach a syndrome
    wins; the walk stops once all 2^rank reachable syndromes are filled.
    """
    checks = [set(chk) for chk in checks]
    incidence = BitMatrix([sum(1 << q for q in chk) for chk in checks], n)
    reachable = 1 << rank(incidence)
    columns = [sum(1 << j for j, chk in enumerate(checks) if q in chk) for q in range(n)]
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), w) for w in range(n + 1)
    )
    found: dict[int, tuple] = {}
    for support in supports:
        syndrome = 0
        for q in support:
            syndrome ^= columns[q]
        found.setdefault(syndrome, support)
        if len(found) == reachable:
            break
    return {
        tuple(s >> j & 1 for j in range(len(checks))): support
        for s, support in found.items()
    }


def checks_table(n: int, checks) -> dict:
    """`min_weight_table` of a check set, cached per (n, checks) in the process."""
    key = (n, tuple(map(tuple, checks)))
    table = _CHECK_TABLES.get(key)
    if table is None:
        table = _CHECK_TABLES[key] = min_weight_table(n, checks)
    return table


_CHECK_TABLES: dict = {}
