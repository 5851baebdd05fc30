"""Dense GF(2) linear algebra on bit-packed row matrices, and exact
minimum-weight decoding tables.

Rows are packed into uint64 words, so elimination works word-parallel:
row operations cost O(ncols / 64) instead of O(ncols). Everything else in
the package (rank, membership, centralizers, syndrome solving) reduces to
the primitives here.

Every "lightest support with this syndrome" search of the package (2D and
3D decoders, string corrections, residual cosets, restricted gauge
corrections) is one `min_weight_table`, cached per check set by
`checks_table`.
"""

from __future__ import annotations

import itertools

import numpy as np

_WORD = 64


def _nwords(ncols: int) -> int:
    return max(1, (ncols + _WORD - 1) // _WORD)


def pack_rows(dense: np.ndarray, ncols: int | None = None) -> "BitMatrix":
    """Pack a dense 0/1 array of shape (m, n) into a BitMatrix."""
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim == 1:
        dense = dense[None, :]
    if dense.size == 0 and ncols is not None:
        return BitMatrix.zeros(dense.shape[0], ncols)
    m, n = dense.shape
    if ncols is None:
        ncols = n
    words = np.zeros((m, _nwords(ncols)), dtype=np.uint64)
    for j in range(n):
        col = dense[:, j].astype(np.uint64)
        words[:, j // _WORD] |= col << np.uint64(j % _WORD)
    return BitMatrix(words, ncols)


class BitMatrix:
    """A (possibly empty) matrix over GF(2) with bit-packed rows."""

    def __init__(self, words: np.ndarray, ncols: int):
        words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
        assert words.shape[1] == _nwords(ncols)
        self.words = words
        self.ncols = ncols

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(np.zeros((nrows, _nwords(ncols)), dtype=np.uint64), ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        out = cls.zeros(n, n)
        for i in range(n):
            out.set(i, i, 1)
        return out

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.words.copy(), self.ncols)

    @property
    def nrows(self) -> int:
        return self.words.shape[0]

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(j % _WORD)
        if value:
            self.words[i, j // _WORD] |= mask
        else:
            self.words[i, j // _WORD] &= ~mask

    def row(self, i: int) -> np.ndarray:
        return self.words[i].copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=np.uint8)
        for j in range(self.ncols):
            out[:, j] = (self.words[:, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1)
        return out

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        assert self.ncols == other.ncols
        return BitMatrix(np.vstack([self.words, other.words]), self.ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and np.array_equal(self.words, other.words)

    def __repr__(self) -> str:
        rows = ["".join(str(b) for b in r) for r in self.to_dense()]
        return "BitMatrix[\n  " + "\n  ".join(rows) + "\n]"


def row_is_zero(row: np.ndarray) -> bool:
    return not row.any()


def row_bit(row: np.ndarray, j: int) -> int:
    return int((row[j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))


def _lowest_set_bit(row: np.ndarray, ncols: int) -> int:
    """Index of the lowest set bit, or -1 if the row is zero."""
    for w, word in enumerate(row):
        iw = int(word)
        if iw:
            j = w * _WORD + (iw & -iw).bit_length() - 1
            return j if j < ncols else -1
    return -1


class Echelon:
    """Incrementally built row-echelon basis over GF(2).

    Rows can carry an auxiliary packed payload (e.g. sign bits or a
    combination-tracking identity block) that is XORed along with them.
    """

    def __init__(self, ncols: int, aux_cols: int = 0):
        self.ncols = ncols
        self.aux_cols = aux_cols
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []
        self.aux: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: np.ndarray, aux: np.ndarray | None = None):
        """Reduce `row` against the basis; returns (residual, residual_aux)."""
        row = row.copy()
        if aux is None:
            aux = np.zeros(_nwords(max(self.aux_cols, 1)), dtype=np.uint64)
        else:
            aux = aux.copy()
        for p, r, a in zip(self.pivots, self.rows, self.aux):
            if row_bit(row, p):
                row ^= r
                aux ^= a
        return row, aux

    def add(self, row: np.ndarray, aux: np.ndarray | None = None) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row, aux = self.reduce(row, aux)
        p = _lowest_set_bit(row, self.ncols)
        if p < 0:
            return False
        # back-substitute so stored rows stay fully reduced
        for i in range(len(self.rows)):
            if row_bit(self.rows[i], p):
                self.rows[i] ^= row
                self.aux[i] ^= aux
        self.pivots.append(p)
        self.rows.append(row)
        self.aux.append(aux)
        return True

    def contains(self, row: np.ndarray) -> bool:
        residual, _ = self.reduce(row)
        return row_is_zero(residual)

    def basis_matrix(self) -> BitMatrix:
        if not self.rows:
            return BitMatrix.zeros(0, self.ncols)
        order = np.argsort(self.pivots)
        return BitMatrix(np.array([self.rows[i] for i in order]), self.ncols)


def echelon_from(mat: BitMatrix, aux: BitMatrix | None = None) -> Echelon:
    ech = Echelon(mat.ncols, aux.ncols if aux is not None else 0)
    for i in range(mat.nrows):
        ech.add(mat.row(i), aux.row(i) if aux is not None else None)
    return ech


def rank(mat: BitMatrix) -> int:
    return echelon_from(mat).rank


def in_span(mat: BitMatrix, row: np.ndarray) -> bool:
    return echelon_from(mat).contains(row)


def is_subspace(sub: BitMatrix, sup: BitMatrix) -> bool:
    """True iff rowspace(sub) is contained in rowspace(sup)."""
    ech = echelon_from(sup)
    return all(ech.contains(sub.row(i)) for i in range(sub.nrows))


def nullspace(mat: BitMatrix) -> BitMatrix:
    """Basis of {x : mat @ x = 0} over GF(2), one solution per row."""
    n = mat.ncols
    ech = echelon_from(mat)
    pivots = sorted(ech.pivots)
    # re-run to get fully reduced rows aligned with sorted pivots
    basis = ech.basis_matrix()
    pivot_of_row = {p: i for i, p in enumerate(sorted(ech.pivots))}
    free = [j for j in range(n) if j not in pivot_of_row]
    out = BitMatrix.zeros(len(free), n)
    for k, f in enumerate(free):
        out.set(k, f, 1)
        for p in pivots:
            i = pivot_of_row[p]
            if basis.get(i, f):
                out.set(k, p, 1)
    return out


def solve(mat: BitMatrix, target: np.ndarray):
    """One x with x @ mat == target, or None. x is returned as a dense array
    of combination coefficients over mat's rows."""
    m = mat.nrows
    ech = Echelon(mat.ncols, aux_cols=max(m, 1))
    ident = BitMatrix.identity(max(m, 1))
    for i in range(m):
        ech.add(mat.row(i), ident.row(i))
    residual, aux = ech.reduce(target)
    if not row_is_zero(residual):
        return None
    coeffs = np.zeros(m, dtype=np.uint8)
    for j in range(m):
        coeffs[j] = row_bit(aux, j)
    return coeffs


def intersection(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Basis of rowspace(a) intersect rowspace(b)."""
    if a.nrows == 0 or b.nrows == 0:
        return BitMatrix.zeros(0, a.ncols)
    # Zassenhaus: eliminate on [a|a; b|0]; rows whose left block vanished
    # carry intersection elements in the right block.
    n = a.ncols
    ech = Echelon(n, aux_cols=n)
    for i in range(a.nrows):
        ech.add(a.row(i), a.row(i))
    members = Echelon(n)
    for i in range(b.nrows):
        residual, aux = ech.reduce(b.row(i))
        if row_is_zero(residual):
            members.add(aux)
        else:
            ech.add(b.row(i), np.zeros_like(b.row(i)))
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
    incidence = np.zeros((len(checks), n), dtype=np.uint8)
    for j, chk in enumerate(checks):
        incidence[j, list(chk)] = 1
    reachable = 1 << rank(pack_rows(incidence, n))
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
