"""Stabilizer tableau with destabilizer bookkeeping.

Only two phases (+1/-1) are tracked: every operator measured or applied in
this package is a real Pauli, so the imaginary phases of the general
formalism never appear. Measurements accept arbitrary Pauli operators, not
just single-qubit Z, because syndrome extraction measures plaquette and cell
operators directly.

The 2n rows are Python ints in the layout of `pauli.PauliOperator`: row r is
(xs[r], zs[r], signs[r]) with bit q of xs[r] / zs[r] the X / Z factor on
qubit q. Rows 0..n-1 are the destabilizers and rows n..2n-1 the
stabilizers. A row product is two `^` plus the (-1)^(z_h . x_i) sign of the
canonical X-left ordering.

Beside the rows the tableau keeps their transpose, one 2n-bit column per
qubit: bit r of xcol[q] / zcol[q] is row r's X / Z bit on qubit q. Row r
anticommutes with an operator iff `(x & op.z) ^ (z & op.x)` has odd parity,
so the rows that anticommute with op are the set bits of one mask,

    XOR(xcol[q] for q in op.z) ^ XOR(zcol[q] for q in op.x),

a few XORs for a plaquette instead of a test of every row. Bits 0..n-1 of
that mask are destabilizer rows and `mask >> n` the stabilizer rows; the
lowest stabilizer bit is the row a random measurement replaces. A row
product updates the columns with one `^=` per qubit of the row multiplied
in, on the mask of the rows it changes.

Every operation works on those ints alone: a measurement multiplies rows
in place, and an expectation accumulates the (x, z, sign) of a product of
stabilizer rows with the same sign rule. `PauliOperator` appears only at
the boundary, as the operator an operation takes and the rows that
`stabilizer_row` and `pivot_row` hand out.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .pauli import PauliOperator


class Tableau:
    """2n generator rows: n destabilizers then n stabilizers, with signs,
    and the rows' per-qubit X and Z columns."""

    __slots__ = ("n", "xs", "zs", "signs", "xcol", "zcol")

    def __init__(self, n: int, xs: list[int], zs: list[int], signs: list[int]):
        self.n = n
        self.xs = xs  # 2n X masks; rows 0..n-1 destabilizers, n..2n-1 stabilizers
        self.zs = zs
        self.signs = signs  # 2n of +1/-1
        self.xcol = _columns(xs, n)  # n masks of 2n bits: bit r is row r's bit
        self.zcol = _columns(zs, n)

    @classmethod
    def _of(cls, n, xs, zs, signs, xcol, zcol) -> "Tableau":
        """A tableau from rows and their columns, which must agree."""
        t = cls.__new__(cls)
        t.n, t.xs, t.zs, t.signs, t.xcol, t.zcol = n, xs, zs, signs, xcol, zcol
        return t

    @classmethod
    def computational_zero(cls, n: int) -> "Tableau":
        xs = [1 << i for i in range(n)] + [0] * n
        zs = [0] * n + [1 << i for i in range(n)]
        xcol = [1 << q for q in range(n)]
        zcol = [1 << (n + q) for q in range(n)]
        return cls._of(n, xs, zs, [1] * (2 * n), xcol, zcol)

    def copy(self) -> "Tableau":
        return Tableau._of(
            self.n, self.xs[:], self.zs[:], self.signs[:], self.xcol[:], self.zcol[:]
        )

    def stabilizer_row(self, i: int) -> PauliOperator:
        r = self.n + i
        return PauliOperator(self.n, self.xs[r], self.zs[r], self.signs[r])

    # -- internals -------------------------------------------------------------

    def _anticommuting(self, op: PauliOperator) -> int:
        """The mask of the rows (bit r: row r, of all 2n) that anticommute
        with op."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        xcol, zcol = self.xcol, self.zcol
        mask = 0
        qubits = op.z
        while qubits:
            low = qubits & -qubits
            mask ^= xcol[low.bit_length() - 1]
            qubits ^= low
        qubits = op.x
        while qubits:
            low = qubits & -qubits
            mask ^= zcol[low.bit_length() - 1]
            qubits ^= low
        return mask

    def _value(self, op: PauliOperator, anti: int) -> int | None:
        """`expect(op)`, given the mask of the rows that anticommute with op.

        op is in the unsigned stabilizer span iff no stabilizer row
        anticommutes with it, and then it is the product of the stabilizers
        whose destabilizer partners do. That product is accumulated on
        (x, z, sign) ints, by rising row, with the X-left sign rule of
        `measure`, starting from op's own sign.
        """
        n = self.n
        if anti >> n:
            return None
        xs, zs, signs = self.xs, self.zs, self.signs
        x = z = 0
        sign = op.sign
        while anti:
            low = anti & -anti
            anti ^= low
            r = n + low.bit_length() - 1
            rx = xs[r]
            if (z & rx).bit_count() & 1:
                sign = -sign
            sign *= signs[r]
            x ^= rx
            z ^= zs[r]
        if x != op.x or z != op.z:
            return None
        return sign

    # -- operations ------------------------------------------------------------

    def apply(self, op: PauliOperator) -> None:
        """Apply a Pauli: flips the sign of every anticommuting row."""
        signs = self.signs
        anti = self._anticommuting(op)
        while anti:
            low = anti & -anti
            anti ^= low
            r = low.bit_length() - 1
            signs[r] = -signs[r]

    def expect(self, op: PauliOperator) -> int | None:
        """+1 / -1 if op is in the +-stabilizer span, else None. Read-only.

        op must be Hermitian: in the X-left form its X and Z masks share an
        even number of qubits (Y factors). With an odd count op squares to
        -1, and the sign read depends on the rows that represent the state.
        Nothing checks this.
        """
        return self._value(op, self._anticommuting(op))

    def pivot_row(self, op: PauliOperator) -> PauliOperator | None:
        """The stabilizer row `measure(op)` replaces; None if op is determinate.

        The row anticommutes with op and fixes the state up to sign, so it
        maps one outcome's post-measurement state onto the other's.
        """
        stab = self._anticommuting(op) >> self.n
        return self.stabilizer_row((stab & -stab).bit_length() - 1) if stab else None

    def measure(
        self,
        op: PauliOperator,
        rng: np.random.Generator | None = None,
        force: int | None = None,
    ) -> int:
        """Measure a Pauli; returns +-1 and collapses the state if random.

        `force` pins the outcome of a genuinely random measurement (used for
        deterministic state preparation); it never overrides a deterministic
        outcome. op must be Hermitian, as for `expect` (an even number of Y
        factors); a random outcome of an anti-Hermitian op puts a row into
        the tableau that no real sign describes. Nothing checks this.
        """
        n = self.n
        anti = self._anticommuting(op)
        stab = anti >> n
        if not stab:
            value = self._value(op, anti)
            if value is None:
                raise AssertionError("deterministic measurement did not resolve")
            return value
        # the outcome is settled before any row changes, so a measurement
        # that cannot draw one leaves the state as it was
        if force is not None:
            outcome = force
        elif rng is not None:
            outcome = 1 if rng.random() < 0.5 else -1
        else:
            raise ValueError("random-outcome measurement needs an rng or force")
        d = (stab & -stab).bit_length() - 1  # the pivot's destabilizer partner
        p = n + d  # the pivot: the lowest anticommuting stabilizer row
        xs, zs, signs, xcol, zcol = self.xs, self.zs, self.signs, self.xcol, self.zcol
        px, pz, ps = xs[p], zs[p], signs[p]
        # row r <- row r * row p (canonical X-left ordering for the sign) for
        # every other anticommuting row r: their columns change by px, pz
        rest = anti ^ 1 << p
        flip_columns(xcol, px, rest)
        flip_columns(zcol, pz, rest)
        while rest:
            low = rest & -rest
            rest ^= low
            r = low.bit_length() - 1
            sign = signs[r] * ps
            signs[r] = -sign if (zs[r] & px).bit_count() & 1 else sign
            xs[r] ^= px
            zs[r] ^= pz
        # old stabilizer row becomes the destabilizer partner
        flip_columns(xcol, xs[d] ^ px, 1 << d)
        flip_columns(zcol, zs[d] ^ pz, 1 << d)
        xs[d], zs[d], signs[d] = px, pz, ps
        flip_columns(xcol, px ^ op.x, 1 << p)
        flip_columns(zcol, pz ^ op.z, 1 << p)
        xs[p], zs[p], signs[p] = op.x, op.z, outcome * op.sign
        return outcome


def flip_columns(cols: list[int], qubits: int, rows: int) -> None:
    """cols[q] ^= rows for every qubit q set in `qubits`."""
    while qubits:
        low = qubits & -qubits
        cols[low.bit_length() - 1] ^= rows
        qubits ^= low


def _columns(rows: list[int], n: int) -> list[int]:
    """The n column masks of `rows`: bit r of column q is bit q of rows[r]."""
    cols = [0] * n
    for r, row in enumerate(rows):
        bit = 1 << r
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def from_stabilizers(rows: list[PauliOperator]) -> Tableau:
    """Build a tableau for the state fixed by n independent commuting Paulis.

    Conjugation-free synthesis: start from |0...0> and measure each target
    generator, a random outcome forced to +1; a deterministic -1 is flipped
    away by a Pauli solved for over GF(2) (`_flip_operator`) that
    anticommutes with the target and commutes with every earlier one.
    Fully deterministic.

    It runs once per encoded state a context builds, never per trial: the
    jumps derive their tableaux from their input's rows (`jump.discard_qubits`,
    `jump.blow_up`).
    """
    if not rows:
        raise ValueError("need at least one stabilizer generator")
    n = rows[0].n
    if len(rows) != n:
        raise ValueError(f"need exactly {n} generators, got {len(rows)}")
    if any(r.n != n for r in rows):
        raise ValueError("qubit count mismatch")
    span = gf2.Echelon(2 * n)
    if not all(span.add(r.x | r.z << n) for r in rows):
        raise ValueError("stabilizer generators must be independent")
    masks = [(r.x, r.z) for r in rows]
    for i, (ax, az) in enumerate(masks):
        for bx, bz in masks[i + 1 :]:
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                raise ValueError("stabilizer generators must commute")
    t = Tableau.computational_zero(n)
    for k, target in enumerate(rows):
        outcome = t.measure(target, force=1)
        if outcome != 1:
            t.apply(_flip_operator(rows[:k], target))
    for target in rows:
        if t.expect(target) != 1:
            raise AssertionError("stabilizer synthesis failed")
    return t


def _flip_operator(keep: list[PauliOperator], flip: PauliOperator) -> PauliOperator:
    """Solve for F with <F, flip> = 1 and <F, g> = 0 for g in keep."""
    n = flip.n
    ops = keep + [flip]
    # symplectic pairing: <F, g> = F_x.g_z + F_z.g_x, so F's [x|z] row pairs
    # with each g's swapped [z|x] row; row b of the system holds bit b of
    # every swapped row, one column per operator
    swapped = [g.z | g.x << n for g in ops]
    system = [
        sum((s >> b & 1) << k for k, s in enumerate(swapped)) for b in range(2 * n)
    ]
    coeffs = gf2.solve(gf2.BitMatrix(system, len(ops)), 1 << (len(ops) - 1))
    if coeffs is None:
        raise AssertionError("no flip operator exists; generators dependent?")
    return PauliOperator(n, coeffs & ((1 << n) - 1), coeffs >> n)
