"""Stabilizer tableau with destabilizer bookkeeping.

Only two phases (+1/-1) are tracked: every operator measured or applied in
this package is a real Pauli, so the imaginary phases of the general
formalism never appear. Measurements accept arbitrary Pauli operators, not
just single-qubit Z, because syndrome extraction measures plaquette and cell
operators directly.

The 2n rows are Python ints in the layout of `pauli.PauliOperator`: row r is
(xs[r], zs[r], signs[r]) with bit q of xs[r] / zs[r] the X / Z factor on
qubit q. Rows 0..n-1 are the destabilizers and rows n..2n-1 the
stabilizers. Whether a row anticommutes with an operator is the parity of
`(x & op.z) ^ (z & op.x)`, and a row product is two `^` plus the
(-1)^(z_h . x_i) sign of the canonical X-left ordering.

Every operation works on those ints alone: a measurement multiplies rows
in place, and an expectation accumulates the (x, z, sign) of a product of
stabilizer rows with the same sign rule. `PauliOperator` appears only at
the boundary, as the operator an operation takes and the rows that
`stabilizer_row` and `pivot_row` hand out.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from . import gf2
from .pauli import PauliOperator


class Tableau:
    """2n generator rows: n destabilizers then n stabilizers, with signs."""

    __slots__ = ("n", "xs", "zs", "signs")

    def __init__(self, n: int, xs: list[int], zs: list[int], signs: list[int]):
        self.n = n
        self.xs = xs  # 2n X masks; rows 0..n-1 destabilizers, n..2n-1 stabilizers
        self.zs = zs
        self.signs = signs  # 2n of +1/-1

    @classmethod
    def computational_zero(cls, n: int) -> "Tableau":
        xs = [1 << i for i in range(n)] + [0] * n
        zs = [0] * n + [1 << i for i in range(n)]
        return cls(n, xs, zs, [1] * (2 * n))

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.xs[:], self.zs[:], self.signs[:])

    def stabilizer_row(self, i: int) -> PauliOperator:
        r = self.n + i
        return PauliOperator(self.n, self.xs[r], self.zs[r], self.signs[r])

    # -- internals -------------------------------------------------------------

    def _anticommuting(self, op: PauliOperator) -> list[int]:
        """Indices, rising, of the rows (of all 2n) that anticommute with op."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        ox, oz = op.x, op.z
        rows = range(2 * self.n)
        # pure Z- and X-type operators (every check and logical) pair with
        # one half of each row only
        if not ox:
            return [r for r, x in zip(rows, self.xs) if (x & oz).bit_count() & 1]
        if not oz:
            return [r for r, z in zip(rows, self.zs) if (z & ox).bit_count() & 1]
        return [
            r
            for r, x, z in zip(rows, self.xs, self.zs)
            if ((x & oz) ^ (z & ox)).bit_count() & 1
        ]

    def _value(self, op: PauliOperator, anti: list[int]) -> int | None:
        """`expect(op)`, given the rows that anticommute with op.

        op is in the unsigned stabilizer span iff no stabilizer row
        anticommutes with it, and then it is the product of the stabilizers
        whose destabilizer partners do. That product is accumulated on
        (x, z, sign) ints, left to right with the X-left sign rule of
        `measure`, starting from op's own sign.
        """
        n = self.n
        if anti and anti[-1] >= n:
            return None
        xs, zs, signs = self.xs, self.zs, self.signs
        x = z = 0
        sign = op.sign
        for i in anti:
            r = n + i
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
        for r in self._anticommuting(op):
            signs[r] = -signs[r]

    def expect(self, op: PauliOperator) -> int | None:
        """+1 / -1 if op is in the +-stabilizer span, else None. Read-only."""
        return self._value(op, self._anticommuting(op))

    def pivot_row(self, op: PauliOperator) -> PauliOperator | None:
        """The stabilizer row `measure(op)` replaces; None if op is determinate.

        The row anticommutes with op and fixes the state up to sign, so it
        maps one outcome's post-measurement state onto the other's.
        """
        n = self.n
        anti = self._anticommuting(op)
        k = bisect_left(anti, n)
        return None if k == len(anti) else self.stabilizer_row(anti[k] - n)

    def measure(
        self,
        op: PauliOperator,
        rng: np.random.Generator | None = None,
        force: int | None = None,
    ) -> int:
        """Measure a Pauli; returns +-1 and collapses the state if random.

        `force` pins the outcome of a genuinely random measurement (used for
        deterministic state preparation); it never overrides a deterministic
        outcome.
        """
        n = self.n
        anti = self._anticommuting(op)
        k = bisect_left(anti, n)  # anti rises: its first stabilizer row
        if k == len(anti):
            value = self._value(op, anti)
            if value is None:
                raise AssertionError("deterministic measurement did not resolve")
            return value
        p = anti[k]
        xs, zs, signs = self.xs, self.zs, self.signs
        px, pz, ps = xs[p], zs[p], signs[p]
        for r in anti:
            if r != p:
                # row r <- row r * row p (canonical X-left ordering for the sign)
                sign = signs[r] * ps
                signs[r] = -sign if (zs[r] & px).bit_count() & 1 else sign
                xs[r] ^= px
                zs[r] ^= pz
        # old stabilizer row becomes the destabilizer partner
        d = p - n
        xs[d], zs[d], signs[d] = px, pz, ps
        if force is not None:
            outcome = force
        elif rng is not None:
            outcome = 1 if rng.random() < 0.5 else -1
        else:
            raise ValueError("random-outcome measurement needs an rng or force")
        xs[p], zs[p], signs[p] = op.x, op.z, outcome * op.sign
        return outcome


def from_stabilizers(rows: list[PauliOperator]) -> Tableau:
    """Build a tableau for the state fixed by n independent commuting Paulis.

    Conjugation-free synthesis: start from |0...0> and measure each target
    generator; a -1 outcome is flipped away with the destabilizer partner,
    which anticommutes with that row alone. Fully deterministic.
    """
    if not rows:
        raise ValueError("need at least one stabilizer generator")
    n = rows[0].n
    if len(rows) != n:
        raise ValueError(f"need exactly {n} generators, got {len(rows)}")
    if any(r.n != n for r in rows):
        raise ValueError("qubit count mismatch")
    masks = [(r.x, r.z) for r in rows]
    for i, (ax, az) in enumerate(masks):
        for bx, bz in masks[i + 1 :]:
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                raise ValueError("stabilizer generators must commute")
    t = Tableau.computational_zero(n)
    for k, target in enumerate(rows):
        outcome = t.measure(target, force=1)
        if outcome != 1:
            # deterministic -1: flip with an operator that anticommutes with
            # the target but commutes with every already-forced generator
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
