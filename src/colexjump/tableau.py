"""Stabilizer tableau with destabilizer bookkeeping.

Only two phases (+1/-1) are tracked: every operator measured or applied in
this package is a real Pauli, so the imaginary phases of the general
formalism never appear. Measurements accept arbitrary Pauli operators, not
just single-qubit Z, because syndrome extraction measures plaquette and cell
operators directly.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .pauli import PauliOperator


class Tableau:
    """2n generator rows: n destabilizers then n stabilizers, with signs."""

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray, signs: np.ndarray):
        self.n = n
        self.x = x  # (2n, n) uint8; rows 0..n-1 destabilizers, n..2n-1 stabilizers
        self.z = z
        self.signs = signs  # (2n,) int8, +1/-1

    @classmethod
    def computational_zero(cls, n: int) -> "Tableau":
        x = np.zeros((2 * n, n), dtype=np.uint8)
        z = np.zeros((2 * n, n), dtype=np.uint8)
        for i in range(n):
            x[i, i] = 1
            z[n + i, i] = 1
        return cls(n, x, z, np.ones(2 * n, dtype=np.int8))

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.x.copy(), self.z.copy(), self.signs.copy())

    def stabilizer_row(self, i: int) -> PauliOperator:
        return PauliOperator(
            self.n, self.x[self.n + i], self.z[self.n + i], int(self.signs[self.n + i])
        )

    # -- internals -------------------------------------------------------------

    def _anticommutation(self, op: PauliOperator) -> np.ndarray:
        """Bool mask over all 2n rows: row anticommutes with op."""
        form = (self.x @ op.z + self.z @ op.x) % 2
        return form.astype(bool)

    def _rowmult(self, h: int, i: int) -> None:
        """Row h <- row h * row i (canonical X-left ordering for the sign)."""
        phase = int(self.z[h] @ self.x[i]) % 2
        if phase:
            self.signs[h] = -self.signs[h]
        self.signs[h] *= self.signs[i]
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    # -- operations ------------------------------------------------------------

    def apply(self, op: PauliOperator) -> None:
        """Apply a Pauli: flips the sign of every anticommuting row."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        mask = self._anticommutation(op)
        self.signs[mask] = -self.signs[mask]

    def expect(self, op: PauliOperator) -> int | None:
        """+1 / -1 if op is in the +-stabilizer span, else None. Read-only."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        anti = self._anticommutation(op)
        if anti[self.n :].any():
            return None
        # combine stabilizers whose destabilizer partner anticommutes with op
        rows = np.flatnonzero(anti[: self.n])
        acc = PauliOperator.identity(self.n)
        for i in rows:
            acc = acc * self.stabilizer_row(int(i))
        if not (np.array_equal(acc.x, op.x) and np.array_equal(acc.z, op.z)):
            return None
        return acc.sign * op.sign

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
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        anti = self._anticommutation(op)
        stab_anti = np.flatnonzero(anti[self.n :]) + self.n
        if stab_anti.size == 0:
            value = self.expect(op)
            if value is None:
                raise AssertionError("deterministic measurement did not resolve")
            return value
        p = int(stab_anti[0])
        for r in np.flatnonzero(anti):
            r = int(r)
            if r != p:
                self._rowmult(r, p)
        # old stabilizer row becomes the destabilizer partner
        d = p - self.n
        self.x[d] = self.x[p]
        self.z[d] = self.z[p]
        self.signs[d] = self.signs[p]
        if force is not None:
            outcome = force
        elif rng is not None:
            outcome = 1 if rng.random() < 0.5 else -1
        else:
            raise ValueError("random-outcome measurement needs an rng or force")
        self.x[p] = op.x
        self.z[p] = op.z
        self.signs[p] = outcome * op.sign
        return outcome


def from_stabilizers(rows: list[PauliOperator]) -> Tableau:
    """Build a tableau for the state fixed by n independent commuting Paulis.

    Conjugation-free synthesis: start from |0...0> and measure each target
    generator; a -1 outcome is flipped away with the destabilizer partner,
    which anticommutes with that row alone. Fully deterministic.
    """
    n = rows[0].n
    if len(rows) != n:
        raise ValueError(f"need exactly {n} generators, got {len(rows)}")
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            if not a.commutes_with(b):
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
    # symplectic pairing: <F, g> = F_x.g_z + F_z.g_x, so pair F's [x|z] row
    # against each g's swapped [z|x] vector
    columns = np.array([np.concatenate([g.z, g.x]) for g in ops], dtype=np.uint8)
    transposed = gf2.pack_rows(columns.T, len(ops))
    coeffs = gf2.solve(transposed, 1 << (len(ops) - 1))
    if coeffs is None:
        raise AssertionError("no flip operator exists; generators dependent?")
    return PauliOperator(n, coeffs[:n], coeffs[n : 2 * n])
