"""The numpy Pauli operator and stabilizer tableau that the int-row ones
replaced, kept as the oracle of `test_tableau.py` and `test_pauli.py`.

`PauliOperator` held its X and Z parts as uint8 vectors and `Tableau` its
2n rows as (2n, n) uint8 matrices, with anticommutation as matrix-vector
products. The classes below are that code unchanged, except that
`_flip_operator` unpacks `gf2.solve`'s coefficient mask, which is now an int,
into the vector the old code indexed.
"""

from __future__ import annotations

import numpy as np

from colexjump import gf2


class PauliOperator:
    """n-qubit Pauli as (x bits, z bits, sign)."""

    __slots__ = ("n", "x", "z", "sign")

    def __init__(self, n: int, x=None, z=None, sign: int = 1):
        self.n = n
        self.x = np.zeros(n, dtype=np.uint8) if x is None else np.asarray(x, dtype=np.uint8) & 1
        self.z = np.zeros(n, dtype=np.uint8) if z is None else np.asarray(z, dtype=np.uint8) & 1
        assert self.x.shape == (n,) and self.z.shape == (n,)
        assert sign in (1, -1)
        self.sign = sign

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n)

    @classmethod
    def from_support(cls, n: int, kind: str, support, sign: int = 1) -> "PauliOperator":
        """Pure X- or Z-type operator on the given qubit set."""
        bits = np.zeros(n, dtype=np.uint8)
        for q in support:
            bits[q] ^= 1
        if kind == "X":
            return cls(n, x=bits, sign=sign)
        if kind == "Z":
            return cls(n, z=bits, sign=sign)
        raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse e.g. '+XIZY' or '-ZZ' (leading sign optional)."""
        sign = 1
        if text and text[0] in "+-":
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        n = len(text)
        op = cls(n, sign=sign)
        for i, ch in enumerate(text.upper()):
            if ch == "X":
                op.x[i] = 1
            elif ch == "Z":
                op.z[i] = 1
            elif ch == "Y":
                op.x[i] = 1
                op.z[i] = 1
            elif ch != "I":
                raise ValueError(f"invalid Pauli letter {ch!r}")
        return op

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.x | self.z)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        form = int(self.x @ other.z) + int(self.z @ other.x)
        return form % 2 == 0

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        phase = int(self.z @ other.x) % 2
        sign = self.sign * other.sign * (-1 if phase else 1)
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z, sign)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.n == other.n
            and self.sign == other.sign
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sign, self.x.tobytes(), self.z.tobytes()))

    def symplectic(self) -> np.ndarray:
        """Dense [x | z] row of length 2n."""
        return np.concatenate([self.x, self.z])

    def __repr__(self) -> str:
        letters = []
        for xi, zi in zip(self.x, self.z):
            letters.append("IXZY"[xi + 2 * zi] if xi + 2 * zi != 3 else "Y")
        return ("+" if self.sign == 1 else "-") + "".join(letters)


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

    def pivot_row(self, op: PauliOperator) -> PauliOperator | None:
        """The stabilizer row `measure(op)` replaces; None if op is determinate.

        The row anticommutes with op and fixes the state up to sign, so it
        maps one outcome's post-measurement state onto the other's.
        """
        stab_anti = np.flatnonzero(self._anticommutation(op)[self.n :])
        return None if stab_anti.size == 0 else self.stabilizer_row(int(stab_anti[0]))

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
    coeffs = np.array([coeffs >> j & 1 for j in range(2 * n)], dtype=np.uint8)
    return PauliOperator(n, coeffs[:n], coeffs[n : 2 * n])
