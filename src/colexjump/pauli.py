"""Symplectic GF(2) Pauli arithmetic: operators, groups, centralizers.

An n-qubit Pauli is two n-bit vectors (X part, Z part) and a sign in {+1, -1}.
The canonical ordering puts all X factors left of all Z factors, so the
product rule picks up (-1)^(z1.x2):

    (s1, x1, z1) * (s2, x2, z2) = (s1*s2*(-1)^(z1.x2), x1^x2, z1^z2)

Groups are generator lists; rank/membership/subgroup questions reduce to
row elimination in `gf2`, and sign-exact membership multiplies out the
generators of the combination that elimination finds.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf2


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


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return p.commutes_with(q)


def _pack_symplectic(ops: list[PauliOperator], n: int) -> gf2.BitMatrix:
    if not ops:
        return gf2.BitMatrix.zeros(0, 2 * n)
    dense = np.array([op.symplectic() for op in ops], dtype=np.uint8)
    return gf2.pack_rows(dense, 2 * n)


class PauliGroup:
    """Group generated by a list of Pauli operators (signs included)."""

    def __init__(self, n: int, generators: list[PauliOperator] | None = None):
        self.n = n
        self.generators: list[PauliOperator] = []
        for g in generators or []:
            if g.n != n:
                raise ValueError("qubit count mismatch")
            self.generators.append(g)
        self._packed: gf2.BitMatrix | None = None

    def packed(self) -> gf2.BitMatrix:
        if self._packed is None:
            self._packed = _pack_symplectic(self.generators, self.n)
        return self._packed

    @property
    def rank(self) -> int:
        return gf2.rank(self.packed())

    def contains(self, op: PauliOperator, up_to_sign: bool = False) -> bool:
        """Membership; a member must match sign unless up_to_sign."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        target = gf2.pack_rows(op.symplectic(), 2 * self.n).row(0)
        if up_to_sign:
            return gf2.in_span(self.packed(), target)
        coeffs = gf2.solve(self.packed(), target)
        if coeffs is None:
            return False
        prod = PauliOperator.identity(self.n)
        for i in np.flatnonzero(coeffs):
            prod = prod * self.generators[i]
        return prod.sign == op.sign

    def is_subgroup_of(self, other: "PauliGroup", up_to_sign: bool = False) -> bool:
        return all(other.contains(g, up_to_sign=up_to_sign) for g in self.generators)

    def product_group(self, other: "PauliGroup") -> "PauliGroup":
        return PauliGroup(self.n, self.generators + other.generators)

    def minus_identity_in_group(self) -> bool:
        """True iff -1 is generated (sign inconsistency of the generators)."""
        ech = gf2.Echelon(2 * self.n)
        for i, row in enumerate(self.packed().rows):
            residual, combo = ech.reduce(row, 1 << i)
            if residual:
                ech.add(row, 1 << i)
                continue
            # dependent generator: the product of the dependency (generator
            # i and the earlier ones it reduces against) must be +identity
            prod = PauliOperator.identity(self.n)
            for j in range(i + 1):
                if combo >> j & 1:
                    prod = prod * self.generators[j]
            if prod.sign == -1:
                return True
        return False

    def centralizer(self) -> "PauliGroup":
        """Generators of all Paulis (up to phase) commuting with the group.

        Commutation with (x, z) is the symplectic form, so the centralizer
        is the kernel of the generator matrix with X/Z halves swapped.
        """
        m = len(self.generators)
        if m == 0:
            gens = []
            for q in range(self.n):
                gens.append(PauliOperator.from_support(self.n, "X", [q]))
                gens.append(PauliOperator.from_support(self.n, "Z", [q]))
            return PauliGroup(self.n, gens)
        swapped = np.array(
            [np.concatenate([g.z, g.x]) for g in self.generators], dtype=np.uint8
        )
        kernel = gf2.nullspace(gf2.pack_rows(swapped, 2 * self.n)).to_dense()
        gens = [PauliOperator(self.n, row[: self.n], row[self.n :]) for row in kernel]
        return PauliGroup(self.n, gens)


def stabilizer_condition_holds(S: PauliGroup, G: PauliGroup) -> tuple[bool, str]:
    """Check -1 not in S and S = G intersect centralizer(G) up to signs."""
    if S.minus_identity_in_group():
        return False, "-1 is generated by the stabilizer generators"
    for g in S.generators:
        if not G.contains(g, up_to_sign=True):
            return False, f"stabilizer generator {g!r} not in the gauge group"
    cent = G.centralizer()
    inter = gf2.intersection(G.packed(), cent.packed())
    s_span = gf2.echelon_from(S.packed())
    for i in range(inter.nrows):
        if not s_span.contains(inter.row(i)):
            row = inter.to_dense()[i]
            op = PauliOperator(S.n, row[: S.n], row[S.n :])
            return False, f"gauge-central element {op!r} missing from the stabilizer"
    for g in S.generators:
        if not cent.contains(g, up_to_sign=True):
            return False, f"stabilizer generator {g!r} outside centralizer(G)"
    return True, ""


def logical_qubit_count(S: PauliGroup, G: PauliGroup) -> int:
    """k = (rank centralizer(G) - rank S) / 2, after validating the pair."""
    ok, why = stabilizer_condition_holds(S, G)
    if not ok:
        raise ValueError(f"not a valid stabilizer/gauge pair: {why}")
    diff = G.centralizer().rank - S.rank
    assert diff % 2 == 0
    return diff // 2


def _parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of a non-negative int64 array."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def min_weight_logical(S: PauliGroup, G: PauliGroup, L: PauliGroup) -> int:
    """Distance by brute force over Paulis of increasing weight.

    Finds the lightest operator that preserves the code space (commutes with
    every stabilizer) yet acts on the logical qubits, i.e. falls outside the
    span of stabilizers and gauge operators. Gauge-equivalent errors act
    identically on encoded data, so this is the error-correction distance.
    Candidates of one weight are one int64 array of [x|z] rows (bit q is
    X on qubit q, bit n + q is Z on it). Exponential; guarded to n <= 20.
    """
    n = S.n
    if n > 20:
        raise ValueError("brute-force distance limited to n <= 20")
    low = (1 << n) - 1
    # <a, s> = a_x.s_z + a_z.s_x: pair a's [x|z] row with s's [z|x] row
    swapped = [(r >> n) | (r & low) << n for r in S.packed().rows]
    trivial = gf2.echelon_from(S.product_group(G).packed())
    css = all(not (g.x.any() and g.z.any()) for g in S.generators + G.generators)
    letters = [1, 1 << n] if css else [1, 1 << n, 1 | 1 << n]
    for w in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
        assignment = np.array(list(itertools.product(letters, repeat=w)), dtype=np.int64)
        cands = np.zeros((len(supports), len(assignment)), dtype=np.int64)
        for j in range(w):
            cands |= assignment[None, :, j] << supports[:, j, None]
        cands = cands.ravel()
        for s in swapped:
            cands = cands[_parity(cands & s) == 0]
        for p, r in zip(trivial.pivots, trivial.rows):
            cands ^= (cands >> p & 1) * r
        if cands.any():
            return w
    raise ValueError("no logical operator found")


def css_min_weight(check_rows: np.ndarray, stabilizer_rows: np.ndarray) -> int:
    """Min weight over null(check_rows) \\ rowspace(stabilizer_rows).

    Enumerates the whole nullspace by a Gray-code walk over int rows, so it
    covers one CSS side of mid-size codes where per-weight brute force is
    infeasible.
    """
    checks = gf2.pack_rows(check_rows)
    n = checks.ncols
    kernel = gf2.nullspace(checks).rows
    k = len(kernel)
    if k > 24:
        raise ValueError("nullspace too large to enumerate")
    stab = gf2.echelon_from(gf2.pack_rows(stabilizer_rows, n))
    best = n + 1
    current = 0
    for counter in range(1, 2**k):
        # consecutive Gray codes differ in the lowest set bit of the counter
        current ^= kernel[(counter & -counter).bit_length() - 1]
        w = current.bit_count()
        if w < best and not stab.contains(current):
            best = w
    if best > n:
        raise ValueError("no logical representative in the kernel")
    return best


def export_check_matrix(groups: dict[str, PauliGroup]) -> str:
    """Plain-text (X|Z) blocks per group, canonical row order."""
    lines = []
    for name, group in groups.items():
        lines.append(f"[{name}] n={group.n} generators={len(group.generators)}")
        rows = sorted(
            "".join(str(b) for b in g.x) + "|" + "".join(str(b) for b in g.z)
            for g in group.generators
        )
        lines.extend(rows)
        lines.append("")
    return "\n".join(lines)
