"""Symplectic GF(2) Pauli arithmetic: operators, groups, centralizers.

An n-qubit Pauli is two n-bit vectors (X part, Z part) and a sign in {+1, -1}.
Each vector is a Python int with bit q holding qubit q, so a product is two
`^`, a symplectic form is two `&` and one `int.bit_count()`, and a Pauli's
[x|z] row in `gf2` is `x | z << n`. The canonical ordering puts all X
factors left of all Z factors, so the product rule picks up (-1)^(z1.x2):

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
    """n-qubit Pauli as (x mask, z mask, sign); bit q of a mask is qubit q."""

    __slots__ = ("n", "x", "z", "sign")

    def __init__(self, n: int, x: int = 0, z: int = 0, sign: int = 1):
        if type(x) is not int or type(z) is not int:
            raise TypeError(f"Pauli masks must be ints, got {type(x)}, {type(z)}")
        if (x | z) >> n:
            raise ValueError(f"Pauli masks {x:#x}, {z:#x} do not fit {n} qubits")
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        self.n = n
        self.x = x
        self.z = z
        self.sign = sign

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n)

    @classmethod
    def from_support(cls, n: int, kind: str, support, sign: int = 1) -> "PauliOperator":
        """Pure X- or Z-type operator on the given qubit set (repeats cancel)."""
        bits = 0
        for q in support:
            bits ^= 1 << q
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
        x = z = 0
        for i, ch in enumerate(text.upper()):
            if ch in "XY":
                x |= 1 << i
            if ch in "ZY":
                z |= 1 << i
            if ch not in "IXYZ":
                raise ValueError(f"invalid Pauli letter {ch!r}")
        return cls(len(text), x, z, sign)

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.x | self.z
        return tuple(q for q in range(self.n) if mask >> q & 1)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return not (self.x or self.z)

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        sign = self.sign * other.sign
        if (self.z & other.x).bit_count() & 1:
            sign = -sign
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z, sign)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.n == other.n
            and self.sign == other.sign
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sign, self.x, self.z))

    def __repr__(self) -> str:
        letters = "".join(
            "IXZY"[(self.x >> q & 1) + 2 * (self.z >> q & 1)] for q in range(self.n)
        )
        return ("+" if self.sign == 1 else "-") + letters


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return p.commutes_with(q)


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
        """The generators' [x|z] rows: bit q is X on qubit q, bit n + q Z on it."""
        if self._packed is None:
            n = self.n
            self._packed = gf2.BitMatrix([g.x | g.z << n for g in self.generators], 2 * n)
        return self._packed

    @property
    def rank(self) -> int:
        return gf2.rank(self.packed())

    def contains(self, op: PauliOperator, up_to_sign: bool = False) -> bool:
        """Membership; a member must match sign unless up_to_sign."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        target = op.x | op.z << self.n
        if up_to_sign:
            return gf2.in_span(self.packed(), target)
        coeffs = gf2.solve(self.packed(), target)
        if coeffs is None:
            return False
        prod = PauliOperator.identity(self.n)
        for i, g in enumerate(self.generators):
            if coeffs >> i & 1:
                prod = prod * g
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
        n = self.n
        if not self.generators:
            gens = []
            for q in range(n):
                gens.append(PauliOperator.from_support(n, "X", [q]))
                gens.append(PauliOperator.from_support(n, "Z", [q]))
            return PauliGroup(n, gens)
        swapped = gf2.BitMatrix([g.z | g.x << n for g in self.generators], 2 * n)
        low = (1 << n) - 1
        gens = [PauliOperator(n, row & low, row >> n) for row in gf2.nullspace(swapped).rows]
        return PauliGroup(n, gens)


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
    for row in inter.rows:
        if not s_span.contains(row):
            op = PauliOperator(S.n, row & ((1 << S.n) - 1), row >> S.n)
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
    css = all(not (g.x and g.z) for g in S.generators + G.generators)
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
        n = group.n
        rows = sorted(
            "".join(str(g.x >> q & 1) for q in range(n))
            + "|"
            + "".join(str(g.z >> q & 1) for q in range(n))
            for g in group.generators
        )
        lines.extend(rows)
        lines.append("")
    return "\n".join(lines)
