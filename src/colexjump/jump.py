"""Dimensional jumps on tableau states: collapse, blow-up, single-shot EC.

Each protocol is written once, on a trial runner (see "the trial
interface" below): `_collapse`, `_blow_up`, `_single_shot_ec` and the one
"measure the checks, look the syndrome up, correct" decoder,
`_decode_checks` on a `gf2.checks_table`. `TableauTrial` runs them on a
tableau for the public `collapse`, `blow_up`, `single_shot_ec` and
`decode_checks`; `montecarlo._Frame` runs them symbolically to compile
frame programs.

Collapse, per slot (an operator type and a color pair, in
`JumpContext.slots` order): measure every inner plaquette of the pair, and
once all are measured draw the recorded flips; the inner block then
factorizes and is dropped by sign-tracked elimination. The slot's observed
pattern keys its row of `JumpContext.slot_repairs`, which `repair_slot`
(matching repair, then a minimal string correction of the outer syndrome)
fills once per pattern, and the row's string is applied to the outer code.

Blow-up appends fresh inner qubits, runs single-shot error correction on the
inner code (it encodes nothing, so correction alone initializes it), then
re-extracts and clears the outer syndrome.

Single-shot EC on a standalone code measures one type of gauge plaquettes,
reconciles the redundant per-pair cell estimates by majority, repairs each
pair's flux against the reconciled estimate with the same T-join as the
collapse repair (`flux.t_join`), and applies an exact minimum-weight
correction for the resulting stabilizer syndrome. Its static part is one
`DualStructure` per code, which holds the one single-shot decoder whole: a
table of every decode key's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, compress
from typing import NamedTuple

import numpy as np

from . import gf2
from .boundary import boundary_structure
from .codes import CodeTriple, build_2d, build_3d, build_inner
from .colex import Colex, color_set, color_pairs
from .flux import (
    SINK,
    FluxConfiguration,
    plaquette_operator,
    repair_flux,
    string_correction,
    t_join,
)
# min_weight_table is re-exported: `jump.min_weight_table` is the name the
# benchmark's tracer wraps
from .gf2 import checks_table, min_weight_table  # noqa: F401
from .noise import sample_qubit_noise
from .pauli import PauliOperator
from .split import SplitResult, dual_edges, split_colex
from .tableau import Tableau, flip_columns, from_stabilizers


# -- context ---------------------------------------------------------------------


@dataclass
class JumpContext:
    """Everything derived from one colex + facet choice, built once.

    Besides the codes, it holds what every trial reads, built on first use:
    the encoded `zero` and `plus` states trials start from and never change,
    in 2D (`states2`) and 3D (`states3`, in the reduced form of
    `encoded_3d`); the 2D code's logicals (`logicals2`), also on the outer
    qubits of the 3D state (`outer_logicals3`); its plaquette checks, for
    readout on the 2D state (`plaquettes2`) and on the outer qubits of the
    3D state (`outer_plaquettes3`); and the collapse's slot table
    (`slot_repairs`, read as one `Lookup` per slot, `slot_lookups`).
    `montecarlo` caches its compiled plans in `_plans`, by name.
    """

    colex3: Colex
    split: SplitResult
    code3: CodeTriple
    code2: CodeTriple
    inner_code: CodeTriple
    duals: dict[str, tuple]
    pairs: tuple[str, ...]
    _string_cache: dict = field(default_factory=dict)
    _plans: dict = field(default_factory=dict)  # montecarlo's plans, built on first use

    @cached_property
    def states2(self) -> dict[str, Tableau]:
        return {logical: encoded_state(self.code2, logical) for logical in ("zero", "plus")}

    @cached_property
    def states3(self) -> dict[str, Tableau]:
        return {logical: encoded_3d(self, logical) for logical in ("zero", "plus")}

    @cached_property
    def logicals2(self) -> dict[str, PauliOperator]:
        return {kind: logical_operator(self.code2, kind) for kind in ("Z", "X")}

    @cached_property
    def outer_logicals3(self) -> dict[str, PauliOperator]:
        outer = self.split.outer_vertices
        return {kind: embed_operator(op, self.n3, outer) for kind, op in self.logicals2.items()}

    @cached_property
    def plaquettes2(self) -> CheckReadout:
        return check_readout(self.n2, plaquette_checks(self.code2))

    @cached_property
    def outer_plaquettes3(self) -> CheckReadout:
        return check_readout(
            self.n2, plaquette_checks(self.code2), self.n3, self.split.outer_vertices
        )

    @cached_property
    def slots(self) -> tuple[tuple[str, str, tuple], ...]:
        """(basis, pair, duals) of every collapse slot, in measurement order:
        Z then X, pairs in `pairs` order."""
        return tuple((basis, pair, self.duals[pair]) for basis in ("Z", "X") for pair in self.pairs)

    @cached_property
    def slot_ops(self) -> tuple[tuple[PauliOperator, ...], ...]:
        """Per slot of `slots`, the plaquette operator of each of its duals."""
        return tuple(
            tuple(plaquette_operator(self.colex3, d.plaquette, basis) for d in duals)
            for basis, _, duals in self.slots
        )

    @cached_property
    def slot_repairs(self) -> tuple[tuple[SlotRepair, ...], ...]:
        """`repair_slot` of every observed pattern, per slot of `slots`:
        entry [s][pattern] repairs slot s observed with pattern's bit i set
        for each of its duals i that read -1."""

        def repairs(basis, pair, duals):
            for seen in range(1 << len(duals)):
                edges = frozenset(i for i in range(len(duals)) if seen >> i & 1)
                yield repair_slot(self, FluxConfiguration(pair, basis, edges, duals))

        return tuple(tuple(repairs(*slot)) for slot in self.slots)

    @cached_property
    def slot_lookups(self) -> tuple[Lookup, ...]:
        """Per slot, its `slot_repairs` as a `Lookup`: each pattern's string
        (of one type, so X | Z is its mask) on the outer qubits, |delta0|."""
        return tuple(
            Lookup(
                [r.correction.x | r.correction.z for r in repairs],
                self.n2,
                np.array([[len(r.delta0)] for r in repairs], dtype=np.uint8),
            )
            for repairs in self.slot_repairs
        )

    @cached_property
    def dual_count(self) -> int:
        """The duals of every slot of `slots`, counted once per slot."""
        return sum(len(duals) for _, _, duals in self.slots)

    @property
    def n3(self) -> int:
        return self.code3.n

    @property
    def n2(self) -> int:
        return self.code2.n

    def cached_string_correction(self, syndrome, pair, basis) -> PauliOperator:
        key = (tuple(sorted(syndrome)), pair, basis)
        if key not in self._string_cache:
            self._string_cache[key] = string_correction(
                self.code2, syndrome, pair, basis
            )
        return self._string_cache[key]


def make_context(colex3: Colex, facet="rgb") -> JumpContext:
    facet = color_set(facet)
    split = split_colex(colex3, facet)
    code3 = build_3d(colex3)
    code2 = build_2d(split.outer)
    inner_code = build_inner(split)
    pairs = tuple(color_pairs(facet))
    duals = {pair: tuple(dual_edges(split, pair)) for pair in pairs}
    return JumpContext(colex3, split, code3, code2, inner_code, duals, pairs)


# -- the trial interface ----------------------------------------------------------

# Every step of a protocol that reads data goes through its trial runner:
# rate draws (`noise`, `flips`), measurements and reads (`measure`, `read`),
# table reads that apply their row (`look_up`, on a `Lookup`), and the
# discard and blow-up surgery (`discard`, `blown_up`). A bit is an int that
# XORs: 0 or 1 on `TableauTrial`, an affine form on `montecarlo._Frame`. No
# protocol branches on a bit, so one run on a `_Frame` compiles a trial.


class Lookup:
    """A table a trial reads by a key of bits: row k's correction as an int
    mask on `width` qubits (`masks[k]`), as the operator the concrete
    runner applies (`operator`), as a dense 0/1 row (`bits`, built on first
    use for the symbolic runner), and its |delta0| sizes (`sizes`, None
    for a plain decode), which the batch statistics read."""

    def __init__(self, masks: list[int], width: int, sizes=None, bits=None):
        self.masks, self.width, self.sizes = masks, width, sizes
        self._operators = {}
        if bits is not None:
            self.bits = bits

    def operator(self, k: int, basis: str, n: int, positions=None) -> PauliOperator:
        """Row k as a `basis`-type operator on n qubits, placed on
        `positions` (None: qubits 0, 1, ...), built once."""
        key = k, basis, n, positions
        op = self._operators.get(key)
        if op is None:
            mask = self.masks[k]
            if positions is not None:
                mask = _spread(mask, _runs(list(positions)))
            op = PauliOperator(n, mask, 0) if basis == "X" else PauliOperator(n, 0, mask)
            self._operators[key] = op
        return op

    @cached_property
    def bits(self) -> np.ndarray:
        table = np.zeros((len(self.masks), self.width), dtype=np.uint8)
        for k, mask in enumerate(self.masks):
            table[k, _set_bits(mask)] = 1
        return table


class TableauTrial:
    """The concrete trial runner: a `Tableau` (`state`) and what it draws
    from (`rng`: a generator, a `noise.TrialStream`, or None for a trial
    that draws nothing, where a random outcome raises). Bits are 0 or 1."""

    __slots__ = ("state", "rng")

    def __init__(self, state: Tableau, rng=None):
        self.state, self.rng = state, rng

    def noise(self, p: float) -> tuple[int, int]:
        """Apply X then Z noise at rate p on every qubit; returns its masks."""
        ex, ez = sample_qubit_noise(p, self.state.n, self.rng)
        if ex or ez:
            self.state.apply(PauliOperator(self.state.n, ex, ez))
        return ex, ez

    def flips(self, rate: float, count: int) -> list[int]:
        """`count` bits at `rate`, one word each (one alone as a float, the
        same word, cheaper); no draw at rate 0."""
        if rate <= 0:
            return [0] * count
        if count == 1:
            return [1 if self.rng.random() < rate else 0]
        return [1 if u < rate else 0 for u in self.rng.random(count).tolist()]

    def measure(self, op: PauliOperator) -> bool:
        """The outcome bit (True for -1) of measuring op."""
        return self.state.measure(op, self.rng) < 0

    def read(self, op: PauliOperator) -> bool:
        """The bit of a check that the state holds a value of."""
        value = self.state.expect(op)
        if value is None:
            raise ValueError(f"check {op!r} has no definite value")
        return value < 0

    def look_up(self, key: list[int], table: Lookup, basis: str, positions=None) -> int:
        """Apply row `key` (bit i = key[i]) of `table` as a `basis`-type
        correction, placed on `positions` of the state; returns the row."""
        k = 0
        for i, bit in enumerate(key):
            if bit:
                k |= 1 << i
        if table.masks[k]:
            self.state.apply(table.operator(k, basis, self.state.n, positions))
        return k

    def discard(self, drop) -> "TableauTrial":
        """The trial on the kept qubits, after `discard_qubits`."""
        return TableauTrial(discard_qubits(self.state, list(drop)), self.rng)

    def blown_up(self, ctx: JumpContext) -> "TableauTrial":
        """The trial on the context's 3D qubits, fresh inner qubits added."""
        return TableauTrial(_tensor_inner(ctx, self.state), self.rng)


def _set_bits(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


# -- encoded states ---------------------------------------------------------------


def logical_operator(code: CodeTriple, kind: str) -> PauliOperator:
    return PauliOperator.from_support(code.n, kind, range(code.n))


def encoded_state(
    code: CodeTriple,
    logical: str = "zero",
    gauge_priority: list[PauliOperator] | None = None,
) -> Tableau:
    """Deterministic encoded state: stabilizers, one logical, gauge fixing.

    The stabilizer set is completed to full rank by a first-fit sweep over
    commuting gauge generators; `gauge_priority` operators are offered first
    (the collapse context passes inner plaquettes here so freshly prepared
    states carry trivial flux).
    """
    rows: list[PauliOperator] = list(code.S.generators)
    if logical == "zero":
        rows.append(logical_operator(code, "Z"))
    elif logical == "plus":
        rows.append(logical_operator(code, "X"))
    elif logical is not None and code.L.generators:
        raise ValueError(f"unknown logical state {logical!r}")
    candidates = list(gauge_priority or []) + list(code.G.generators)

    n = code.n
    kept: list[PauliOperator] = []
    ech = gf2.Echelon(2 * n)
    for op in rows:
        if not ech.add(op.x | op.z << n):
            raise ValueError("stabilizer/logical rows are dependent")
        kept.append(op)
    for op in candidates:
        if len(kept) == n:
            break
        if any(not op.commutes_with(r) for r in kept):
            continue
        if ech.add(op.x | op.z << n):
            kept.append(op)
    if len(kept) != n:
        raise ValueError(
            f"could not complete stabilizer set: {len(kept)} of {n} rows"
        )
    return from_stabilizers(kept)


def inner_plaquette_priority(ctx: JumpContext) -> list[PauliOperator]:
    """Inner pair-plaquette operators, measured order, both types."""
    return [op for ops in ctx.slot_ops for op in ops]


def encoded_3d(ctx: JumpContext, logical: str = "zero") -> Tableau:
    """The encoded 3D state (`encoded_state`, inner plaquettes fixed first),
    its stabilizer rows in the reduced form the collapse's discard leaves:
    the discard's own elimination (`_eliminate`) runs once here, carrying
    each destabilizer partner along, so every pivot column of that discard
    is held by its pivot row alone. Pauli noise and the collapse's
    determinate measurements change only signs, so a trial's discard then
    makes no row product.
    """
    state = encoded_state(ctx.code3, logical, inner_plaquette_priority(ctx))
    n, drop = state.n, list(ctx.split.inner_vertices)
    dxs, dzs, dsigns = state.xs[:n], state.zs[:n], state.signs[:n]
    xs, zs, signs, _ = _eliminate(state, drop, sum(1 << q for q in drop), (dxs, dzs, dsigns))
    return Tableau(n, dxs + xs, dzs + zs, dsigns + signs)


# -- tableau surgery ---------------------------------------------------------------


def _eliminate(state: Tableau, drop, drop_mask: int, partners=None) -> tuple:
    """Gauss-Jordan elimination of the dropped qubits' columns (x then z per
    qubit of `drop`, in order) on copies of the stabilizer rows of `state`;
    returns the rows (xs, zs, signs) and the mask of the pivot rows. The
    lowest unused row with the bit is the pivot, and every other row with
    it becomes its product with the pivot (X-left sign rule, as in
    `Tableau.measure`). With `partners`, lists of the destabilizer rows
    (xs, zs, signs), each S_i <- S_i S_p also does D_p <- D_p D_i there,
    keeping <D_j, S_k> = delta_jk.
    """
    n = state.n
    xs, zs, signs = state.xs[n:], state.zs[n:], state.signs[n:]
    # the rows that hold each dropped qubit's X / Z bit, kept up to date
    xcol = {q: state.xcol[q] >> n for q in drop}
    zcol = {q: state.zcol[q] >> n for q in drop}
    used = 0
    for q in drop:
        for col in (xcol, zcol):
            hits = col[q]
            free = hits & ~used
            if not free:
                continue
            bit = free & -free
            used |= bit
            rest = hits ^ bit
            if not rest:
                continue
            pivot = bit.bit_length() - 1
            px, pz, ps = xs[pivot], zs[pivot], signs[pivot]
            flip_columns(xcol, px & drop_mask, rest)
            flip_columns(zcol, pz & drop_mask, rest)
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                sign = signs[i] * ps
                signs[i] = -sign if (zs[i] & px).bit_count() & 1 else sign
                xs[i] ^= px
                zs[i] ^= pz
                if partners is not None:
                    dxs, dzs, dsigns = partners
                    sign = dsigns[pivot] * dsigns[i]
                    dsigns[pivot] = -sign if (dzs[pivot] & dxs[i]).bit_count() & 1 else sign
                    dxs[pivot] ^= dxs[i]
                    dzs[pivot] ^= dzs[i]
    return xs, zs, signs, used


def discard_qubits(state: Tableau, drop: list[int]) -> Tableau:
    """Project out fully determined qubits by sign-tracked elimination.

    Requires the stabilizer group to factor as (group on dropped qubits) x
    (group on the rest), as after the dropped block was measured out. Every
    index in `drop` must lie in [0, n), and at least one qubit must stay.
    The rows `_eliminate` leaves free of the dropped qubits, restricted to
    the kept ones, are the new stabilizers, each with its destabilizer
    restricted too; a symplectic Gram-Schmidt (D_j <- D_j S_i where D_j
    anticommutes with D_i, i < j) restores the destabilizers' commutation.
    No synthesis runs; destabilizer signs, which nothing reads, are +1.
    """
    n = state.n
    drop_mask, runs = _discard_layout(n, tuple(drop))
    xs, zs, signs, used = _eliminate(state, drop, drop_mask)
    dxs, dzs = state.xs, state.zs
    sx, sz, dx, dz, ss = [], [], [], [], []
    for i in range(n):
        if used >> i & 1:
            continue
        x, z = xs[i], zs[i]
        if (x | z) & drop_mask:
            raise ValueError("dropped qubits are still entangled with the rest")
        # the survivor and its destabilizer, restricted to the kept qubits
        a = b = c = d = 0
        for q, low, j in runs:
            a |= (x >> q & low) << j
            b |= (z >> q & low) << j
            c |= (dxs[i] >> q & low) << j
            d |= (dzs[i] >> q & low) << j
        sx.append(a)
        sz.append(b)
        dx.append(c)
        dz.append(d)
        ss.append(signs[i])
    k = n - drop_mask.bit_count()
    if len(sx) != k:
        raise ValueError(f"restriction produced {len(sx)} stabilizers for {k} qubits")
    for j in range(1, k):
        x, z = dx[j], dz[j]
        for i in range(j):
            if ((x & dz[i]) ^ (z & dx[i])).bit_count() & 1:
                dx[j] ^= sx[i]
                dz[j] ^= sz[i]
    return Tableau(k, dx + sx, dz + sz, [1] * k + ss)


@lru_cache(maxsize=64)
def _discard_layout(n: int, drop: tuple) -> tuple[int, list]:
    """The mask of the qubits `discard_qubits` drops from an n-qubit state
    and the `_runs` of those it keeps, checked and built once per layout."""
    bad = [q for q in drop if not 0 <= q < n]
    if bad:
        raise ValueError(f"qubits {bad} to discard lie outside [0, {n})")
    drop_mask = sum(1 << q for q in set(drop))
    keep = [q for q in range(n) if not drop_mask >> q & 1]
    if not keep:
        raise ValueError(f"cannot discard all {n} qubits: no state would remain")
    return drop_mask, _runs(keep)


def _runs(positions: list[int]) -> list[tuple[int, int, int]]:
    """(first position, low-bits mask, first index) of each run of
    consecutive rising positions."""
    runs: list[list[int]] = []
    for i, q in enumerate(positions):
        if runs and runs[-1][0] + runs[-1][1] == q:
            runs[-1][1] += 1
        else:
            runs.append([q, 1, i])
    return [(q, (1 << width) - 1, i) for q, width, i in runs]


def _spread(mask: int, runs: list[tuple[int, int, int]]) -> int:
    """Bit positions[i] of the result is bit i of mask, for the `_runs` of
    positions."""
    out = 0
    for q, low, i in runs:
        out |= (mask >> i & low) << q
    return out


def embed_operator(op: PauliOperator, n_total: int, positions) -> PauliOperator:
    """op on qubits 0..op.n-1 placed on qubits positions[0..op.n-1] of n_total."""
    runs = _runs(list(positions))
    return PauliOperator(n_total, _spread(op.x, runs), _spread(op.z, runs), op.sign)


# -- ideal decoding -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckReadout:
    """A check set compiled once for noiseless readout and correction.

    The checks live on `n` qubits, which `positions` places inside the
    state they read (None: the state is those n qubits). `ops[basis]` holds
    every check as a `basis`-type operator on that state, and `lookup` the
    check set's `checks_table` as a `Lookup` keyed by the packed syndrome
    (rows of no syndrome are 0).
    """

    n: int
    ops: dict
    positions: tuple | None
    lookup: Lookup = field(compare=False, repr=False)


def check_readout(n: int, checks, n_state: int | None = None, positions=None) -> CheckReadout:
    """Compile `checks` on n qubits, placed on `positions` of n_state qubits."""
    where = range(n) if positions is None else positions
    ops = {
        basis: tuple(
            embed_operator(PauliOperator.from_support(n, basis, chk), n_state or n, where)
            for chk in checks
        )
        for basis in ("Z", "X")
    }
    masks = [0] * (1 << len(checks))
    for syndrome, support in checks_table(n, checks).items():
        masks[sum(bit << i for i, bit in enumerate(syndrome))] = sum(1 << q for q in support)
    placed_on = None if positions is None else tuple(positions)
    return CheckReadout(n, ops, placed_on, Lookup(masks, n))


def _decode_checks(trial, readout: CheckReadout) -> list[int]:
    """Read the Z then the X checks, and apply the correction each syndrome
    looks up (X for Z checks); returns the two rows (None when symbolic)."""
    return [
        trial.look_up(
            [trial.read(op) for op in readout.ops[meas_basis]],
            readout.lookup,
            corr_basis,
            readout.positions,
        )
        for meas_basis, corr_basis in (("Z", "X"), ("X", "Z"))
    ]


def decode_checks(state: Tableau, readout: CheckReadout) -> tuple[PauliOperator, PauliOperator]:
    """Measure the Z then the X type of every compiled check, look each
    syndrome up in the check set's table and apply the correction; returns
    the (X, Z) corrections on the checks' n qubits."""
    kx, kz = _decode_checks(TableauTrial(state), readout)
    return readout.lookup.operator(kx, "X", readout.n), readout.lookup.operator(kz, "Z", readout.n)


def plaquette_checks(code: CodeTriple) -> list[tuple]:
    """The plaquette supports of a code's colex, the checks of its 2D decode."""
    return [tuple(vs) for vs, _ in code.colex.plaquettes]


def ideal_decode_2d(ctx: JumpContext, state2: Tableau) -> tuple[PauliOperator, PauliOperator]:
    """`decode_checks` of the context's 2D code state on its plaquettes."""
    return decode_checks(state2, ctx.plaquettes2)


# -- collapse -----------------------------------------------------------------------


@dataclass
class CollapseOutcome:
    residual_state: Tableau
    applied_correction: dict[str, PauliOperator]  # correction type -> operator
    measurement_record: dict  # (pair, basis) -> {plaquette id: +-1} (as observed)
    repair_record: dict  # (pair, basis) -> (delta0 ids, gamma_eff ids, true flux ids)
    logical_flip_flags: dict[str, int | None]


class SlotRepair(NamedTuple):
    """One collapse slot's repair of its observed flux."""

    delta0: tuple  # sorted dual indices the repair flips
    gamma_eff: tuple  # sorted dual indices of the repaired flux
    kind: str  # type of the string correction, "X" or "Z"
    correction: PauliOperator  # the string correction on the outer qubits
    record: dict  # plaquette id -> observed +-1


def repair_slot(ctx: JumpContext, observed: FluxConfiguration) -> SlotRepair:
    """The collapse step of one slot after its measurement: repair the
    observed flux by matching, then clear the outer endpoints of the
    repaired flux with a string of the dual type."""
    delta0, gamma_eff = repair_flux(observed)
    kind = "X" if observed.basis == "Z" else "Z"
    corr = ctx.cached_string_correction(gamma_eff.outer_endpoints(), observed.pair, kind)
    return SlotRepair(
        tuple(sorted(delta0)), tuple(sorted(gamma_eff.edges)), kind, corr, observed.record()
    )


def _measure_slots(ctx: JumpContext, trial) -> list[int]:
    """The outcome bits of every slot's duals, in `ctx.slots` order."""
    measure = trial.measure
    return [measure(op) for ops in ctx.slot_ops for op in ops]


def _collapse(ctx: JumpContext, trial, meas_flip_prob=0.0, injected_flips=None) -> tuple:
    """The collapse protocol on a trial runner; returns the runner on the
    outer qubits, the outcome bits of `_measure_slots`, and per slot the
    row of its slot table it read (None on a symbolic trial). Every slot is
    measured before the flips are drawn, one word per dual in slot order;
    the inner block is discarded, then each slot's observed pattern keys
    its `ctx.slot_lookups` row, whose string is applied to the outer code."""
    measured = _measure_slots(ctx, trial)
    flips = trial.flips(meas_flip_prob, ctx.dual_count)
    seen = [bit ^ flip for bit, flip in zip(measured, flips)]
    outer = trial.discard(ctx.split.inner_vertices)
    rows, lo = [], 0
    for (basis, pair, duals), table in zip(ctx.slots, ctx.slot_lookups):
        key, lo = seen[lo : lo + len(duals)], lo + len(duals)
        if injected_flips and (pair, basis) in injected_flips:
            injected = set(injected_flips[(pair, basis)])
            if not injected <= set(range(len(duals))):
                raise ValueError(
                    f"injected flips {sorted(injected)} of {pair}:{basis} leave its "
                    f"{len(duals)} duals"
                )
            for i in injected:
                key[i] ^= 1
        rows.append(outer.look_up(key, table, "X" if basis == "Z" else "Z"))
    return outer, measured, rows


def _finish_collapse(ctx, outer_state, corrections, record, repairs) -> CollapseOutcome:
    for op in corrections.values():
        outer_state.apply(op)
    return CollapseOutcome(outer_state, corrections, record, repairs, _flags(ctx, outer_state))


def _flags(ctx: JumpContext, outer_state: Tableau) -> dict:
    return {kind: outer_state.expect(ctx.logicals2[kind]) for kind in ("Z", "X")}


def collapse(
    ctx: JumpContext,
    state3: Tableau,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    injected_flips: dict | None = None,
) -> CollapseOutcome:
    """Fault-tolerant collapse (`_collapse` on a `TableauTrial`), reported
    from `ctx.slot_repairs`. `injected_flips` maps (pair, basis) to
    dual-edge indices whose recorded outcome is inverted, for deterministic
    fault-injection studies."""
    trial = TableauTrial(state3, rng)
    outer, measured, rows = _collapse(ctx, trial, meas_flip_prob, injected_flips)
    record, repairs = {}, {}
    # string corrections are +1 strings of their slot's type, which commute,
    # so each type's product is the XOR of their masks, with sign +1
    applied = {"X": 0, "Z": 0}
    lo = 0
    for (basis, pair, duals), table, k in zip(ctx.slots, ctx.slot_repairs, rows):
        r = table[k]
        record[pair, basis] = dict(r.record)  # the caller's own copy
        true = tuple(compress(range(len(duals)), measured[lo : lo + len(duals)]))
        repairs[pair, basis] = r.delta0, r.gamma_eff, true
        applied[r.kind] ^= r.correction.x | r.correction.z
        lo += len(duals)
    x, z = applied["X"], applied["Z"]
    corrections = {"X": PauliOperator(ctx.n2, x=x), "Z": PauliOperator(ctx.n2, z=z)}
    return CollapseOutcome(outer.state, corrections, record, repairs, _flags(ctx, outer.state))


def ideal_collapse(
    ctx: JumpContext,
    state3: Tableau,
    rng: np.random.Generator | None = None,
) -> CollapseOutcome:
    """Direct collapse: read the outer syndrome, apply one restricted-gauge
    op. Not fault tolerant: a pre-existing outer error shifts the syndrome,
    and the matching edge-operator correction generally differs from the
    error by a logical operator."""
    trial = TableauTrial(state3, rng)
    bits = iter(_measure_slots(ctx, trial))
    record = {
        (pair, basis): {d.plaquette: -1 if next(bits) else 1 for d in duals}
        for basis, pair, duals in ctx.slots
    }
    outer = trial.discard(ctx.split.inner_vertices)
    corrections = {}
    table = _edge_table(ctx.code2)
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        syndrome = tuple(outer.read(op) for op in ctx.plaquettes2.ops[meas_basis])
        support = table.get(syndrome)
        if support is None:
            raise ValueError("no restricted gauge operator matches the syndrome")
        corrections[corr_basis] = PauliOperator.from_support(ctx.n2, corr_basis, support)
    return _finish_collapse(ctx, outer.state, corrections, record, {})


def _edge_table(code2: CodeTriple) -> dict:
    """Plaquette syndrome -> qubit support of the lightest product of edges.

    The checks of the table are the plaquette parities over the edge indices;
    each chosen edge contributes its two qubits, in edge order.
    """
    edges = code2.colex.edges
    checks = [
        [ei for ei, (a, b, _) in enumerate(edges) if len({a, b} & set(chk)) % 2]
        for chk in plaquette_checks(code2)
    ]
    return {
        syndrome: tuple(v for ei in combo for v in edges[ei][:2])
        for syndrome, combo in checks_table(len(edges), checks).items()
    }


# -- single-shot error correction ---------------------------------------------------


@dataclass
class SingleShotReport:
    outcomes: dict  # (pair,) plaquette id -> recorded +-1
    cell_estimates: dict
    delta0_sizes: dict
    correction: PauliOperator
    syndrome: tuple


@dataclass
class DualStructure:
    """Static single-shot structure of a standalone code, built once per code.

    `by_pair` maps each color pair to its dual edges, (plaquette id, its two
    ends), rising with plaquette id: a plaquette joins its adjacent cells,
    and a boundary plaquette, with fewer than two cells, ends at the sink.
    `ends` holds each pair's column of ends as the tuple `flux.t_join` takes.
    `cell_pairs` holds the color pairs of each cell's triple. On frozen
    geometries the stabilizer syndrome also reads one region product per
    region, over `region_plaquettes`; `table` is the minimum-weight table of
    the stabilizer checks (the cells, then those regions).

    A round is measured in `order` (by color pair, then plaquette id). Its
    `key_bits`-wide decode key holds all the decode reads: per (pair, cell)
    that a plaquette end touches (`cell_bits`) that pair's outcome product
    on the cell, then each region's raw product; a -1 outcome of plaquette
    pi toggles `key_masks[pi]` (twice a bit of a cell holding both of its
    ends, as its outcome cancels in the product). Row `key` of the decode
    table holds its correction bits (`corrections`), |delta0| per sorted
    color pair (`delta0_sizes`) and syndrome (`syndromes`), zero outside
    the span of the key masks; `lookup` is the `Lookup` a round reads, and
    `placed` each placement of the measured plaquettes.
    """

    by_pair: dict[str, list]
    ends: dict[str, tuple]
    cell_pairs: list[tuple[str, ...]]
    region_plaquettes: list[tuple[int, ...]]
    table: dict
    order: list[int]
    cell_bits: dict[tuple, int]
    key_masks: dict[int, int]
    key_bits: int
    corrections: np.ndarray = field(init=False)
    delta0_sizes: np.ndarray = field(init=False)
    syndromes: np.ndarray = field(init=False)
    lookup: Lookup = field(init=False, repr=False)
    placed: dict = field(init=False, default_factory=dict, compare=False, repr=False)


def _code_dual_structure(code: CodeTriple) -> DualStructure:
    """The code's `DualStructure`, built on first use and cached on it."""
    if code._dual_structure is None:
        colex = code.colex
        colex._build_indexes()
        structure = boundary_structure(colex)
        by_pair: dict[str, list] = {}
        for pi in range(len(colex.plaquettes)):
            pair = colex.plaquette_colors(pi)
            ends = tuple(("cell", c) for c in colex.plaquette_cells[pi])
            by_pair.setdefault(pair, []).append((pi, ends + (SINK,) * (2 - len(ends))))
        cell_pairs = [
            tuple(color_set(p) for p in combinations(cs, 2)) for _, cs in colex.cells
        ]
        checks: list[tuple] = [tuple(vs) for vs, _ in colex.cells]
        region_plaquettes = []
        if all(r.classification == "frozen" for r in structure.regions):
            y = next(iter({c.color for c in structure.corners}))
            for region in structure.regions:
                pair = color_set(set(region.colors) - {y})
                region_plaquettes.append(
                    tuple(pi for pi in region.plaquettes if colex.plaquette_colors(pi) == pair)
                )
                checks.append(tuple(sorted(region.vertices)))
        ends = {pair: tuple(e for _, e in entries) for pair, entries in by_pair.items()}
        order = [pi for pair in sorted(by_pair) for pi, _ in by_pair[pair]]
        cell_bits: dict[tuple, int] = {}
        key_masks = dict.fromkeys(order, 0)
        for pair, entries in by_pair.items():
            for pi, pi_ends in entries:
                for end in pi_ends:
                    if end != SINK:
                        bit = cell_bits.setdefault((pair, end[1]), len(cell_bits))
                        key_masks[pi] ^= 1 << bit
        for j, plaquettes in enumerate(region_plaquettes):
            for pi in plaquettes:
                key_masks[pi] ^= 1 << (len(cell_bits) + j)
        dual = DualStructure(
            by_pair,
            ends,
            cell_pairs,
            region_plaquettes,
            checks_table(code.n, checks),
            order,
            cell_bits,
            key_masks,
            len(cell_bits) + len(region_plaquettes),
        )
        dual.corrections, dual.delta0_sizes, dual.syndromes = _decode_every_key(dual, code.n)
        packed = np.packbits(dual.corrections, axis=1, bitorder="little")
        masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        dual.lookup = Lookup(masks, code.n, dual.delta0_sizes, dual.corrections)
        code._dual_structure = dual
    return code._dual_structure


def _decode_every_key(dual: DualStructure, n: int) -> tuple[np.ndarray, ...]:
    """The decode tables of `dual` over every key in the span of its key
    masks. Each cell is estimated once per color pair in its triple (that
    pair's key bit on the cell), the estimates are reconciled by majority,
    and each pair's flux is repaired against the majority, one `t_join` per
    distinct set of mismatched cells. The syndrome is the majority cells,
    then each region's raw product times the region bits of the plaquettes
    the repairs flip; the correction is its stabilizer table entry."""
    keys = np.zeros(1, dtype=np.int64)
    span = gf2.Echelon(dual.key_bits)
    for mask in dual.key_masks.values():
        if span.add(mask):
            keys = np.concatenate([keys, keys ^ mask])
    # 1 where the pair's product on the cell reads -1 (+1 with no plaquette there)
    zero = np.zeros_like(keys)
    parity = {cell: keys >> bit & 1 for cell, bit in dual.cell_bits.items()}
    votes = [[parity.get((p, ci), zero) for p in pairs] for ci, pairs in enumerate(dual.cell_pairs)]
    estimates = np.array([sum(v) > len(v) // 2 for v in votes], dtype=np.int64).T
    shift = len(dual.cell_bits)  # where a key's region bits start
    regions = keys >> shift
    sizes = []
    for pair in sorted(dual.by_pair):
        mismatched = zero.copy()  # bit ci: the pair's parity on cell ci is outvoted
        for ci, pairs in enumerate(dual.cell_pairs):
            if pair in pairs:
                mismatched |= (parity.get((pair, ci), zero) ^ estimates[:, ci]) << ci
        masks, at = np.unique(mismatched, return_inverse=True)
        repairs = []  # (|delta0|, region bits it flips) per distinct mismatch
        for mask in masks.tolist():
            # edges are entry indices, which rise with plaquette id like the
            # ids themselves, so the T-join's lowest-id tie-break is unchanged
            cells = [ci for ci in range(mask.bit_length()) if mask >> ci & 1]
            flips = t_join(dual.ends[pair], cells) if cells else ()
            moved = 0
            for i in flips:
                moved ^= dual.key_masks[dual.by_pair[pair][i][0]] >> shift
            repairs.append((len(flips), moved))
        size, moved = np.array(repairs, dtype=np.int64)[at].T
        sizes.append(size)
        regions ^= moved
    region_bits = regions[:, None] >> np.arange(len(dual.region_plaquettes)) & 1
    found = np.concatenate([estimates, region_bits], axis=1)
    packed = found @ (1 << np.arange(found.shape[1], dtype=np.int64))
    _, first, at = np.unique(packed, return_index=True, return_inverse=True)
    corrections = np.zeros((len(first), n), dtype=np.uint8)
    for j, syndrome in enumerate(found[first].tolist()):
        support = dual.table.get(tuple(syndrome))
        if support is None:
            raise ValueError("no correction matches the repaired syndrome")
        corrections[j, list(support)] = 1

    def dense(values):  # one row per key; rows outside the span stay 0
        table = np.zeros((1 << dual.key_bits, values.shape[1]), dtype=np.uint8)
        table[keys] = values
        return table

    return dense(corrections[at]), dense(np.stack(sizes, axis=1)), dense(found)


def _single_shot_ec(trial, code: CodeTriple, basis: str, meas_flip_prob, positions=None):
    """One single-shot round on a trial runner: measure the code's `basis`
    plaquettes, each followed by its flip draw, then apply the decode
    table's correction (of the dual kind) for the round's key. The code
    sits on `positions` of the trial's qubits (None: all of them, in
    order). Returns the recorded bits, in `order`, and the row read."""
    dual, n = _code_dual_structure(code), trial.state.n
    placed = dual.placed.get((basis, n, positions))
    if placed is None:
        ops = (plaquette_operator(code.colex, pi, basis) for pi in dual.order)
        placed = tuple(embed_operator(op, n, positions or range(code.n)) for op in ops)
        dual.placed[basis, n, positions] = placed
    key = [0] * dual.key_bits
    bits = []
    for pi, op in zip(dual.order, placed):
        bit = trial.measure(op) ^ trial.flips(meas_flip_prob, 1)[0]
        for b in _set_bits(dual.key_masks[pi]):
            key[b] ^= bit
        bits.append(bit)
    # measuring Z plaquettes finds X errors: the correction is of the dual kind
    return bits, trial.look_up(key, dual.lookup, "X" if basis == "Z" else "Z", positions)


def single_shot_ec(
    state: Tableau,
    code: CodeTriple,
    basis: str,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    embed: list[int] | None = None,
):
    """One round of noisy gauge measurements + global repair + correction
    (`_single_shot_ec` on a `TableauTrial`, reported by `single_shot_decode`).
    `basis` is the measured plaquette type; the correction applied is of the
    dual Pauli kind (X errors flip Z plaquettes)."""
    positions = None if embed is None else tuple(embed)
    bits, _ = _single_shot_ec(TableauTrial(state, rng), code, basis, meas_flip_prob, positions)
    dual = _code_dual_structure(code)
    outcomes = {pi: -1 if bit else 1 for pi, bit in zip(dual.order, bits)}
    return state, single_shot_decode(code, dual, outcomes, basis)


def single_shot_decode(
    code: CodeTriple, dual: DualStructure, outcomes: dict, basis: str
) -> SingleShotReport:
    """The decode half of `single_shot_ec`, from the recorded outcomes.

    `dual` is `_code_dual_structure(code)` and `outcomes` maps every
    plaquette id to its recorded +-1. The outcomes reach the decoder only
    through their decode key, whose row of the decode table is the report;
    the correction is not applied.
    """
    key = 0
    for pi in dual.order:
        if outcomes[pi] < 0:
            key ^= dual.key_masks[pi]
    syndrome = tuple(dual.syndromes[key].tolist())
    cells = {ci: -1 if bit else 1 for ci, bit in enumerate(syndrome[: len(dual.cell_pairs)])}
    delta0_sizes = dict(zip(sorted(dual.by_pair), dual.delta0_sizes[key].tolist()))
    correction = dual.lookup.operator(key, "X" if basis == "Z" else "Z", code.n)
    return SingleShotReport(outcomes, cells, delta0_sizes, correction, syndrome)


# -- blow-up ------------------------------------------------------------------------


def _tensor_inner(ctx: JumpContext, state2: Tableau) -> Tableau:
    """embed(state2) x |0...0> on the context's 3D qubits, a tensor product
    and so is its tableau (Aaronson & Gottesman, quant-ph/0406196): state2's
    rows, with their signs, on the outer qubits, then X_v and +Z_v as the
    destabilizer and stabilizer of each inner qubit v. No synthesis runs."""
    n2, n3 = ctx.n2, ctx.n3
    outer, inner = ctx.split.outer_vertices, ctx.split.inner_vertices
    m = len(inner)
    runs = _runs(outer)
    xs = [_spread(x, runs) for x in state2.xs]
    zs = [_spread(z, runs) for z in state2.zs]
    fresh, none = [1 << v for v in inner], [0] * m
    signs = state2.signs
    # columns: state2's stabilizer row bits move up past the m new
    # destabilizer rows; inner qubit j holds row n2 + j's X, row n3 + n2 + j's Z
    low = (1 << n2) - 1
    xcol, zcol = [0] * n3, [0] * n3
    for q, v in enumerate(outer):
        c = state2.xcol[q]
        xcol[v] = c & low | c >> n2 << n2 + m
        c = state2.zcol[q]
        zcol[v] = c & low | c >> n2 << n2 + m
    for j, v in enumerate(inner):
        xcol[v] = 1 << n2 + j
        zcol[v] = 1 << n3 + n2 + j
    return Tableau._of(
        n3,
        xs[:n2] + fresh + xs[n2:] + none,
        zs[:n2] + none + zs[n2:] + fresh,
        signs[:n2] + [1] * m + signs[n2:] + [1] * m,
        xcol,
        zcol,
    )


def _blow_up(ctx: JumpContext, trial, meas_flip_prob=0.0):
    """The blow-up protocol on a trial runner; returns the runner on the 3D
    qubits: fresh inner qubits, one single-shot round of each type on the
    inner code, then the outer reconciliation."""
    trial, inner = trial.blown_up(ctx), tuple(ctx.split.inner_vertices)
    for basis in ("Z", "X"):
        _single_shot_ec(trial, ctx.inner_code, basis, meas_flip_prob, inner)
    # outer reconciliation: noiseless syndrome readout + exact correction
    _decode_checks(trial, ctx.outer_plaquettes3)
    return trial


def blow_up(
    ctx: JumpContext,
    state2: Tableau,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tableau:
    """Inverse jump: append fresh inner qubits, correct the inner code, and
    reconcile the outer syndrome so the joint state satisfies the 3D code;
    returns the 3D state (`_blow_up` on a `TableauTrial`)."""
    return _blow_up(ctx, TableauTrial(state2, rng), meas_flip_prob).state
