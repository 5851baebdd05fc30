"""Dimensional jumps on tableau states: collapse, blow-up, single-shot EC.

Collapse pipeline (per operator type and color pair):

  1. measure every inner plaquette of the pair, destructively for the inner
     block; record outcomes, flipping each with the measurement error rate
  2. repair the observed flux by matching so it has no inner endpoints
  3. read the outer syndrome off the repaired flux endpoints
  4. clear it with a minimal string correction on the outer qubits

After all pairs and both types are measured the inner block factorizes, so
the inner qubits are dropped by sign-tracked elimination and the corrections
are applied to the surviving outer code state.

Blow-up appends fresh inner qubits, runs single-shot error correction on the
inner code (it encodes nothing, so correction alone initializes it), then
re-extracts and clears the outer syndrome.

Single-shot EC on a standalone code measures one type of gauge plaquettes,
reconciles the redundant per-pair cell estimates by majority, repairs each
pair's flux against the reconciled estimate with the same T-join as the
collapse repair (`flux.t_join`), and applies an exact minimum-weight
correction for the resulting stabilizer syndrome.

The static part of that decode (dual edges, cell color pairs, frozen region
products, the stabilizer check table) is one `DualStructure` per code, built
on first use and cached on the code.

Every noiseless "measure the checks, look the syndrome up, correct" step on
a tableau (the final 2D decode, the outer reconciliation of blow-up) is one
`ideal_decode` on a `gf2.checks_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import gf2
from .boundary import boundary_structure
from .codes import CodeTriple, build_2d, build_3d, build_inner
from .colex import Colex, color_set, color_pairs
from .flux import (
    SINK,
    FluxConfiguration,
    extract_flux,
    plaquette_operator,
    repair_flux,
    string_correction,
    t_join,
)
# min_weight_table is re-exported: `jump.min_weight_table` is the name the
# benchmark's tracer wraps
from .gf2 import checks_table, min_weight_table  # noqa: F401
from .pauli import PauliOperator
from .split import SplitResult, dual_edges, split_colex
from .tableau import Tableau, from_stabilizers


# -- context ---------------------------------------------------------------------


@dataclass
class JumpContext:
    """Everything derived from one colex + facet choice, built once."""

    colex3: Colex
    split: SplitResult
    code3: CodeTriple
    code2: CodeTriple
    inner_code: CodeTriple
    duals: dict[str, tuple]
    pairs: tuple[str, ...]
    _string_cache: dict = field(default_factory=dict)
    _collapse_plan: object = None  # montecarlo.CollapsePlan, built on first use

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
    ops = []
    for basis in ("Z", "X"):
        for pair in ctx.pairs:
            for dual in ctx.duals[pair]:
                ops.append(plaquette_operator(ctx.colex3, dual.plaquette, basis))
    return ops


def encoded_3d(ctx: JumpContext, logical: str = "zero") -> Tableau:
    return encoded_state(ctx.code3, logical, inner_plaquette_priority(ctx))


# -- tableau surgery ---------------------------------------------------------------


def discard_qubits(state: Tableau, drop: list[int]) -> Tableau:
    """Project out fully determined qubits by sign-tracked elimination.

    Requires the stabilizer group to factor as (group on dropped qubits) x
    (group on the rest), which holds after the dropped block was measured
    out completely.
    """
    n = state.n
    drop_mask = sum(1 << q for q in set(drop))
    keep = [q for q in range(n) if not drop_mask >> q & 1]
    rows = [state.stabilizer_row(i) for i in range(n)]
    # eliminate dropped-qubit columns (x then z per qubit): the first unused
    # row with the bit is the pivot, and every other row with it is cleared
    used: set[int] = set()
    for q in drop:
        bit = 1 << q
        for part in ("x", "z"):
            hits = [i for i, r in enumerate(rows) if (r.x if part == "x" else r.z) & bit]
            pivot = next((i for i in hits if i not in used), None)
            if pivot is None:
                continue
            used.add(pivot)
            prow = rows[pivot]
            for i in hits:
                if i != pivot:
                    rows[i] = rows[i] * prow
    survivors = []
    for i, r in enumerate(rows):
        if i in used:
            continue
        if (r.x | r.z) & drop_mask:
            raise ValueError("dropped qubits are still entangled with the rest")
        survivors.append(
            PauliOperator(len(keep), _gather(r.x, keep), _gather(r.z, keep), r.sign)
        )
    if len(survivors) != len(keep):
        raise ValueError(
            f"restriction produced {len(survivors)} stabilizers for {len(keep)} qubits"
        )
    return from_stabilizers(survivors)


def _gather(mask: int, positions: list[int]) -> int:
    """Bit i of the result is bit positions[i] of mask."""
    return sum((mask >> q & 1) << i for i, q in enumerate(positions))


def _scatter(mask: int, positions: list[int]) -> int:
    """Bit positions[i] of the result is bit i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << positions[low.bit_length() - 1]
        mask ^= low
    return out


def embed_operator(op: PauliOperator, n_total: int, positions: list[int]) -> PauliOperator:
    """op on qubits 0..op.n-1 placed on qubits positions[0..op.n-1] of n_total."""
    return PauliOperator(
        n_total, _scatter(op.x, positions), _scatter(op.z, positions), op.sign
    )


# -- ideal decoding -----------------------------------------------------------------


def _read_syndrome(state: Tableau, n: int, checks, basis: str, positions=None) -> tuple:
    """Noiseless parities of the `basis`-type checks (1 where a check reads -1)."""
    syndrome = []
    for chk in checks:
        op = PauliOperator.from_support(n, basis, chk)
        if positions is not None:
            op = embed_operator(op, state.n, positions)
        value = state.expect(op)
        if value is None:
            raise ValueError(f"{basis} check {tuple(chk)} has no definite value")
        syndrome.append(0 if value == 1 else 1)
    return tuple(syndrome)


def ideal_decode(
    state: Tableau, n: int, checks, positions=None
) -> tuple[PauliOperator, PauliOperator]:
    """Noiseless check readout + exact minimum-weight correction, both types.

    Measures the Z then the X type of every check, looks each syndrome up in
    the check set's `checks_table` and applies the correction. `checks` and
    the returned (X, Z) corrections live on n qubits; `positions` places
    those qubits inside a larger `state`.
    """
    table = checks_table(n, checks)
    corrections = []
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        support = table[_read_syndrome(state, n, checks, meas_basis, positions)]
        op = PauliOperator.from_support(n, corr_basis, support)
        state.apply(op if positions is None else embed_operator(op, state.n, positions))
        corrections.append(op)
    return corrections[0], corrections[1]


def plaquette_checks(code: CodeTriple) -> list[tuple]:
    """The plaquette supports of a code's colex, the checks of its 2D decode."""
    return [tuple(vs) for vs, _ in code.colex.plaquettes]


def ideal_decode_2d(ctx: JumpContext, state2: Tableau) -> tuple[PauliOperator, PauliOperator]:
    """`ideal_decode` of the context's 2D code state on its plaquettes."""
    return ideal_decode(state2, ctx.n2, plaquette_checks(ctx.code2))


# -- collapse -----------------------------------------------------------------------


@dataclass
class CollapseOutcome:
    residual_state: Tableau
    applied_correction: dict[str, PauliOperator]  # correction type -> operator
    measurement_record: dict  # (pair, basis) -> {plaquette id: +-1} (as observed)
    repair_record: dict  # (pair, basis) -> (delta0 ids, gamma_eff ids, true flux ids)
    logical_flip_flags: dict[str, int | None]


def _collapse_common(
    ctx: JumpContext,
    state3: Tableau,
    meas_flip_prob: float,
    rng: np.random.Generator | None,
    use_flux_repair: bool,
    injected_flips: dict | None = None,
):
    """Shared machinery of ideal and fault-tolerant collapse."""
    record = {}
    repairs = {}
    corrections = {"X": PauliOperator.identity(ctx.n2), "Z": PauliOperator.identity(ctx.n2)}
    fluxes = {}
    for basis in ("Z", "X"):
        for pair in ctx.pairs:
            flux = extract_flux(state3, ctx.split, pair, basis, rng, ctx.duals[pair])
            fluxes[(pair, basis)] = flux
    for (pair, basis), flux in fluxes.items():
        observed = flux
        if meas_flip_prob > 0:
            flips = {
                i
                for i in range(len(flux.duals))
                if rng.random() < meas_flip_prob
            }
            observed = flux ^ flips
        if injected_flips and (pair, basis) in injected_flips:
            observed = observed ^ set(injected_flips[(pair, basis)])
        record[(pair, basis)] = {
            flux.duals[i].plaquette: (-1 if i in observed.edges else 1)
            for i in range(len(flux.duals))
        }
        if use_flux_repair:
            delta0, gamma_eff = repair_flux(observed)
            repairs[(pair, basis)] = (
                tuple(sorted(delta0)),
                tuple(sorted(gamma_eff.edges)),
                tuple(sorted(flux.edges)),
            )
            syndrome = gamma_eff.outer_endpoints()
            corr_type = "X" if basis == "Z" else "Z"
            corr = ctx.cached_string_correction(syndrome, pair, corr_type)
            corrections[corr_type] = corrections[corr_type] * corr
    drop = list(ctx.split.inner_vertices)
    outer_state = discard_qubits(state3, drop)
    return outer_state, corrections, record, repairs


def _finish_collapse(ctx, outer_state, corrections, record, repairs) -> CollapseOutcome:
    for op in corrections.values():
        outer_state.apply(op)
    flags = {}
    for kind in ("Z", "X"):
        flags[kind] = outer_state.expect(logical_operator(ctx.code2, kind))
    return CollapseOutcome(outer_state, corrections, record, repairs, flags)


def collapse(
    ctx: JumpContext,
    state3: Tableau,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    injected_flips: dict | None = None,
) -> CollapseOutcome:
    """Fault-tolerant collapse: flux extraction, matching repair, strings.

    `injected_flips` maps (pair, basis) to dual-edge indices whose recorded
    outcome is inverted, for deterministic fault-injection studies.
    """
    outer_state, corrections, record, repairs = _collapse_common(
        ctx, state3, meas_flip_prob, rng, use_flux_repair=True, injected_flips=injected_flips
    )
    return _finish_collapse(ctx, outer_state, corrections, record, repairs)


def ideal_collapse(
    ctx: JumpContext,
    state3: Tableau,
    rng: np.random.Generator | None = None,
) -> CollapseOutcome:
    """Direct collapse: read the outer syndrome, apply one restricted-gauge op.

    Not fault tolerant: a pre-existing outer error shifts the syndrome, and
    the edge-operator correction that matches it generally differs from the
    error by a logical operator.
    """
    outer_state, _, record, _ = _collapse_common(
        ctx, state3, 0.0, rng, use_flux_repair=False
    )
    corrections = {}
    checks = plaquette_checks(ctx.code2)
    table = _edge_table(ctx.code2)
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        support = table.get(_read_syndrome(outer_state, ctx.n2, checks, meas_basis))
        if support is None:
            raise ValueError("no restricted gauge operator matches the syndrome")
        corrections[corr_basis] = PauliOperator.from_support(ctx.n2, corr_basis, support)
    return _finish_collapse(ctx, outer_state, corrections, record, {})


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
    `cell_pairs` holds the color pairs of each cell's triple. On frozen
    geometries the stabilizer syndrome also reads one region product per
    region, over `region_plaquettes`; `table` is the minimum-weight table of
    the stabilizer checks (the cells, then those regions).
    """

    by_pair: dict[str, list]
    cell_pairs: list[tuple[str, ...]]
    region_plaquettes: list[tuple[int, ...]]
    table: dict


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
        code._dual_structure = DualStructure(
            by_pair, cell_pairs, region_plaquettes, checks_table(code.n, checks)
        )
    return code._dual_structure


def single_shot_ec(
    state: Tableau,
    code: CodeTriple,
    basis: str,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
    embed: list[int] | None = None,
):
    """One round of noisy gauge measurements + global repair + correction.

    `basis` is the measured plaquette type; the correction applied is of the
    dual Pauli kind (X errors flip Z plaquettes, so measuring Z yields an X
    correction).
    """
    dual = _code_dual_structure(code)
    by_pair = dual.by_pair
    positions = embed if embed is not None else list(range(code.n))
    outcomes: dict[int, int] = {}
    for pair in sorted(by_pair):
        for pi, _ in by_pair[pair]:
            op = embed_operator(
                plaquette_operator(code.colex, pi, basis), state.n, positions
            )
            value = state.measure(op, rng)
            if meas_flip_prob > 0 and rng.random() < meas_flip_prob:
                value = -value
            outcomes[pi] = value
    report = single_shot_decode(code, dual, outcomes, basis)
    state.apply(embed_operator(report.correction, state.n, positions))
    return state, report


def single_shot_decode(
    code: CodeTriple, dual: DualStructure, outcomes: dict, basis: str
) -> SingleShotReport:
    """The decode half of `single_shot_ec`, from the recorded outcomes.

    `dual` is `_code_dual_structure(code)` and `outcomes` maps every
    plaquette id to its recorded +-1. Each cell is estimated once per color
    pair in its triple (the product of that pair's plaquettes on the cell),
    the estimates are reconciled by majority, each pair's flux is repaired
    against the majority, and the correction (not applied) is the lightest
    support with the resulting stabilizer syndrome.
    """
    by_pair = dual.by_pair
    # product of each pair's recorded plaquettes on each cell, read once
    parity: dict[tuple, int] = {}
    for pair, entries in by_pair.items():
        for pi, ends in entries:
            for end in ends:
                if end != SINK:
                    parity[pair, end[1]] = parity.get((pair, end[1]), 1) * outcomes[pi]
    cell_syndrome = {}
    for ci, pairs in enumerate(dual.cell_pairs):
        votes = [parity.get((p, ci), 1) for p in pairs]
        cell_syndrome[ci] = 1 if votes.count(-1) <= len(votes) // 2 else -1

    # per-pair flux repair against the reconciled cell estimates
    repaired = dict(outcomes)
    delta0_sizes = {}
    for pair in sorted(by_pair):
        entries = by_pair[pair]
        mismatched = [
            ci
            for ci, pairs in enumerate(dual.cell_pairs)
            if pair in pairs and parity.get((pair, ci), 1) != cell_syndrome[ci]
        ]
        if not mismatched:
            delta0_sizes[pair] = 0
            continue
        # edges are entry indices, which rise with plaquette id like the
        # ids themselves, so the T-join's lowest-id tie-break is unchanged
        flips = t_join([ends for _, ends in entries], mismatched)
        delta0_sizes[pair] = len(flips)
        for i in flips:
            pi = entries[i][0]
            repaired[pi] = -repaired[pi]

    # stabilizer syndrome: cells, plus region products for frozen geometries
    syndrome_bits = list(cell_syndrome.values())
    for plaquettes in dual.region_plaquettes:
        prod = 1
        for pi in plaquettes:
            prod *= repaired[pi]
        syndrome_bits.append(prod)

    syndrome = tuple(0 if v == 1 else 1 for v in syndrome_bits)
    support = dual.table.get(syndrome)
    if support is None:
        raise ValueError("no correction matches the repaired syndrome")
    corr_type = "X" if basis == "Z" else "Z"
    correction = PauliOperator.from_support(code.n, corr_type, support)
    return SingleShotReport(outcomes, cell_syndrome, delta0_sizes, correction, syndrome)


# -- blow-up ------------------------------------------------------------------------


@dataclass
class BlowUpReport:
    inner_reports: dict
    outer_corrections: tuple
    cell_expectations: dict


def blow_up(
    ctx: JumpContext,
    state2: Tableau,
    meas_flip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Inverse jump: append fresh inner qubits, correct the inner code, and
    reconcile the outer syndrome so the joint state satisfies the 3D code."""
    n3 = ctx.n3
    # stabilizer rows: embedded outer rows + |0> inner qubits
    rows = []
    for i in range(ctx.n2):
        op = state2.stabilizer_row(i)
        rows.append(embed_operator(op, n3, ctx.split.outer_vertices))
    for v in ctx.split.inner_vertices:
        rows.append(PauliOperator.from_support(n3, "Z", [v]))
    state3 = from_stabilizers(rows)

    inner_reports = {}
    for basis in ("Z", "X"):
        state3, report = single_shot_ec(
            state3,
            ctx.inner_code,
            basis,
            meas_flip_prob,
            rng,
            embed=list(ctx.split.inner_vertices),
        )
        inner_reports[basis] = report

    # outer reconciliation: noiseless syndrome readout + exact correction
    corr_x, corr_z = ideal_decode(
        state3, ctx.n2, plaquette_checks(ctx.code2), ctx.split.outer_vertices
    )

    cell_exp = {}
    for ci in range(len(ctx.colex3.cells)):
        for basis in ("X", "Z"):
            op = PauliOperator.from_support(
                n3, basis, ctx.colex3.cell_vertices(ci)
            )
            cell_exp[(ci, basis)] = state3.expect(op)
    return state3, BlowUpReport(inner_reports, (corr_x, corr_z), cell_exp)
