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
pair's flux against the reconciled estimate, and applies an exact
minimum-weight correction for the resulting stabilizer syndrome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .boundary import boundary_structure
from .codes import CodeTriple, build_2d, build_3d, build_inner
from .colex import Colex, color_set, color_pairs
from .flux import (
    FluxConfiguration,
    extract_flux,
    plaquette_operator,
    repair_flux,
    string_correction,
)
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
    _decode_tables: dict = field(default_factory=dict)
    _string_cache: dict = field(default_factory=dict)
    _collapse_plan: object = None  # montecarlo.CollapsePlan, built on first use

    @property
    def n3(self) -> int:
        return self.code3.n

    @property
    def n2(self) -> int:
        return self.code2.n

    def outer_qubit(self, parent_vertex: int) -> int:
        return self.split.outer_index[parent_vertex]

    def decode_table(self) -> dict:
        """The outer code's 2D decode table, built on first use."""
        if "2d" not in self._decode_tables:
            self._decode_tables["2d"] = decode_table_2d(self.code2)
        return self._decode_tables["2d"]

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

    from . import gf2

    kept: list[PauliOperator] = []
    ech = gf2.Echelon(2 * code.n)
    for op in rows:
        if not ech.add(gf2.pack_rows(op.symplectic(), 2 * code.n).row(0)):
            raise ValueError("stabilizer/logical rows are dependent")
        kept.append(op)
    for op in candidates:
        if len(kept) == code.n:
            break
        if any(not op.commutes_with(r) for r in kept):
            continue
        if ech.add(gf2.pack_rows(op.symplectic(), 2 * code.n).row(0)):
            kept.append(op)
    if len(kept) != code.n:
        raise ValueError(
            f"could not complete stabilizer set: {len(kept)} of {code.n} rows"
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
    keep = [q for q in range(n) if q not in set(drop)]
    rows = [state.stabilizer_row(i) for i in range(n)]
    # eliminate dropped-qubit columns (x then z per qubit)
    used: list[int] = []
    for q in drop:
        for part in ("x", "z"):
            pivot = None
            for i, r in enumerate(rows):
                if i in used:
                    continue
                if (r.x if part == "x" else r.z)[q]:
                    pivot = i
                    break
            if pivot is None:
                continue
            used.append(pivot)
            prow = rows[pivot]
            for i, r in enumerate(rows):
                if i != pivot and (r.x if part == "x" else r.z)[q]:
                    rows[i] = r * prow
    survivors = []
    for i, r in enumerate(rows):
        if i in used:
            continue
        if any(r.x[q] or r.z[q] for q in drop):
            raise ValueError("dropped qubits are still entangled with the rest")
        survivors.append(
            PauliOperator(len(keep), r.x[keep], r.z[keep], r.sign)
        )
    if len(survivors) != len(keep):
        raise ValueError(
            f"restriction produced {len(survivors)} stabilizers for {len(keep)} qubits"
        )
    return from_stabilizers(survivors)


def embed_operator(op: PauliOperator, n_total: int, positions: list[int]) -> PauliOperator:
    x = np.zeros(n_total, dtype=np.uint8)
    z = np.zeros(n_total, dtype=np.uint8)
    x[positions] = op.x
    z[positions] = op.z
    return PauliOperator(n_total, x, z, op.sign)


# -- minimum-weight decoding tables -------------------------------------------------


def min_weight_table(n: int, syndrome_of) -> dict:
    """Map syndrome tuple -> lexicographically first minimum-weight support.

    `syndrome_of(support) -> tuple` defines the syndrome map; all 2^n
    supports are enumerated in (weight, lex) order, so the first hit wins.
    """
    table: dict = {}
    supports = sorted(
        (tuple(c) for w in range(n + 1) for c in itertools.combinations(range(n), w)),
        key=lambda s: (len(s), s),
    )
    for sup in supports:
        syn = syndrome_of(sup)
        if syn not in table:
            table[syn] = sup
    return table


def _syndrome_fn(check_supports: list[tuple]):
    def fn(support):
        s = set(support)
        return tuple(len(s & set(chk)) % 2 for chk in check_supports)

    return fn


def checks_table(n: int, checks) -> dict:
    """`min_weight_table` of a check set, cached per (n, checks) in the process."""
    key = (n, tuple(map(tuple, checks)))
    table = _CHECK_TABLES.get(key)
    if table is None:
        table = _CHECK_TABLES[key] = min_weight_table(n, _syndrome_fn(checks))
    return table


_CHECK_TABLES: dict = {}


def decode_table_2d(code2: CodeTriple) -> dict:
    """Plaquette syndrome -> minimum-weight correction support (per type)."""
    checks = [tuple(vs) for vs, _ in code2.colex.plaquettes]
    return min_weight_table(code2.n, _syndrome_fn(checks))


def ideal_decode_2d(ctx_or_code, state2: Tableau) -> tuple[PauliOperator, PauliOperator]:
    """Noiseless syndrome readout + exact minimum-weight correction, both types."""
    if isinstance(ctx_or_code, JumpContext):
        code2, table = ctx_or_code.code2, ctx_or_code.decode_table()
    else:
        code2, table = ctx_or_code, decode_table_2d(ctx_or_code)
    checks = [tuple(vs) for vs, _ in code2.colex.plaquettes]
    corrections = []
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        syn = []
        for chk in checks:
            val = state2.expect(
                PauliOperator.from_support(code2.n, meas_basis, chk)
            )
            if val is None:
                raise ValueError("outer state is not in a plaquette eigenstate")
            syn.append(0 if val == 1 else 1)
        support = table[tuple(syn)]
        op = PauliOperator.from_support(code2.n, corr_basis, support)
        state2.apply(op)
        corrections.append(op)
    return corrections[0], corrections[1]


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
    colex2 = ctx.code2.colex
    checks = [tuple(vs) for vs, _ in colex2.plaquettes]
    edge_supports = [tuple((a, b)) for a, b, _ in colex2.edges]
    table_key = "ideal-edges"
    if table_key not in ctx._decode_tables:
        syndrome_of = _syndrome_fn(checks)

        def edge_syndrome(edge_subset):
            acc = [0] * len(checks)
            for ei in edge_subset:
                for j, bit in enumerate(syndrome_of(edge_supports[ei])):
                    acc[j] ^= bit
            return tuple(acc)

        table: dict = {}
        combos = sorted(
            (
                tuple(c)
                for w in range(len(edge_supports) + 1)
                for c in itertools.combinations(range(len(edge_supports)), w)
            ),
            key=lambda s: (sum(len(edge_supports[i]) for i in s), s),
        )
        for combo in combos:
            syn = edge_syndrome(combo)
            if syn not in table:
                sup = []
                for ei in combo:
                    for v in edge_supports[ei]:
                        sup.append(v)
                table[syn] = tuple(sup)
        ctx._decode_tables[table_key] = table
    table = ctx._decode_tables[table_key]
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        syn = []
        for chk in checks:
            val = outer_state.expect(
                PauliOperator.from_support(ctx.n2, meas_basis, chk)
            )
            if val is None:
                raise ValueError("outer syndrome is indeterminate after collapse")
            syn.append(0 if val == 1 else 1)
        if tuple(syn) not in table:
            raise ValueError("no restricted gauge operator matches the syndrome")
        corrections[corr_basis] = PauliOperator.from_support(
            ctx.n2, corr_basis, table[tuple(syn)]
        )
    return _finish_collapse(ctx, outer_state, corrections, record, {})


# -- single-shot error correction ---------------------------------------------------


@dataclass
class SingleShotReport:
    outcomes: dict  # (pair,) plaquette id -> recorded +-1
    cell_estimates: dict
    delta0_sizes: dict
    correction: PauliOperator
    syndrome: tuple


def _code_dual_structure(code: CodeTriple):
    """Per-pair dual edges of a standalone code: plaquette -> adjacent cells.

    Boundary plaquettes get a region endpoint, which acts as a matching sink
    and carries the region syndrome for frozen geometries.
    """
    colex = code.colex
    colex._build_indexes()
    structure = boundary_structure(colex)
    region_of_plaquette = {}
    for ri, region in enumerate(structure.regions):
        for pi in region.plaquettes:
            region_of_plaquette[pi] = ri
    by_pair: dict[str, list] = {}
    for pi in range(len(colex.plaquettes)):
        pair = colex.plaquette_colors(pi)
        cells = list(colex.plaquette_cells[pi])
        by_pair.setdefault(pair, []).append((pi, cells, region_of_plaquette.get(pi)))
    return structure, by_pair


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
    structure, by_pair = _code_dual_structure(code)
    colex = code.colex
    positions = embed if embed is not None else list(range(code.n))

    outcomes: dict[int, int] = {}
    for pair in sorted(by_pair):
        for pi, _, _ in by_pair[pair]:
            op = embed_operator(
                plaquette_operator(colex, pi, basis), state.n, positions
            )
            value = state.measure(op, rng)
            if meas_flip_prob > 0 and rng.random() < meas_flip_prob:
                value = -value
            outcomes[pi] = value

    # per-cell estimates from each pair family, then majority
    estimates: dict[int, list[int]] = {ci: [] for ci in range(len(colex.cells))}
    for ci, (vs, cs) in enumerate(colex.cells):
        for i, a in enumerate(cs):
            for b in cs[i + 1 :]:
                pair = color_set((a, b))
                prod = 1
                for pi in range(len(colex.plaquettes)):
                    if colex.plaquette_colors(pi) == pair and set(
                        colex.plaquette_vertices(pi)
                    ) <= set(vs):
                        prod *= outcomes[pi]
                estimates[ci].append(prod)
    cell_syndrome = {
        ci: (1 if sum(1 for v in vals if v == -1) <= len(vals) // 2 else -1)
        for ci, vals in estimates.items()
    }

    # per-pair flux repair against the reconciled cell estimates
    repaired = dict(outcomes)
    delta0_sizes = {}
    frozen = all(r.classification == "frozen" for r in structure.regions)
    for pair in sorted(by_pair):
        entries = by_pair[pair]
        mismatched = []
        for ci in range(len(colex.cells)):
            if not set(pair) <= set(colex.cell_colors(ci)):
                continue
            prod = 1
            for pi, cells, _ in entries:
                if ci in cells:
                    prod *= outcomes[pi]
            if prod != cell_syndrome[ci]:
                mismatched.append(ci)
        if not mismatched:
            delta0_sizes[pair] = 0
            continue
        flips = _match_cells_to_edges(entries, mismatched)
        delta0_sizes[pair] = len(flips)
        for pi in flips:
            repaired[pi] = -repaired[pi]

    # stabilizer syndrome: cells, plus region products for frozen geometries
    syndrome_bits = [cell_syndrome[ci] for ci in range(len(colex.cells))]
    checks: list[tuple] = [tuple(vs) for vs, _ in colex.cells]
    if frozen:
        y = next(iter({c.color for c in structure.corners}))
        for region in structure.regions:
            pair = color_set(set(region.colors) - {y})
            prod = 1
            for pi in region.plaquettes:
                if colex.plaquette_colors(pi) == pair:
                    prod *= repaired[pi]
            syndrome_bits.append(prod)
            checks.append(tuple(sorted(region.vertices)))

    syndrome = tuple(0 if v == 1 else 1 for v in syndrome_bits)
    corr_type = "X" if basis == "Z" else "Z"
    support = checks_table(code.n, checks).get(syndrome)
    if support is None:
        raise ValueError("no correction matches the repaired syndrome")
    correction = PauliOperator.from_support(code.n, corr_type, support)
    state.apply(embed_operator(correction, state.n, positions))
    return state, SingleShotReport(
        outcomes, cell_syndrome, delta0_sizes, correction, syndrome
    )


def _match_cells_to_edges(entries, mismatched):
    """Minimum set of plaquette flips whose cell endpoints are `mismatched`.

    Each plaquette is a dual edge between its adjacent cells (or a region
    sink); exact search over pairings as in the collapse repair.
    """
    adj: dict = {}
    for pi, cells, _region in entries:
        ends = [("cell", c) for c in cells]
        while len(ends) < 2:
            ends.append("sink")
        a, b = ends
        for u, v in ((a, b), (b, a)):
            if u != "sink":
                adj.setdefault(u, []).append((pi, v))
    best_paths = {}
    for c in mismatched:
        start = ("cell", c)
        best = {start: (0, ())}
        frontier = [start]
        while frontier:
            node = frontier.pop(0)
            if node == "sink":
                continue
            d, path = best[node]
            for edge, nbr in sorted(adj.get(node, [])):
                if edge in path:
                    continue
                cand = (d + 1, tuple(sorted(path + (edge,))))
                if nbr not in best or cand < best[nbr]:
                    best[nbr] = cand
                    frontier.append(nbr)
        best_paths[c] = best
    best_total = None

    def explore(remaining, acc):
        nonlocal best_total
        if not remaining:
            edges = frozenset()
            for p in acc:
                edges ^= frozenset(p)
            cand = (len(edges), tuple(sorted(edges)))
            if best_total is None or cand < best_total:
                best_total = cand
            return
        first, rest = remaining[0], remaining[1:]
        options = []
        if "sink" in best_paths[first]:
            options.append((best_paths[first]["sink"][1], rest))
        for i, other in enumerate(rest):
            key = ("cell", other)
            if key in best_paths[first]:
                options.append(
                    (best_paths[first][key][1], rest[:i] + rest[i + 1 :])
                )
        if not options:
            raise ValueError(f"cell {first} cannot be matched to any partner")
        for path, new_rest in options:
            explore(new_rest, acc + [path])

    explore(list(mismatched), [])
    return best_total[1]


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
    corr_x, corr_z = ideal_decode_2d_embedded(ctx, state3)

    cell_exp = {}
    for ci in range(len(ctx.colex3.cells)):
        for basis in ("X", "Z"):
            op = PauliOperator.from_support(
                n3, basis, ctx.colex3.cell_vertices(ci)
            )
            cell_exp[(ci, basis)] = state3.expect(op)
    return state3, BlowUpReport(inner_reports, (corr_x, corr_z), cell_exp)


def ideal_decode_2d_embedded(ctx: JumpContext, state3: Tableau):
    """Outer-code minimum-weight decode acting inside the 3D tableau."""
    code2 = ctx.code2
    table = ctx.decode_table()
    checks = [tuple(vs) for vs, _ in code2.colex.plaquettes]
    out = []
    for meas_basis, corr_basis in (("Z", "X"), ("X", "Z")):
        syn = []
        for chk in checks:
            op = embed_operator(
                PauliOperator.from_support(code2.n, meas_basis, chk),
                state3.n,
                ctx.split.outer_vertices,
            )
            val = state3.expect(op)
            if val is None:
                raise ValueError("outer plaquette indeterminate during reconciliation")
            syn.append(0 if val == 1 else 1)
        support = table[tuple(syn)]
        corr = PauliOperator.from_support(code2.n, corr_basis, support)
        state3.apply(embed_operator(corr, state3.n, ctx.split.outer_vertices))
        out.append(corr)
    return tuple(out)
