"""Seeded Monte Carlo harness for collapse and single-shot experiments.

Each trial is keyed by (seed, trial index) through a counter-based
generator, so any partition of trials over workers reproduces identical
statistics. Residual errors are tracked exactly: the harness knows the
injected noise, the true flux, and the applied corrections, so the residual
class (syndrome plus logical action) is computed algebraically and reduced
to its minimum-weight representative for the histograms.

Collapse trials run on a `CollapsePlan`, compiled once per context and
cached on it: the inner plaquette parity matrix, the outer residual-coset
parity matrix, each coset's lightest member, and the final 2D decode
reduced to a per-coset logical flip. A trial's residual accounting, for
the sign-linear fast engine and the tableau engine alike, is one matrix
product and one lookup memoised per pair of coset keys.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .flux import FluxConfiguration, repair_flux
from .gf2 import checks_table
from .jump import (
    JumpContext,
    collapse,
    encoded_3d,
    encoded_state,
    ideal_decode,
    ideal_decode_2d,
    logical_operator,
    plaquette_checks,
    single_shot_ec,
)
from .noise import NoiseSpec, sample_qubit_noise, trial_rng
from .pauli import PauliOperator


@dataclass
class TrialStats:
    trials: int = 0
    failures: Counter = field(default_factory=Counter)  # logical kind -> count
    residual_weight_hist: Counter = field(default_factory=Counter)
    delta0_hist: Counter = field(default_factory=Counter)
    max_residual_component: int = 0

    def merge(self, other: "TrialStats") -> "TrialStats":
        out = TrialStats(
            self.trials + other.trials,
            self.failures + other.failures,
            self.residual_weight_hist + other.residual_weight_hist,
            self.delta0_hist + other.delta0_hist,
            max(self.max_residual_component, other.max_residual_component),
        )
        return out

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": dict(sorted(self.failures.items())),
            "residual_weight_hist": {
                str(k): v for k, v in sorted(self.residual_weight_hist.items())
            },
            "delta0_hist": {str(k): v for k, v in sorted(self.delta0_hist.items())},
            "max_residual_component": self.max_residual_component,
        }


def wilson_interval(k: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """z-sigma Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    mid = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, mid - half), min(1.0, mid + half)


# -- compiled collapse plan -------------------------------------------------------


class CollapsePlan:
    """Static tables of one context's collapse trials, compiled once.

    Everything a trial derives from the lattice alone lives here; trials only
    index into it. `collapse_plan` builds the plan on first use and caches it
    on the context, so both engines and every `run_collapse_trials` call on
    that context share one copy.

    A residual on one CSS side is an outer error vector modulo the plaquette
    stabilizers. Its coset is named by a key: the plaquette syndrome bits,
    then the weight parity (which separates the two logical classes, since
    every plaquette has even weight and the logical odd weight). Keys pack
    into integers, the X side in the low bits and the Z side above it.
    """

    def __init__(self, ctx: JumpContext):
        n2, n3 = ctx.n2, ctx.n3
        checks = plaquette_checks(ctx.code2)
        m = len(checks)
        outer = list(ctx.split.outer_vertices)
        # inner plaquettes, one column per (basis, pair, dual) in measurement
        # order; rows are the 3D X error then the 3D Z error (X errors flip
        # Z-type plaquettes)
        self.slots = []  # (basis, pair, first column, duals)
        supports = []
        for basis, offset in (("Z", 0), ("X", n3)):
            for pair in ctx.pairs:
                duals = ctx.duals[pair]
                self.slots.append((basis, pair, len(supports), duals))
                for dual in duals:
                    vs = ctx.colex3.plaquette_vertices(dual.plaquette)
                    supports.append([offset + v for v in vs])
        self.inner_parity = _incidence(2 * n3, supports)
        # residual coset keys of (3D X error, 3D Z error, applied X, applied Z):
        # column j < m + 1 is key bit j of the X side, m + 1 + j of the Z side
        key_supports = []
        for err_offset, applied_offset in ((0, 2 * n3), (n3, 2 * n3 + n2)):
            for chk in checks + [tuple(range(n2))]:
                key_supports.append(
                    [err_offset + outer[q] for q in chk]
                    + [applied_offset + q for q in chk]
                )
        self.residual_parity = _incidence(2 * n3 + 2 * n2, key_supports)
        self.key_weights = 1 << np.arange(2 * (m + 1))
        self.side_bits = m + 1
        # (syndrome, parity) -> lexicographically first minimum-weight member:
        # the (weight, lex) order of min_weight_table is the tie-break
        cosets = checks_table(n2, checks + [tuple(range(n2))])
        self.coset_min = {_pack(key): support for key, support in cosets.items()}
        # the final noiseless 2D decode, reduced to whether it leaves the
        # logical flipped on each coset
        decode = checks_table(n2, checks)
        self.decoded_flip = {
            _pack(key): (key[m] + len(decode[key[:m]])) % 2 == 1 for key in cosets
        }
        self.adjacency = _outer_adjacency(ctx)
        self._residuals: dict = {}

    def residual_key(self, ex, ez, applied) -> int:
        """Packed coset keys of the outer residual on both sides."""
        vec = np.concatenate((ex, ez, applied["X"], applied["Z"]))
        return int(((vec @ self.residual_parity) & 1) @ self.key_weights)

    def split_key(self, key: int) -> tuple[int, int]:
        """(X-side key, Z-side key) of a packed residual key."""
        return key & ((1 << self.side_bits) - 1), key >> self.side_bits

    def residual(self, key: int) -> tuple[int, int]:
        """(weight, largest connected component) of the lightest residual."""
        got = self._residuals.get(key)
        if got is None:
            sx, sz = (self.coset_min[k] for k in self.split_key(key))
            got = (len(sx) + len(sz), _max_component(set(sx) | set(sz), self.adjacency))
            self._residuals[key] = got
        return got


def collapse_plan(ctx: JumpContext) -> CollapsePlan:
    """The context's collapse plan, compiled on first use."""
    if ctx._collapse_plan is None:
        ctx._collapse_plan = CollapsePlan(ctx)
    return ctx._collapse_plan


def _incidence(n: int, supports) -> np.ndarray:
    """(n, len(supports)) 0/1 matrix; column j marks supports[j]."""
    out = np.zeros((n, len(supports)), dtype=np.uint8)
    for j, support in enumerate(supports):
        out[list(support), j] = 1
    return out


def _pack(bits) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def _outer_adjacency(ctx: JumpContext):
    adj = {q: set() for q in range(ctx.n2)}
    colex = ctx.code2.colex
    for a, b, _ in colex.edges:
        adj[a].add(b)
        adj[b].add(a)
    for vs, _ in colex.plaquettes:
        for a in vs:
            for b in vs:
                if a != b:
                    adj[a].add(b)
    return adj


def _max_component(support, adj) -> int:
    left = set(support)
    best = 0
    while left:
        seed = left.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    frontier.append(w)
        best = max(best, len(comp))
    return best


# -- collapse trials ----------------------------------------------------------------


@dataclass
class _TrialResult:
    logical: str
    ex: np.ndarray
    ez: np.ndarray
    records: dict
    repairs: dict
    applied: dict
    flags: dict
    failed: bool
    key: int  # packed residual coset key (CollapsePlan.residual_key)


class CollapseEngine:
    """Classical fast path for collapse trials.

    On a freshly prepared encoded state the whole trial is sign-linear:
    plaquette bits never change, Pauli noise only toggles signs, and every
    measured operator stays determinate. An inner plaquette therefore reads
    the parity of the injected error on its support; the outer plaquette
    value after discarding equals the parity on its own support; logical
    flips are support parities of the accumulated error. The engine runs
    that arithmetic on the context's compiled `CollapsePlan`: one matrix
    product gives every inner plaquette reading, one `rng.random` call every
    measurement flip, and one product the residual coset keys, whose table
    entry says whether the final decode leaves the logical flipped. Random
    numbers are drawn in exactly the same order as the tableau pipeline (a
    vector draw from Philox equals the same number of scalar draws), so both
    produce identical trials (asserted in the test suite). Flux repair and
    string correction still run once per (pair, basis).
    """

    def __init__(self, ctx: JumpContext):
        self.ctx = ctx
        self.plan = collapse_plan(ctx)

    def run_trial(self, noise: NoiseSpec, t: int) -> _TrialResult:
        ctx = self.ctx
        plan = self.plan
        rng = trial_rng(noise.seed, t)
        logical = "zero" if t % 2 == 0 else "plus"
        ex, ez = sample_qubit_noise(noise.p_qubit, ctx.n3, rng)
        true = (np.concatenate((ex, ez)) @ plan.inner_parity) & 1
        seen = true
        if noise.q_meas > 0:
            seen = true ^ (rng.random(len(true)) < noise.q_meas)
        true, seen = true.tolist(), seen.tolist()
        records = {}
        repairs = {}
        applied = {
            "X": np.zeros(ctx.n2, dtype=np.uint8),
            "Z": np.zeros(ctx.n2, dtype=np.uint8),
        }
        for basis, pair, lo, duals in plan.slots:
            span = range(len(duals))
            observed = FluxConfiguration(
                pair, basis, frozenset(i for i in span if seen[lo + i]), duals
            )
            records[(pair, basis)] = {
                duals[i].plaquette: (-1 if seen[lo + i] else 1) for i in span
            }
            delta0, gamma_eff = repair_flux(observed)
            repairs[(pair, basis)] = (
                tuple(sorted(delta0)),
                tuple(sorted(gamma_eff.edges)),
                tuple(i for i in span if true[lo + i]),
            )
            corr_type = "X" if basis == "Z" else "Z"
            corr = ctx.cached_string_correction(
                gamma_eff.outer_endpoints(), pair, corr_type
            )
            applied[corr_type] ^= corr.x if corr_type == "X" else corr.z
        # the observable logical reads the parity of the residual on the
        # opposite side; the final ideal decode is a lookup on its coset
        residual = plan.residual_key(ex, ez, applied)
        key_x, key_z = plan.split_key(residual)
        kind, key = ("Z", key_x) if logical == "zero" else ("X", key_z)
        flags = {"Z": None, "X": None}
        flags[kind] = -1 if key >> (plan.side_bits - 1) else 1
        return _TrialResult(
            logical,
            ex,
            ez,
            records,
            repairs,
            applied,
            flags,
            plan.decoded_flip[key],
            residual,
        )


def run_collapse_trials(
    ctx: JumpContext,
    noise: NoiseSpec,
    trials: int,
    trial_offset: int = 0,
    trace_fh=None,
    engine: str = "fast",
) -> TrialStats:
    """Prepare, corrupt, collapse, decode; aggregate exact statistics.

    Logical states alternate between the Z and X basis by trial parity. A
    trial fails when the tracked logical expectation flips after the final
    noiseless decode on the collapsed 2D state. `engine` selects the
    sign-linear fast path or the full tableau pipeline; both produce
    bit-identical trials.
    """
    stats = TrialStats()
    fast = CollapseEngine(ctx) if engine == "fast" else None
    plan = collapse_plan(ctx)
    base = (
        None
        if fast
        else {"zero": encoded_3d(ctx, "zero"), "plus": encoded_3d(ctx, "plus")}
    )
    for t in range(trial_offset, trial_offset + trials):
        if fast is not None:
            result = fast.run_trial(noise, t)
        else:
            result = _tableau_trial(ctx, base, noise, t)
        for delta0, _, _ in result.repairs.values():
            stats.delta0_hist[len(delta0)] += 1
        # Residual class: trials start from a fresh state with trivial flux,
        # so after discarding, the outer deviation from the reference encoded
        # state is exactly the injected outer error times the applied
        # correction (a pure inner error never reaches the outer block).
        weight, component = plan.residual(result.key)
        stats.residual_weight_hist[weight] += 1
        stats.max_residual_component = max(stats.max_residual_component, component)
        stats.trials += 1
        if result.failed:
            kind = "Z" if result.logical == "zero" else "X"
            stats.failures[kind] += 1
        if trace_fh is not None:
            trace_fh.write(_trace_line(noise, t, result) + "\n")
    return stats


def _tableau_trial(ctx, base, noise, t) -> _TrialResult:
    rng = trial_rng(noise.seed, t)
    logical = "zero" if t % 2 == 0 else "plus"
    kind = "Z" if logical == "zero" else "X"
    state = base[logical].copy()
    ex, ez = sample_qubit_noise(noise.p_qubit, ctx.n3, rng)
    if ex.any() or ez.any():
        state.apply(PauliOperator(ctx.n3, ex, ez))
    out = collapse(ctx, state, noise.q_meas, rng)
    applied = {
        "X": out.applied_correction["X"].x.copy(),
        "Z": out.applied_correction["Z"].z.copy(),
    }
    ideal_decode_2d(ctx, out.residual_state)
    value = out.residual_state.expect(logical_operator(ctx.code2, kind))
    return _TrialResult(
        logical,
        ex,
        ez,
        out.measurement_record,
        out.repair_record,
        applied,
        out.logical_flip_flags,
        bool(value != 1),
        collapse_plan(ctx).residual_key(ex, ez, applied),
    )


def _trace_line(noise: NoiseSpec, t: int, result: _TrialResult) -> str:
    return json.dumps(
        {
            "trial": t,
            "seed": noise.seed,
            "logical": result.logical,
            "injected_x": np.flatnonzero(result.ex).tolist(),
            "injected_z": np.flatnonzero(result.ez).tolist(),
            "records": {
                f"{p}:{b}": {str(k): v for k, v in rec.items()}
                for (p, b), rec in result.records.items()
            },
            "repairs": {
                f"{p}:{b}": [list(d0), list(ge), list(tr)]
                for (p, b), (d0, ge, tr) in result.repairs.items()
            },
            "applied_x": np.flatnonzero(result.applied["X"]).tolist(),
            "applied_z": np.flatnonzero(result.applied["Z"]).tolist(),
            "residual_flags": result.flags,
            "failed": result.failed,
        },
        sort_keys=True,
    )


def exhaustive_weight1_collapse(ctx: JumpContext) -> list:
    """Every single fault (outer/inner qubit Pauli or one measurement flip).

    Returns the list of faults that caused a logical failure; the design
    target is an empty list (distance-3 guarantee).
    """
    failures = []

    def trial(logical, inject=None, flips=None):
        state = encoded_3d(ctx, logical)
        if inject is not None:
            state.apply(inject)
        rng = trial_rng(0, 0)
        out = collapse(ctx, state, 0.0, rng, injected_flips=flips)
        ideal_decode_2d(ctx, out.residual_state)
        kind = "Z" if logical == "zero" else "X"
        return out.residual_state.expect(logical_operator(ctx.code2, kind))

    singles = []
    for q in range(ctx.n3):
        for kind in ("X", "Z", "Y"):
            x = np.zeros(ctx.n3, dtype=np.uint8)
            z = np.zeros(ctx.n3, dtype=np.uint8)
            if kind in ("X", "Y"):
                x[q] = 1
            if kind in ("Z", "Y"):
                z[q] = 1
            singles.append((f"{kind}{q}", PauliOperator(ctx.n3, x, z)))
    for logical in ("zero", "plus"):
        for label, op in singles:
            if trial(logical, inject=op) != 1:
                failures.append(("pauli", logical, label))
        for basis in ("Z", "X"):
            for pair in ctx.pairs:
                for ei in range(len(ctx.duals[pair])):
                    if trial(logical, flips={(pair, basis): {ei}}) != 1:
                        failures.append(("flip", logical, pair, basis, ei))
    return failures


# -- single-shot trials --------------------------------------------------------------


def run_single_shot_trials(
    code,
    noise: NoiseSpec,
    trials: int,
    trial_offset: int = 0,
) -> TrialStats:
    """Single-shot harness: inner codes count stabilizer violations as
    failure (verified noiselessly); tetrahedral codes count logical flips
    after a final ideal decode."""
    stats = TrialStats()
    has_logical = bool(code.L.generators)
    cells = [tuple(vs) for vs, _ in code.colex.cells]
    bases = {}
    if has_logical:
        bases["zero"] = encoded_state(code, "zero")
        bases["plus"] = encoded_state(code, "plus")
    else:
        bases[None] = encoded_state(code, None)
    for t in range(trial_offset, trial_offset + trials):
        rng = trial_rng(noise.seed, t)
        logical = (
            ("zero" if t % 2 == 0 else "plus") if has_logical else None
        )
        state = bases[logical].copy()
        ex, ez = sample_qubit_noise(noise.p_qubit, code.n, rng)
        if ex.any() or ez.any():
            state.apply(PauliOperator(code.n, ex, ez))
        for basis in ("Z", "X"):
            state, report = single_shot_ec(state, code, basis, noise.q_meas, rng)
            for pair, size in report.delta0_sizes.items():
                stats.delta0_hist[size] += 1
        stats.trials += 1
        if has_logical:
            kind = "Z" if logical == "zero" else "X"
            ideal_decode(state, code.n, cells)
            if state.expect(logical_operator(code, kind)) != 1:
                stats.failures[kind] += 1
        else:
            violated = any(state.expect(g) != 1 for g in code.S.generators)
            if violated:
                stats.failures["stabilizer"] += 1
    return stats


# -- output formats -------------------------------------------------------------------


def stats_csv_rows(points: list[tuple[NoiseSpec, TrialStats]]) -> list[dict]:
    rows = []
    for spec, stats in points:
        k = stats.total_failures
        lo, hi = wilson_interval(k, stats.trials)
        rows.append(
            {
                "p": spec.p_qubit,
                "q": spec.q_meas,
                "seed": spec.seed,
                "trials": stats.trials,
                "failures": k,
                "failure_rate": (k / stats.trials) if stats.trials else 0.0,
                "wilson_low_3sigma": lo,
                "wilson_high_3sigma": hi,
            }
        )
    return rows


def write_csv(path, rows: list[dict]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
