"""Seeded Monte Carlo harness for collapse and single-shot experiments.

Each trial is keyed by (seed, trial index) through a counter-based
generator, so any partition of trials over workers reproduces identical
statistics. Residual errors are tracked exactly: the harness knows the
injected noise, the true flux, and the applied corrections, so the residual
class (syndrome plus logical action) is computed algebraically and reduced
to its minimum-weight representative for the histograms.

Collapse trials run on a `CollapsePlan`, compiled once per context and
cached on it: one readout matrix of inner plaquette and residual-key
parities, one int mask per residual-coset key bit, each coset's lightest
member, the final 2D decode reduced to a per-coset logical flip, and per
(basis, pair) slot a repair table memoised on the observed patterns that
trials reach. The sign-linear fast engine runs trials in batches of
`BATCH_TRIALS`: one vectorised Philox draw (`noise.philox_uniforms`, the
same numbers as each trial's own generator), one matrix product, table
lookups and `np.unique` counts, with no per-trial Python call. The tableau
engine runs trial by trial as the exact oracle. Both fold their trials into
the statistics through the same per-batch tally, whose residual accounting
is one lookup memoised per pair of coset keys.

Single-shot trials run on a `SingleShotPlan`, compiled once per code and
cached on it, in the manner of a reference sample plus Pauli frames (Stim,
Gidney, arXiv 2103.02202). One noiseless tableau pass per encoded state
records every plaquette's reference outcome, or, for a random one, the
stabilizer row its measurement replaces, and the reference values of the
final checks. A trial then tracks only the Pauli frame between that
reference and its own state, as two Python ints; see
`run_single_shot_trials` for why a random outcome updates the frame by the
replaced row. Trials run in batches of `BATCH_TRIALS`, with one
`philox_uniforms` draw per batch. A round's decode key is the XOR of static
per-plaquette key masks over its -1 outcomes: the parities through which
`single_shot_decode`, the one decoder, reads them. Its correction is a
lookup in a table filled by that decoder on the keys that trials reach.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .flux import SINK, FluxConfiguration, plaquette_operator, repair_flux
from .gf2 import checks_table
from .jump import (
    JumpContext,
    _code_dual_structure,
    _read_syndrome,
    collapse,
    encoded_3d,
    encoded_state,
    ideal_decode_2d,
    logical_operator,
    plaquette_checks,
    single_shot_decode,
)
from .noise import NoiseSpec, philox_uniforms, sample_qubit_noise, to_mask, trial_rng
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
    Error and correction vectors are int masks, bit q holding qubit q.
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
        # residual coset key bit j of one side is the parity of (3D error on
        # that side | applied correction << n3) over key_masks[j]
        self.n3 = n3
        self.key_masks = [
            sum(1 << outer[q] for q in chk) | sum(1 << q for q in chk) << n3
            for chk in checks + [tuple(range(n2))]
        ]
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
        # Batched trials. The parities of an error (rows: X error, then Z
        # error) over the readout's columns are every inner plaquette
        # reading, then the noise part of every residual key bit, X side
        # first. Counts stay far below 2^24, so a float32 (BLAS) product is
        # exact. A slot's observed pattern (bit i for dual i) is
        # seen @ slot_weights, and key_weights packs the key bits.
        self.n_inner = len(supports)  # inner plaquette columns
        low = [_set_bits(mask & ((1 << n3) - 1)) for mask in self.key_masks]
        keys = low + [[n3 + q for q in qs] for qs in low]
        self.readout = _incidence(2 * n3, supports + keys).astype(np.float32)
        self.slot_weights = np.zeros((self.n_inner, len(self.slots)), dtype=np.int64)
        for s, (_, _, lo, duals) in enumerate(self.slots):
            self.slot_weights[lo : lo + len(duals), s] = 1 << np.arange(len(duals))
        self.key_weights = 1 << np.arange(2 * self.side_bits, dtype=np.int64)
        self._repairs: list[dict] = [{} for _ in self.slots]

    def repair(self, ctx: JumpContext, slot: int, pattern: int) -> "_Repair":
        """Flux repair and string correction of one slot's observed pattern,
        memoised on the patterns that trials reach."""
        got = self._repairs[slot].get(pattern)
        if got is None:
            basis, pair, _, duals = self.slots[slot]
            span = range(len(duals))
            seen = frozenset(i for i in span if pattern >> i & 1)
            delta0, gamma_eff = repair_flux(FluxConfiguration(pair, basis, seen, duals))
            kind = "X" if basis == "Z" else "Z"
            corr = ctx.cached_string_correction(gamma_eff.outer_endpoints(), pair, kind)
            mask = corr.x if kind == "X" else corr.z
            got = _Repair(
                tuple(sorted(delta0)),
                tuple(sorted(gamma_eff.edges)),
                kind,
                mask,
                self.residual_key(0, 0, {"X": 0, "Z": 0} | {kind: mask}),
                {duals[i].plaquette: (-1 if i in seen else 1) for i in span},
            )
            self._repairs[slot][pattern] = got
        return got

    def residual_key(self, ex: int, ez: int, applied: dict) -> int:
        """Packed coset keys of the outer residual on both sides, from the
        3D error masks and the applied corrections' outer masks."""
        vx = ex | applied["X"] << self.n3
        vz = ez | applied["Z"] << self.n3
        side = self.side_bits
        key = 0
        for j, mask in enumerate(self.key_masks):
            key |= ((vx & mask).bit_count() & 1) << j
            key |= ((vz & mask).bit_count() & 1) << (side + j)
        return key

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


class _Repair(NamedTuple):
    delta0: tuple  # sorted dual indices the repair flips
    gamma_eff: tuple  # sorted dual indices of the repaired flux
    kind: str  # type of the string correction, "X" or "Z"
    correction: int  # its outer mask
    key: int  # its residual coset key bits (the key is linear)
    record: dict  # plaquette id -> observed +-1


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
    ex: int  # injected 3D error masks
    ez: int
    records: dict
    repairs: dict
    applied: dict  # correction type -> outer mask of the applied correction
    flags: dict
    failed: bool
    key: int  # packed residual coset key (CollapsePlan.residual_key)


@dataclass
class _Batch:
    """Trials first, first + 1, ... of one engine call, as arrays."""

    first: int
    keys: np.ndarray  # packed residual coset key per trial
    delta0_sizes: np.ndarray  # (trials, slots): |delta0| of every repair
    failed: np.ndarray  # bool per trial
    result: Callable[[int], _TrialResult]  # trial first + i, for trace lines


class CollapseEngine:
    """Batched classical fast path for collapse trials.

    On a freshly prepared encoded state the whole trial is sign-linear:
    plaquette bits never change, Pauli noise only toggles signs, and every
    measured operator stays determinate. An inner plaquette therefore reads
    the parity of the injected error on its support; the outer plaquette
    value after discarding equals the parity on its own support; logical
    flips are support parities of the accumulated error. The engine runs
    that arithmetic on the context's compiled `CollapsePlan` for a batch of
    trials at once, in the manner of Stim's batched frame sampling (Gidney,
    arXiv 2103.02202):

    - one `philox_uniforms` call draws every trial's numbers, the same ones
      and in the same order as the tableau pipeline draws them from its
      per-trial generator (qubit noise, then one flip per dual);
    - one matrix product gives every inner plaquette reading;
    - each (basis, pair) slot's observed pattern indexes the plan's repair
      table, which `repair_flux` and the string correction fill on first
      use, so their tie-breaks hold by construction;
    - the residual coset key is linear, so it is the noise part (one more
      product) XOR the keys of the slots' corrections, and its table entry
      says whether the final decode leaves the logical flipped.

    Both engines therefore produce identical trials (asserted in the test
    suite). `run_trial` is a batch of one.
    """

    def __init__(self, ctx: JumpContext):
        self.ctx = ctx
        self.plan = collapse_plan(ctx)

    def run_trial(self, noise: NoiseSpec, t: int) -> _TrialResult:
        return self.run_batch(noise, t, 1).result(0)

    def run_batch(self, noise: NoiseSpec, first: int, count: int) -> _Batch:
        ctx, plan = self.ctx, self.plan
        n3, cols = ctx.n3, plan.n_inner
        p, q = noise.p_qubit, noise.q_meas
        draws = (2 * n3 if p > 0 else 0) + (cols if q > 0 else 0)
        u = philox_uniforms(noise.seed, first, count, draws)
        if p > 0:  # the X error then the Z error of every qubit
            err = u[:, : 2 * n3] < p
        else:
            err = np.zeros((count, 2 * n3), dtype=bool)
        parities = (err.astype(np.float32) @ plan.readout).astype(np.int64) & 1
        true = parities[:, :cols]
        seen = true ^ (u[:, draws - cols :] < q) if q > 0 else true
        patterns = seen @ plan.slot_weights
        keys = parities[:, cols:] @ plan.key_weights
        delta0_sizes = np.empty(patterns.shape, dtype=np.int64)
        picks = []  # per slot: (repairs reached, index of each trial's repair)
        for s in range(len(plan.slots)):
            reached, inverse = np.unique(patterns[:, s], return_inverse=True)
            repairs = [plan.repair(ctx, s, int(v)) for v in reached]
            keys ^= np.array([r.key for r in repairs], dtype=np.int64)[inverse]
            delta0_sizes[:, s] = np.array([len(r.delta0) for r in repairs])[inverse]
            picks.append((repairs, inverse))
        # the observable logical reads the parity of the residual on the
        # opposite side; the final ideal decode is a lookup on its coset
        reached, inverse = np.unique(keys, return_inverse=True)
        sides = [plan.split_key(int(k)) for k in reached]
        flip_zero = np.array([plan.decoded_flip[key_x] for key_x, _ in sides])
        flip_plus = np.array([plan.decoded_flip[key_z] for _, key_z in sides])
        zero = np.arange(count) % 2 == first % 2  # trials of even index
        failed = np.where(zero, flip_zero[inverse], flip_plus[inverse])

        def result(i: int) -> _TrialResult:
            logical = "zero" if zero[i] else "plus"
            records, repairs, applied = {}, {}, {"X": 0, "Z": 0}
            for (basis, pair, lo, duals), (reached, picked) in zip(plan.slots, picks):
                r = reached[picked[i]]
                records[(pair, basis)] = r.record
                span = range(len(duals))
                repairs[(pair, basis)] = (
                    r.delta0,
                    r.gamma_eff,
                    tuple(j for j in span if true[i, lo + j]),
                )
                applied[r.kind] ^= r.correction
            key = int(keys[i])
            key_x, key_z = plan.split_key(key)
            kind, side_key = ("Z", key_x) if zero[i] else ("X", key_z)
            flags = {"Z": None, "X": None}
            flags[kind] = -1 if side_key >> (plan.side_bits - 1) else 1
            return _TrialResult(
                logical,
                to_mask(err[i, :n3]),
                to_mask(err[i, n3:]),
                records,
                repairs,
                applied,
                flags,
                bool(failed[i]),
                key,
            )

        return _Batch(first, keys, delta0_sizes, failed, result)


# Trials per batch. Each batch pays a fixed cost for its numpy calls (the
# Philox kernel alone about 0.3 ms), and past 1024 trials the kernel's cost
# per trial rises again. 512 was the fastest of 256, 512, 1024 and 2048 on
# 40,000 tetra15 trials.
BATCH_TRIALS = 512


def _check_trial_range(trial_offset: int, trials: int) -> None:
    """Trial indices key the generator as uint64 words: reject a range that
    leaves [0, 2^64) before any trial runs."""
    end = trial_offset + trials
    if trial_offset < 0 or end > 2**64:
        raise ValueError(f"trial indices {trial_offset}..{end - 1} leave [0, 2^64)")


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
    noiseless decode on the collapsed 2D state. `engine` selects the batched
    sign-linear fast path (`CollapseEngine`) or the full tableau pipeline
    run trial by trial; both produce bit-identical trials. Trial indices
    key the generator as uint64 words, so they must lie in [0, 2^64).
    """
    if engine not in ("fast", "tableau"):
        raise ValueError(f'unknown engine {engine!r}: use "fast" or "tableau"')
    _check_trial_range(trial_offset, trials)
    end = trial_offset + trials
    plan = collapse_plan(ctx)
    if engine == "fast":
        run_batch = CollapseEngine(ctx).run_batch
    else:
        base = {"zero": encoded_3d(ctx, "zero"), "plus": encoded_3d(ctx, "plus")}

        def run_batch(noise, first, count):
            return _tableau_batch(ctx, base, noise, first, count, trace_fh is not None)

    stats = TrialStats()
    for first in range(trial_offset, end, BATCH_TRIALS):
        batch = run_batch(noise, first, min(BATCH_TRIALS, end - first))
        _tally(stats, plan, batch)
        if trace_fh is not None:
            for i in range(len(batch.keys)):
                trace_fh.write(_trace_line(noise, first + i, batch.result(i)) + "\n")
    return stats


def _tally(stats: TrialStats, plan: CollapsePlan, batch: _Batch) -> None:
    """Fold a batch's trials into the statistics."""
    stats.trials += len(batch.keys)
    _count(stats.delta0_hist, batch.delta0_sizes)
    # Residual class: trials start from a fresh state with trivial flux,
    # so after discarding, the outer deviation from the reference encoded
    # state is exactly the injected outer error times the applied
    # correction (a pure inner error never reaches the outer block).
    reached, inverse = np.unique(batch.keys, return_inverse=True)
    residuals = [plan.residual(int(k)) for k in reached]
    _count(stats.residual_weight_hist, np.array([w for w, _ in residuals])[inverse])
    stats.max_residual_component = max(
        stats.max_residual_component, *(c for _, c in residuals)
    )
    zero = batch.first % 2  # the first row whose trial index is even
    for kind, rows in (("Z", batch.failed[zero::2]), ("X", batch.failed[1 - zero :: 2])):
        if rows.any():
            stats.failures[kind] += int(rows.sum())


def _count(counter: Counter, values: np.ndarray) -> None:
    for value, times in zip(*np.unique(values, return_counts=True)):
        counter[int(value)] += int(times)


def _tableau_batch(ctx, base, noise, first, count, keep: bool) -> _Batch:
    """Tableau-engine trials as a batch: the tally values of every trial,
    and the trial results themselves only when `keep` (a trace needs them)."""
    keys, sizes, failed, kept = [], [], [], []
    for t in range(first, first + count):
        r = _tableau_trial(ctx, base, noise, t)
        keys.append(r.key)
        sizes.append([len(d0) for d0, _, _ in r.repairs.values()])
        failed.append(r.failed)
        if keep:
            kept.append(r)
    return _Batch(
        first,
        np.array(keys, dtype=np.int64),
        np.array(sizes),
        np.array(failed),
        kept.__getitem__,
    )


def _tableau_trial(ctx, base, noise, t) -> _TrialResult:
    rng = trial_rng(noise.seed, t)
    logical = "zero" if t % 2 == 0 else "plus"
    kind = "Z" if logical == "zero" else "X"
    state = base[logical].copy()
    ex, ez = (to_mask(v) for v in sample_qubit_noise(noise.p_qubit, ctx.n3, rng))
    if ex or ez:
        state.apply(PauliOperator(ctx.n3, ex, ez))
    out = collapse(ctx, state, noise.q_meas, rng)
    applied = {"X": out.applied_correction["X"].x, "Z": out.applied_correction["Z"].z}
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
            "injected_x": _set_bits(result.ex),
            "injected_z": _set_bits(result.ez),
            "records": {
                f"{p}:{b}": {str(k): v for k, v in rec.items()}
                for (p, b), rec in result.records.items()
            },
            "repairs": {
                f"{p}:{b}": [list(d0), list(ge), list(tr)]
                for (p, b), (d0, ge, tr) in result.repairs.items()
            },
            "applied_x": _set_bits(result.applied["X"]),
            "applied_z": _set_bits(result.applied["Z"]),
            "residual_flags": result.flags,
            "failed": result.failed,
        },
        sort_keys=True,
    )


def _set_bits(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


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
            x = 1 << q if kind in ("X", "Y") else 0
            z = 1 << q if kind in ("Z", "Y") else 0
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


class _Reference:
    """One reference state's noiseless single-shot pass, recorded.

    `rounds` holds, per measured basis, one step per plaquette in measurement
    order: (support mask, reference value or None when the outcome is
    random, X and Z masks of the stabilizer row that a random measurement
    replaces, the plaquette's decode key mask). `draws` counts the random
    outcomes of both rounds. The final readout holds the cell syndrome bits
    of both types and the tracked logical's value (tetrahedral codes) or the
    (X mask, Z mask, value) of every stabilizer generator (inner codes).
    """

    def __init__(self, code, logical, plan):
        state = encoded_state(code, logical)
        self.rounds = []
        for basis in ("Z", "X"):
            steps = []
            for pi in plan.order:
                op = plaquette_operator(code.colex, pi, basis)
                row = state.pivot_row(op)
                value = state.measure(op, force=1)
                mask, key_mask = plan.masks[pi], plan.key_masks[pi]
                if row is None:
                    steps.append((mask, value, 0, 0, key_mask))
                else:
                    steps.append((mask, None, row.x, row.z, key_mask))
            self.rounds.append((basis, steps))
        self.draws = sum(step[1] is None for _, steps in self.rounds for step in steps)
        n = code.n
        if logical is None:
            self.stabilizers = [
                (g.x, g.z, _definite(state.expect(g)))
                for g in code.S.generators
            ]
        else:
            self.cells_z = _read_syndrome(state, n, plan.cells, "Z")
            self.cells_x = _read_syndrome(state, n, plan.cells, "X")
            kind = "Z" if logical == "zero" else "X"
            self.logical = _definite(state.expect(logical_operator(code, kind)))


class SingleShotPlan:
    """Static part of one code's single-shot trials, compiled once.

    Pauli noise and Pauli corrections never change the unsigned stabilizer
    group, and a tableau's x/z rows never depend on signs. So which
    plaquette measurements are random, which stabilizer row each random one
    replaces, and every deterministic outcome up to sign are the same in all
    trials from one encoded state. The plan records them in one noiseless
    pass per reference state (`zero` and `plus` for a tetrahedral code,
    `None` for the inner code) in which random outcomes are forced to +1,
    together with the code's dual structure and its cell decoding table
    with supports as masks. `single_shot_plan` caches it on the code.

    `single_shot_decode` reads a round's outcomes only through parities:
    the product of each pair's plaquettes on each cell (from which follow
    the majority cell syndrome, the mismatched cells and the T-join flips)
    and each region's raw product (times those flips). So a round's decode
    key has one bit per (pair, cell) that a plaquette's ends touch and one
    per region; `key_masks[pi]` holds the bits that a -1 outcome of
    plaquette pi toggles (a plaquette with both ends on one cell toggles
    that bit twice, as its outcome cancels in the product). A round's key
    is the XOR of the key masks of its -1 outcomes, and `decode` looks the
    correction up by key.
    """

    def __init__(self, code):
        self.code = code
        self.dual = _code_dual_structure(code)
        by_pair = self.dual.by_pair
        colex = code.colex
        self.order = [pi for pair in sorted(by_pair) for pi, _ in by_pair[pair]]
        self.masks = {pi: _support_mask(colex.plaquette_vertices(pi)) for pi in self.order}
        bits: dict = {}  # (pair, cell) -> key bit
        self.key_masks = dict.fromkeys(self.order, 0)
        for pair, entries in by_pair.items():
            for pi, ends in entries:
                for end in ends:
                    if end != SINK:
                        bit = bits.setdefault((pair, end[1]), len(bits))
                        self.key_masks[pi] ^= 1 << bit
        for j, plaquettes in enumerate(self.dual.region_plaquettes):
            for pi in plaquettes:
                self.key_masks[pi] ^= 1 << (len(bits) + j)
        # basis -> key -> (correction mask, delta0 sizes), reached keys only
        self.decoded = {"Z": {}, "X": {}}
        self.cells = [tuple(vs) for vs, _ in colex.cells]
        self.cell_masks = [_support_mask(vs) for vs in self.cells]
        self.cell_table = {
            syndrome: _support_mask(support)
            for syndrome, support in checks_table(code.n, self.cells).items()
        }
        self.all_mask = (1 << code.n) - 1  # the support of both logicals
        logicals = ("zero", "plus") if code.L.generators else (None,)
        self.references = {logical: _Reference(code, logical, self) for logical in logicals}

    def decode(self, basis: str, key: int, outcomes: list[int]) -> tuple[int, tuple]:
        """(correction mask, delta0 sizes) of a round whose outcomes, in
        `order`, have decode key `key`; a key not reached before is decoded
        by `single_shot_decode` on these outcomes, so tie-breaks hold by
        construction."""
        got = self.decoded[basis].get(key)
        if got is None:
            report = single_shot_decode(
                self.code, self.dual, dict(zip(self.order, outcomes)), basis
            )
            corr = report.correction
            got = (corr.x if basis == "Z" else corr.z, tuple(report.delta0_sizes.values()))
            self.decoded[basis][key] = got
        return got


def single_shot_plan(code) -> SingleShotPlan:
    """The code's single-shot plan, compiled on first use."""
    if code._single_shot_plan is None:
        code._single_shot_plan = SingleShotPlan(code)
    return code._single_shot_plan


def _support_mask(support) -> int:
    return sum(1 << q for q in support)


def _definite(value):
    if value is None:
        raise ValueError("a final single-shot check has no definite value")
    return value


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def run_single_shot_trials(
    code,
    noise: NoiseSpec,
    trials: int,
    trial_offset: int = 0,
) -> TrialStats:
    """Single-shot harness on the code's Pauli frame: inner codes count
    stabilizer violations as failure (verified noiselessly); tetrahedral
    codes count logical flips after a final ideal decode.

    A trial prepares the encoded state (`zero`/`plus` by trial parity on
    tetrahedral codes), injects qubit noise, runs one noisy single-shot
    round of Z plaquettes and one of X plaquettes (`single_shot_decode`,
    correction applied), then reads its failure. It keeps only the frame
    F = (fx, fz), the Pauli that maps the plan's reference state onto the
    trial's state: noise and corrections XOR into it, a deterministic
    outcome is the reference value times (-1)^<F, M>, and the final checks
    read the same way. A random measurement of M draws its outcome o as the
    tableau does. The reference state was projected with (1 + M)/2, and
    (1 + oM) F = F (1 + s M) with s = o (-1)^<F, M>; for s = -1 the row G
    that the measurement replaces anticommutes with M and fixes the
    reference state up to sign, so (1 - M)|ref> = +-G (1 + M)|ref>, and the
    frame becomes F G.

    Trials run in batches of `BATCH_TRIALS`. The random numbers of a trial
    are drawn in the tableau harness's order: the X then the Z noise of
    every qubit when p > 0, then per plaquette the outcome draw of a random
    measurement and the flip draw when q > 0. Their count is static per
    reference, so one `philox_uniforms` call draws a batch, as wide as the
    reference that draws most; row i is a prefix of trial i's own generator
    stream, and a reference that draws fewer leaves the tail unread. Each
    round's correction comes from the plan's decode table by key
    (`SingleShotPlan.decode`). Every trial and every statistic therefore
    equals the tableau harness's bit for bit (asserted in the test suite),
    and no `Tableau` method runs per trial. Trial indices must lie in
    [0, 2^64).
    """
    _check_trial_range(trial_offset, trials)
    plan = single_shot_plan(code)
    stats = TrialStats()
    n, q = code.n, noise.q_meas
    noisy = noise.p_qubit > 0
    width = (2 * n if noisy else 0) + max(
        ref.draws + (len(plan.order) * len(ref.rounds) if q > 0 else 0)
        for ref in plan.references.values()
    )
    sizes_seen: Counter = Counter()
    end = trial_offset + trials
    for first in range(trial_offset, end, BATCH_TRIALS):
        count = min(BATCH_TRIALS, end - first)
        stats.trials += count
        u = philox_uniforms(noise.seed, first, count, width)
        if noisy:  # the X then the Z error of every qubit, packed per row
            frames = _row_masks(u[:, : 2 * n] < noise.p_qubit)
            rows = u[:, 2 * n :].tolist()
        else:
            frames = [0] * count
            rows = u.tolist()
        for t, frame, row in zip(range(first, first + count), frames, rows):
            logical = (
                ("zero" if t % 2 == 0 else "plus") if code.L.generators else None
            )
            ref = plan.references[logical]
            fx, fz = frame & plan.all_mask, frame >> n
            draws = iter(row)
            for basis, round_steps in ref.rounds:
                outcomes, key = [], 0
                for mask, value, gx, gz, key_mask in round_steps:
                    # a Z-type plaquette reads the frame's X part, and vice versa
                    flipped = ((fx if basis == "Z" else fz) & mask).bit_count() & 1
                    if value is None:
                        up = next(draws) < 0.5
                        if up == flipped:
                            fx ^= gx
                            fz ^= gz
                        value = 1 if up else -1
                    elif flipped:
                        value = -value
                    if q > 0 and next(draws) < q:
                        value = -value
                    if value < 0:
                        key ^= key_mask
                    outcomes.append(value)
                correction, sizes = plan.decode(basis, key, outcomes)
                sizes_seen[sizes] += 1
                if basis == "Z":
                    fx ^= correction
                else:
                    fz ^= correction
            if logical is None:
                if any(
                    value != (-1) ** _parity((fx & gz) ^ (fz & gx))
                    for gx, gz, value in ref.stabilizers
                ):
                    stats.failures["stabilizer"] += 1
                continue
            # the final ideal decode: Z-type cells, X correction, then X-type cells
            fx ^= plan.cell_table[_syndrome(ref.cells_z, plan.cell_masks, fx)]
            fz ^= plan.cell_table[_syndrome(ref.cells_x, plan.cell_masks, fz)]
            kind = "Z" if logical == "zero" else "X"
            if ref.logical != (-1) ** _parity((fx if kind == "Z" else fz) & plan.all_mask):
                stats.failures[kind] += 1
    for sizes, times in sizes_seen.items():
        for size in sizes:
            stats.delta0_hist[size] += times
    return stats


def _row_masks(bits: np.ndarray) -> list[int]:
    """Each row of a (rows, k) bool array as an int, bit j holding column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
    ]


def _syndrome(reference: tuple, masks: list[int], frame: int) -> tuple:
    """Check bits of the framed state: the reference bits flipped by the
    frame's overlap parity with each check."""
    return tuple(bit ^ _parity(frame & mask) for bit, mask in zip(reference, masks))


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
