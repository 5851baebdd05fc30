"""Seeded Monte Carlo harness for collapse, single-shot and jump experiments.

Each trial is keyed by (seed, trial index) through a counter-based
generator, so any partition of trials over workers reproduces identical
statistics. Residual errors are tracked exactly: a collapse's residual
class (syndrome plus logical action) is computed algebraically and reduced
to its minimum-weight representative for the histograms.

Every trial is the `jump` protocol code run on one of two trial runners.
The concrete one, `jump.TableauTrial`, runs it on a tableau: the tableau
trials here (`_tableau_run`, `jump_trial`), the exact oracle. The
symbolic one, `_Frame`, is Stim's reference sample plus Pauli frame
(Gidney, arXiv 2103.02202) reached by symbolic execution: a copy of the
encoded state with every random outcome forced to +1, and the frame as
GF(2) affine forms (`_Forms`) over the trial's draw bits, where a draw is
a column, a read a form and a table read a lookup. No protocol branches on
a bit, so one run per reference state and noise structure (p > 0, q > 0)
compiles a trial into a `FrameProgram`. The runs share every draw, lookup
and output but the last, the reference's logical bit, so the program is
one run with one logical bit per reference at its end. Its runner does a
batch of `BATCH_TRIALS` trials as one vectorised Philox draw
(`noise.philox_words`, the same words as each trial's own generator) and
table gathers only.

A plan holds what its programs are compiled from and caches them: the
collapse's `CollapsePlan`, once per context, with the residual-coset
tables that both collapse engines count with; a code's `SingleShotPlan`;
and the `JumpPlan` of `jump blowup` and `roundtrip` (`jump_trials`). The
tableau collapse engine draws a batch with one `philox_words` call too,
each trial reading its row through a `noise.TrialStream`. A tableau
collapse trial computes only what the tally and the residual key read: the
3D error masks, the slot outcome bits and rows, and the failure. The
collapse's report (records, repairs, applied strings, and the logical flags
read off the tableau) is built only for a trace line, by the one builder
both engines report through (`_trial_result`). Both engines and the
single-shot trials fold their trials into the statistics through one
per-batch tally (`_tally`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gf2 import BitMatrix, checks_table
from .jump import (
    JumpContext,
    TableauTrial,
    _blow_up,
    _code_dual_structure,
    _collapse,
    _decode_checks,
    _set_bits,
    _single_shot_ec,
    _slot_report,
    _tensor_inner,
    check_readout,
    discard_qubits,
    encoded_state,
    logical_operator,
    plaquette_checks,
)
from .noise import (
    NoiseSpec,
    TrialStream,
    philox_words,
    to_mask,
    trial_rng,
    uniforms,
    word_threshold,
)
from .pauli import PauliOperator
from .tableau import Tableau


@dataclass
class TrialStats:
    trials: int = 0
    failures: Counter = field(default_factory=Counter)  # logical kind -> count
    residual_weight_hist: Counter = field(default_factory=Counter)
    delta0_hist: Counter = field(default_factory=Counter)
    max_residual_component: int = 0

    def merge(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(
            self.trials + other.trials,
            self.failures + other.failures,
            self.residual_weight_hist + other.residual_weight_hist,
            self.delta0_hist + other.delta0_hist,
            max(self.max_residual_component, other.max_residual_component),
        )

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


# -- frame programs -----------------------------------------------------------------

# what a trial's Philox column is compared against: p, 1/2 or q
_NOISE, _OUTCOME, _FLIP = range(3)


class _Forms:
    """One trial run on affine forms over GF(2), as `FrameProgram` reads it.

    A form is an int mask over the trial's variables, bit j for variable j:
    variable 0 is the constant 1 (`one`), then one per Philox column the
    trial reads (`draw`) and per correction bit a lookup applies
    (`look_up`), in order. `outputs` holds every lookup's key forms, then
    the final key's.
    """

    def __init__(self):
        self.one, self.vars = 1, 1
        self.kinds = []  # per draw column: _NOISE, _OUTCOME or _FLIP
        self.draws = []  # per draw column: its variable
        self.outputs = []
        self.lookups = []  # (first output, key bits, first variable, table, sizes)

    def draw(self, kind) -> int:
        """The bit of the trial's next Philox column."""
        self.kinds.append(kind)
        self.draws.append(self.vars)
        self.vars += 1
        return 1 << self.vars - 1

    def look_up(self, key: list[int], table: np.ndarray, sizes=None) -> list[int]:
        """Output `key` (its bit i is key[i]); returns the forms of the 0/1
        correction in row key of `table`. `sizes`, if given, holds each
        row's |delta0|."""
        self.lookups.append((len(self.outputs), len(key), self.vars, table, sizes))
        self.outputs += key
        self.vars += table.shape[1]
        return [1 << j for j in range(self.vars - table.shape[1], self.vars)]


class _Frame:
    """The symbolic trial runner: one trial on affine forms (`forms`)
    against its reference state.

    The reference is a copy of an encoded state on which every random
    outcome is forced to +1. The frame F = (fx, fz), one form per qubit, is
    the Pauli that maps the reference onto the trial's state; noise and
    corrections XOR into it. A determinate outcome of M is the reference
    value times (-1)^<F, M>. A random one is an outcome draw o: the
    reference was projected with (1 + M)/2, and (1 + oM) F = F (1 + sM)
    with s = o (-1)^<F, M>; for s = -1 the row G that the measurement
    replaces anticommutes with M and fixes the reference up to sign, so
    (1 - M)|ref> = +-G (1 + M)|ref>, and the frame becomes F G. Operators
    measured or read must be Hermitian, as `Tableau`'s are. A draw is a
    column (`_Forms.draw`), a table read a lookup (`_Forms.look_up`); the
    discard and the blow-up run on the reference and restrict or spread the
    frame. A rate is only tested for being nonzero.
    """

    def __init__(self, forms: _Forms, state: Tableau, noisy: bool = False):
        self.forms, self.state = forms, state.copy()
        self.fx, self.fz = [0] * state.n, [0] * state.n
        self.noise(noisy)

    def noise(self, noisy) -> None:
        """Noise draws on every qubit, X then Z, when `noisy` (p > 0)."""
        if noisy:
            for half in (self.fx, self.fz):
                for q in range(len(half)):
                    half[q] ^= self.forms.draw(_NOISE)

    def flips(self, rate, count: int) -> list[int]:
        """`count` flip draws (at q) when `rate` is nonzero, else zeros."""
        return [self.forms.draw(_FLIP) for _ in range(count)] if rate else [0] * count

    def _parity(self, op: PauliOperator) -> int:
        """<F, op>: the frame's X part reads op's Z part, and vice versa."""
        return _sum_forms(self.fx, op.z) ^ _sum_forms(self.fz, op.x)

    def measure(self, op: PauliOperator) -> int:
        """The outcome bit (1 for -1) of measuring op on the trial."""
        one, state = self.forms.one, self.state
        flipped = self._parity(op)
        row = state.pivot_row(op)
        value = state.measure(op, force=1)
        if row is None:
            return flipped ^ (one if value < 0 else 0)
        up = self.forms.draw(_OUTCOME)
        taken = one ^ up ^ flipped  # the frame takes G when up == flipped
        for q in _set_bits(row.x):
            self.fx[q] ^= taken
        for q in _set_bits(row.z):
            self.fz[q] ^= taken
        return one ^ up  # the outcome is -1 unless up

    def read(self, op: PauliOperator) -> int:
        """The bit (1 for -1) of a check that the reference holds definitely."""
        value = self.state.expect(op)
        if value is None:
            raise ValueError(f"check {op!r} has no definite value")
        return self._parity(op) ^ (self.forms.one if value < 0 else 0)

    def look_up(self, key: list[int], table, basis: str, positions=None) -> None:
        """Look row `key` of the `jump.Lookup` up and XOR its correction
        into the frame's `basis` half, on `positions` (None: in order)."""
        bits = self.forms.look_up(key, table.bits, table.sizes)
        half = self.fx if basis == "X" else self.fz
        for q, bit in zip(range(len(bits)) if positions is None else positions, bits):
            half[q] ^= bit

    def discard(self, drop) -> "_Frame":
        """The frame on the kept qubits: the reference discards `drop`."""
        self.state = discard_qubits(self.state, list(drop))
        dropped = set(drop)
        keep = [q for q in range(len(self.fx)) if q not in dropped]
        self.fx, self.fz = [self.fx[q] for q in keep], [self.fz[q] for q in keep]
        return self

    def blown_up(self, ctx: JumpContext) -> "_Frame":
        """The frame on the context's 3D qubits: the 2D frame on the outer
        qubits, the identity on the fresh inner ones."""
        self.state = _tensor_inner(ctx, self.state)
        fx, fz = [0] * ctx.n3, [0] * ctx.n3
        for q, v in enumerate(ctx.split.outer_vertices):
            fx[v], fz[v] = self.fx[q], self.fz[q]
        self.fx, self.fz = fx, fz
        return self


# Consecutive lookups merge while the merged table keeps at most
# 2^MERGED_KEY_BITS rows: 4096 int64 rows are 32 KiB, about a
# core's L1 data cache, so one gather costs what each small one did.
MERGED_KEY_BITS = 12

# the value of each of an octet's 8 draw bits in its byte
_BIT_VALUES = (1 << np.arange(8)).astype(np.uint8)


class FrameProgram:
    """A plan's trials under one noise structure (p > 0, q > 0), compiled
    from one `_Forms` pass.

    A trial's input is b, one bit per column of its Philox row: u < p on a
    noise column, u < 1/2 on an outcome draw, u < q on a flip draw (`kinds`).
    Trial t reads row t mod rows of `fail`, its reference's row, at its
    final key. Every output form splits into a constant, a part over b and
    a part over the corrections, each an int64 word of output bits. As in
    the Method of Four Russians (Albrecht, Bard & Hart, arXiv 0811.1714),
    b's columns go 8 to an octet, and entry v of an octet's table holds the
    XOR of the words its columns at the set bits of v toggle (`tables`,
    octets by 256; octet 0's entries also hold the constant). Entry k of
    lookup j holds the parity of correction k with the correction part of
    every output after key j (`lookups`: (key bits, effects) per lookup). A
    run of consecutive lookups none of whose keys reads a correction of an
    earlier one in the run merges into one step over the joined key, up to
    `MERGED_KEY_BITS` (`steps`). A batch (`run`) is the draw: one
    `philox_words` call, each raw word compared with its column's threshold
    times 2^11 (`noise.word_threshold`); then the core (`run_bits`): the
    XOR of one table entry per octet of draw bits, every output bit of a
    trial in one int64, then per step of `bits` key bits, key = packed &
    (2^bits - 1) and packed = packed >> bits ^ effects[key]; what is left
    is the final key, which indexes `fail`.
    """

    def __init__(self, forms: _Forms, fail: np.ndarray):
        outs = len(forms.outputs)
        if outs > 63:
            raise ValueError(f"{outs} output bits do not pack into one int64")
        self.fail, self.kinds, self.width = fail, np.array(forms.kinds, int), len(forms.kinds)
        weights = 1 << np.arange(outs, dtype=np.int64)
        dense = BitMatrix(forms.outputs, forms.vars).to_dense().astype(np.int64)
        # the word each draw column toggles, 8 columns to an octet, and at
        # least one octet, whose table also holds the constant
        octets = max(1, -(-self.width // 8))
        toggles = np.zeros((octets, 1, 8), np.int64)
        toggles.flat[: self.width] = weights @ dense[:, forms.draws]
        byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
        self.tables = np.bitwise_xor.reduce(toggles * byte_bits, axis=-1)
        self.tables[0] ^= weights @ dense[:, 0]
        self.starts = np.arange(octets * 256, step=256)[:, None]  # where octet o's row starts
        self.lookups = []
        for lo, bits, var, table, _ in forms.lookups:
            part = dense[:, var : var + table.shape[1]]
            effects = (table.astype(np.int64) @ part.T & 1) @ weights >> lo + bits
            self.lookups.append((bits, effects))
        self.steps = [_merged_step(run) for run in _mergeable_runs(self.lookups)]
        self._limits = None, None  # the last (p, q) and what `_thresholds` returned
        # the |delta0| rows of the lookups that carry them, one after the
        # other from each one's offset; a round trip mixes widths and counts none
        sized = [sizes for *_, sizes in forms.lookups if sizes is not None]
        if len({rows.shape[1] for rows in sized}) == 1:
            self.size_rows = np.concatenate(sized)
            self.size_offsets = np.cumsum([0] + [len(rows) for rows in sized[:-1]])

    def run(self, noise: NoiseSpec, first: int, count: int) -> tuple[np.ndarray, ...]:
        """(reference, draw bits, key of every lookup, final key, failed)
        of trials first, first + 1, ..., one row per trial: the draw, then
        `run_bits`."""
        thresholds, certain = self._thresholds(noise.p_qubit, noise.q_meas)
        ref = (first % len(self.fail) + np.arange(count)) % len(self.fail)  # zero on even trials
        # draws down, trials across, as the words come; the draw bits of
        # the columns past `width`, up to a whole octet, are 0
        words = philox_words(noise.seed, first, count, self.width).T
        bits = np.zeros((8 * len(self.tables), count), dtype=bool)
        np.less(words, thresholds, out=bits[: self.width])
        if certain is not None:
            bits[: self.width] |= certain
        return ref, bits[: self.width].T, *self.run_bits(bits, ref)

    def run_bits(self, bits: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, ...]:
        """(key of every lookup, final key, failed) of the trials whose draw
        bits are the columns of `bits` (bool, 8 rows per octet of `tables`,
        row j draw column j and 0 past `width`), trial i from reference
        ref[i], one row per trial."""
        # bit j of octet o's byte is draw column 8o + j, read from row o
        octets = bits.view(np.uint8).reshape(len(self.tables), 8, -1)
        octets = np.einsum("ojt,j->ot", octets, _BIT_VALUES) + self.starts
        packed = np.bitwise_xor.reduce(self.tables.ravel()[octets], axis=0)
        keys = np.empty((len(self.lookups), len(packed)), dtype=np.int64)
        j = 0
        for key_bits, shifts, masks, effects in self.steps:
            parts = keys[j : j + len(shifts)]
            j += len(shifts)
            if len(shifts) == 1:  # the step's key is its one lookup's key
                key = np.bitwise_and(packed, (1 << key_bits) - 1, out=parts[0])
            else:
                key = packed & (1 << key_bits) - 1
                np.right_shift(key, shifts, out=parts)
                parts &= masks
            packed >>= key_bits
            packed ^= effects[key]
        return keys.T, packed, self.fail[ref, packed]

    def _thresholds(self, p: float, q: float) -> tuple:
        """Each draw column's threshold times 2^11 as a (width, 1) uint64
        column: (w >> 11) < T exactly when w < T * 2^11. A rate of 1 would
        need 2^64, so its columns compare with 0, and the second array
        (None unless some rate is 1) marks them to set after."""
        rates, got = self._limits
        if rates != (p, q):
            limits = [int(word_threshold(rate)) << 11 for rate in (p, 0.5, q)]
            columns = np.array([limit % 2**64 for limit in limits], np.uint64)[self.kinds, None]
            certain = None
            if 2**64 in limits:
                certain = np.array([limit == 2**64 for limit in limits])[self.kinds, None]
            got = columns, certain
            self._limits = (p, q), got
        return got

    def sizes(self, keys: np.ndarray) -> np.ndarray:
        """(trials, lookups, ...) |delta0| of every sized lookup's entry at
        its key, from `keys`, the keys of the lookups that carry |delta0|
        rows, in order."""
        return self.size_rows[keys + self.size_offsets]


def _mergeable_runs(lookups: list) -> list[list]:
    """`lookups` ((key bits, effects) each) cut into runs of consecutive
    lookups that merge: no key of a run reads the correction of an earlier
    lookup of the run, and the joined key has at most `MERGED_KEY_BITS`."""
    runs = []
    for bits, effects in lookups:
        run = runs[-1] if runs else []
        # an earlier lookup's effect reaches this key past the key bits of
        # the lookups between them
        reads, between = False, 0
        for b, e in reversed(run):
            reads |= bool((e >> between & (1 << bits) - 1).any())
            between += b
        if run and between + bits <= MERGED_KEY_BITS and not reads:
            run.append((bits, effects))
        else:
            runs.append([(bits, effects)])
    return runs


def _merged_step(run: list) -> tuple:
    """(joined key bits, each part's shift and mask in the joined key, and
    the effects per joined key) of a run of merging lookups; the first
    lookup's key holds the lowest bits."""
    bits = [b for b, _ in run]
    total = sum(bits)
    shifts = np.cumsum([0] + bits[:-1])
    key = np.arange(1 << total)
    effects = np.zeros(1 << total, np.int64)
    for shift, (b, e) in zip(shifts, run):
        effects ^= e[key >> shift & (1 << b) - 1] >> total - shift - b
    return total, shifts[:, None], (1 << np.array(bits))[:, None] - 1, effects


class _Compiled:
    """A plan whose trial compiles into one `FrameProgram` per noise
    structure: p > 0 (`noisy`) and q > 0 (`flips`) decide which draws a
    trial makes, and nothing else about the noise enters it. A plan holds
    its `references` (trial t starts from reference t mod their number),
    `_trial(frame, i, noisy, flips)`: the `jump` protocol code run on a
    `_Frame` of reference i, returning the final key's forms, whose last is
    the reference's logical bit, and its failure table `fail` (rows by
    reference, columns by the program's final key: the first reference's
    final key, then every later reference's logical bit).
    """

    def program(self, noisy: bool, flips: bool) -> FrameProgram:
        got = self._programs.get((noisy, flips))
        if got is None:
            got = self._programs[noisy, flips] = self._compile(noisy, flips)
        return got

    def _compile(self, noisy: bool, flips: bool) -> FrameProgram:
        """The one compile: the trial run once per reference, each pass on
        its own `_Forms`. Every later pass must make the first's draws and
        every output of it but the last (the lookup keys among them); the
        program is the first pass with the later passes' last outputs after
        its own. A key too wide for the program is refused before that."""
        passes = []
        for i, state in enumerate(self.references):
            forms = _Forms()
            forms.outputs += self._trial(_Frame(forms, state), i, noisy, flips)
            passes.append(forms)
        first, *later = passes
        shared = first.kinds, first.draws, first.outputs[:-1]
        first.outputs += [forms.outputs[-1] for forms in later]
        program = FrameProgram(first, self.fail)
        for i, forms in enumerate(later, 1):
            if (forms.kinds, forms.draws, forms.outputs[:-1]) != shared:
                raise ValueError(f"reference {i} differs from reference 0 before its last output")
        return program


def _sum_forms(forms: list[int], mask: int) -> int:
    """The GF(2) sum of the forms at the set bits of `mask`."""
    total = 0
    for q in _set_bits(mask):
        total ^= forms[q]
    return total


# -- compiled collapse plan -------------------------------------------------------


class CollapsePlan(_Compiled):
    """Static tables of one context's collapse trials, compiled once and
    cached on the context (`collapse_plan`), which both engines share.

    A residual on one CSS side is an outer error vector modulo the plaquette
    stabilizers. Its coset key is the plaquette syndrome bits, then the
    weight parity (which separates the two logical classes: plaquettes have
    even weight, the logical odd); keys pack into ints, the X side in the
    low bits. Dense tables over every residual key hold the weight and the
    largest connected component of the coset's lightest member
    (`residual_weight`, `residual_component`). A program's final key is
    the residual key (`residual_bits` wide), then one logical bit per
    reference after the decode: the Z logical's from `zero`, then the X
    logical's from `plus`. Reference i fails on its own bit.
    """

    def __init__(self, ctx: JumpContext):
        n2, n3 = ctx.n2, ctx.n3
        checks = plaquette_checks(ctx.code2) + [tuple(range(n2))]
        outer = list(ctx.split.outer_vertices)
        # residual coset key bit j of one side is the parity of (3D error on
        # that side | applied correction << n3) over key_masks[j], or of the
        # 2D frame after the collapse over side_masks[j]
        self.ctx, self.n3 = ctx, n3
        self.key_masks = [
            sum(1 << outer[q] for q in chk) | sum(1 << q for q in chk) << n3 for chk in checks
        ]
        self.side_masks = [sum(1 << q for q in chk) for chk in checks]
        self.side_bits = len(checks)
        self.residual_bits = 2 * self.side_bits
        # (syndrome, parity) -> lexicographically first minimum-weight member:
        # the (weight, lex) order of min_weight_table is the tie-break
        cosets = checks_table(n2, checks)
        self.coset_min = {_pack(key): support for key, support in cosets.items()}
        adjacency = _outer_adjacency(ctx)
        keys = 1 << self.residual_bits
        self.residual_weight = np.zeros(keys, dtype=np.uint8)
        self.residual_component = np.zeros(keys, dtype=np.uint8)
        for key_x, sx in self.coset_min.items():
            for key_z, sz in self.coset_min.items():
                key = key_x | key_z << self.side_bits
                self.residual_weight[key] = len(sx) + len(sz)
                self.residual_component[key] = _max_component(sx + sz, adjacency)
        self.references = [ctx.states3[logical] for logical, _ in _TRACKED]
        self.fail = _own_bit_fails(self.residual_bits, len(_TRACKED))
        self._programs = {}

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

    def _trial(self, frame, i: int, noisy: bool, flips: bool) -> list[int]:
        """The collapse trial of reference i as `_tableau_run` runs it; the
        residual key reads the 2D frame between the collapse and the decode."""
        ctx = self.ctx
        frame.noise(noisy)
        outer = _collapse(ctx, frame, flips)[0]
        residual = [_sum_forms(half, m) for half in (outer.fx, outer.fz) for m in self.side_masks]
        _decode_checks(outer, ctx.plaquettes2)
        return residual + [outer.read(ctx.logicals2[_TRACKED[i][1]])]


def _own_bit_fails(low: int, refs: int) -> np.ndarray:
    """The failure table of a final key whose bits from `low` on are one
    logical bit per reference: reference i fails when its bit low + i is 1."""
    return np.arange(1 << low + refs) >> low + np.arange(refs)[:, None] & 1 == 1


def collapse_plan(ctx: JumpContext) -> CollapsePlan:
    """The context's collapse plan, compiled on first use."""
    plan = ctx._plans.get("collapse")
    if plan is None:
        plan = ctx._plans["collapse"] = CollapsePlan(ctx)
    return plan


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


def _trial_result(ctx, t, ex, ez, measured, rows, flags, failed) -> _TrialResult:
    """Collapse trial t's report, built from its raw values, as both engines
    hold them: the 3D error masks, the slot outcome bits and each slot's row
    (`jump._collapse`), the logical flags and the failure."""
    records, repairs, applied = _slot_report(ctx, measured, rows)
    return _TrialResult(_TRACKED[t % 2][0], ex, ez, records, repairs, applied, flags, failed)


@dataclass
class _Batch:
    """Trials first, first + 1, ... of one engine call, as arrays."""

    keys: np.ndarray  # packed residual coset key per trial
    delta0_sizes: np.ndarray  # (trials, slots, ...): |delta0| of every repair
    failed: np.ndarray  # bool per trial
    result: Callable[[int], _TrialResult]  # trial first + i, for trace lines


class CollapseEngine:
    """Batched fast path for collapse trials: the context's collapse
    `FrameProgram` (`CollapsePlan._trial`) on a batch of trials at once. It
    draws and looks up as the tableau collapse does, so both engines
    produce identical trials (asserted in the test suite). `run_trial` is a
    batch of one; `result` rebuilds a trial's raw values from the batch's
    draw bits and lookup keys, and its logical flag from the residual key,
    and reports them as the tableau engine does (`_trial_result`).
    """

    def __init__(self, ctx: JumpContext):
        self.ctx = ctx
        self.plan = collapse_plan(ctx)

    def run_trial(self, noise: NoiseSpec, t: int) -> _TrialResult:
        return self.run_batch(noise, t, 1).result(0)

    def run_batch(self, noise: NoiseSpec, first: int, count: int) -> _Batch:
        ctx, plan = self.ctx, self.plan
        program = plan.program(noise.p_qubit > 0, noise.q_meas > 0)
        ref, bits, seen_patterns, final, failed = program.run(noise, first, count)
        keys = final & (1 << plan.residual_bits) - 1
        n3 = ctx.n3
        noise_cols = 2 * n3 if noise.p_qubit > 0 else 0  # the X then the Z error of every qubit
        rows = seen_patterns[:, : len(ctx.slots)]

        def result(i: int) -> _TrialResult:
            err, row = bits[i, :noise_cols], rows[i].tolist()
            # a dual's outcome bit is its bit of the slot's row, unflipped
            flips = iter(bits[i, noise_cols:].tolist() or [0] * ctx.dual_count)
            measured = [
                k >> j & 1 ^ next(flips) for k, (_, _, duals) in zip(row, ctx.slots)
                for j in range(len(duals))
            ]
            key_x, key_z = plan.split_key(int(keys[i]))
            kind = _TRACKED[ref[i]][1]
            # the observable logical reads the parity of the residual on the
            # opposite side
            side_key = key_x if kind == "Z" else key_z
            flags = {"Z": None, "X": None}
            flags[kind] = -1 if side_key >> (plan.side_bits - 1) else 1
            ex, ez = to_mask(err[:n3]), to_mask(err[n3:])
            return _trial_result(ctx, first + i, ex, ez, measured, row, flags, bool(failed[i]))

        return _Batch(keys, program.sizes(rows), failed, result)


# Trials per batch: each batch pays a fixed cost for its numpy calls, and
# past 1024 trials the Philox kernel's cost per trial rises again. Medians
# of 9 runs on warm tables, 2 vCPUs, us/trial at 256, 512, 1024 and 2048:
# tetra15 collapse at p = q = 0.05 2.44, 1.69, 1.71, 2.29; single-shot at
# p = q = 0.02 2.86, 2.85, 3.66, 4.42 on tetra15 and 1.76, 1.67, 1.03, 1.02
# on the inner code. No size beats 512 on both engines.
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
    noiseless decode on the collapsed 2D state. `engine` selects the frame
    program (`CollapseEngine`) or the tableau pipeline (`_tableau_batch`);
    both produce bit-identical trials. Trial indices must lie in [0, 2^64).
    """
    if engine not in ("fast", "tableau"):
        raise ValueError(f'unknown engine {engine!r}: use "fast" or "tableau"')
    _check_trial_range(trial_offset, trials)
    end = trial_offset + trials
    plan = collapse_plan(ctx)
    if engine == "fast":
        run_batch = CollapseEngine(ctx).run_batch
    else:

        def run_batch(noise, first, count):
            return _tableau_batch(ctx, noise, first, count, trace_fh is not None)

    stats = TrialStats()
    for first in range(trial_offset, end, BATCH_TRIALS):
        batch = run_batch(noise, first, min(BATCH_TRIALS, end - first))
        _tally(stats, first, batch.failed, batch.delta0_sizes, _TRACKED_KINDS)
        # Residual class: trials start from a fresh state with trivial flux,
        # so after discarding, the outer deviation from the reference encoded
        # state is exactly the injected outer error times the applied
        # correction (a pure inner error never reaches the outer block).
        _add_counts(stats.residual_weight_hist, plan.residual_weight[batch.keys])
        stats.max_residual_component = max(
            stats.max_residual_component, int(plan.residual_component[batch.keys].max())
        )
        if trace_fh is not None:
            for i in range(len(batch.keys)):
                trace_fh.write(_trace_line(noise, first + i, batch.result(i)) + "\n")
    return stats


def _tally(stats: TrialStats, first: int, failed, delta0_sizes, kinds: tuple) -> None:
    """Fold the trial count, |delta0| histogram and failures of a batch of
    trials first, first + 1, ... into the statistics; a failure of trial t
    counts as `kinds[t % len(kinds)]`."""
    stats.trials += len(failed)
    _add_counts(stats.delta0_hist, delta0_sizes)
    for j, kind in enumerate(kinds):
        rows = failed[(j - first) % len(kinds) :: len(kinds)]
        if rows.any():
            stats.failures[kind] += int(rows.sum())


def _add_counts(counter: Counter, values: np.ndarray) -> None:
    """Add how often each value of a non-negative int array occurs."""
    counts = np.bincount(values.ravel(order="K"))  # memory order: no copy
    for value in np.flatnonzero(counts).tolist():
        counter[value] += int(counts[value])


def _tableau_batch(ctx, noise, first, count, keep: bool) -> _Batch:
    """Tableau-engine trials as a batch: the tally values of every trial,
    and the trial reports themselves only when `keep` (a trace needs them).

    Each trial runs the protocol and nothing else (`_tableau_run`) and
    keeps its raw values; its applied strings and |delta0| sizes come from
    its slot rows of `ctx.slot_repairs`, and its residual key from those
    (`CollapsePlan.residual_key`). Only a traced trial reads the logical
    flags and has its report built (`_trial_result`). The trials run one
    by one, but draw with one `philox_words` call: each trial reads its
    row, the words its own generator would give (the X then the Z noise of
    every qubit when p > 0, then one flip per dual of every slot when q >
    0), through a `TrialStream`."""
    plan = collapse_plan(ctx)
    width = 2 * ctx.n3 if noise.p_qubit > 0 else 0
    if noise.q_meas > 0:
        width += ctx.dual_count
    draws = uniforms(philox_words(noise.seed, first, count, width))
    keys, sizes, failed, kept = [], [], [], []
    for t, row in enumerate(draws, first):
        raw = _tableau_run(ctx, noise, t, TrialStream(noise.seed, t, row), keep)
        ex, ez, _, rows, _, bad = raw
        applied = {"X": 0, "Z": 0}
        for table, k in zip(ctx.slot_repairs, rows):
            r = table[k]
            applied[r.kind] ^= r.correction.x | r.correction.z
            sizes.append(len(r.delta0))
        keys.append(plan.residual_key(ex, ez, applied))
        failed.append(bad)
        if keep:
            kept.append(_trial_result(ctx, t, *raw))
    sizes = np.array(sizes).reshape(count, len(ctx.slots))
    return _Batch(np.array(keys, dtype=np.int64), sizes, np.array(failed), kept.__getitem__)


# the encoded state and the tracked logical's type of even and odd trials
_TRACKED = (("zero", "Z"), ("plus", "X"))
_TRACKED_KINDS = tuple(kind for _, kind in _TRACKED)


def _collapse_decode(ctx, trial, q: float, kind: str, flags: bool, injected_flips=None) -> tuple:
    """Collapse the 3D trial runner, then decode the 2D state noiselessly;
    returns the outcome bits and slot rows of `_collapse`, the values of
    both 2D logicals on the collapsed state before the decode (None unless
    `flags`), and whether the tracked `kind` logical then reads other than
    +1."""
    outer, measured, rows = _collapse(ctx, trial, q, injected_flips)
    state = outer.state
    seen = {k: state.expect(ctx.logicals2[k]) for k in ("Z", "X")} if flags else None
    _decode_checks(outer, ctx.plaquettes2)
    return measured, rows, seen, state.expect(ctx.logicals2[kind]) != 1


def _tableau_run(ctx, noise, t, rng, flags: bool) -> tuple:
    """Collapse trial t on a `TableauTrial` drawing from `rng`: a copy of
    its encoded state, qubit noise, then `_collapse_decode`. Returns its
    raw values, (ex, ez, outcome bits, slot rows, flags, failed)."""
    logical, kind = _TRACKED[t % 2]
    trial = TableauTrial(ctx.states3[logical].copy(), rng)
    ex, ez = trial.noise(noise.p_qubit)
    return ex, ez, *_collapse_decode(ctx, trial, noise.q_meas, kind, flags)


def _tableau_trial(ctx, noise, t, rng=None) -> _TrialResult:
    """Trial t on the tableau pipeline, reported, drawing from `rng` (by
    default the trial's own generator)."""
    if rng is None:
        rng = trial_rng(noise.seed, t)
    return _trial_result(ctx, t, *_tableau_run(ctx, noise, t, rng, True))


def _jump(ctx: JumpContext, trial, action: str, kind: str, p, q) -> int:
    """The `blowup` or `roundtrip` protocol on a 2D trial runner; returns
    the tracked `kind` logical's bit. A blow-up puts qubit noise on the 2D
    state and reads the logical on the outer qubits after it; a round trip
    puts it on the 3D state, then collapses and decodes noiselessly."""
    if action == "blowup":
        trial.noise(p)
        return _blow_up(ctx, trial, q).read(ctx.outer_logicals3[kind])
    if action != "roundtrip":
        raise ValueError(f'unknown jump action {action!r}: use "blowup" or "roundtrip"')
    state3 = _blow_up(ctx, trial, q)
    state3.noise(p)
    outer = _collapse(ctx, state3, q)[0]
    _decode_checks(outer, ctx.plaquettes2)
    return outer.read(ctx.logicals2[kind])


def jump_trial(ctx: JumpContext, noise: NoiseSpec, action: str, t: int, rng=None):
    """One tableau trial (`_jump` on a `TableauTrial`) of a `blowup` or a
    `roundtrip` from the 2D `zero` (t even) or `plus` state, drawing from
    `rng` (by default the trial's own generator); returns the tracked
    logical's value."""
    logical, kind = _TRACKED[t % 2]
    state = ctx.states2[logical].copy()
    trial = TableauTrial(state, trial_rng(noise.seed, t) if rng is None else rng)
    return -1 if _jump(ctx, trial, action, kind, noise.p_qubit, noise.q_meas) else 1


class JumpPlan(_Compiled):
    """`jump_trial` of one action, `blowup` or `roundtrip`: `_jump` run on
    a `_Frame` of the 2D `zero` and `plus` states; its final key is one bit
    per reference, its tracked logical's (Z from `zero`, X from `plus`),
    and reference i fails on bit i."""

    def __init__(self, ctx: JumpContext, action: str):
        if action not in ("blowup", "roundtrip"):
            raise ValueError(f'unknown jump action {action!r}: use "blowup" or "roundtrip"')
        self.ctx, self.action = ctx, action
        self.references = [ctx.states2[logical] for logical, _ in _TRACKED]
        self.fail = _own_bit_fails(0, len(_TRACKED))
        self._programs = {}

    def _trial(self, frame, i: int, noisy: bool, flips: bool) -> list[int]:
        return [_jump(self.ctx, frame, self.action, _TRACKED[i][1], noisy, flips)]


def jump_plan(ctx: JumpContext, action: str) -> JumpPlan:
    """The context's compiled plan of a jump action, built on first use."""
    plan = ctx._plans.get(action)
    if plan is None:
        plan = ctx._plans[action] = JumpPlan(ctx, action)
    return plan


def jump_trials(ctx: JumpContext, noise: NoiseSpec, action: str, trials: int):
    """The values of `jump_trial(ctx, noise, action, t)` for t = 0, 1, ...,
    trials - 1, run as the context's compiled jump program (`JumpPlan`),
    one batch per `BATCH_TRIALS` trials."""
    _check_trial_range(0, trials)
    program = jump_plan(ctx, action).program(noise.p_qubit > 0, noise.q_meas > 0)
    for first in range(0, trials, BATCH_TRIALS):
        failed = program.run(noise, first, min(BATCH_TRIALS, trials - first))[-1]
        yield from (-1 if bad else 1 for bad in failed.tolist())


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


def exhaustive_weight1_collapse(ctx: JumpContext) -> list:
    """Every single fault (outer/inner qubit Pauli or one measurement flip),
    run with no generator: every measurement is determinate, and a random
    outcome would raise. Returns the faults that caused a logical failure;
    the design target is an empty list (distance-3 guarantee)."""
    failures = []

    def failed(logical, inject=None, flips=None) -> bool:
        state = ctx.states3[logical].copy()
        if inject is not None:
            state.apply(inject)
        kind = "Z" if logical == "zero" else "X"
        return _collapse_decode(ctx, TableauTrial(state), 0.0, kind, False, flips)[-1]

    singles = [
        (f"{kind}{q}", PauliOperator(ctx.n3, (kind != "Z") << q, (kind != "X") << q))
        for q in range(ctx.n3)
        for kind in ("X", "Z", "Y")
    ]
    for logical in ("zero", "plus"):
        for label, op in singles:
            if failed(logical, inject=op):
                failures.append(("pauli", logical, label))
        for basis, pair, duals in ctx.slots:
            for ei in range(len(duals)):
                if failed(logical, flips={(pair, basis): {ei}}):
                    failures.append(("flip", logical, pair, basis, ei))
    return failures


# -- single-shot trials --------------------------------------------------------------

_ROUNDS = ("Z", "X")  # the bases of a trial's two rounds, in measurement order


class SingleShotPlan(_Compiled):
    """Static part of one code's single-shot trials, compiled once and
    cached on the code (`single_shot_plan`): each encoded state once
    (`references`: `zero` and `plus` for a tetrahedral code, the inner
    code's one state otherwise), the code's `jump.DualStructure` (`dual`),
    whose decode table serves both rounds (a round reaches the decoder only
    through its key), and on a tetrahedral code its cells compiled for the
    final decode. The final key of the inner code's program is one
    violation bit per stabilizer generator, and any violation fails; that
    of a tetrahedral code's is one logical bit per reference (Z from
    `zero`, X from `plus`), and reference i fails on bit i.
    """

    def __init__(self, code):
        self.code = code
        self.dual = _code_dual_structure(code)
        self.logicals = ("zero", "plus") if code.L.generators else (None,)
        self.references = [encoded_state(code, logical) for logical in self.logicals]
        if code.L.generators:
            self.cells = check_readout(code.n, [tuple(vs) for vs, _ in code.colex.cells])
            self.fail = _own_bit_fails(0, len(self.logicals))
        else:
            self.fail = (np.arange(1 << len(code.S.generators)) != 0)[None]
        self._programs = {}

    def _trial(self, frame, i: int, noisy: bool, flips: bool) -> list[int]:
        """Noise, then one `_single_shot_ec` round of each type. The final
        key is one violation bit per stabilizer generator on the inner code,
        else reference i's tracked logical's bit after the final decode of
        the cells."""
        code = self.code
        frame.noise(noisy)
        for basis in _ROUNDS:
            _single_shot_ec(frame, code, basis, flips)
        if self.logicals[i] is None:
            return [frame.read(op) for op in code.S.generators]
        _decode_checks(frame, self.cells)
        return [frame.read(logical_operator(code, _TRACKED[i][1]))]


def single_shot_plan(code) -> SingleShotPlan:
    """The code's single-shot plan, compiled on first use."""
    if code._single_shot_plan is None:
        code._single_shot_plan = SingleShotPlan(code)
    return code._single_shot_plan


def run_single_shot_trials(
    code,
    noise: NoiseSpec,
    trials: int,
    trial_offset: int = 0,
) -> TrialStats:
    """Single-shot harness: inner codes count stabilizer violations as
    failure (verified noiselessly); tetrahedral codes count logical flips
    after a final ideal decode.

    A trial prepares the encoded state (`zero`/`plus` by trial parity on
    tetrahedral codes), injects qubit noise, runs one noisy single-shot
    round of Z plaquettes and one of X plaquettes, then reads its failure:
    `SingleShotPlan._trial`, run as the plan's `FrameProgram` in batches of
    `BATCH_TRIALS`. Its draws come in the tableau harness's order, so every
    trial equals the tableau harness's bit for bit (asserted in the test
    suite). Trial indices must lie in [0, 2^64).
    """
    _check_trial_range(trial_offset, trials)
    plan = single_shot_plan(code)
    sizes = plan.program(noise.p_qubit > 0, noise.q_meas > 0).sizes
    stats = TrialStats()
    kinds = _TRACKED_KINDS if code.L.generators else ("stabilizer",)
    for first, keys, failed in _single_shot_batches(plan, noise, trial_offset, trials):
        _tally(stats, first, failed, sizes(keys), kinds)
    return stats


def _single_shot_batches(plan: SingleShotPlan, noise: NoiseSpec, trial_offset: int, trials: int):
    """(first trial, decode key of every round, failed) per batch of
    `BATCH_TRIALS` trials; the rounds' lookups come first."""
    program = plan.program(noise.p_qubit > 0, noise.q_meas > 0)
    end = trial_offset + trials
    for first in range(trial_offset, end, BATCH_TRIALS):
        _, _, keys, _, failed = program.run(noise, first, min(BATCH_TRIALS, end - first))
        yield first, keys[:, : len(_ROUNDS)], failed


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
