"""Seeded Monte Carlo harness for collapse and single-shot experiments.

Each trial is keyed by (seed, trial index) through a counter-based
generator, so any partition of trials over workers reproduces identical
statistics. Residual errors are tracked exactly: the harness knows the
injected noise, the true flux, and the applied corrections, so the residual
class (syndrome plus logical action) is computed algebraically and reduced
to its minimum-weight representative for the histograms.

Both batched engines run one program type, `FrameProgram`, in the manner
of Stim's frame sampling (Gidney, arXiv 2103.02202). A trial tracks only
its Pauli frame against a reference state, and between two decoder calls
it is affine over GF(2) in its draw bits. So one pass over affine forms
(`_Forms`) compiles it, once per noise structure (p > 0, q > 0), into
byte-indexed tables of its draw bits' effect and precomposed lookup
tables, and a batch of `BATCH_TRIALS` trials runs one vectorised Philox
draw (`noise.philox_words`, the same words as each trial's own generator,
compared as integers with `noise.word_threshold`), then table gathers
only: no matrix product and no per-trial Python call. Both compilers run
their trial on one frame state, `_Frame`: a copy of the encoded state
with every random outcome forced to +1, and the frame as one form per
qubit, which measures an operator (a random outcome is a draw, and the
frame takes the replaced row) and reads a check that the reference holds.

Collapse trials run on a `CollapsePlan`, compiled once per context and
cached on it: each residual coset's lightest member and its weight and
largest component per residual key, the final 2D decode reduced to a
per-coset logical flip, and the collapse program. That program has one
lookup per slot into the context's slot table (`JumpContext.slot_repairs`,
which the tableau collapse reads too); no slot's key reads another slot's
correction, so the compile merges them into one lookup over all slots. The tableau engine, the exact
oracle, runs its trials one by one through the tableau pipeline, but draws
a batch with one `philox_words` call as the batched engines do; each trial
reads its row through a `noise.TrialStream`, which returns what the
trial's own generator would. Its trial and the blow-up and round-trip
trials of `jump_trial` share one noise step and one collapse step, and
copy the encoded states the context builds once. Both engines, and the
single-shot trials below, fold their trials into the statistics through
the same per-batch tally (`_tally`); the collapse residual accounting is a
gather from a dense per-key table and `np.bincount` counts.

Single-shot trials run on a `SingleShotPlan`, compiled once per code and
cached on it. It builds each encoded state once, and its compile runs
both rounds and the final checks on a `_Frame` of each; see `_Frame` for
why a random outcome updates the frame by the replaced row. Its program
has one lookup per round into the code's decode table
(`jump.DualStructure`), which holds the one decoder's result for every
key.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flux import plaquette_operator
from .gf2 import BitMatrix, checks_table
from .jump import (
    JumpContext,
    _code_dual_structure,
    blow_up,
    collapse,
    encoded_state,
    ideal_decode_2d,
    logical_operator,
    plaquette_checks,
)
from .noise import (
    NoiseSpec,
    TrialStream,
    philox_words,
    sample_qubit_noise,
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

# what a trial's Philox column is compared against: nothing (a column that
# only another reference reads), p, 1/2 or q
_UNREAD, _NOISE, _OUTCOME, _FLIP = range(4)


class _Forms:
    """One trial run on affine forms over GF(2), as `FrameProgram` reads it.

    A form is an int mask over the trial's variables, bit j for variable j:
    variable 0 is the constant 1 (`one`), and the trial adds the others in
    the order it meets them, one per Philox column it reads (`draw`) and
    one per correction bit a lookup applies (`look_up`). `outputs` holds
    the key forms of every lookup, then those of the final key.
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

    def look_up(self, key: list[int], table: np.ndarray, sizes: np.ndarray) -> list[int]:
        """Output `key` (its bit i is key[i]); returns the forms of the 0/1
        correction in row key of `table`. `sizes` holds each row's |delta0|."""
        self.lookups.append((len(self.outputs), len(key), self.vars, table, sizes))
        self.outputs += key
        self.vars += table.shape[1]
        return [1 << j for j in range(self.vars - table.shape[1], self.vars)]


class _Frame:
    """One trial on affine forms (`forms`) against its reference state.

    The reference is a copy of an encoded state on which every random
    outcome is forced to +1. The frame F = (fx, fz), one form per qubit, is
    the Pauli that maps the reference onto the trial's state; it starts as
    the X then the Z noise draw of every qubit when `noisy`, else the
    identity, and corrections XOR into it. A determinate outcome of M is
    the reference value times (-1)^<F, M>. A random one is an outcome draw
    o: the reference was projected with (1 + M)/2, and (1 + oM) F =
    F (1 + sM) with s = o (-1)^<F, M>; for s = -1 the row G that the
    measurement replaces anticommutes with M and fixes the reference up to
    sign, so (1 - M)|ref> = +-G (1 + M)|ref>, and the frame becomes F G.
    Every operator measured or read must be Hermitian, as `Tableau`'s are.
    """

    def __init__(self, forms: _Forms, state: Tableau, noisy: bool):
        self.forms, self.state = forms, state.copy()
        n = state.n
        frame = [forms.draw(_NOISE) if noisy else 0 for _ in range(2 * n)]
        self.fx, self.fz = frame[:n], frame[n:]

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


# A run of consecutive lookups merges into one lookup over their joined key
# while the merged table keeps at most 2^MERGED_KEY_BITS rows per block:
# 4096 int64 rows are 32 KiB per block, about a core's L1 data cache, so
# the one gather stays as cheap as each of the small ones it replaces.
MERGED_KEY_BITS = 12

# the value of each of an octet's 8 draw bits in its byte
_BIT_VALUES = (1 << np.arange(8)).astype(np.uint8)


class FrameProgram:
    """A plan's trials under one noise structure (p > 0, q > 0), compiled.

    A trial's input is b, one bit per column of its Philox row: u < p on a
    noise column, u < 1/2 on an outcome draw, u < q on a flip draw (`kinds`).
    Trial t reads failure row t mod rows (`zero` on even trials, `plus` on
    odd ones) and runs block t mod rows mod `blocks`, one `_Forms` pass;
    `blocks` is 1 or the number of rows. Every output form splits into a
    constant, a part over b and a part over the corrections, each an int64
    word of output bits. As in the Method of Four Russians (Albrecht, Bard
    & Hart, arXiv 0811.1714), b's columns go 8 to an octet, and entry v of
    an octet's table holds the XOR of the words that its columns at the set
    bits of v toggle (`tables`). Entry k of lookup j holds the parity of
    correction k with the correction part of every later output, from the
    output after key j on (`lookups`, one (key bits, effects) per lookup of
    the forms). A run of consecutive lookups none of whose keys reads a
    correction of an earlier one in the run (the earlier effects are 0 on
    those key bits in every block) merges into one step over the joined
    key, up to `MERGED_KEY_BITS` (`steps`): its entry at the joined key is
    the XOR of the parts' entries, each shifted to start after the joined
    key. The tetra15 collapse's six slot lookups are one step of 4096 rows;
    single-shot keeps two, as round 2 reads round 1's correction. A batch
    runs table lookups only:

    1. one `philox_words` draw, each raw word compared with its column's
       threshold times 2^11 (`noise.word_threshold`), draws down and trials
       across as the words come, so no array is transposed;
    2. the draw bits packed into one byte per octet, and the XOR of one
       table entry per octet, octet 0's holding the block's constant:
       every output bit of a trial in one int64;
    3. per step of `bits` key bits, key = packed & (2^bits - 1), split into
       the key of every lookup it joins, then packed = packed >> bits ^
       effects[key];
    4. what is left is the final key, which indexes the failure table.

    The compares, the table gathers and the effect lookups run once per
    block on that block's trials (every `blocks`-th row), so no per-trial
    block index is gathered.
    """

    def __init__(self, blocks: list[_Forms], fail: np.ndarray):
        first = blocks[0]
        outs = len(first.outputs)
        if outs > 63:
            raise ValueError(f"{outs} output bits do not pack into one int64")
        self.blocks, self.fail = len(blocks), fail
        self.width = max(len(forms.kinds) for forms in blocks)
        self.kinds = np.full((self.blocks, self.width), _UNREAD)
        weights = 1 << np.arange(outs, dtype=np.int64)
        effects = [np.empty((self.blocks, len(table)), np.int64) for *_, table, _ in first.lookups]
        # the word each draw column toggles, 8 columns to an octet, and at
        # least one octet, whose table also holds the block's constant
        octets = max(1, -(-self.width // 8))
        toggles = np.zeros((self.blocks, octets, 1, 8), np.int64)
        constant = np.zeros((self.blocks, octets, 1), np.int64)
        for b, forms in enumerate(blocks):
            self.kinds[b, : len(forms.kinds)] = forms.kinds
            dense = BitMatrix(forms.outputs, forms.vars).to_dense().astype(np.int64)
            constant[b, 0] = weights @ dense[:, 0]
            toggles[b].flat[: len(forms.draws)] = weights @ dense[:, forms.draws]
            for effect, (lo, bits, var, table, _) in zip(effects, forms.lookups):
                part = dense[:, var : var + table.shape[1]]
                effect[b] = (table.astype(np.int64) @ part.T & 1) @ weights >> lo + bits
        byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
        # (blocks, octets, 256), and where each octet's row starts in a
        # block's table
        self.tables = np.bitwise_xor.reduce(toggles * byte_bits, axis=-1) ^ constant
        self.starts = np.arange(octets * 256, step=256)[:, None]
        self.lookups = [(bits, effect) for (_, bits, *_), effect in zip(first.lookups, effects)]
        self.steps = [_merged_step(run) for run in _mergeable_runs(self.lookups)]
        self._limits = None, None  # the last (p, q) and what `_thresholds` returned
        # every lookup's |delta0| rows, one after the other from its offset
        self.size_rows = np.concatenate([sizes for *_, sizes in first.lookups])
        self.size_offsets = np.cumsum([0] + [len(sizes) for *_, sizes in first.lookups[:-1]])

    def run(self, noise: NoiseSpec, first: int, count: int) -> tuple[np.ndarray, ...]:
        """(reference, draw bits, key of every lookup, final key, failed)
        of trials first, first + 1, ..., one row per trial."""
        thresholds, certain = self._thresholds(noise.p_qubit, noise.q_meas)
        refs = len(self.fail)
        ref = np.arange(first % refs, first % refs + count) % refs  # zero on even trials
        # the block-b trials, b = (first + i) mod blocks for trial first + i
        rows = [slice((b - first) % self.blocks, None, self.blocks) for b in range(self.blocks)]
        # draws down, trials across, as the words come; the draw bits of
        # the columns past `width`, up to a whole octet, are 0
        words = philox_words(noise.seed, first, count, self.width).T
        bits = np.zeros((self.tables.shape[1], 8, count), dtype=bool)
        drawn = bits.reshape(-1, count)[: self.width]
        for b, at in enumerate(rows):
            np.less(words[:, at], thresholds[b], out=drawn[:, at])
            if certain is not None:
                drawn[:, at] |= certain[b]
        # bit j of octet o's byte is draw column 8o + j; a block-b trial
        # reads that byte from row o of table b
        octets = np.einsum("ojt,j->ot", bits.view(np.uint8), _BIT_VALUES) + self.starts
        packed = np.empty(count, dtype=np.int64)
        for table, at in zip(self.tables, rows):
            np.bitwise_xor.reduce(table.ravel()[octets[:, at]], axis=0, out=packed[at])
        keys = np.empty((len(self.lookups), count), dtype=np.int64)
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
            for effect, at in zip(effects, rows):
                packed[at] ^= effect[key[at]]
        return ref, drawn.T, keys.T, packed, self.fail[ref, packed]

    def _thresholds(self, p: float, q: float) -> tuple:
        """Per block, each draw column's threshold times 2^11 as a (width,
        1) uint64 column, compared with the raw words: (w >> 11) < T
        exactly when w < T * 2^11. A rate of 1 (T = 2^53) would need 2^64,
        so its columns compare with 0, and the second array, None unless
        some rate is 1, marks the columns to set after the compare."""
        rates, got = self._limits
        if rates != (p, q):
            limits = [0] + [int(word_threshold(rate)) << 11 for rate in (p, 0.5, q)]
            columns = np.array([limit % 2**64 for limit in limits], np.uint64)[self.kinds, None]
            certain = None
            if 2**64 in limits:
                certain = np.array([limit == 2**64 for limit in limits])[self.kinds, None]
            got = columns, certain
            self._limits = (p, q), got
        return got

    def sizes(self, keys: np.ndarray) -> np.ndarray:
        """(trials, lookups, ...) |delta0| of every lookup's entry at its key."""
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
    effects = np.zeros((run[0][1].shape[0], 1 << total), np.int64)
    for shift, (b, e) in zip(shifts, run):
        effects ^= e[:, key >> shift & (1 << b) - 1] >> total - shift - b
    return total, shifts[:, None], (1 << np.array(bits))[:, None] - 1, effects


class _Compiled:
    """A plan that compiles its trials (`_forms`) into one `FrameProgram`
    per noise structure: p > 0 (`noisy`) and q > 0 (`flips`) decide which
    draws a trial makes, and nothing else about the noise enters it."""

    def program(self, noisy: bool, flips: bool) -> FrameProgram:
        got = self._programs.get((noisy, flips))
        if got is None:
            got = self._programs[noisy, flips] = FrameProgram(*self._forms(noisy, flips))
        return got


def _sum_forms(forms: list[int], mask: int) -> int:
    """The GF(2) sum of the forms at the set bits of `mask`."""
    total = 0
    for q in _set_bits(mask):
        total ^= forms[q]
    return total


# -- compiled collapse plan -------------------------------------------------------


class CollapsePlan(_Compiled):
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

    Per residual key, 2^(2 side_bits) entries (256 on tetra15), dense
    tables hold the weight and largest connected component of the lightest
    residual (`residual_weight`, `residual_component`), filled on every key
    whose two sides name cosets (all 256 on tetra15); no error reaches
    another. That is 2 bytes per residual key: a d = 5 tetrahedral facet (8
    plaquettes, 2^18 keys) would hold 0.5 MB. Whether the final decode
    leaves the logical flipped depends on one side's key only, so
    `decoded_flip` holds it per side key (2^side_bits entries, 16 on
    tetra15), filled at construction; keys no error reaches read False.

    `program` compiles the collapse trial (`_forms`) into the batched
    engine's `FrameProgram`, once per noise structure.
    """

    def __init__(self, ctx: JumpContext):
        n2, n3 = ctx.n2, ctx.n3
        checks = plaquette_checks(ctx.code2)
        m = len(checks)
        outer = list(ctx.split.outer_vertices)
        # residual coset key bit j of one side is the parity of (3D error on
        # that side | applied correction << n3) over key_masks[j]
        self.ctx, self.n3 = ctx, n3
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
        self.decoded_flip = np.zeros(1 << self.side_bits, dtype=bool)
        for key in cosets:
            self.decoded_flip[_pack(key)] = (key[m] + len(decode[key[:m]])) % 2 == 1
        adjacency = _outer_adjacency(ctx)
        keys = 1 << 2 * self.side_bits
        self.residual_weight = np.zeros(keys, dtype=np.uint8)
        self.residual_component = np.zeros(keys, dtype=np.uint8)
        for key_x, sx in self.coset_min.items():
            for key_z, sz in self.coset_min.items():
                key = key_x | key_z << self.side_bits
                self.residual_weight[key] = len(sx) + len(sz)
                self.residual_component[key] = _max_component(sx + sz, adjacency)
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

    def _forms(self, noisy: bool, flips: bool) -> tuple[list, np.ndarray]:
        """The collapse trial on affine forms, one block for both encoded
        states, and its failure table. Each inner plaquette is measured on a
        `_Frame` of the zero state; it reads +1 there, as on the plus state,
        so it reads <F, M> (X errors flip Z-type plaquettes) plus its flip
        draw, the same form on both, and every slot is read before any
        correction. Slot s is one lookup, keyed by its observed pattern (bit
        i for dual i), of the outer string corrections of
        `ctx.slot_repairs[s]`, which enter the frame half the slot reads.
        The final key is the residual key, parities of the frame over
        `key_masks`; the zero state fails by the final decode of its X side,
        the plus state by that of its Z side."""
        ctx = self.ctx
        forms = _Forms()
        frame = _Frame(forms, ctx.states3["zero"], noisy)
        fx, fz = frame.fx, frame.fz
        halves = [fx if basis == "Z" else fz for basis, _, _ in ctx.slots]
        seen = [
            [
                frame.measure(plaquette_operator(ctx.colex3, d.plaquette, basis))
                ^ (forms.draw(_FLIP) if flips else 0)
                for d in duals
            ]
            for basis, _, duals in ctx.slots
        ]
        outer = ctx.split.outer_vertices
        for half, key, repairs in zip(halves, seen, ctx.slot_repairs):
            # a string correction is of one type, so the other mask is 0
            masks = [r.correction.x | r.correction.z for r in repairs]
            table = np.array([[mask >> q & 1 for q in range(ctx.n2)] for mask in masks])
            sizes = np.array([[len(r.delta0)] for r in repairs], dtype=np.uint8)
            for q, bit in zip(outer, forms.look_up(key, table, sizes)):
                half[q] ^= bit
        low = (1 << self.n3) - 1
        for half in (fx, fz):
            forms.outputs += [_sum_forms(half, mask & low) for mask in self.key_masks]
        keys = np.arange(1 << 2 * self.side_bits)
        side = (1 << self.side_bits) - 1
        return [forms], self.decoded_flip[np.stack([keys & side, keys >> self.side_bits])]


def collapse_plan(ctx: JumpContext) -> CollapsePlan:
    """The context's collapse plan, compiled on first use."""
    if ctx._collapse_plan is None:
        ctx._collapse_plan = CollapsePlan(ctx)
    return ctx._collapse_plan


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

    keys: np.ndarray  # packed residual coset key per trial
    delta0_sizes: np.ndarray  # (trials, slots, ...): |delta0| of every repair
    failed: np.ndarray  # bool per trial
    result: Callable[[int], _TrialResult]  # trial first + i, for trace lines


class CollapseEngine:
    """Batched classical fast path for collapse trials.

    On a freshly prepared encoded state the whole trial is sign-linear:
    plaquette bits never change, Pauli noise only toggles signs, and every
    measured operator stays determinate. An inner plaquette therefore reads
    its reference value (+1 on both encoded states) times the parity of the
    injected error on its support, as a `_Frame` of the zero state measures
    it; the outer plaquette value after discarding equals the parity on its
    own support; logical flips are support parities of the accumulated
    error. The engine runs that arithmetic as the context's collapse
    `FrameProgram` (`CollapsePlan._forms`) on a batch of trials at once.
    Its draw holds the words of each trial's own generator in the tableau
    pipeline's order (qubit noise, then one flip per dual), and its slot
    lookups read `ctx.slot_repairs` as the tableau collapse does, so both
    engines produce identical trials (asserted in the test suite).
    `run_trial` is a batch of one; `result` rebuilds a trial's error masks
    and true patterns from the batch's draw bits and lookup keys.
    """

    def __init__(self, ctx: JumpContext):
        self.ctx = ctx
        self.plan = collapse_plan(ctx)

    def run_trial(self, noise: NoiseSpec, t: int) -> _TrialResult:
        return self.run_batch(noise, t, 1).result(0)

    def run_batch(self, noise: NoiseSpec, first: int, count: int) -> _Batch:
        ctx, plan = self.ctx, self.plan
        program = plan.program(noise.p_qubit > 0, noise.q_meas > 0)
        ref, bits, seen_patterns, keys, failed = program.run(noise, first, count)
        n3 = ctx.n3
        noise_cols = 2 * n3 if noise.p_qubit > 0 else 0  # the X then the Z error of every qubit

        def result(i: int) -> _TrialResult:
            err, flips = bits[i, :noise_cols], bits[i, noise_cols:]
            records, repairs, applied = {}, {}, {"X": 0, "Z": 0}
            lo = 0
            for s, (basis, pair, duals) in enumerate(ctx.slots):
                seen = int(seen_patterns[i, s])
                r = ctx.slot_repairs[s][seen]
                true = seen ^ to_mask(flips[lo : lo + len(duals)])
                lo += len(duals)
                records[(pair, basis)] = dict(r.record)  # the caller's own copy
                repairs[(pair, basis)] = (r.delta0, r.gamma_eff, tuple(_set_bits(true)))
                applied[r.kind] ^= r.correction.x | r.correction.z
            key = int(keys[i])
            key_x, key_z = plan.split_key(key)
            logical, kind = _TRACKED[ref[i]]
            # the observable logical reads the parity of the residual on the
            # opposite side
            side_key = key_x if kind == "Z" else key_z
            flags = {"Z": None, "X": None}
            flags[kind] = -1 if side_key >> (plan.side_bits - 1) else 1
            ex, ez = to_mask(err[:n3]), to_mask(err[n3:])
            return _TrialResult(
                logical, ex, ez, records, repairs, applied, flags, bool(failed[i]), key
            )

        return _Batch(keys, program.sizes(seen_patterns), failed, result)


# Trials per batch. Each batch pays a fixed cost for its numpy calls (the
# Philox kernel alone about 0.15 ms), and past 1024 trials the kernel's cost
# per trial rises again. Medians of 9 interleaved repetitions of the
# frame-program runner with merged lookups on warm tables, 2 vCPUs
# (us/trial at 256, 512, 1024 and 2048): 40,000-trial tetra15 collapse
# calls at p = q = 0.05 took 2.44, 1.69, 1.71 and 2.29; 20,480-trial
# single-shot calls at p = q = 0.02 took 2.86, 2.85, 3.66 and 4.42 on
# tetra15 and 1.76, 1.67, 1.03 and 1.02 on the inner code. No size beats
# 512 on both engines.
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
    run trial by trial on one draw per batch (`_tableau_batch`); both
    produce bit-identical trials. Trial indices key the generator as
    uint64 words, so they must lie in [0, 2^64).
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
    and the trial results themselves only when `keep` (a trace needs them).

    The trials run one by one through the tableau pipeline, but their
    draws are one `philox_words` call: each trial's row holds the words its
    own generator would give, as many as the pipeline reads (the X then the
    Z noise of every qubit when p > 0, then one flip per dual of every slot
    when q > 0), and the trial reads it through a `TrialStream`."""
    width = 2 * ctx.n3 if noise.p_qubit > 0 else 0
    if noise.q_meas > 0:
        width += ctx.dual_count
    rows = uniforms(philox_words(noise.seed, first, count, width))
    keys, sizes, failed, kept = [], [], [], []
    for t, row in enumerate(rows, first):
        r = _tableau_trial(ctx, noise, t, TrialStream(noise.seed, t, row))
        keys.append(r.key)
        sizes.append([len(d0) for d0, _, _ in r.repairs.values()])
        failed.append(r.failed)
        if keep:
            kept.append(r)
    return _Batch(
        np.array(keys, dtype=np.int64), np.array(sizes), np.array(failed), kept.__getitem__
    )


# the encoded state and the tracked logical's type of even and odd trials
_TRACKED = (("zero", "Z"), ("plus", "X"))
_TRACKED_KINDS = tuple(kind for _, kind in _TRACKED)


def _apply_noise(state, p: float, rng) -> tuple[int, int]:
    """Draw X then Z noise at rate p on every qubit of `state` and apply
    it; returns the (X, Z) error masks."""
    ex, ez = sample_qubit_noise(p, state.n, rng)
    if ex or ez:
        state.apply(PauliOperator(state.n, ex, ez))
    return ex, ez


def _collapse_step(ctx, state3, q: float, rng, kind: str, injected_flips=None):
    """Collapse `state3`, then decode the 2D state noiselessly; returns the
    collapse outcome and the value of the tracked `kind` logical."""
    out = collapse(ctx, state3, q, rng, injected_flips=injected_flips)
    ideal_decode_2d(ctx, out.residual_state)
    return out, out.residual_state.expect(ctx.logicals2[kind])


def _tableau_trial(ctx, noise, t, rng=None) -> _TrialResult:
    """Trial t on the tableau pipeline, drawing from `rng` (by default the
    trial's own generator)."""
    if rng is None:
        rng = trial_rng(noise.seed, t)
    logical, kind = _TRACKED[t % 2]
    state = ctx.states3[logical].copy()
    ex, ez = _apply_noise(state, noise.p_qubit, rng)
    out, value = _collapse_step(ctx, state, noise.q_meas, rng, kind)
    applied = {"X": out.applied_correction["X"].x, "Z": out.applied_correction["Z"].z}
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


def jump_trial(ctx: JumpContext, noise: NoiseSpec, action: str, t: int, rng=None):
    """One tableau trial of a `blowup` or a `roundtrip` from the 2D `zero`
    (t even) or `plus` state, drawing from `rng` (by default the trial's own
    generator); returns the tracked logical's value.

    A blow-up puts qubit noise on the 2D state and reads the logical on the
    outer qubits after the blow-up. A round trip puts it on the 3D state
    between the blow-up and the collapse step.
    """
    if rng is None:
        rng = trial_rng(noise.seed, t)
    logical, kind = _TRACKED[t % 2]
    state2 = ctx.states2[logical].copy()
    if action == "blowup":
        _apply_noise(state2, noise.p_qubit, rng)
        state3 = blow_up(ctx, state2, noise.q_meas, rng)
        return state3.expect(ctx.outer_logicals3[kind])
    if action == "roundtrip":
        state3 = blow_up(ctx, state2, noise.q_meas, rng)
        _apply_noise(state3, noise.p_qubit, rng)
        return _collapse_step(ctx, state3, noise.q_meas, rng, kind)[1]
    raise ValueError(f'unknown jump action {action!r}: use "blowup" or "roundtrip"')


def jump_trials(ctx: JumpContext, noise: NoiseSpec, action: str, trials: int):
    """The values of `jump_trial` on trials 0, 1, ..., trials - 1, one
    `philox_words` draw per `BATCH_TRIALS` trials.

    Row t holds as many of trial t's words as a trial can read: the X then
    the Z noise of every qubit of the noisy state when p > 0, an outcome
    and (when q > 0) a flip draw per inner plaquette in each of the
    blow-up's two rounds, and for a round trip one flip per dual of every
    slot when q > 0. The trial reads its row through a `TrialStream`, so
    its value equals `jump_trial(ctx, noise, action, t)`."""
    _check_trial_range(0, trials)
    rounds = 2 * len(_code_dual_structure(ctx.inner_code).order)
    width = rounds * (2 if noise.q_meas > 0 else 1)
    if noise.p_qubit > 0:
        width += 2 * (ctx.n2 if action == "blowup" else ctx.n3)
    if action == "roundtrip" and noise.q_meas > 0:
        width += ctx.dual_count
    for first in range(0, trials, BATCH_TRIALS):
        rows = uniforms(philox_words(noise.seed, first, min(BATCH_TRIALS, trials - first), width))
        for t, row in enumerate(rows, first):
            yield jump_trial(ctx, noise, action, t, TrialStream(noise.seed, t, row))


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
    """Every single fault (outer/inner qubit Pauli or one measurement flip),
    run with no generator: every measurement is determinate, and a random
    outcome would raise. Returns the faults that caused a logical failure;
    the design target is an empty list (distance-3 guarantee)."""
    failures = []

    def trial(logical, inject=None, flips=None):
        state = ctx.states3[logical].copy()
        if inject is not None:
            state.apply(inject)
        kind = "Z" if logical == "zero" else "X"
        return _collapse_step(ctx, state, 0.0, None, kind, flips)[1]

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
        for basis, pair, duals in ctx.slots:
            for ei in range(len(duals)):
                if trial(logical, flips={(pair, basis): {ei}}) != 1:
                    failures.append(("flip", logical, pair, basis, ei))
    return failures


# -- single-shot trials --------------------------------------------------------------

_ROUNDS = ("Z", "X")  # the bases of a trial's two rounds, in measurement order


class SingleShotPlan(_Compiled):
    """Static part of one code's single-shot trials, compiled once.

    Pauli noise and Pauli corrections never change the unsigned stabilizer
    group, and a tableau's x/z rows never depend on signs. So which
    plaquette measurements are random, which stabilizer row each random one
    replaces, and every deterministic outcome up to sign are the same in all
    trials from one encoded state. The plan holds each encoded state once
    (`states`: `zero` and `plus` for a tetrahedral code, `None` for the
    inner code), the code's dual structure and its cells. `single_shot_plan`
    caches it on the code, and `program` compiles one trial per state on a
    `_Frame` (`_forms`), once per noise structure, into the `FrameProgram`
    that batches run.

    A round reaches the decoder only through its decode key, and the decode
    does not depend on the measured basis, which only picks the frame half
    that the correction enters. So the code's decode table (the
    `jump.DualStructure` in `dual`, built whole with it), indexed by key,
    serves both rounds: each round is one lookup of its correction bits
    (`dual.corrections`) and |delta0| per color pair (`dual.delta0_sizes`),
    the rows `single_shot_decode` reads. The table has 2^key_bits rows, far
    fewer than the 2^n supports that the code's decoding table already
    enumerates.
    """

    def __init__(self, code):
        self.code = code
        self.dual = _code_dual_structure(code)
        self.cells = [tuple(vs) for vs, _ in code.colex.cells]
        logicals = ("zero", "plus") if code.L.generators else (None,)
        self.states = {logical: encoded_state(code, logical) for logical in logicals}
        self._programs = {}

    def _forms(self, noisy: bool, flips: bool) -> tuple[list, np.ndarray]:
        """One block per encoded state (`_single_shot_forms`) and the
        failure table. A tetrahedral code's final key is its cell syndrome,
        then the tracked logical's parity; a trial fails when that parity
        differs from whether the final decode's correction at the syndrome
        flips the logical. The inner code's holds one violation bit per
        generator: any fails."""
        blocks = [_single_shot_forms(self, logical, noisy, flips) for logical in self.states]
        if None in self.states:
            keys = np.arange(1 << len(self.code.S.generators))
            return blocks, (keys != 0)[None]
        flip = np.zeros(1 << len(self.cells), dtype=bool)
        for syndrome, support in checks_table(self.code.n, self.cells).items():
            flip[_pack(syndrome)] = len(support) & 1
        return blocks, np.tile(np.concatenate([flip, ~flip]), (len(blocks), 1))


def single_shot_plan(code) -> SingleShotPlan:
    """The code's single-shot plan, compiled on first use."""
    if code._single_shot_plan is None:
        code._single_shot_plan = SingleShotPlan(code)
    return code._single_shot_plan


def _single_shot_forms(plan, logical, noisy: bool, flips: bool) -> _Forms:
    """One encoded state's trial on a `_Frame` of it. Each plaquette's
    outcome bit, plus its flip draw, toggles the round's decode key by the
    plaquette's key mask. Each round's key is one lookup into the code's
    decode table, whose correction enters the frame half the round reads.
    The final key reads the frame after both rounds: every stabilizer
    generator on the inner code, else the tracked type's cells and logical
    (see `SingleShotPlan._forms`)."""
    code, dual = plan.code, plan.dual
    forms = _Forms()
    frame = _Frame(forms, plan.states[logical], noisy)
    for basis in _ROUNDS:
        key = [0] * dual.key_bits
        for pi in dual.order:
            bit = frame.measure(plaquette_operator(code.colex, pi, basis))
            if flips:
                bit ^= forms.draw(_FLIP)
            for b in _set_bits(dual.key_masks[pi]):
                key[b] ^= bit
        # a Z round's correction enters the frame's X part; vice versa for X
        half = frame.fx if basis == "Z" else frame.fz
        for q, bit in enumerate(forms.look_up(key, dual.corrections, dual.delta0_sizes)):
            half[q] ^= bit
    if logical is None:
        checks = code.S.generators
    else:
        kind = "Z" if logical == "zero" else "X"
        checks = [PauliOperator.from_support(code.n, kind, cell) for cell in plan.cells]
        checks.append(logical_operator(code, kind))
    forms.outputs += [frame.read(op) for op in checks]
    return forms


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
    F = (fx, fz), the Pauli that maps its encoded state, with every random
    outcome forced to +1, onto the trial's state (`_Frame`): noise and
    corrections XOR into it, a deterministic outcome and the final checks
    read the reference value times (-1)^<F, M>, and a random measurement
    draws its outcome as the tableau does and may take the replaced row.

    Between two decoder calls all of this is affine over GF(2) in the
    frame and the trial's draw bits, so the plan compiles the trial on a
    `_Frame` into one `FrameProgram` (`SingleShotPlan.program`). Trials run
    in batches of `BATCH_TRIALS`, with no Python loop over trials: one
    `philox_words` draw, one gather per octet of draw bits, then per round
    a lookup of the correction's precomposed effect on the later keys, and
    a gather from the failure table. The random numbers of a trial are
    drawn in the tableau harness's order: the X then the Z noise of every
    qubit when p > 0, then per plaquette the outcome draw of a random
    measurement and the flip draw when q > 0. Row i of the draw is a prefix
    of trial i's own generator stream, as wide as the state that draws
    most. Every trial and every statistic therefore equals the tableau
    harness's bit for bit (asserted in the test suite), and no `Tableau`
    method runs per trial. Trial indices must lie in [0, 2^64).
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
    `BATCH_TRIALS` trials."""
    program = plan.program(noise.p_qubit > 0, noise.q_meas > 0)
    end = trial_offset + trials
    for first in range(trial_offset, end, BATCH_TRIALS):
        _, _, keys, _, failed = program.run(noise, first, min(BATCH_TRIALS, end - first))
        yield first, keys, failed


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
