"""Noise model, counter-based RNG streams, and lattice-constant measurement.

Phenomenological noise only: independent X and Z flips on qubits at rate p,
independent recorded-outcome flips on plaquette measurements at rate q. The
iid model makes the inclusion-tail bound analytic (alpha = q), and a direct
summation checker confirms it on small edge sets.

Every trial draws from its own counter-based generator keyed by
(seed, trial). `philox_words` draws the raw words of many trials as one
array, the same words as each trial's own generator, and every batch of
trials draws through it once:
- the frame programs (the fast collapse engine, single-shot, and the CLI's
  `jump blowup` and `roundtrip` loop) test a word against a probability
  with an integer compare (`word_threshold`), so no array of doubles is
  built;
- the tableau collapse engine hands each trial the doubles of its row
  (`uniforms`) as a `TrialStream`, which stands in for its generator.
`trial_rng`, the generator itself, serves what runs one trial at a time:
`montecarlo.jump_trial`, `montecarlo._tableau_trial` (one reported tableau
collapse trial) called without a stream, and library calls of
`jump.collapse` and `jump.blow_up`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .flux import FluxConfiguration, string_correction


@dataclass(frozen=True)
class NoiseSpec:
    p_qubit: float = 0.0
    q_meas: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_qubit <= 1.0 and 0.0 <= self.q_meas <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, trial): merge-order free."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
    )


# Philox4x64 multipliers and key increments (Salmon et al., "Parallel random
# numbers: as easy as 1, 2, 3", SC11), as numpy's Philox uses them
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# the multipliers and their 32-bit halves, shaped to act on (2, ...) arrays,
# and the increments that rounds 2, 3, ... add to the key, (r - 1) W; the
# 32-bit mask and shift are 0-d arrays, which a ufunc takes with less
# overhead than numpy scalars
_M = np.array(_PHILOX_M, dtype=np.uint64)[:, None, None]
_LOW32, _S32 = np.array(0xFFFFFFFF, dtype=np.uint64), np.array(32, dtype=np.uint64)
_MH, _ML = _M >> _S32, _M & _LOW32
_BUMPS = np.array([[r * w % 2**64 for w in _PHILOX_W] for r in range(1, _PHILOX_ROUNDS)], np.uint64)


@functools.lru_cache(maxsize=64)
def _round_one(blocks: int) -> np.ndarray:
    """(blocks, 2): the 128-bit product c * M0 as (high, low) words, for
    counter blocks c = 1, ..., blocks."""
    products = np.array(
        [divmod(c * _PHILOX_M[0], 2**64) for c in range(1, blocks + 1)], dtype=np.uint64
    ).reshape(blocks, 2)
    products.flags.writeable = False  # one copy serves every call
    return products


def philox_words(seed: int, first: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) raw uint64 words; row i equals
    `trial_rng(seed, first + i).bit_generator.random_raw(draws)`.

    numpy's Philox4x64-10 keyed by (seed, t) fills its buffer from counter
    blocks 1, 2, ... (4 words each, in order). Here every trial's blocks run
    at once as uint64 array arithmetic, which wraps as the generator's does.
    A round multiplies counter words 0 and 2, held together as one
    (2, blocks, count) array; the high word of each 128-bit product comes
    from 32-bit halves (`_mulhi`). The first round acts on the counter
    alone, so it runs once per block on Python ints (`_round_one`). It
    leaves the seed in word 0 of every trial, so round 2's product of word
    0 is two Python ints too, and round 2 multiplies only word 2 as an
    array. Every later round writes into buffers allocated once per call
    (`out=` ufuncs and in-place operators), and its swap of words 0 and 2
    reads them through a reversed view. The last round writes straight
    into a (blocks, 2, 2, count) array, words 0 and 1 then 2 and 3 of each
    block, so the result is its transposed view, trials down and draws
    across, with no copy. The generator's double of a word w is
    (w >> 11) * 2^-53, and it is below p exactly when
    w < `word_threshold(p)` * 2^11.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    if first < 0 or count < 0 or first + count > 2**64:
        raise ValueError(f"trials {first}..{first + count - 1} leave [0, 2^64)")
    blocks = -(-draws // 4)
    shape = (2, blocks, count)  # trials last, so a key word spans a row
    trials = np.arange(count, dtype=np.uint64) + np.uint64(first)
    # the key of round r = 2, 3, ...: (seed + (r - 1) W0, trial + (r - 1) W1)
    keys = np.empty((_PHILOX_ROUNDS - 1, 2, 1, count), dtype=np.uint64)
    keys[:, 0] = (_BUMPS[:, :1] + np.uint64(seed))[:, None]
    np.add(_BUMPS[:, 1:, None], trials, out=keys[:, 1])
    # round 1 takes block c's counter (c, 0, 0, 0) to (k0, 0, hi ^ k1, lo),
    # where (hi, lo) is the 128-bit product c * M0, the same in every trial
    products = _round_one(blocks)
    xh, xl, t, u = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    word2 = np.bitwise_xor(products[:, :1], trials, out=t[1])
    # round 2: word 0 is k0 = seed in every trial, so its product with M0
    # is the Python ints (high, low), and only word 2 is multiplied here
    high, low = divmod(seed * _PHILOX_M[0], 2**64)
    even = np.empty(shape, dtype=np.uint64)  # words 0 and 2
    odd = np.empty(shape, dtype=np.uint64)  # words 1 and 3
    # (w0, w1, w2, w3) <- (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), high ^ w3 ^ k1, low)
    _mulhi(word2, _MH[1], _ML[1], xh[0], xl[0], t[0], u[0])
    np.bitwise_xor(xh[0], keys[0, 0], out=even[0])
    np.multiply(word2, _M[1], out=odd[0])
    np.bitwise_xor(products[:, 1:], keys[0, 1], out=even[1])
    even[1] ^= np.uint64(high)
    odd[1] = low
    # the last round writes words 0, 1, 2, 3 of block b to out[b, 0, 0],
    # out[b, 0, 1], out[b, 1, 0] and out[b, 1, 1]
    out = np.empty((blocks, 2, 2, count), dtype=np.uint64)
    last_even, last_odd = out.transpose(2, 1, 0, 3)
    for r, key in enumerate(keys[1:], 3):
        _mulhi(even, _MH, _ML, xh, xl, t, u)
        new_even, new_odd = (last_even, last_odd) if r == _PHILOX_ROUNDS else (t, odd)
        # (w0, w1, w2, w3) <- (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0)
        np.bitwise_xor(xh[::-1], odd, out=new_even)
        new_even ^= key
        np.multiply(even[::-1], _M[::-1], out=new_odd)
        even, t = new_even, even
    return out.reshape(4 * blocks, count).T[:, :draws]


def _mulhi(x, mh, ml, xh, xl, t, u) -> None:
    """xh = the high words of the 128-bit products x * m, from the 32-bit
    halves mh, ml of m (Hacker's Delight, mulhu); xl, t and u are scratch
    buffers of x's shape."""
    np.right_shift(x, _S32, xh)
    np.bitwise_and(x, _LOW32, xl)
    np.multiply(xl, ml, t)
    np.right_shift(t, _S32, t)
    np.multiply(xh, ml, u)
    u += t  # xh * ml + (xl * ml >> 32)
    np.multiply(xl, mh, t)
    np.bitwise_and(u, _LOW32, xl)
    t += xl  # xl * mh + (u & low32)
    xh *= mh
    np.right_shift(u, _S32, u)
    xh += u
    np.right_shift(t, _S32, t)
    xh += t


def uniforms(words: np.ndarray) -> np.ndarray:
    """The generator's double of each raw word w, (w >> 11) * 2^-53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TrialStream:
    """`trial_rng(seed, trial).random`, read from `row`, the doubles of that
    trial's first words (`uniforms` of a `philox_words` row).

    `random()` returns a float and `random(k)` a float64 array, bit-equal to
    the generator's, consuming the row in order. A call that runs past the
    row draws a longer prefix of the trial's own words, so what a trial
    reads never depends on how many words were drawn for it ahead.
    """

    __slots__ = ("seed", "trial", "row", "at")

    def __init__(self, seed: int, trial: int, row: np.ndarray):
        self.seed, self.trial, self.row, self.at = seed, trial, row, 0

    def random(self, size: int | None = None):
        at = self.at
        end = at + (1 if size is None else size)
        if end > len(self.row):
            longer = max(end, 2 * len(self.row))
            self.row = uniforms(philox_words(self.seed, self.trial, 1, longer))[0]
        self.at = end
        return float(self.row[at]) if size is None else self.row[at:end]


def word_threshold(p: float) -> np.uint64:
    """T such that `(w >> 11) < T` exactly when the generator's double of
    the word w, (w >> 11) * 2^-53, is below p.

    The double is k * 2^-53 for the integer k = w >> 11, and p * 2^53 is
    exact for p in [0, 1] (a power-of-two scaling), so k < p * 2^53 holds
    exactly when k < ceil(p * 2^53). p = 1 gives 2^53, above every k.
    """
    return np.uint64(math.ceil(p * 2.0**53))


def sample_qubit_noise(p: float, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """(X flips, Z flips) as int masks, bit q set independently at rate p:
    one draw of n words for the X flips, then one for the Z flips."""
    if p <= 0:
        return 0, 0
    x = sum(1 << q for q, u in enumerate(rng.random(n).tolist()) if u < p)
    z = sum(1 << q for q, u in enumerate(rng.random(n).tolist()) if u < p)
    return x, z


def to_mask(vec: np.ndarray) -> int:
    """A 0/1 vector (one noise draw) as an int, bit q holding entry q."""
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class AlphaBound:
    alpha: float
    edge_count: int

    def inclusion_tail(self, subset_size: int) -> float:
        """p~(A) for |A| = subset_size by direct summation over supersets."""
        q = self.alpha
        rest = self.edge_count - subset_size
        return sum(
            math.comb(rest, k) * q ** (subset_size + k) * (1 - q) ** (rest - k)
            for k in range(rest + 1)
        )

    def verify(self, tol: float = 1e-12) -> bool:
        """Check p~(A) <= alpha^|A| for every subset size."""
        for a in range(self.edge_count + 1):
            if self.inclusion_tail(a) > self.alpha**a + tol:
                return False
        return True


def alpha_bound_analytic(q: float, edge_count: int) -> AlphaBound:
    """iid flips are alpha-bounded with alpha = q (inclusion tail q^|A|)."""
    if edge_count > 20:
        raise ValueError("direct-summation checker limited to 20 edges")
    return AlphaBound(q, edge_count)


# the most flux subsets `measure_K` enumerates: 2^20 admits every pair of up
# to 20 duals at any length cap up to 16
MEASURE_K_SUBSETS = 2**20


def measure_K(ctx, pair: str, length_cap: int = 4) -> float:
    """Max |supp E_gamma| / |gamma| over endpoint-free fluxes up to the cap.

    E_gamma is the minimal-support string correction for the flux's outer
    endpoints; closed fluxes with empty outer boundary contribute zero.
    Deterministic: pure enumeration, no sampling. Before enumerating it
    counts the subsets it would visit, and raises when the cap is above 16
    or the count is above `MEASURE_K_SUBSETS`.
    """
    import itertools

    duals = ctx.duals[pair]
    indices = range(len(duals))
    if length_cap > len(duals):
        length_cap = len(duals)
    subsets = sum(math.comb(len(duals), size) for size in range(1, length_cap + 1))
    if length_cap > 16 or subsets > MEASURE_K_SUBSETS:
        raise ValueError(
            f"enumeration budget exceeded: {subsets} flux subsets of {len(duals)} duals "
            f"up to length {length_cap}"
        )
    best = 0.0
    for size in range(1, length_cap + 1):
        for combo in itertools.combinations(indices, size):
            flux = FluxConfiguration(pair, "Z", frozenset(combo), duals)
            if flux.inner_endpoints():
                continue
            syndrome = flux.outer_endpoints()
            corr = string_correction(ctx.code2, syndrome, pair, "X")
            best = max(best, corr.weight / size)
    return best
