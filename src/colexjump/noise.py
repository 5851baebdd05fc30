"""Noise model, counter-based RNG streams, and lattice-constant measurement.

Phenomenological noise only: independent X and Z flips on qubits at rate p,
independent recorded-outcome flips on plaquette measurements at rate q. The
iid model makes the inclusion-tail bound analytic (alpha = q), and a direct
summation checker confirms it on small edge sets.
"""

from __future__ import annotations

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


def philox_uniforms(seed: int, first: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) doubles; row i equals
    `trial_rng(seed, first + i).random(draws)` bit for bit.

    numpy's Philox4x64-10 keyed by (seed, t) fills its buffer from counter
    blocks 1, 2, ... (4 words each, in order) and makes a double of a word u
    as (u >> 11) * 2^-53. Here every trial's blocks run at once as uint64
    array arithmetic, which wraps as the generator's does. A round multiplies
    counter words 0 and 2, held together as one (2, count, blocks) array;
    the high word of each 128-bit product comes from 32-bit halves (Hacker's
    Delight, mulhu).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    if first < 0 or count < 0 or first + count > 2**64:
        raise ValueError(f"trials {first}..{first + count - 1} leave [0, 2^64)")
    blocks = -(-draws // 4)
    low32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    # multipliers, their 32-bit halves and the key increments, shaped to
    # act on (2, ...) arrays
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None, None]
    mh, ml = m >> s32, m & low32
    bump = np.array(_PHILOX_W, dtype=np.uint64)[:, None, None]
    key = np.empty((2, count, 1), dtype=np.uint64)
    key[0] = seed
    key[1, :, 0] = np.arange(count, dtype=np.uint64) + np.uint64(first)
    even = np.zeros((2, count, blocks), dtype=np.uint64)  # words 0 and 2
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)  # words 1 and 3
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += bump
        xh, xl = even >> s32, even & low32
        t = xl * ml
        u = xh * ml + (t >> s32)
        v = xl * mh + (u & low32)
        hi = xh * mh + (u >> s32) + (v >> s32)
        # (w0, w1, w2, w3) <- (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, (even * m)[::-1]
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=2)
    words = words.reshape(count, 4 * blocks)[:, :draws]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample_qubit_noise(p: float, n: int, rng: np.random.Generator):
    """(x flips, z flips) as 0/1 vectors, each site independent at rate p."""
    if p <= 0:
        zero = np.zeros(n, dtype=np.uint8)
        return zero, zero.copy()
    x = (rng.random(n) < p).astype(np.uint8)
    z = (rng.random(n) < p).astype(np.uint8)
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


def measure_K(ctx, pair: str, length_cap: int = 4) -> float:
    """Max |supp E_gamma| / |gamma| over endpoint-free fluxes up to the cap.

    E_gamma is the minimal-support string correction for the flux's outer
    endpoints; closed fluxes with empty outer boundary contribute zero.
    Deterministic: pure enumeration, no sampling.
    """
    import itertools

    duals = ctx.duals[pair]
    indices = range(len(duals))
    if length_cap > len(duals):
        length_cap = len(duals)
    if length_cap > 16:
        raise ValueError("enumeration budget exceeded")
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
