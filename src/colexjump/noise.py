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
