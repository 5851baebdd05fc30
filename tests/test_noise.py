"""Noise model, RNG determinism, inclusion-tail bound, lattice constant."""

import random

import numpy as np
import pytest

from colexjump.noise import (
    NoiseSpec,
    alpha_bound_analytic,
    measure_K,
    philox_uniforms,
    sample_qubit_noise,
    trial_rng,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p_qubit=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(q_meas=-0.1)


def test_rng_determinism_and_independence():
    a = trial_rng(7, 3).random(5)
    b = trial_rng(7, 3).random(5)
    c = trial_rng(7, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


_RNG = random.Random(2024)
_KEYS = [(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0)] + [
    (_RNG.randrange(2**64), _RNG.randrange(2**64 - 3)) for _ in range(12)
]


@pytest.mark.parametrize("draws", [0, 1, 3, 4, 5, 42])
def test_philox_uniforms_match_numpy_philox(draws):
    """Row i is trial_rng(seed, t + i).random(draws), bit for bit, for draw
    counts that do and do not fill whole 4-word counter blocks."""
    for seed, t in _KEYS:
        count = min(3, 2**64 - t)
        rows = philox_uniforms(seed, t, count, draws)
        assert rows.shape == (count, draws) and rows.dtype == np.float64
        for i in range(count):
            want = trial_rng(seed, t + i).random(draws)
            assert rows[i].tobytes() == want.tobytes(), (seed, t + i)


def test_philox_uniforms_continue_a_split_draw():
    """A generator's random(30) then random(12) is one 42-draw row."""
    for seed, t in _KEYS[:6]:
        rng = trial_rng(seed, t)
        split = np.concatenate((rng.random(30), rng.random(12)))
        assert split.tobytes() == philox_uniforms(seed, t, 1, 42)[0].tobytes()


@pytest.mark.parametrize(
    "seed,first,count",
    [(0, 2**64 - 1, 2), (0, -1, 1), (-1, 0, 1), (2**64, 0, 1)],
)
def test_philox_uniforms_reject_keys_outside_uint64(seed, first, count):
    with pytest.raises(ValueError):
        philox_uniforms(seed, first, count, 4)


def test_noise_extremes():
    rng = trial_rng(0, 0)
    ex, ez = sample_qubit_noise(0.0, 8, rng)
    assert not ex.any() and not ez.any()


def test_alpha_bound_values():
    ab = alpha_bound_analytic(0.01, 8)
    assert ab.alpha == 0.01
    assert abs(ab.inclusion_tail(2) - 1e-4) < 1e-12
    assert abs(ab.inclusion_tail(0) - 1.0) < 1e-12
    assert ab.verify()


def test_alpha_bound_on_instance_dual_edges(ctx):
    for pair in ctx.pairs:
        ab = alpha_bound_analytic(0.05, len(ctx.duals[pair]))
        assert ab.verify()


def test_alpha_bound_size_guard():
    with pytest.raises(ValueError):
        alpha_bound_analytic(0.1, 21)


def test_measure_K_deterministic_and_stable(ctx):
    values = [measure_K(ctx, "rg", 4) for _ in range(3)]
    assert values[0] == values[1] == values[2]
    assert values[0] > 0  # finite, lattice-dependent constant
    # closed or boundary-terminated fluxes with empty outer boundary
    # contribute zero; the bundled instance peaks at one string qubit pair
    # per flux edge
    assert values[0] == 1.0


def test_measure_K_all_pairs_agree(ctx):
    ks = {pair: measure_K(ctx, pair, 4) for pair in ctx.pairs}
    assert len(set(ks.values())) == 1  # color symmetry of the instance
