"""Noise model, RNG determinism, inclusion-tail bound, lattice constant."""

import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colexjump import noise
from colexjump.noise import (
    NoiseSpec,
    TrialStream,
    alpha_bound_analytic,
    measure_K,
    philox_words,
    sample_qubit_noise,
    trial_rng,
    uniforms,
    word_threshold,
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
    """Row i of `philox_words` is trial_rng(seed, t + i)'s first raw words,
    and their uniform doubles (w >> 11) * 2^-53 are its random(draws), bit
    for bit, for draw counts that do and do not fill whole 4-word counter
    blocks."""
    for seed, t in _KEYS:
        count = min(3, 2**64 - t)
        rows = philox_words(seed, t, count, draws)
        assert rows.shape == (count, draws) and rows.dtype == np.uint64
        doubles = uniforms(rows)
        for i in range(count):
            raw = trial_rng(seed, t + i).bit_generator.random_raw(draws)
            assert rows[i].tobytes() == raw.tobytes(), (seed, t + i)
            want = trial_rng(seed, t + i).random(draws)
            assert doubles[i].tobytes() == want.tobytes(), (seed, t + i)


def test_philox_words_match_numpy_philox_on_a_wide_batch():
    """Every row of a 64-trial, 75-draw batch is its trial's first raw
    words: many trials across every counter block, with the seed and the
    trial indices at the ends of their ranges, and the result a view whose
    rows are trials."""
    for seed, t in (_KEYS[1], _KEYS[4]):
        first = min(t, 2**64 - 64)
        rows = philox_words(seed, first, 64, 75)
        assert rows.shape == (64, 75) and rows.dtype == np.uint64
        for i in range(64):
            raw = trial_rng(seed, first + i).bit_generator.random_raw(75)
            assert rows[i].tobytes() == raw.tobytes(), (seed, first + i)


def test_philox_uniforms_continue_a_split_draw():
    """A generator's random(30) then random(12) is the doubles of one
    42-word row, and random_raw(30) then random_raw(12) the row itself."""
    for seed, t in _KEYS[:6]:
        row = philox_words(seed, t, 1, 42)
        rng = trial_rng(seed, t)
        split = np.concatenate((rng.random(30), rng.random(12)))
        assert split.tobytes() == uniforms(row)[0].tobytes()
        gen = trial_rng(seed, t).bit_generator
        split = np.concatenate((gen.random_raw(30), gen.random_raw(12)))
        assert split.tobytes() == row[0].tobytes()


@pytest.mark.parametrize(
    "seed,first,count",
    [(0, 2**64 - 1, 2), (0, -1, 1), (-1, 0, 1), (2**64, 0, 1)],
)
def test_philox_uniforms_reject_keys_outside_uint64(seed, first, count):
    with pytest.raises(ValueError):
        philox_words(seed, first, count, 4)


_SIZES = st.one_of(st.none(), st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 2**64 - 1),
    width=st.integers(0, 12),
    sizes=st.lists(_SIZES, max_size=8),
)
@example(seed=2**64 - 1, trial=2**64 - 1, width=3, sizes=[None, 2, None, 5, 0, 4])
@example(seed=0, trial=0, width=0, sizes=[None, 1])
def test_trial_stream_is_the_trial_generator(seed, trial, width, sizes):
    """A `TrialStream` on the doubles of a trial's first `width` words
    returns what `trial_rng(seed, trial).random` returns, call for call,
    for scalar and sized calls, also once the calls run past the row."""
    stream = TrialStream(seed, trial, uniforms(philox_words(seed, trial, 1, width))[0])
    rng = trial_rng(seed, trial)
    for size in sizes:
        got, want = stream.random(size), rng.random(size)
        if size is None:
            assert type(got) is float and got.hex() == want.hex()
        else:
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_word_threshold_is_exact():
    """(w >> 11) < T equals (w >> 11) * 2^-53 < p on the words around each
    threshold T = word_threshold(p) and on random words."""
    rng = random.Random(53)
    ps = [0.0, 2.0**-53, 0.02, 0.05, 0.5, np.nextafter(0.5, 0), np.nextafter(1.0, 0), 1.0]
    ps += [rng.random() for _ in range(200)]
    for p in ps:
        threshold = int(word_threshold(p))
        edge = threshold << 11
        words = [edge - 1, edge, edge + 2**11] + [rng.randrange(2**64) for _ in range(20)]
        words = np.array([w for w in words if 0 <= w < 2**64], dtype=np.uint64)
        below = (words >> np.uint64(11)) < word_threshold(p)
        assert np.array_equal(below, uniforms(words) < p), p


def test_noise_extremes():
    rng = trial_rng(0, 0)
    ex, ez = sample_qubit_noise(0.0, 8, rng)
    assert not ex and not ez


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


def _stand_in(duals: int):
    """A context with one pair of `duals` duals, and no 2D code."""
    return types.SimpleNamespace(duals={"rg": tuple(range(duals))}, code2=None)


@pytest.mark.parametrize("duals,cap", [(40, 16), (40, 6), (21, 16), (20, 17)])
def test_measure_K_budget_counts_subsets_before_enumerating(monkeypatch, duals, cap):
    """A pair of many duals is refused by the number of flux subsets it
    would enumerate (40 duals at cap 16 would be about 1.5e11), and a cap
    above 16 as before, before any flux or string correction is built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("measure_K enumerated past its budget")

    monkeypatch.setattr(noise, "string_correction", forbidden)
    monkeypatch.setattr(noise, "FluxConfiguration", forbidden)
    with pytest.raises(ValueError, match="enumeration budget exceeded"):
        measure_K(_stand_in(duals), "rg", cap)


def test_measure_K_budget_admits_twenty_duals_up_to_cap_16(monkeypatch):
    """20 duals at every cap up to 16 pass the budget: the enumeration
    starts (and is stopped at its first flux)."""

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(noise, "FluxConfiguration", started)
    for cap in range(1, 17):
        with pytest.raises(Started):
            measure_K(_stand_in(20), "rg", cap)
