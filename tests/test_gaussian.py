import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussrde import (
    CovarianceModel,
    bridge_model,
    brownian_model,
    cameron_martin_basis,
    cholesky_factors,
    cm_element_from_coeffs,
    cm_embedding_check,
    fbm_model,
    grid_covariance,
    kernel_eval,
    nondegeneracy_check,
    sample_paths,
    uniform_grid,
    young_integral_2d,
    zero_model,
)
from gaussrde.streams import StateWords, stream_states


def test_brownian_kernel_is_overlap():
    m = brownian_model()
    assert m.rho == 1.0
    rng = np.random.default_rng(20)
    for _ in range(20):
        s, t = rng.random(2) * 3
        assert np.isclose(m(s, t), min(s, t))


def test_fbm_kernel_values_and_rho():
    m = fbm_model(0.4)
    s, t = 0.3, 0.9
    h2 = 0.8
    expected = 0.5 * (t**h2 + s**h2 - abs(t - s) ** h2)
    assert np.isclose(m(s, t), expected, rtol=1e-14)
    assert np.isclose(m.rho, 1.25)
    # increment variance is |t-s|^(2H)
    for hurst in (0.3, 0.4, 0.5, 0.75):
        mh = fbm_model(hurst)
        rng = np.random.default_rng(21)
        for _ in range(10):
            s, t = np.sort(rng.random(2) * 2)
            var = mh(t, t) + mh(s, s) - 2 * mh(s, t)
            assert np.isclose(var, (t - s) ** (2 * hurst), atol=1e-12)
    # rough regimes raise rho above 1, smooth ones clamp at 1
    assert np.isclose(fbm_model(0.2).rho, 2.5)
    assert fbm_model(0.75).rho == 1.0


def test_fbm_half_matches_brownian():
    half = fbm_model(0.5)
    bm = brownian_model()
    rng = np.random.default_rng(22)
    for _ in range(30):
        s, t = rng.random(2) * 5
        assert np.isclose(half(s, t), bm(s, t), atol=1e-12)


def test_fbm_rejects_bad_hurst():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            fbm_model(bad)


def test_bridge_kernel_pins_endpoint():
    horizon = 2.0
    m = bridge_model(horizon)
    ts = np.linspace(0, horizon, 9)
    for t in ts:
        assert np.isclose(m(t, t), t * (horizon - t) / horizon, atol=1e-12)
    assert np.isclose(m(horizon, horizon), 0.0)
    assert np.isclose(m(0.7, horizon), 0.0)
    with pytest.raises(ValueError, match="bridge horizon must be positive, got 0.0"):
        bridge_model(0.0)


def test_grid_covariance_shape_and_psd():
    grid = uniform_grid(1.0, 20)
    for model in (brownian_model(), fbm_model(0.4), fbm_model(0.75),
                  bridge_model(1.0)):
        cov = grid_covariance(model, grid)
        assert cov.shape == (19, 19)
        assert np.allclose(cov, cov.T, atol=1e-12)
        lam = np.linalg.eigvalsh(cov)
        assert lam[0] >= -1e-10 * max(lam[-1], 1.0)


def test_kernel_eval_matches_model():
    grid = uniform_grid(1.0, 7)
    m = fbm_model(0.75)
    R = kernel_eval(model=m, grid=grid)
    for i, s in enumerate(grid.points):
        for j, t in enumerate(grid.points):
            assert np.isclose(R.values[i, j], m(s, t), atol=1e-14)


def test_sampling_is_deterministic_and_counter_based():
    grid = uniform_grid(1.0, 16)
    models = [brownian_model(), fbm_model(0.4)]
    a = sample_paths(models, grid, n_samples=5, seed=77)
    b = sample_paths(models, grid, n_samples=5, seed=77)
    assert np.array_equal(a.values, b.values)
    # sample k only depends on (seed, k), not on the batch size
    c = sample_paths(models, grid, n_samples=3, seed=77)
    assert np.array_equal(a.values[:3], c.values)
    d = sample_paths(models, grid, n_samples=5, seed=78)
    assert not np.allclose(a.values, d.values)
    assert np.allclose(a.values[:, 0, :], 0.0)


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("model", [brownian_model(), fbm_model(0.4), bridge_model(1.0)],
                         ids=["brownian", "fbm-0.4", "bridge"])
@pytest.mark.parametrize("d", [1, 2])
def test_batches_with_factors_taken_once_are_slices_of_one_batch(model, d):
    """Batches drawn from `first` on with the factors taken once equal the
    slices of one whole-count call bit for bit, also for the bridge, whose
    semidefinite covariance is jittered."""
    grid = uniform_grid(1.0, 17)
    models = [model] * d
    whole = sample_paths(models, grid, 23, seed=5).values
    factors = cholesky_factors(models, grid)
    for size in (1, 7, 23):
        parts = [sample_paths(models, grid, min(size, 23 - lo), 5, first=lo,
                              factors=factors).values for lo in range(0, 23, size)]
        assert np.array_equal(np.concatenate(parts), whole)


def seed_sequence_states(seed, first, count):
    """The slow path: one SeedSequence per key."""
    return np.array([np.random.SeedSequence([seed, first + k]).generate_state(4, np.uint64)
                     for k in range(count)]).reshape(count, 4)


def default_rng_paths(models, grid, n_samples, seed, first=0):
    """The slow path of `sample_paths`: one default_rng([seed, k]) per
    sample, its components drawn one after another."""
    factors = cholesky_factors(models, grid)
    out = np.zeros((n_samples, grid.n, len(models)))
    for k in range(n_samples):
        rng = np.random.default_rng([seed, first + k])
        for c, factor in enumerate(factors):
            out[k, 1:, c] = factor @ rng.standard_normal(grid.n - 1)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
@pytest.mark.parametrize("first", [0, 1, 250, 2**32 - 3, 2**64 - 4])
def test_stream_states_are_the_seed_sequence_words(seed, first):
    """One vectorised hash gives each key's SeedSequence words: multi-word
    seeds (more than 4 entropy words at 2^130 + 7 with a 2-word index), index
    0, and a run that crosses 2^32, where an index gains a word."""
    assert np.array_equal(stream_states(seed, first, 7), seed_sequence_states(seed, first, 7))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200), first=st.integers(0, 2**70), count=st.integers(0, 9))
def test_stream_states_match_seed_sequence_at_any_key(seed, first, count):
    assert np.array_equal(stream_states(seed, first, count),
                          seed_sequence_states(seed, first, count))


def test_stream_states_reject_negative_keys():
    for seed, first in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            stream_states(seed, first, 3)


def test_state_words_answer_only_the_request_they_hold():
    """PCG64 asks for 4 uint64 words; any other request is refused rather
    than answered with the wrong words."""
    words = StateWords(stream_states(3, 5, 1)[0])
    assert words.generate_state(4, np.uint64) is words.words
    for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            words.generate_state(n_words, dtype)


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("model", [brownian_model(), fbm_model(0.4), bridge_model(1.0),
                                   zero_model()], ids=["brownian", "fbm-0.4", "bridge", "zero"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_paths_are_the_default_rng_streams(model, d):
    """Bit for bit the per-sample default_rng([seed, first + k]) loop, for a
    single sample, from first > 0, and across a stack of 40."""
    grid = uniform_grid(1.0, 17)
    for n_samples, first in ((1, 0), (1, 9), (40, 0), (40, 123)):
        fast = sample_paths([model] * d, grid, n_samples, 5, first=first).values
        slow = default_rng_paths([model] * d, grid, n_samples, 5, first=first)
        assert np.array_equal(fast, slow) and np.array_equal(np.signbit(fast), np.signbit(slow))


def test_sampling_zero_model():
    grid = uniform_grid(1.0, 8)
    s = sample_paths([zero_model()], grid, n_samples=4, seed=0)
    assert np.allclose(s.values, 0.0)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        sample_paths([zero_model()], grid, n_samples=0, seed=0)


def test_sampling_a_small_driver_keeps_its_spread():
    # only an exactly zero covariance samples zeros: on horizon T a Brownian
    # driver is sqrt(T) times the unit-horizon draw from the same streams
    tiny, unit = uniform_grid(1e-9, 65), uniform_grid(1.0, 65)
    small = sample_paths([brownian_model()], tiny, n_samples=20, seed=27)
    scaled = np.sqrt(1e-9) * sample_paths([brownian_model()], unit, n_samples=20,
                                          seed=27).values
    assert np.abs(small.values).max() > 0.0
    np.testing.assert_allclose(small.values, scaled, rtol=0, atol=1e-9 * np.sqrt(1e-9))
    assert not sample_paths([zero_model()], tiny, n_samples=4, seed=27).values.any()


def test_sampling_bridge_warns_and_pins():
    grid = uniform_grid(1.0, 32)
    with pytest.warns(UserWarning, match="semidefinite"):
        s = sample_paths([bridge_model(1.0)], grid, n_samples=50, seed=5)
    # endpoint is pinned at zero up to the jitter scale
    assert np.max(np.abs(s.values[:, -1, 0])) < 1e-5


def test_sampling_empirical_moments():
    # frozen seed, generous tolerances: checks the factor wiring, not statistics
    grid = uniform_grid(1.0, 9)
    s = sample_paths([brownian_model()], grid, n_samples=4000, seed=9)
    increments = np.diff(s.values[:, :, 0], axis=1)
    var = increments.var(axis=0)
    assert np.all(np.abs(var - 0.125) < 0.015)
    cross = np.mean(increments[:, 0] * increments[:, 4])
    assert abs(cross) < 0.01
    final_var = s.values[:, -1, 0].var()
    assert abs(final_var - 1.0) < 0.08


def test_cameron_martin_basis_reconstructs_kernel():
    grid = uniform_grid(1.0, 24)
    for model in (brownian_model(), fbm_model(0.4)):
        basis = cameron_martin_basis(model, grid)
        assert basis.size == 23
        cov = grid_covariance(model, grid)
        rebuilt = basis.functions[1:] @ basis.functions[1:].T
        assert np.allclose(rebuilt, cov, atol=1e-10)
        assert np.allclose(basis.functions[0], 0.0)
        assert np.all(np.diff(basis.eigenvalues) <= 0)


def test_cameron_martin_basis_empty_for_zero_kernel():
    basis = cameron_martin_basis(zero_model(), uniform_grid(1.0, 8))
    assert basis.size == 0


def test_cameron_martin_rejects_non_covariance():
    bad = CovarianceModel(name="negated", kernel=lambda s, t: -np.minimum(s, t), rho=1.0)
    with pytest.raises(ValueError):
        cameron_martin_basis(bad, uniform_grid(1.0, 6))
    # (s - t)^2 vanishes on the diagonal, so its grid matrix has a positive and
    # a materially negative eigenvalue
    gap = CovarianceModel(name="squared gap", kernel=lambda s, t: (s - t) ** 2, rho=1.0)
    with pytest.raises(ValueError, match=re.escape(
            "kernel 'squared gap' is not positive semidefinite (eigenvalue -")):
        cameron_martin_basis(gap, uniform_grid(1.0, 6))


def test_cm_element_norm_roundtrip():
    grid = uniform_grid(1.0, 20)
    model = brownian_model()
    basis = cameron_martin_basis(model, grid)
    rng = np.random.default_rng(23)
    for _ in range(5):
        coeffs = rng.standard_normal(basis.size)
        h = cm_element_from_coeffs(basis, coeffs)
        report = cm_embedding_check(model, grid, h)
        assert np.isclose(report["h_norm"], np.linalg.norm(coeffs), rtol=1e-8)
    with pytest.raises(ValueError, match=re.escape(
            f"expected {basis.size} coefficients, got shape (3,)")):
        cm_element_from_coeffs(basis, np.zeros(3))


def test_variance_functional_nonnegative_and_quadratic():
    grid = uniform_grid(1.0, 15)
    rng = np.random.default_rng(24)
    for model in (brownian_model(), fbm_model(0.4), bridge_model(1.0)):
        R = kernel_eval(model, grid)
        box = R.rectangle_increments()
        for _ in range(10):
            from gaussrde import GridFunction1D

            w = GridFunction1D(grid, rng.standard_normal(15))
            v = young_integral_2d(w, w, R)
            assert v >= -1e-12
            assert np.isclose(v, w.values[:-1] @ box @ w.values[:-1], rtol=1e-10)


def test_nondegeneracy_check_flags_models():
    grid = uniform_grid(1.0, 16)
    assert not nondegeneracy_check(brownian_model(), grid)["degenerate"]
    assert not nondegeneracy_check(fbm_model(0.4), grid)["degenerate"]
    assert nondegeneracy_check(zero_model(), grid)["degenerate"]
    # bridge pinned at the horizon is degenerate on the full window
    assert nondegeneracy_check(bridge_model(1.0), grid)["degenerate"]
    # but fine when observed strictly before the pin
    half = uniform_grid(0.5, 16)
    assert not nondegeneracy_check(bridge_model(1.0), half)["degenerate"]


def test_nondegeneracy_verdict_is_relative_to_the_horizon():
    # a Brownian driver is non-degenerate however short its horizon; the
    # zero model and a bridge observed up to its pin stay degenerate
    for horizon in (1.0, 1e-6, 1e-11):
        grid = uniform_grid(horizon, 65)
        assert not nondegeneracy_check(brownian_model(), grid)["degenerate"], horizon
        assert nondegeneracy_check(zero_model(), grid)["degenerate"], horizon
        assert nondegeneracy_check(bridge_model(horizon), grid)["degenerate"], horizon


def test_embedding_check_holds_for_basis_elements():
    rng = np.random.default_rng(25)
    for model in (brownian_model(), fbm_model(0.4), fbm_model(0.75)):
        grid = uniform_grid(1.0, 48)
        basis = cameron_martin_basis(model, grid)
        for _ in range(10):
            coeffs = rng.standard_normal(basis.size)
            h = cm_element_from_coeffs(basis, coeffs)
            report = cm_embedding_check(
                model, grid, h, h_norm_sq=float(coeffs @ coeffs))
            assert report["holds"], report
            assert report["lhs"] <= report["partition_rhs"] * (1 + 1e-12) + 1e-15
            assert report["kernel_variation_is_lower_bound"]


def test_embedding_check_exact_mode_small_grid():
    grid = uniform_grid(1.0, 12)
    model = fbm_model(0.4)
    basis = cameron_martin_basis(model, grid)
    rng = np.random.default_rng(26)
    coeffs = rng.standard_normal(basis.size)
    h = cm_element_from_coeffs(basis, coeffs)
    report = cm_embedding_check(model, grid, h)
    assert report["holds"]
    assert not report["kernel_variation_is_lower_bound"]


def test_embedding_check_rejects_foreign_path():
    # the bridge grid covariance is singular at its pin, so a generic path
    # is not a Cameron-Martin element and the projection must fail
    grid = uniform_grid(1.0, 10)
    model = bridge_model(1.0)
    from gaussrde import GridFunction1D

    h = GridFunction1D(grid, np.linspace(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        cm_embedding_check(model, grid, h)
