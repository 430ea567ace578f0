import numpy as np
import pytest

from gaussrde import (
    GridFunction1D,
    GridFunction2D,
    TimeGrid,
    homogeneous_norm,
    lift_piecewise_linear,
    p_variation,
    p_variation_with_partition,
    rho_variation_2d,
    spacetime_lift,
    uniform_grid,
    young_integral_1d,
    young_integral_2d,
)
from gaussrde.young import (_increment_norms, p_variation_bruteforce,
                            rho_variation_partition_sum)


def brownian_kernel_sample(grid):
    t = grid.points
    return GridFunction2D(grid, grid, np.minimum.outer(t, t))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    g = uniform_grid(2.0, 9)
    assert g.n == 9
    assert g.horizon == 2.0
    assert np.isclose(g.mesh, 0.25)
    assert g.index_of(0.5) == 2
    with pytest.raises(ValueError):
        g.index_of(0.3)


def test_left_point_integral_of_constant():
    grid = uniform_grid(1.0, 33)
    rng = np.random.default_rng(10)
    g = GridFunction1D(grid, np.cumsum(rng.standard_normal(33)))
    f = GridFunction1D(grid, np.full(33, 3.5))
    total = g.values[-1] - g.values[0]
    assert np.isclose(young_integral_1d(f, g), 3.5 * total, rtol=1e-12)


def test_integral_linearity_and_shapes():
    grid = uniform_grid(1.0, 17)
    rng = np.random.default_rng(11)
    f1 = GridFunction1D(grid, rng.standard_normal(17))
    f2 = GridFunction1D(grid, rng.standard_normal(17))
    g = GridFunction1D(grid, rng.standard_normal(17))
    combo = GridFunction1D(grid, 2.0 * f1.values - 0.5 * f2.values)
    assert np.isclose(
        young_integral_1d(combo, g),
        2.0 * young_integral_1d(f1, g) - 0.5 * young_integral_1d(f2, g),
    )
    # vector integrand against scalar integrator gives a vector
    fv = GridFunction1D(grid, rng.standard_normal((17, 3)))
    vec = young_integral_1d(fv, g)
    assert vec.shape == (3,)
    for k in range(3):
        fk = GridFunction1D(grid, fv.values[:, k])
        assert np.isclose(vec[k], young_integral_1d(fk, g))
    # vector against vector pairs componentwise
    gv = GridFunction1D(grid, rng.standard_normal((17, 3)))
    paired = young_integral_1d(fv, gv)
    manual = sum(
        young_integral_1d(GridFunction1D(grid, fv.values[:, k]),
                          GridFunction1D(grid, gv.values[:, k]))
        for k in range(3)
    )
    assert np.isclose(paired, manual)


def test_integral_grid_mismatch():
    f = GridFunction1D(uniform_grid(1.0, 8), np.ones(8))
    g = GridFunction1D(uniform_grid(2.0, 8), np.ones(8))
    with pytest.raises(ValueError):
        young_integral_1d(f, g)


def test_rectangle_increments_additivity():
    grid = uniform_grid(1.0, 9)
    rng = np.random.default_rng(12)
    R = GridFunction2D(grid, grid, rng.standard_normal((9, 9)))
    box = R.rectangle_increments()
    v = R.values
    # total double difference equals the sum of all cell increments
    corners = v[-1, -1] - v[0, -1] - v[-1, 0] + v[0, 0]
    assert np.isclose(box.sum(), corners, rtol=1e-12)


def test_2d_integral_against_overlap_kernel():
    """min(s, t) has diagonal rectangle increments, so the 2D pairing
    collapses to a weighted dot product of left values."""
    grid = uniform_grid(1.5, 41)
    dt = np.diff(grid.points)
    rng = np.random.default_rng(13)
    f = GridFunction1D(grid, rng.standard_normal(41))
    g = GridFunction1D(grid, rng.standard_normal(41))
    R = brownian_kernel_sample(grid)
    expected = float(np.sum(f.values[:-1] * g.values[:-1] * dt))
    assert np.isclose(young_integral_2d(f, g, R), expected, rtol=1e-12)
    # vector-valued version agrees entrywise with scalar calls
    fv = GridFunction1D(grid, rng.standard_normal((41, 2)))
    gv = GridFunction1D(grid, rng.standard_normal((41, 2)))
    mat = young_integral_2d(fv, gv, R)
    assert mat.shape == (2, 2)
    for a in range(2):
        for b in range(2):
            fa = GridFunction1D(grid, fv.values[:, a])
            gb = GridFunction1D(grid, gv.values[:, b])
            assert np.isclose(mat[a, b], young_integral_2d(fa, gb, R))


def test_p_variation_monotone_path():
    # for p > 1 a monotone scalar path takes its p-variation on the
    # coarsest partition, so the value equals the total displacement
    grid = uniform_grid(1.0, 21)
    path = GridFunction1D(grid, np.sort(np.random.default_rng(14).random(21)))
    total = path.values[-1] - path.values[0]
    for p in (1.5, 2.0, 3.0):
        assert np.isclose(p_variation(path, p), total, rtol=1e-12)
    # p = 1 gives the total variation, here the same number
    assert np.isclose(p_variation(path, 1.0), total, rtol=1e-12)


def test_p_variation_zigzag_total_variation():
    grid = uniform_grid(1.0, 5)
    path = GridFunction1D(grid, np.array([0.0, 1.0, 0.25, 1.25, 0.5]))
    assert np.isclose(p_variation(path, 1.0), 1.0 + 0.75 + 1.0 + 0.75)


def test_p_variation_matches_bruteforce():
    rng = np.random.default_rng(15)
    for trial in range(20):
        n = int(rng.integers(4, 11))
        width = int(rng.integers(1, 4))
        values = np.cumsum(rng.standard_normal((n, width)), axis=0)
        values -= values[0]
        path = GridFunction1D(uniform_grid(1.0, n), values.squeeze())
        for p in (1.0, 1.3, 2.0, 2.7):
            dp = p_variation(path, p)
            brute = p_variation_bruteforce(path, p)
            assert np.isclose(dp, brute, rtol=1e-10), (trial, p)


def test_p_variation_partition_is_consistent():
    rng = np.random.default_rng(16)
    values = np.cumsum(rng.standard_normal(30))
    values -= values[0]
    path = GridFunction1D(uniform_grid(1.0, 30), values)
    p = 2.2
    value, partition = p_variation_with_partition(path, p)
    assert partition[0] == 0 and partition[-1] == 29
    assert np.all(np.diff(partition) > 0)
    recomputed = sum(
        abs(values[j] - values[i]) ** p
        for i, j in zip(partition[:-1], partition[1:])
    )
    assert np.isclose(recomputed ** (1.0 / p), value, rtol=1e-12)


def test_p_variation_rejects_bad_exponent():
    path = GridFunction1D(uniform_grid(1.0, 4), np.zeros(4))
    with pytest.raises(ValueError):
        p_variation(path, 0.5)


def test_bruteforce_size_guard():
    path = GridFunction1D(uniform_grid(1.0, 15), np.zeros(15))
    with pytest.raises(ValueError):
        p_variation_bruteforce(path, 2.0)


def test_rho_variation_overlap_kernel_exact():
    """Every partition sum for min(s, t) with rho = 1 telescopes to the
    horizon, so the exact supremum is the horizon itself."""
    grid = uniform_grid(1.0, 9)
    R = brownian_kernel_sample(grid)
    res = rho_variation_2d(R, 1.0, mode="exact")
    assert res.mode == "exact"
    assert not res.is_lower_bound
    assert np.isclose(res.value, 1.0, rtol=1e-12)


def test_rho_variation_modes_agree_on_small_grids():
    rng = np.random.default_rng(17)
    grid = uniform_grid(1.0, 8)
    z = rng.standard_normal((8, 8))
    R = GridFunction2D(grid, grid, z + z.T)
    for rho in (1.0, 1.25):
        exact = rho_variation_2d(R, rho, mode="exact")
        est = rho_variation_2d(R, rho, mode="diagonal-refinement")
        assert est.is_lower_bound
        assert est.value <= exact.value * (1 + 1e-12)
        # handing the estimator the optimal partition closes the gap
        helped = rho_variation_2d(R, rho, mode="diagonal-refinement",
                                  extra_partitions=[exact.partition])
        assert np.isclose(helped.value, exact.value, rtol=1e-12)


def test_rho_variation_partition_sum_full_grid():
    grid = uniform_grid(1.0, 6)
    R = brownian_kernel_sample(grid)
    s = rho_variation_partition_sum(R, 1.0, np.arange(6))
    assert np.isclose(s, 1.0, rtol=1e-12)


def test_rho_variation_guards():
    grid = uniform_grid(1.0, 20)
    R = brownian_kernel_sample(grid)
    with pytest.raises(ValueError):
        rho_variation_2d(R, 0.9)
    with pytest.raises(ValueError):
        rho_variation_2d(R, 1.0, mode="exact")  # grid too large
    with pytest.raises(ValueError):
        rho_variation_2d(R, 1.0, mode="nonsense")


def random_rough_lift(rng, n, d):
    values = np.cumsum(rng.standard_normal((n, d)), axis=0)
    values -= values[0]
    return lift_piecewise_linear(GridFunction1D(uniform_grid(1.0, n), values))


def test_rough_p_variation_matches_bruteforce():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for trial in range(6):
            X = random_rough_lift(rng, int(rng.integers(2, 13)), d)
            for p in (1.0, 2.2, 2.5, 3.5):
                dp = p_variation(X, p)
                brute = p_variation_bruteforce(X, p)
                assert np.isclose(dp, brute, rtol=1e-10), (d, trial, p)


def test_rough_increment_norms_match_elementwise_norm():
    rng = np.random.default_rng(18)
    for d in (1, 2, 3):
        base = random_rough_lift(rng, 12, d)
        for X in (base, spacetime_lift(base)):
            norms = _increment_norms(X)
            n = X.grid.n
            expected = np.array([[homogeneous_norm(X.increment(i, j)) if i < j else 0.0
                                  for j in range(n)] for i in range(n)])
            np.testing.assert_array_equal(norms, expected)
