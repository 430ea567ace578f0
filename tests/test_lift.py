import numpy as np
import pytest

from gaussrde import (
    GridFunction1D,
    RoughPath,
    brownian_model,
    lift_piecewise_linear,
    sample_paths,
    translate,
    uniform_grid,
)
from gaussrde.nilpotent import area, product, residual

TOL = 1e-12


def random_lift(seed, n=33, d=2, horizon=1.0):
    grid = uniform_grid(horizon, n)
    values = np.cumsum(np.random.default_rng(seed).standard_normal((n, d)), axis=0)
    values -= values[0]
    return lift_piecewise_linear(GridFunction1D(grid, values)), grid


def test_lift_starts_at_identity():
    X, _ = random_lift(30)
    assert np.allclose(X.level1[0], 0.0)
    assert np.allclose(X.level2[0], 0.0)


def test_lift_of_straight_line():
    # a linear path has zero area: level2 = a (x) a / 2 at every time
    grid = uniform_grid(2.0, 17)
    v = np.array([1.0, -0.5, 2.0])
    path = GridFunction1D(grid, np.outer(grid.points, v))
    X = lift_piecewise_linear(path)
    for i in range(grid.n):
        a = X.level1[i]
        assert np.allclose(X.level2[i], 0.5 * np.outer(a, a), atol=TOL)


def test_lift_is_geometric_everywhere():
    X, grid = random_lift(31, n=50, d=3)
    for i in range(grid.n):
        for j in range(i + 1, grid.n, 7):
            assert residual(*X.increment(i, j)) < 1e-10


def test_chen_relation_on_increments():
    X, grid = random_lift(32, n=40, d=2)
    rng = np.random.default_rng(33)
    for _ in range(30):
        i, j, k = np.sort(rng.choice(grid.n, size=3, replace=False))
        left = X.increment(i, j)
        right = X.increment(j, k)
        combined = product(*left, *right)
        direct = X.increment(i, k)
        assert np.allclose(combined[0], direct[0], atol=TOL)
        assert np.allclose(combined[1], direct[1], atol=TOL)


def test_signed_area_of_planar_loop():
    """Counterclockwise unit square: the loop closes (zero increment) and the
    log coordinates carry the enclosed area with the orientation b01 = +1."""
    grid = uniform_grid(4.0, 5)
    corners = np.array([
        [0.0, 0.0],
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
        [0.0, 0.0],
    ])
    X = lift_piecewise_linear(GridFunction1D(grid, corners))
    a, b = X.increment(0, 4)
    x = area(a, b)
    assert residual(a, b) < 1e-9
    assert np.allclose(a, 0.0, atol=TOL)
    # Green's theorem: the x dy loop integral equals the enclosed area
    assert np.isclose(x[0, 1], 1.0, atol=TOL)
    assert np.isclose(x[0, 1] - x[1, 0], 2.0, atol=TOL)


def test_translate_matches_lifting_the_sum():
    X, grid = random_lift(34, n=29, d=2)
    hv = np.cumsum(np.random.default_rng(35).standard_normal((29, 2)), axis=0) * 0.3
    hv -= hv[0]
    h = GridFunction1D(grid, hv)
    shifted = translate(X, h)
    direct = lift_piecewise_linear(
        GridFunction1D(grid, X.level1 + hv))
    assert np.allclose(shifted.level1, direct.level1, atol=1e-12)
    assert np.allclose(shifted.level2, direct.level2, atol=1e-12)


def test_translate_by_zero_is_identity():
    X, grid = random_lift(36)
    h = GridFunction1D(grid, np.zeros((grid.n, X.dim)))
    shifted = translate(X, h)
    assert np.array_equal(shifted.level1, X.level1)
    assert np.allclose(shifted.level2, X.level2, atol=TOL)


def test_translate_two_step_group_law():
    # translating by h then k equals translating by h + k
    X, grid = random_lift(37, n=21)
    rng = np.random.default_rng(38)
    hv = np.cumsum(rng.standard_normal((21, 2)), axis=0) * 0.2
    kv = np.cumsum(rng.standard_normal((21, 2)), axis=0) * 0.2
    hv -= hv[0]
    kv -= kv[0]
    h = GridFunction1D(grid, hv)
    k = GridFunction1D(grid, kv)
    once = translate(translate(X, h), k)
    both = translate(X, GridFunction1D(grid, hv + kv))
    assert np.allclose(once.level1, both.level1, atol=1e-12)
    assert np.allclose(once.level2, both.level2, atol=1e-12)


def test_translate_dimension_mismatch():
    X, grid = random_lift(39, d=2)
    h = GridFunction1D(grid, np.zeros((grid.n, 3)))
    with pytest.raises(ValueError):
        translate(X, h)


def test_rough_path_validation():
    grid = uniform_grid(1.0, 4)
    a = np.zeros((4, 2))
    b = np.zeros((4, 2, 2))
    a_bad = a.copy()
    a_bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        RoughPath(grid, a_bad, b)
    with pytest.raises(ValueError):
        RoughPath(grid, a, np.zeros((4, 3, 3)))
    with pytest.raises(ValueError):
        RoughPath(grid, np.zeros((5, 2)), b)


def test_lift_of_sampled_driver_is_geometric():
    grid = uniform_grid(1.0, 40)
    batch = sample_paths([brownian_model()] * 2, grid, n_samples=3, seed=43)
    for k in range(3):
        X = lift_piecewise_linear(batch.path(k))
        for i in range(0, grid.n - 1, 11):
            assert residual(*X.increment(i, grid.n - 1)) < 1e-9
