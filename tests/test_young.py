import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussrde import (
    GridFunction1D,
    GridFunction2D,
    PathSample,
    RoughPath,
    TimeGrid,
    brownian_model,
    fbm_model,
    lift_piecewise_linear,
    p_variation,
    p_variation_with_partition,
    rho_variation_2d,
    sample_paths,
    uniform_grid,
    young_integral_1d,
    young_integral_2d,
)
from gaussrde import nilpotent
from gaussrde.young import (_components, _exponents, _increment_norms, _norm_columns,
                            p_variation_bruteforce, rho_variation_partition_sum,
                            same_grid)


def brownian_kernel_sample(grid):
    t = grid.points
    return GridFunction2D(grid, np.minimum.outer(t, t))


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


def test_grid_point_tolerance_is_relative_to_the_horizon():
    # on horizon 1e-9 the spacing (9.8e-13) is below an absolute 1e-12, which
    # matched the off-grid 3.3e-10 to the grid point 3.30078e-10
    for horizon in (1.0, 1e-9):
        grid = uniform_grid(horizon, 1025)
        with pytest.raises(ValueError, match="not a grid point"):
            grid.index_of(0.33 * horizon)
        assert [grid.index_of(t) for t in grid.points] == list(range(1025))
        assert same_grid(grid, uniform_grid(horizon, 1025))
        assert not same_grid(grid, TimeGrid(grid.points + 0.3 * grid.mesh
                                            * (grid.points > 0)))


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
    R = GridFunction2D(grid, rng.standard_normal((9, 9)))
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
    R = GridFunction2D(grid, z + z.T)
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


def space_time(X):
    """Lift of the time-prepended path (t, x) of a piecewise-linear lift X:
    the driver that a solve with drift steps along."""
    v = np.concatenate([np.broadcast_to(X.grid.points[:, None], X.level1.shape[:-1] + (1,)),
                        X.level1], axis=-1)
    path = GridFunction1D(X.grid, v) if v.ndim == 2 else PathSample(X.grid, v)
    return lift_piecewise_linear(path)


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
        for X in (base, space_time(base)):
            norms = _increment_norms(X)
            n = X.grid.n
            expected = np.array([[nilpotent.norm(*X.increment(i, j)) if i < j else 0.0
                                  for j in range(n)] for i in range(n)])
            np.testing.assert_array_equal(norms, expected)


def test_increment_norms_of_the_unit_square_loop():
    # counter-clockwise (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0)
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    X = lift_piecewise_linear(GridFunction1D(uniform_grid(1.0, 5), corners))
    norms = _increment_norms(X)
    assert nilpotent.area(*X.increment(0, 4))[0, 1] == 1.0
    assert norms[0, 4] == pytest.approx(2 ** 0.25, rel=1e-15)  # no displacement
    assert norms[0, 2] == pytest.approx(np.sqrt(2), rel=1e-15)
    assert all(norms[i, i + 1] == 1.0 for i in range(4))
    for p in (1.0, 2.5):
        assert np.isclose(p_variation(X, p), p_variation_bruteforce(X, p), rtol=1e-12)


def reference_norm(a, b):
    """The increment -> area -> summed-squares norm that the closed form replaced."""
    ar = nilpotent.area(a, b)
    return np.maximum(np.sqrt((a * a).sum(axis=-1)),
                      np.sqrt(np.sqrt((ar * ar).sum(axis=(-2, -1)))))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(2, 12), count=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_norms_match_the_area_formula(d, n, count, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, n, d)).cumsum(axis=1)
    values -= values[:, :1]
    stack = lift_piecewise_linear(PathSample(uniform_grid(1.0, n), values))
    for X in (stack, space_time(stack)):
        A, B = X.level1, X.level2
        a, b = nilpotent.increment(A[:, :, None], B[:, :, None], A[:, None], B[:, None])
        expected = reference_norm(a, b)  # (count, s, t)
        column = _norm_columns(*_components(X))  # grid first: (j, count)
        cases = [(column(j), np.moveaxis(expected[..., :j, j], -1, 0))
                 for j in range(1, n)]
        cases.append((nilpotent.norm(a, b), expected))
        for new, ref in cases:
            if X.dim <= 2:
                assert np.array_equal(new, ref)
            else:
                np.testing.assert_array_max_ulp(new, ref, maxulp=4)


def whole_matrix_p_variation(X, p):
    """The all-pairs norm matrix and DP that the column-wise one replaced, on
    X with p_variation's power of two 2^k factored out (`_exponents`: k = 0
    for a path whose norms' powers stay in the normal range, where the DP
    of the path itself would underflow or overflow otherwise)."""
    k = int(_exponents(*_components(X), p))
    A, B = np.ldexp(X.level1, -k), np.ldexp(X.level2, -2 * k)
    a, b = nilpotent.increment(A[:, None], B[:, None], A[None], B[None])
    powed = np.triu(nilpotent.norm(a, b), 1) ** p
    best = np.zeros(X.grid.n)
    for j in range(1, X.grid.n):
        best[j] = np.max(best[:j] + powed[:j, j])
    return float(np.ldexp(best[-1] ** (1.0 / p), k))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 12), count=st.integers(1, 6),
       p=st.sampled_from([1.0, 2.2, 2.5, 3.5]), seed=st.integers(0, 2**32 - 1))
def test_stacked_p_variation_matches_single_path_dp(d, n, count, p, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, n, d)).cumsum(axis=1)
    values -= values[:, :1]
    stack = lift_piecewise_linear(PathSample(uniform_grid(1.0, n), values))
    for X in (stack, space_time(stack)):
        got, partitions = p_variation_with_partition(X, p)
        assert got.shape == (count,) and np.array_equal(p_variation(X, p), got)
        for k in range(count):
            one = RoughPath(X.grid, X.level1[k], X.level2[k])
            value, partition = p_variation_with_partition(one, p)
            assert got[k] == value == whole_matrix_p_variation(one, p)
            np.testing.assert_array_equal(partitions[k], partition)
            assert np.isclose(value, p_variation_bruteforce(one, p), rtol=1e-10)


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("n", [65, 257])
@pytest.mark.parametrize("model, d, count, p", [(brownian_model(), 1, 250, 2.5),
                                                (fbm_model(0.4), 2, 75, 2.75)])
def test_p_variation_at_the_workloads_shapes_is_the_whole_grid_dp(model, d, count, p, n):
    """A stack of the benchmark workloads' chunk shape (scalar Brownian
    paths; planar fBm(0.4) paths) has, path by path, the whole-grid DP's
    p-variation bit for bit, with no power of two factored out."""
    X = lift_piecewise_linear(sample_paths([model] * d, uniform_grid(1.0, n), count, seed=21))
    assert not _exponents(*_components(X), p).any()
    got = p_variation(X, p)
    assert got.shape == (count,)
    for k in range(count):
        assert got[k] == whole_matrix_p_variation(RoughPath(X.grid, X.level1[k], X.level2[k]), p)


def test_p_variation_factors_out_a_power_of_two():
    """p_variation(x 2^k) is within 2 ulp of 2^k p_variation(x) for every k
    from -1000 to 1000 (while the dilation is finite and exact, for a rough
    path's level 2 too): neither |dx|^p nor the squares of a norm underflow
    or overflow, for d = 1 and 2.  At p = 2 and 4 the root of 2^(kp) s is
    2^k times the root of s; at other p the root's exponent fl(1/p) makes it
    drift with k (about 0.28 ulp per unit of k at p = 2.5) on paths that
    keep their bits."""
    rng = np.random.default_rng(22)
    grid = uniform_grid(1.0, 12)
    values = np.cumsum(rng.standard_normal((12, 2)), axis=0)
    values -= values[0]
    rough = lift_piecewise_linear(GridFunction1D(grid, values))
    for p in (2.0, 4.0):
        for x in (values[:, 0], values):
            ref = p_variation(GridFunction1D(grid, x), p)
            for k in range(-1000, 1001):
                got = p_variation(GridFunction1D(grid, np.ldexp(x, k)), p)
                np.testing.assert_array_max_ulp(got, np.ldexp(ref, k), maxulp=2)
        ref = p_variation(rough, p)
        for k in range(-1000, 1001):
            with np.errstate(over="ignore"):
                level2 = np.ldexp(rough.level2, 2 * k)
            if np.array_equal(np.ldexp(level2, -2 * k), rough.level2):
                got = p_variation(RoughPath(grid, np.ldexp(rough.level1, k), level2), p)
                np.testing.assert_array_max_ulp(got, np.ldexp(ref, k), maxulp=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_p_variation_of_tiny_and_huge_steps():
    """Steps whose p-th powers underflow or whose products overflow: the
    power of two factored out keeps them, and the turns are told by signs."""
    tiny = GridFunction1D(uniform_grid(1.0, 4), np.array([0.0, 1e-200, 2e-200, 1e-200]))
    value, partition = p_variation_with_partition(tiny, 2.5)
    assert list(partition) == [0, 2, 3]
    assert value == pytest.approx(1e-200 * (2.0 ** 2.5 + 1.0) ** (1 / 2.5), rel=1e-15)
    huge = GridFunction1D(uniform_grid(1.0, 3), np.array([0.0, 1e160, 2e160]))
    assert p_variation(huge, 2.5) == pytest.approx(2e160, rel=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_a_stack_walks_back_on_each_path_s_own_columns(monkeypatch, d):
    """K copies of one path cost K times the norm evaluations of that path,
    its walk-back included: each path's walk-back evaluates its own columns,
    not the whole stack's, and finds the single path's partition."""
    one = random_rough_lift(np.random.default_rng(19), 33, d)
    norm, evaluated = nilpotent.increment_norm, []

    def counting(*args):
        out = norm(*args)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(nilpotent, "increment_norm", counting)
    counts = {}
    for K in (1, 4, 16):
        X = RoughPath(one.grid, np.repeat(one.level1[None], K, axis=0),
                      np.repeat(one.level2[None], K, axis=0))
        evaluated.clear()
        _, partitions = p_variation_with_partition(X, 2.5)
        counts[K] = sum(evaluated)
        assert all(np.array_equal(part, partitions[0]) for part in partitions)
    assert counts[4] == 4 * counts[1] and counts[16] == 16 * counts[1]


# increments with flat runs, exact zeros and ties, and arbitrary ones
SCALAR_STEPS = (st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0])
                | st.floats(-4.0, 4.0, allow_subnormal=False))


def turning_points(x):
    """Grid indices of a scalar path where it turns, with both ends."""
    dx = np.diff(x)
    return {0, x.size - 1} | {i for i in range(1, x.size - 1) if dx[i - 1] * dx[i] <= 0}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), count=st.integers(0, 6),
       p=st.sampled_from([1.0, 2.2, 2.5, 3.5]))
def test_scalar_p_variation_on_turning_points_matches_the_whole_grid(data, n, count, p):
    """A scalar stack runs the DP on each path's turning points, padded to
    the longest path: its values are the whole-grid DP's bit for bit, and its
    partitions, mapped back to grid indices, are each path's own."""
    steps = data.draw(st.lists(st.lists(SCALAR_STEPS, min_size=n - 1, max_size=n - 1),
                               min_size=count, max_size=count))
    values = np.zeros((count, n, 1))
    values[:, 1:, 0] = np.cumsum(np.reshape(steps, (count, n - 1)), axis=1)
    grid = uniform_grid(1.0, n)
    X = lift_piecewise_linear(PathSample(grid, values))
    got, partitions = p_variation_with_partition(X, p)
    assert got.shape == (count,) and len(partitions) == count
    assert np.array_equal(p_variation(X, p), got)
    for k in range(count):
        one = RoughPath(grid, X.level1[k], X.level2[k])
        value, partition = p_variation_with_partition(one, p)
        assert got[k] == value == whole_matrix_p_variation(one, p)
        assert p_variation(GridFunction1D(grid, values[k, :, 0]), p) == value
        np.testing.assert_array_equal(partitions[k], partition)
        assert partition[0] == 0 and partition[-1] == n - 1
        assert np.all(np.diff(partition) > 0)
        if p > 1:
            assert set(partition) <= turning_points(values[k, :, 0])
        norms = _increment_norms(one)
        total = sum(norms[i, j] ** p for i, j in zip(partition, partition[1:]))
        assert np.isclose(total ** (1.0 / p), value, rtol=1e-12)
        assert np.isclose(value, p_variation_bruteforce(one, p), rtol=1e-10)


def test_scalar_p_variation_edge_stacks():
    """An empty stack (what a chunk whose every path failed passes on), a
    constant path, n = 2 and paths of different turning counts in one stack."""
    for n in (2, 9):
        grid = uniform_grid(1.0, n)
        empty = lift_piecewise_linear(PathSample(grid, np.zeros((0, n, 1))))
        value, partitions = p_variation_with_partition(empty, 2.5)
        assert value.shape == (0,) and partitions == []
        assert p_variation(empty, 2.5).shape == (0,)
    grid = uniform_grid(1.0, 9)
    values = np.zeros((3, 9, 1))
    values[1, :, 0] = [0, 1, 2, 3, 2, 1, 0, 1.5, 3]  # turns at 3 and 6
    values[2, :, 0] = [0, 1, 0, 1, 0, 1, 0, 1, 0]  # turns everywhere
    X = lift_piecewise_linear(PathSample(grid, values))
    got, partitions = p_variation_with_partition(X, 2.5)
    assert got[0] == 0.0 and list(partitions[0]) == [0, 8]
    three = 3.0 ** 2.5
    assert got[1] == ((three + three) + three) ** (1 / 2.5)
    assert list(partitions[1]) == [0, 3, 6, 8]
    assert got[2] == 8.0 ** (1 / 2.5) and list(partitions[2]) == list(range(9))
    two = lift_piecewise_linear(GridFunction1D(uniform_grid(1.0, 2), np.array([0.0, -3.0])))
    value, partition = p_variation_with_partition(two, 2.5)
    assert value == 3.0 and list(partition) == [0, 1]


def young_integral_2d_reference(f, g, R):
    """The pairing by shape branches that one tensordot replaced."""
    box = R.rectangle_increments()
    fl, gl = f.values[:-1], g.values[:-1]
    if fl.ndim == 1 and gl.ndim == 1:
        return float(fl @ box @ gl)
    if fl.ndim == 2 and gl.ndim == 2:
        return np.einsum("ia,ij,jb->ab", fl, box, gl)
    if fl.ndim == 2:
        return np.einsum("ia,ij,j->a", fl, box, gl)
    return np.einsum("i,ij,jb->b", fl, box, gl)


def test_2d_integral_matches_the_shape_branches():
    grid = uniform_grid(1.0, 33)
    rng = np.random.default_rng(18)
    z = rng.standard_normal((33, 33))
    R = GridFunction2D(grid, z @ z.T)
    sides = [GridFunction1D(grid, rng.standard_normal(shape))
             for shape in ((33,), (33, 3))]
    for f in sides:
        for g in sides:
            new, ref = young_integral_2d(f, g, R), young_integral_2d_reference(f, g, R)
            assert np.shape(new) == np.shape(ref)
            assert np.allclose(new, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    assert isinstance(young_integral_2d(sides[0], sides[0], R), float)


def test_variation_partition_ties_go_to_the_first_candidate():
    # a constant kernel has no increments: every partition sums to zero
    grid = uniform_grid(1.0, 9)
    R = GridFunction2D(grid, np.ones((9, 9)))
    assert list(rho_variation_2d(R, 1.0, mode="exact").partition) == [0, 8]
    refined = rho_variation_2d(R, 1.0, mode="diagonal-refinement")
    assert list(refined.partition) == list(range(9))
    flat = GridFunction1D(grid, np.zeros(9))
    assert p_variation_bruteforce(flat, 2.0) == 0.0
