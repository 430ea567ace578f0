"""The component-first layout of the step-2 stacks against the sample-first
code it replaced.

The lift, `RoughPath.segment_increments`, `nilpotent.residual`,
`rde._with_time` and `rde._affine_steps` once kept the samples in front and
the (d,) and (d, d) components last.  Those versions are kept here as the
references: the component-first functions change only where each entry
lives, never its arithmetic, so every comparison is bit for bit.  The memory
guards check what the layout buys: a lift holds no temporary as large as a
level, and p-variation reads a lift's arrays without copying them.
"""

import functools
import itertools
import operator
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussrde import (GridFunction1D, PathSample, TimeGrid, lift_piecewise_linear,
                      translate, uniform_grid)
from gaussrde import nilpotent
from gaussrde.rde import _affine_steps, _dot, _with_time
from gaussrde.young import _components


# ---------------------------------------------------------------------------
# The sample-first references: level 1 (..., d), level 2 (..., d, d)
# ---------------------------------------------------------------------------


def tensor_sf(x, y):
    return x[..., :, None] * y[..., None, :]


def chain_sf(n, da, db):
    lead, d = da.shape[:-2], da.shape[-1]
    a = np.zeros(lead + (n, d))
    b = np.zeros(lead + (n, d, d))
    np.cumsum(da, axis=-2, out=a[..., 1:, :])
    db += tensor_sf(a[..., :-1, :], da)
    np.cumsum(db, axis=-3, out=b[..., 1:, :, :])
    return a, b


def lift_sf(path):
    x = np.asarray(path.values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    da = np.diff(x, axis=-2)
    db = tensor_sf(da, da)
    db *= 0.5
    return chain_sf(path.grid.n, da, db)


def segment_increments_sf(a, b, lo, hi):
    da = a[..., lo + 1:hi + 1, :] - a[..., lo:hi, :]
    return da, b[..., lo + 1:hi + 1, :, :] - b[..., lo:hi, :, :] - tensor_sf(a[..., lo:hi, :], da)


def residual_sf(a, b):
    sym = 0.5 * (b + np.swapaxes(b, -1, -2))
    return np.max(np.abs(sym - 0.5 * tensor_sf(a, a)), axis=(-2, -1), initial=0.0)


def with_time_sf(dt, da, db):
    da2 = np.concatenate([np.broadcast_to(dt[:, None], da.shape[:-1] + (1,)), da], axis=-1)
    db2 = np.empty(da2.shape + da2.shape[-1:])
    db2[..., 0, 0] = (dt * dt) * 0.5
    db2[..., 0, 1:] = db2[..., 1:, 0] = (dt[:, None] * da) * 0.5
    db2[..., 1:, 1:] = db
    return da2, db2


def affine_steps_sf(affine, a, b, Y, M):
    """Increments a (K, B, d), b (K, B, d, d), each transposed into a
    contiguous copy with the samples last."""
    A, c = affine[:2]
    e = c.shape[1]
    Ac = np.concatenate([A, c[:, :, None]], axis=-1).transpose(1, 0, 2)[..., None, None]
    second = sum(_dot(A[i][..., None, None, None], _dot(Ac, np.ascontiguousarray(b[..., i].T)))
                 for i in range(len(A)))
    Mc = _dot(Ac, np.ascontiguousarray(a.T)) + second
    M[...] = Mc[:, :e].transpose(3, 2, 0, 1)
    y = Y[:, 0].T
    for k in range(Mc.shape[2]):
        y = y + _dot(Mc[:, :e, k], y) + Mc[:, e, k]
        Y[:, k + 1] = y.T
    return (_dot(A.transpose(0, 2, 1)[..., None, None], np.ascontiguousarray(Y[:, :-1].T))
            + c[..., None, None])


def component_first(a, b):
    """(d, m, K) and (d, d, m, K) of a sample-first pair (K, m, d), (K, m, d, d)."""
    return np.moveaxis(a, (-2, -1), (1, 0)), np.moveaxis(b, (-3, -2, -1), (2, 0, 1))


def two_root_norm(a_s, b_s, a_t, b_t):
    """`nilpotent.increment_norm` as it took the larger of two roots."""
    da = a_t - a_s
    if len(da) == 1:
        return np.abs(da[0])
    length = functools.reduce(operator.iadd, (x * x for x in da))
    if b_t is None:
        return np.sqrt(length)
    area2 = functools.reduce(operator.iadd, (
        nilpotent._area_square(a_s, b_s, b_t, da, i, k)
        for i, k in itertools.combinations(range(len(da)), 2)))
    area2 *= 2.0
    return np.maximum(np.sqrt(length), np.sqrt(np.sqrt(area2)))


# ---------------------------------------------------------------------------
# Drivers: a single (n,) or (n, d) path, or a stack of K >= 1 paths
# ---------------------------------------------------------------------------


@st.composite
def drivers(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 20))
    K = draw(st.sampled_from([None, 1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, n - 1))]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if K is None:
        shape = (n,) if d == 1 and draw(st.booleans()) else (n, d)
        return GridFunction1D(grid, scale * rng.standard_normal(shape).cumsum(axis=0))
    return PathSample(grid, scale * rng.standard_normal((K, n, d)).cumsum(axis=1))


@settings(max_examples=80, deadline=None)
@given(path=drivers(), data=st.data())
def test_the_lift_and_its_increments_are_the_sample_first_bits(path, data):
    X = lift_piecewise_linear(path)
    a, b = lift_sf(path)
    assert np.array_equal(X.level1, a) and np.array_equal(X.level2, b)
    n = path.grid.n
    lo = data.draw(st.integers(0, n - 2))
    hi = data.draw(st.integers(lo + 1, n + 3))  # past the last segment is the last
    da, db = segment_increments_sf(a, b, lo, min(hi, n - 1))
    got = X.segment_increments(lo, hi)
    assert all(part.flags.c_contiguous for part in got)
    want = component_first(da, db)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(nilpotent.residual(*got), np.moveaxis(residual_sf(da, db), -1, 0))
    dt = np.diff(path.grid.points)[lo:min(hi, n - 1)]
    timed = _with_time(dt, *got)
    want = component_first(*with_time_sf(dt, da, db))
    assert np.array_equal(timed[0], want[0]) and np.array_equal(timed[1], want[1])


@settings(max_examples=40, deadline=None)
@given(path=drivers())
def test_translation_is_the_sample_first_bits(path):
    X = lift_piecewise_linear(path)
    rng = np.random.default_rng(path.grid.n)
    hv = rng.standard_normal((path.grid.n, X.dim))
    shifted = translate(X, GridFunction1D(path.grid, hv))
    da, db = segment_increments_sf(X.level1, X.level2, 0, path.grid.n - 1)
    dh = np.diff(hv, axis=0)
    cross = 0.5 * (tensor_sf(da, dh) + tensor_sf(dh, da) + tensor_sf(dh, dh))
    a, b = chain_sf(path.grid.n, da + dh, db + cross)
    assert np.array_equal(shifted.level1, a) and np.array_equal(shifted.level2, b)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), e=st.integers(1, 3), K=st.integers(1, 4), B=st.integers(1, 6),
       drift=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_affine_steps_are_the_sample_first_bits(d, e, K, B, drift, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((K, B + 1, d)).cumsum(axis=1)
    X = lift_piecewise_linear(PathSample(uniform_grid(1.0, B + 1), values))
    a, b = X.segment_increments()
    a_sf, b_sf = segment_increments_sf(X.level1, X.level2, 0, B)
    if drift:
        dt = np.diff(X.grid.points)
        a, b = _with_time(dt, a, b)
        a_sf, b_sf = with_time_sf(dt, a_sf, b_sf)
    affine = (0.3 * rng.standard_normal((len(a), e, e)), rng.standard_normal((len(a), e)), None)
    Y, Y_sf = np.zeros((2, K, B + 1, e))
    Y[:, 0] = Y_sf[:, 0] = rng.standard_normal(e)
    M, M_sf = np.zeros((2, K, B, e, e))
    V = _affine_steps(affine, a, b, Y, M)
    assert np.array_equal(V, affine_steps_sf(affine, a_sf, b_sf, Y_sf, M_sf))
    assert np.array_equal(Y, Y_sf) and np.array_equal(M, M_sf)


# finite doubles over every binade, where squares under- and overflow
MAGNITUDE = st.builds(lambda m, k: m * 2.0 ** k, st.floats(-2.0, 2.0), st.integers(-1074, 1000))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), shape=st.sampled_from([(), (1,), (3,), (2, 4)]))
def test_the_one_root_norm_is_the_larger_of_two_roots(data, d, shape):
    """sqrt(max(|da|^2, |area|_F)) = max(|da|, |area|_F^(1/2)) bit for bit:
    a correctly rounded sqrt is monotone.  0-d components are the single
    elements `norm` passes."""
    def draw(*dims):
        return np.array(data.draw(st.lists(MAGNITUDE, min_size=int(np.prod(dims + shape)),
                                           max_size=int(np.prod(dims + shape))))).reshape(dims + shape)
    a_s, a_t, b_s, b_t = draw(d), draw(d), draw(d, d), draw(d, d)
    with np.errstate(all="ignore"):
        for args in ((a_s, b_s, a_t, b_t), (a_s, None, a_t, None)):
            got, want = nilpotent.increment_norm(*args), two_root_norm(*args)
            assert np.shape(got) == shape
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Memory: no temporary as large as a level, and no copy for p-variation
# ---------------------------------------------------------------------------


def test_lifting_a_chunk_holds_its_result_its_input_transpose_and_one_slab():
    """A planar chunk (150, 65, 2): the lift's traced peak is its levels, its
    segments' level 1 (smaller than the component-first copy of its input,
    which is freed first) and one (n - 1, K) slab of the Chen cross term,
    with 8 KB to spare.  Forming the cross term as one tensor (a temporary
    the size of level 2, 300 KB) or with sample-first levels (whose outer
    products map 128 KB of numpy iterator buffers) exceeds it."""
    K, n, d = 150, 65, 2
    values = np.random.default_rng(3).standard_normal((K, n, d)).cumsum(axis=1)
    path = PathSample(uniform_grid(1.0, n), values)
    lift_piecewise_linear(path)  # any one-time set-up outside the traced call
    tracemalloc.start()
    try:
        X = lift_piecewise_linear(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = X.level1.nbytes + X.level2.nbytes
    assert peak <= result + values.nbytes + (n - 1) * K * 8 + 8192


@settings(max_examples=40, deadline=None)
@given(path=drivers())
def test_a_lift_s_component_first_arrays_are_views(path):
    """`young._components` of a lift reads its storage, contiguous, with no
    copy, for every stack shape and d (b is None for one component)."""
    X = lift_piecewise_linear(path)
    a, b = _components(X)
    assert a.flags.c_contiguous and np.shares_memory(a, X.level1)
    assert (b is None) == (X.dim == 1)
    if b is not None:
        assert b.flags.c_contiguous and np.shares_memory(b, X.level2)
