"""Grid-based Young integration and variation functionals.

1D integrals are left-point Riemann-Stieltjes sums, which are exact for
integrands that are piecewise constant on the grid and reproducible across
platforms.  2D integrals pair two grid functions against the rectangle
increments of a kernel sample.  p-variation over all sub-partitions of a grid
is computed exactly by dynamic programming; the 2D rho-variation supremum is
exponentially hard, so an exact small-grid oracle and a documented
lower-bound estimator are provided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import nilpotent


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least 2 points")
        if t[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {t[0]}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "points", t)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    def index_of(self, t: float) -> int:
        """Index of a grid point equal to t, up to rounding relative to the
        horizon (so a rescaled grid accepts the rescaled times, no others)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if not np.isclose(self.points[i], t, rtol=1e-12, atol=1e-12 * self.horizon):
            raise ValueError(f"time {t} is not a grid point")
        return i


def uniform_grid(horizon: float, n: int) -> TimeGrid:
    return TimeGrid(np.linspace(0.0, horizon, n))


@dataclass(frozen=True)
class GridFunction1D:
    """Samples of a scalar or vector valued function on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.grid.n:
            raise ValueError(
                f"got {v.shape[0]} values for a grid of {self.grid.n} points"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GridFunction2D:
    """Samples F(t_i, t_j) of a two-parameter function on grid x grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"value matrix {v.shape} inconsistent with a grid of "
                f"{self.grid.n} points"
            )
        object.__setattr__(self, "values", v)

    def rectangle_increments(self) -> np.ndarray:
        """Double difference over all grid cells, shape (n-1, n-1).

        Taken once per sample and returned read-only: callers pair one
        kernel sample with many integrands.
        """
        return self._box

    @cached_property
    def _box(self) -> np.ndarray:
        box = _double_difference(self.values)
        box.flags.writeable = False
        return box


def _double_difference(v: np.ndarray) -> np.ndarray:
    return v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]


def same_grid(a: TimeGrid, b: TimeGrid) -> bool:
    return a is b or (a.n == b.n and np.allclose(a.points, b.points, rtol=1e-12,
                                                 atol=1e-12 * a.horizon))


def young_integral_1d(f: GridFunction1D, g: GridFunction1D):
    """Left-point sum of f dg over the common grid.

    Shapes: scalar f against scalar g gives a scalar; a vector-valued side
    against a scalar side gives a vector; two vector-valued functions of the
    same width are paired, sum_k of f_k dg^k, giving a scalar.
    """
    if not same_grid(f.grid, g.grid):
        raise ValueError("integrand and integrator must share a grid")
    fv, gv = f.values, g.values
    dg = gv[1:] - gv[:-1]
    fl = fv[:-1]
    if fl.ndim == 1 and dg.ndim == 1:
        return float(np.dot(fl, dg))
    if fl.ndim == 2 and dg.ndim == 1:
        return fl.T @ dg
    if fl.ndim == 1 and dg.ndim == 2:
        return fl @ dg
    if fl.shape[1] != dg.shape[1]:
        raise ValueError("vector-valued f and g must have matching width")
    return float(np.sum(fl * dg))


def young_integral_2d(f: GridFunction1D, g: GridFunction1D, R: GridFunction2D):
    """Sum of f(s_i) (x) g(t_j) against the rectangle increments of R.

    For scalar f, g the result is a scalar; for e-vector-valued f, g it is the
    e x e matrix of pairings needed by the Malliavin covariance.
    """
    if not (same_grid(f.grid, R.grid) and same_grid(g.grid, R.grid)):
        raise ValueError("f and g must be sampled on R.grid")
    # [()] turns the 0-d result of two scalar sides into a float
    return np.tensordot(f.values[:-1], R.rectangle_increments() @ g.values[:-1],
                        axes=(0, 0))[()]


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------


def _components(path) -> tuple:
    """Component-first, grid-second copies (a, b) of a path: a[i] is component
    i as (n, ...) over the stack's axes, b[i, k] likewise for level 2, and b
    is None for a path without level 2 (a GridFunction1D)."""
    if hasattr(path, "level2"):  # RoughPath
        a = np.moveaxis(path.level1, (-2, -1), (1, 0))
        b = np.moveaxis(path.level2, (-3, -2, -1), (2, 0, 1))
        return np.ascontiguousarray(a), np.ascontiguousarray(b)
    values = np.asarray(path.values, dtype=float)
    return np.ascontiguousarray(values.reshape(path.grid.n, -1).T), None


def _norm_columns(a, b):
    """The increment norms N[i, ...] from every grid index i < j to j, as a
    function of j, grid axis first.

    Vector paths use the Euclidean norm of the increment; rough paths (over
    any leading axes) use the homogeneous norm of the group increment.  Both
    are `nilpotent.increment_norm` on the component-first copies of
    `_components`, so a column is a few operations on (j, ...) slices.
    """
    if b is None:
        return lambda j: nilpotent.increment_norm(a[:, :j], None, a[:, j, None], None)
    return lambda j: nilpotent.increment_norm(a[:, :j], b[:, :, :j],
                                              a[:, j, None], b[:, :, j, None])


def _increment_norms(path) -> np.ndarray:
    """All-pairs increment norms N[i, j] for i < j (zero elsewhere)."""
    n = path.grid.n
    column = _norm_columns(*_components(path))
    norms = np.zeros((n, n))
    for j in range(1, n):
        norms[:j, j] = column(j)
    return norms


def _turning_points(a: np.ndarray) -> np.ndarray:
    """Per path of a scalar stack a (1, n, ...), the grid indices i where the
    path turns (dx_{i-1} dx_i <= 0) and both ends, in order, padded to the
    longest path with the last index: (m, ...) with m <= n.

    For p >= 1 the supremum over partitions is attained on these points
    (Butkus & Norvaisa, Lith. Math. J. 2018), and for p > 1 a point inside a
    monotone run strictly lowers a partition's sum.  A padded column adds a
    zero increment to the last real one, so its best sum equals that
    column's exactly.
    """
    x = a[0].reshape(a.shape[1], -1)
    keep = np.ones(x.shape, dtype=bool)
    dx = np.diff(x, axis=0)
    keep[1:-1] = dx[:-1] * dx[1:] <= 0
    path, i = np.nonzero(keep.T)  # path by path, each in grid order
    rank = np.arange(i.size) - np.searchsorted(path, path)
    # a path keeps both ends, so m >= 2, also for an empty stack
    index = np.full((int(rank.max(initial=1)) + 1, x.shape[1]), len(x) - 1)
    index[rank, path] = i
    return index.reshape(index.shape[:1] + a.shape[2:])


def _candidates(best: np.ndarray, column, j: int, p: float) -> np.ndarray:
    """Sums of p-th powers over the best partitions ending at j via each i < j."""
    return best[:j] + column(j) ** p


def _pvar_dp(path, p: float) -> tuple:
    """Sum of p-th powers over the best partition ending at each DP column,
    grid axis first over the stack's axes; with the columns' component-first
    arrays (a, b) of `_components` and, for a scalar path, the grid index of
    each column (None when the columns are the grid).

    For p > 1 scalar paths run on their turning points only.  At p = 1 a
    point inside a monotone run ties in exact arithmetic, so rounding picks
    the winning partition and every grid point is kept, as it is for paths
    of dimension d >= 2.  Each column's maximum reduces over the grid axis
    for every path of the stack at once.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a, b = _components(path)
    index = None
    if a.shape[0] == 1 and p > 1:  # no area: the norm is |dx|, level 2 drops out
        index = _turning_points(a)
        a, b = np.take_along_axis(a, index[None], axis=1), None
    column = _norm_columns(a, b)
    best = np.zeros(a.shape[1:])
    for j in range(1, best.shape[0]):
        best[j] = np.max(_candidates(best, column, j, p), axis=0)
    return best, (a, b), index


def _root(best: np.ndarray, p: float):
    """best ** (1/p) per path, as a scalar power: an array power may differ
    in the last bit."""
    roots = [float(v ** (1.0 / p)) for v in best.flat]
    return roots[0] if best.ndim == 0 else np.reshape(roots, best.shape)


def p_variation(path, p: float):
    """Exact p-variation of a sampled path over all sub-partitions of its grid.

    `path` is a GridFunction1D (Euclidean increment norm) or a RoughPath
    (homogeneous norm of group increments); for a stack of rough paths the
    result is an array over the stack.  Dynamic programming over grid points
    gives the supremum in O(n^2) increment evaluations; a scalar path needs
    only its turning points.
    """
    return _root(_pvar_dp(path, p)[0][-1], p)


def p_variation_with_partition(path, p: float):
    """p-variation together with an optimizing sub-partition (grid indices);
    for a stack of paths, an array of values and a list of partitions in the
    stack's C order.

    The partition is walked back from the last DP column: before each j
    comes the first i < j whose candidate equals best[j], the index an
    argmax in the dynamic program would have taken.  Each path walks back
    on its own columns, whose entries are the stack's bit for bit.
    """
    best, (a, b), index = _pvar_dp(path, p)
    rows = best.reshape(len(best), -1)
    a = a.reshape(a.shape[:2] + (-1,))
    b = None if b is None else b.reshape(b.shape[:3] + (-1,))
    partitions = []
    for m in range(rows.shape[1]):
        column = _norm_columns(np.ascontiguousarray(a[..., m]),
                               None if b is None else np.ascontiguousarray(b[..., m]))
        columns = [len(best) - 1]
        while columns[-1] != 0:
            j = columns[-1]
            cand = _candidates(rows[:, m], column, j, p)
            columns.append(int(np.argmax(cand == rows[j, m])))
        columns = np.array(columns[::-1], dtype=int)
        partitions.append(columns if index is None
                          else index.reshape(len(best), -1)[columns, m])
    value = _root(best[-1], p)
    return (value, partitions[0]) if best.ndim == 1 else (value, partitions)


def _partitions(n: int):
    """Every sub-partition of grid indices 0..n-1 that keeps both ends,
    coarsest first."""
    for r in range(n - 1):
        for combo in itertools.combinations(range(1, n - 1), r):
            yield np.array((0, *combo, n - 1))


def p_variation_bruteforce(path, p: float) -> float:
    """Enumerate all sub-partitions; oracle for the DP, small grids only."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    norms = _increment_norms(path)
    if norms.shape[0] > 14:
        raise ValueError("brute force restricted to grids of at most 14 points")
    best = max(sum(norms[a, b] ** p for a, b in zip(idx, idx[1:]))
               for idx in _partitions(norms.shape[0]))
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# 2D rho-variation of a covariance sample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoVariationResult:
    value: float
    rho: float
    mode: str
    is_lower_bound: bool
    partition: np.ndarray = field(repr=False, default=None)


def rho_variation_partition_sum(R: GridFunction2D, rho: float,
                                indices: np.ndarray) -> float:
    """Raw sum |box R|^rho over the cells of one partition (same both axes)."""
    idx = np.asarray(indices, dtype=int)
    box = _double_difference(R.values[np.ix_(idx, idx)])
    return float(np.sum(np.abs(box) ** rho))


def _dyadic_coarsenings(n: int) -> list[np.ndarray]:
    out = []
    stride = 1
    while (n - 1) // stride >= 1:
        idx = np.arange(0, n, stride)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        out.append(idx)
        if stride >= n - 1:
            break
        stride *= 2
    return out


def rho_variation_2d(R: GridFunction2D, rho: float, mode: str = "diagonal-refinement",
                     extra_partitions: list[np.ndarray] | None = None) -> RhoVariationResult:
    """rho-variation of a sampled covariance, single partition on both axes.

    exact mode enumerates every sub-partition of the grid (allowed up to 14
    grid points) and returns the true supremum.  diagonal-refinement mode
    evaluates the sum on the full grid, on its dyadic coarsenings and on any
    `extra_partitions`, and returns the maximum; the result is then a lower
    bound of the supremum and is flagged as such.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    n = R.grid.n
    if mode == "exact":
        if n > 14:
            raise ValueError(
                f"exact mode enumerates 2^(n-2) partitions and is limited to "
                f"n <= 14 grid points (got {n}); use mode='diagonal-refinement'"
            )
        candidates = _partitions(n)
    elif mode == "diagonal-refinement":
        candidates = _dyadic_coarsenings(n) + [np.asarray(p, dtype=int)
                                               for p in extra_partitions or ()]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # the first of tied maxima wins
    best, best_idx = max(((rho_variation_partition_sum(R, rho, idx), idx)
                          for idx in candidates), key=lambda pair: pair[0])
    return RhoVariationResult(best ** (1.0 / rho), rho, mode, mode != "exact", best_idx)
