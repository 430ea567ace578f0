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
    """Component-first, grid-second arrays (a, b) of a path: a[i] is component
    i as (n, ...) over the stack's axes, b[i, k] likewise for level 2, and b
    is None for a path without level 2 (a GridFunction1D) and for a path of
    one component, whose norm is |da|.  For a RoughPath they are views of
    the arrays it stores, contiguous; a GridFunction1D's are a copy."""
    if hasattr(path, "level2"):  # RoughPath
        a, b = nilpotent._component_first(path.level1, path.level2)
        return a, None if len(a) == 1 else b
    values = np.asarray(path.values, dtype=float)
    return np.ascontiguousarray(values.reshape(path.grid.n, -1).T), None


def _rows(j: int, step: int) -> slice:
    """The candidates of DP column j: every i < j, or with step 2 the
    columns j - 1, j - 3, ... of the other type."""
    return slice((j - 1) % step, j, step)


def _norm_columns(a, b, step: int = 1):
    """The increment norms N[i, ...] from each candidate i of `_rows(j, step)`
    to j, as a function of j, grid axis first.

    Vector paths use the Euclidean norm of the increment; rough paths (over
    any leading axes) use the homogeneous norm of the group increment.  Both
    are `nilpotent.increment_norm` on the component-first arrays of
    `_components`, so a column is a few operations on (j, ...) slices.
    """
    if b is None:
        return lambda j: nilpotent.increment_norm(a[:, _rows(j, step)], None,
                                                  a[:, j, None], None)
    return lambda j: nilpotent.increment_norm(a[:, _rows(j, step)], b[:, :, _rows(j, step)],
                                              a[:, j, None], b[:, :, j, None])


def _increment_norms(path) -> np.ndarray:
    """All-pairs increment norms N[i, j] for i < j (zero elsewhere)."""
    n = path.grid.n
    column = _norm_columns(*_components(path))
    norms = np.zeros((n, n))
    for j in range(1, n):
        norms[:j, j] = column(j)
    return norms


def _turning_points(x: np.ndarray) -> np.ndarray:
    """Mask (K, n) of the turning points of each path of a scalar stack x
    (K, n): both ends and every point where the path turns, told by the
    signs of its steps (a product of two steps can underflow to 0 or
    overflow), a flat run standing as its first point.  The kept points of
    a path alternate strictly between its maxima and minima.

    For p > 1 the supremum over partitions is attained on them (Butkus &
    Norvaisa, Lith. Math. J. 2018): a point inside a monotone run strictly
    lowers a partition's sum, and the points of a flat run share one value;
    the first is the one a walk back over all of them takes, the first of
    tied candidates.
    """
    up, flat = x[:, 1:] > x[:, :-1], x[:, 1:] == x[:, :-1]  # the steps' signs
    keep = np.ones(x.shape, dtype=bool)
    keep[:, 1:-1] = up[:, :-1] != up[:, 1:]
    for k in np.flatnonzero(flat.any(axis=1)):  # the paths with flat runs
        moves = np.flatnonzero(~flat[k])
        keep[k, 1:-1] = False
        keep[k, moves[:-1][up[k, moves[:-1]] != up[k, moves[1:]]] + 1] = True
    return keep


def _on_turning_points(a: np.ndarray) -> tuple:
    """A scalar stack a (1, n, ...) on its paths' turning points, grid axis
    first and padded to the longest path with each path's last value
    (1, m, ...), m >= 2; with the mask (K, n) of `_turning_points`."""
    x = a[0].reshape(a.shape[1], -1).T
    keep = _turning_points(x)
    count = np.count_nonzero(keep, axis=1)
    z = np.empty((count.max(initial=2), len(x)))
    z[:] = x[:, -1]
    z.T[np.arange(len(z)) < count[:, None]] = np.compress(keep.ravel(), x)  # x[keep], faster
    return z.reshape((1, len(z)) + a.shape[2:]), keep


def _exponents(a: np.ndarray, b, p: float) -> np.ndarray:
    """Per path, the power of two 2^k that p-variation factors out of it
    (`nilpotent.exponents` over its components and grid points).  The
    path's size bounds its increment norms, whose q-th powers the DP forms:
    q = p for one component, max(p, 2) for more (the squares of the length)
    and max(p, 4) with an area (the squares of its entries)."""
    q = p if len(a) == 1 else max(p, 2.0 if b is None else 4.0)
    return nilpotent.exponents(a, b, q, 2)


def _candidates(best: np.ndarray, column, j: int, p: float, step: int) -> np.ndarray:
    """Sums of p-th powers over the best partitions ending at j via each
    candidate i of `_rows(j, step)`."""
    sums = column(j)
    np.power(sums, p, out=sums)
    sums += best[_rows(j, step)]
    return sums


def _pvar_dp(path, p: float) -> tuple:
    """Sum of p-th powers over the best partition ending at each DP column,
    grid axis first over the stack's axes; with the columns' component-first
    arrays (a, b) of `_components` and the candidates' step, the mask of a
    scalar path's turning points (None when the columns are the grid) and
    the exponents of `_exponents` (the sums are those of a 2^-k path).

    For p > 1 scalar paths run on their turning points only, and column j
    takes only the columns j - 1, j - 3, ... of the other type.  A column i
    of j's type can not win: let c be the lowest minimum strictly between
    two maxima i < j (the highest maximum between two minima), so z_c <
    min(z_i, z_j) and fl|z_j - z_i| <= max(fl(z_i - z_c), fl(z_j - z_c)).
    Rounded subtraction, power and sum are monotone and the best sums
    nondecreasing, so the candidate through i is at most best[c] or at most
    the candidate through c: every maximum keeps its exact value.  A padded
    column repeats its path's last point, so it keeps that column's value.
    At p = 1 a point inside a monotone run ties in exact arithmetic, so
    rounding picks the winning partition and every grid point is kept, as
    it is for paths of dimension d >= 2.  Each column's maximum reduces over
    the grid axis for every path of the stack at once.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a, b = _components(path)
    keep, step = None, 1
    if a.shape[0] == 1 and p > 1:
        (a, keep), step = _on_turning_points(a), 2
    k = _exponents(a, b, p)
    if k.any():
        a = np.ldexp(a, -k)
        b = None if b is None else np.ldexp(b, -2 * k)
    column = _norm_columns(a, b, step)
    best = np.zeros(a.shape[1:])
    for j in range(1, best.shape[0]):
        best[j] = np.max(_candidates(best, column, j, p, step), axis=0)
    return best, (a, b, step), keep, k


def _root(best: np.ndarray, p: float, k: np.ndarray):
    """2^k best ** (1/p) per path, the root a scalar power: an array power
    may differ in the last bit."""
    roots = [v ** (1.0 / p) for v in best.ravel().tolist()]
    roots = np.ldexp(np.reshape(roots, best.shape), k)
    return float(roots) if best.ndim == 0 else roots


def p_variation(path, p: float):
    """Exact p-variation of a sampled path over all sub-partitions of its grid.

    `path` is a GridFunction1D (Euclidean increment norm) or a RoughPath
    (homogeneous norm of group increments); for a stack of rough paths the
    result is an array over the stack.  Dynamic programming over grid points
    gives the supremum in O(n^2) increment evaluations; a scalar path needs
    only its turning points, each column half of them.  For p > 2 (every p
    of `experiments.variation_index`) the value is the whole-grid DP's bit
    for bit, on the path with the power of two of `_exponents` factored out
    (none for a path whose powers stay in range); near p = 1 it can differ
    in the last bit.
    """
    best, _, _, k = _pvar_dp(path, p)
    return _root(best[-1], p, k)


def p_variation_with_partition(path, p: float):
    """p-variation together with an optimizing sub-partition (grid indices);
    for a stack of paths, an array of values and a list of partitions in the
    stack's C order.

    The partition is walked back from the path's own last DP column: before
    each j comes the first candidate i whose sum equals best[j], the index
    an argmax in the dynamic program would have taken.  Each path walks
    back on its own columns, whose entries are the stack's bit for bit.
    """
    best, (a, b, step), keep, k = _pvar_dp(path, p)
    rows = best.reshape(len(best), -1)
    a = a.reshape(a.shape[:2] + (-1,))
    b = None if b is None else b.reshape(b.shape[:3] + (-1,))
    partitions = []
    for m in range(rows.shape[1]):
        column = _norm_columns(np.ascontiguousarray(a[..., m]),
                               None if b is None else np.ascontiguousarray(b[..., m]), step)
        grid = np.arange(len(best)) if keep is None else np.flatnonzero(keep[m])
        columns = [len(grid) - 1]
        while columns[-1] != 0:
            j = columns[-1]
            cand = _candidates(rows[:, m], column, j, p, step)
            columns.append(_rows(j, step).start + step * int(np.argmax(cand == rows[j, m])))
        partitions.append(grid[columns[::-1]])
    value = _root(best[-1], p, k)
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
