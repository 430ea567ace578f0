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
        """Index of a grid point equal to t (up to rounding)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if not np.isclose(self.points[i], t, rtol=1e-12, atol=1e-12):
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
    """Samples F(s_i, t_j) of a two-parameter function."""

    grid_s: TimeGrid
    grid_t: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid_s.n, self.grid_t.n):
            raise ValueError(
                f"value matrix {v.shape} inconsistent with grids "
                f"({self.grid_s.n}, {self.grid_t.n})"
            )
        object.__setattr__(self, "values", v)

    def rectangle_increments(self) -> np.ndarray:
        """Double difference over all grid cells, shape (ns-1, nt-1).

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
    return a is b or (a.n == b.n and np.allclose(a.points, b.points,
                                                 rtol=1e-12, atol=1e-12))


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
    if not same_grid(f.grid, R.grid_s):
        raise ValueError("f must be sampled on R.grid_s")
    if not same_grid(g.grid, R.grid_t):
        raise ValueError("g must be sampled on R.grid_t")
    box = R.rectangle_increments()
    fl = f.values[:-1]
    gl = g.values[:-1]
    if fl.ndim == 1 and gl.ndim == 1:
        return float(fl @ box @ gl)
    if fl.ndim == 2 and gl.ndim == 2:
        return np.einsum("ia,ij,jb->ab", fl, box, gl)
    if fl.ndim == 2:
        return np.einsum("ia,ij,j->a", fl, box, gl)
    return np.einsum("i,ij,jb->b", fl, box, gl)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------


def _column_norms(path, j: int) -> np.ndarray:
    """Increment norms N[..., i] from every grid index i < j to j.

    Vector paths use the Euclidean norm of the increment; rough paths (over
    any leading axes) use the homogeneous norm of the group increment.
    """
    if hasattr(path, "level2"):  # RoughPath
        A, B = path.level1, path.level2
        return nilpotent.norm(*nilpotent.increment(
            A[..., :j, :], B[..., :j, :, :], A[..., j, None, :], B[..., j, None, :, :]))
    values = np.asarray(path.values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return np.linalg.norm(values[j] - values[:j], axis=-1)


def _increment_norms(path) -> np.ndarray:
    """All-pairs increment norms N[i, j] for i < j (zero elsewhere)."""
    n = path.grid.n
    norms = np.zeros((n, n))
    for j in range(1, n):
        norms[:j, j] = _column_norms(path, j)
    return norms


def _pvar_dp(path, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Sum of p-th powers over the best partition ending at each grid index,
    and the index before it, over the leading axes of a stack of paths."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = path.grid.n
    lead = path.level1.shape[:-2] if hasattr(path, "level2") else ()
    best = np.zeros(lead + (n,))
    prev = np.zeros(lead + (n,), dtype=int)
    for j in range(1, n):
        cand = best[..., :j] + _column_norms(path, j) ** p
        prev[..., j] = np.argmax(cand, axis=-1)
        best[..., j] = np.max(cand, axis=-1)
    return best, prev


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
    gives the supremum in O(n^2) increment evaluations.
    """
    return _root(_pvar_dp(path, p)[0][..., -1], p)


def p_variation_with_partition(path, p: float):
    """p-variation together with an optimizing sub-partition (grid indices);
    for a stack of paths, an array of values and a list of partitions in the
    stack's C order."""
    best, prev = _pvar_dp(path, p)
    partitions = []
    for back in prev.reshape(-1, prev.shape[-1]):
        indices = [back.size - 1]
        while indices[-1] != 0:
            indices.append(int(back[indices[-1]]))
        partitions.append(np.array(indices[::-1], dtype=int))
    value = _root(best[..., -1], p)
    return (value, partitions[0]) if prev.ndim == 1 else (value, partitions)


def p_variation_bruteforce(path, p: float) -> float:
    """Enumerate all sub-partitions; oracle for the DP, small grids only."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    norms = _increment_norms(path)
    n = norms.shape[0]
    if n > 14:
        raise ValueError("brute force restricted to grids of at most 14 points")
    interior = range(1, n - 1)
    best = 0.0
    for r in range(n - 1):
        for combo in itertools.combinations(interior, r):
            pts = (0, *combo, n - 1)
            total = sum(norms[pts[k], pts[k + 1]] ** p for k in range(len(pts) - 1))
            best = max(best, total)
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
    if not same_grid(R.grid_s, R.grid_t):
        raise ValueError("rho-variation requires the same grid on both axes")
    n = R.grid_s.n
    if mode == "exact":
        if n > 14:
            raise ValueError(
                f"exact mode enumerates 2^(n-2) partitions and is limited to "
                f"n <= 14 grid points (got {n}); use mode='diagonal-refinement'"
            )
        best = 0.0
        best_idx = np.array([0, n - 1])
        interior = range(1, n - 1)
        for r in range(n - 1):
            for combo in itertools.combinations(interior, r):
                idx = np.array((0, *combo, n - 1))
                s = rho_variation_partition_sum(R, rho, idx)
                if s > best:
                    best, best_idx = s, idx
        return RhoVariationResult(best ** (1.0 / rho), rho, "exact", False, best_idx)
    if mode != "diagonal-refinement":
        raise ValueError(f"unknown mode {mode!r}")
    candidates = _dyadic_coarsenings(n)
    if extra_partitions:
        candidates = candidates + [np.asarray(p, dtype=int) for p in extra_partitions]
    best = -np.inf
    best_idx = candidates[0]
    for idx in candidates:
        s = rho_variation_partition_sum(R, rho, idx)
        if s > best:
            best, best_idx = s, idx
    return RhoVariationResult(best ** (1.0 / rho), rho, "diagonal-refinement",
                              True, best_idx)
