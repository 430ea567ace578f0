"""Step-2 lifts of sampled paths and operations on them.

A RoughPath stores, at every grid time, the signature of the path read from
time 0: the increment a_i = x_{t_i} - x_0 and the iterated integral
b_i[j, k] = int_0^{t_i} (x^j - x^j_0) dx^k.  Segments are chained with the
group product, so consistency with the algebra in `nilpotent` is structural.
Piecewise-linear interpolation between grid points fixes all within-segment
integrals; under that convention the lift and the Cameron-Martin translation
are exact identities on the grid, not discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nilpotent
from .young import GridFunction1D, TimeGrid, same_grid


@dataclass(frozen=True)
class RoughPath:
    """Grid path in the step-2 group, stored as signatures from time 0.

    Leading axes, if any, index a stack of paths on one grid: level 1
    (K, n, d) and level 2 (K, n, d, d).
    """

    grid: TimeGrid
    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.level1, dtype=float)
        b = np.asarray(self.level2, dtype=float)
        n = self.grid.n
        if a.ndim < 2 or a.shape[-2] != n:
            raise ValueError(f"level1 must be (..., n, d) with n = {n}, got {a.shape}")
        if b.shape != a.shape + a.shape[-1:]:
            raise ValueError(f"level2 must be {a.shape + a.shape[-1:]}, got {b.shape}")
        if np.any(a[..., 0, :] != 0.0) or np.any(b[..., 0, :, :] != 0.0):
            raise ValueError("a rough path starts at the group identity")
        object.__setattr__(self, "level1", a)
        object.__setattr__(self, "level2", b)

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    def increment(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Group increment (level1, level2) between grid indices i <= j."""
        a, b = self.level1, self.level2
        return nilpotent.increment(a[..., i, :], b[..., i, :, :],
                                   a[..., j, :], b[..., j, :, :])

    def segment_increments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment group increments, shapes (..., n-1, d) and (..., n-1, d, d)."""
        a, b = self.level1, self.level2
        return nilpotent.increment(a[..., :-1, :], b[..., :-1, :, :],
                                   a[..., 1:, :], b[..., 1:, :, :])


def _chain(grid: TimeGrid, da: np.ndarray, db: np.ndarray) -> RoughPath:
    """Assemble signatures from per-segment increments via the group product."""
    lead, d = da.shape[:-2], da.shape[-1]
    a = np.zeros(lead + (grid.n, d))
    b = np.zeros(lead + (grid.n, d, d))
    np.cumsum(da, axis=-2, out=a[..., 1:, :])
    np.cumsum(db + nilpotent.tensor(a[..., :-1, :], da), axis=-3, out=b[..., 1:, :, :])
    return RoughPath(grid, a, b)


def lift_piecewise_linear(path) -> RoughPath:
    """Canonical lift of the piecewise-linear interpolant of sampled values.

    `path` has a grid and values of shape (n,), (n, d), or (K, n, d) for a
    stack of K paths (a `PathSample`), lifted together.  On a linear segment
    the iterated integral is dx (x) dx / 2, with no area; all area in the
    lift comes from the Chen cross terms between segments.
    """
    x = np.asarray(path.values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    da = np.diff(x, axis=-2)
    db = 0.5 * nilpotent.tensor(da, da)
    return _chain(path.grid, da, db)


def translate(X: RoughPath, h: GridFunction1D) -> RoughPath:
    """Translate a rough path by a Cameron-Martin direction h.

    Segment by segment the second level picks up the cross integrals
    int dx (x) dh + int dh (x) dx + int dh (x) dh, evaluated under the
    piecewise-linear convention; the translated segments are then re-chained.
    For lifts of sampled paths this agrees exactly with lifting x + h.
    """
    if not same_grid(X.grid, h.grid):
        raise ValueError("translation direction must live on the path's grid")
    hv = np.asarray(h.values, dtype=float)
    if hv.ndim == 1:
        hv = hv[:, None]
    if hv.shape[1] != X.dim:
        raise ValueError(
            f"direction has {hv.shape[1]} components, path has {X.dim}"
        )
    da, db = X.segment_increments()
    dh = np.diff(hv, axis=0)
    cross = 0.5 * (nilpotent.tensor(da, dh) + nilpotent.tensor(dh, da)
                   + nilpotent.tensor(dh, dh))
    return _chain(X.grid, da + dh, db + cross)
