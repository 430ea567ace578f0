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

import itertools
from dataclasses import dataclass

import numpy as np

from . import nilpotent
from .nilpotent import _component_first, _sample_first
from .young import GridFunction1D, TimeGrid, same_grid


@dataclass(frozen=True)
class RoughPath:
    """Grid path in the step-2 group, stored as signatures from time 0.

    Leading axes, if any, index a stack of paths on one grid: level 1
    (K, n, d) and level 2 (K, n, d, d).  Both are views of component-first
    arrays (d, n, K) and (d, d, n, K), the layout of `nilpotent`'s array
    form, so that the component-first views consumers take
    (`nilpotent._component_first`) are contiguous and copy nothing.  A lift
    allocates that layout; arrays a caller passes in any other layout are
    copied into it once.
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
        a, b = _sample_first(*map(np.ascontiguousarray, _component_first(a, b)))
        object.__setattr__(self, "level1", a)
        object.__setattr__(self, "level2", b)

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    def increment(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Group increment (level1, level2) between grid indices i <= j,
        component-first: (d, ...) and (d, d, ...)."""
        a, b = _component_first(self.level1, self.level2)
        return nilpotent.increment(a[:, i], b[:, :, i], a[:, j], b[:, :, j])

    def segment_increments(self, lo: int = 0, hi: int | None = None) -> tuple:
        """Group increments of the segments lo, ..., hi - 1 (all n - 1 by
        default; hi past the last is the last), component-first: shapes
        (d, m, ...) and (d, d, m, ...), contiguous.  Each segment's values
        are the same whichever of them a call takes."""
        hi = self.grid.n - 1 if hi is None else min(hi, self.grid.n - 1)
        a, b = _component_first(self.level1, self.level2)
        return nilpotent.increment(a[:, lo:hi], b[:, :, lo:hi],
                                   a[:, lo + 1:hi + 1], b[:, :, lo + 1:hi + 1])


def _chain(grid: TimeGrid, da: np.ndarray, b: np.ndarray) -> RoughPath:
    """Assemble signatures from per-segment increments via the group product.

    da (d, n - 1, ...) is level 1 of the segments; b (d, d, n, ...), zero at
    grid point 0, holds level 2 of segment m at m + 1 and becomes the
    path's level 2 in place.  The Chen cross term a_m (x) da_m is added one
    entry at a time, so that no temporary is larger than one (n - 1, ...)
    slab."""
    a = np.zeros((len(da), grid.n) + da.shape[2:])
    np.cumsum(da, axis=1, out=a[:, 1:])
    db = b[:, :, 1:]
    for i, k in itertools.product(range(len(da)), repeat=2):
        db[i, k] += a[i, :-1] * da[k]
    np.cumsum(db, axis=2, out=db)
    return RoughPath(grid, *_sample_first(a, b))


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
    da = np.diff(np.ascontiguousarray(np.moveaxis(x, (-2, -1), (1, 0))), axis=1)
    b = np.zeros((len(da), len(da), path.grid.n) + da.shape[2:])
    db = np.multiply(da[:, None], da[None, :], out=b[:, :, 1:])
    db *= 0.5
    return _chain(path.grid, da, b)


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
    dh = np.diff(hv, axis=0).T.reshape(da.shape[:2] + (1,) * (da.ndim - 2))
    cross = 0.5 * (nilpotent.tensor(da, dh) + nilpotent.tensor(dh, da)
                   + nilpotent.tensor(dh, dh))
    b = np.zeros(db.shape[:2] + (X.grid.n,) + db.shape[3:])
    np.add(db, cross, out=b[:, :, 1:])
    return _chain(X.grid, da + dh, b)
