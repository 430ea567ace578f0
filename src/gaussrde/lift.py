"""Step-2 lifts of sampled paths and operations on them.

A RoughPath stores, at every grid time, the signature of the path read from
time 0: the increment a_i = x_{t_i} - x_0 and the iterated integral
b_i[j, k] = int_0^{t_i} (x^j - x^j_0) dx^k.  Segments are chained with the
group product, so consistency with the algebra in `nilpotent` is structural.
Piecewise-linear interpolation between grid points fixes all within-segment
integrals; under that convention the lift, the Cameron-Martin translation
and the time-augmented lift are exact identities on the grid, not
discretizations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import nilpotent
from .nilpotent import G2Element, g2_increment
from .young import GridFunction1D, TimeGrid


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

    def element(self, i: int) -> G2Element:
        return G2Element(self.level1[i], self.level2[i])

    def increment(self, i: int, j: int) -> G2Element:
        """Group increment between grid indices i <= j."""
        return g2_increment(self.element(i), self.element(j))

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
    if not np.allclose(X.grid.points, h.grid.points, rtol=1e-12, atol=1e-12):
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


def spacetime_lift(X: RoughPath) -> RoughPath:
    """Adjoin running time as component 0, for drift-augmented dynamics.

    Works on a stack of paths.  Per segment of length dt with increment
    (da, db) the augmented increment has first level (dt, da) and second level
        [[dt^2/2      , dt da_j / 2],
         [da_i dt / 2 , db_ij      ]],
    the time-time and time-space integrals of the linear interpolant.  The
    result satisfies the same symmetry constraint as any lift.
    """
    da, db = X.segment_increments()
    dt = np.broadcast_to(np.diff(X.grid.points)[:, None], da.shape[:-1] + (1,))
    da2 = np.concatenate([dt, da], axis=-1)
    db2 = 0.5 * nilpotent.tensor(da2, da2)
    db2[..., 1:, 1:] = db
    return _chain(X.grid, da2, db2)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def rough_path_to_csv(X: RoughPath, path_or_buf) -> None:
    """Write one rough path as CSV: t, a_1..a_d, b_11..b_dd (row-major).

    Floats are written with 17 significant digits so a read-back reproduces
    the path bit for bit.
    """
    d = X.dim
    cols = (["t"] + [f"a_{i + 1}" for i in range(d)]
            + [f"b_{i + 1}_{j + 1}" for i in range(d) for j in range(d)])
    table = np.concatenate(
        [X.grid.points[:, None], X.level1, X.level2.reshape(X.grid.n, d * d)],
        axis=1,
    )
    header = ",".join(cols)
    if hasattr(path_or_buf, "write"):
        np.savetxt(path_or_buf, table, delimiter=",", header=header,
                   comments="", fmt="%.17g")
    else:
        with open(path_or_buf, "w") as fh:
            np.savetxt(fh, table, delimiter=",", header=header,
                       comments="", fmt="%.17g")


def rough_path_from_csv(path_or_buf) -> RoughPath:
    """Read a rough path written by `rough_path_to_csv`."""
    if hasattr(path_or_buf, "read"):
        raw = path_or_buf.read()
    else:
        with open(path_or_buf) as fh:
            raw = fh.read()
    lines = raw.strip().splitlines()
    header = lines[0].split(",")
    d = sum(1 for c in header if c.startswith("a_"))
    expected = 1 + d + d * d
    if len(header) != expected:
        raise ValueError(
            f"malformed rough path CSV: {len(header)} columns, expected {expected}"
        )
    table = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    grid = TimeGrid(table[:, 0])
    level1 = table[:, 1:1 + d]
    level2 = table[:, 1 + d:].reshape(grid.n, d, d)
    return RoughPath(grid, level1, level2)
