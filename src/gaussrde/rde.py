"""Step-2 solvers for dY = V(Y)dX + V_0(Y)dt with Jacobian transport.

The one-step map over a grid interval with group increment (a, b) is

    y <- y + sum_i V_i(y) a^i + sum_{i,j} (V_i' V_j)(y) b[j, i]

with b[j, i] = int (dx^j-increment) dx^i under the level-2 orientation
b[j, i] = int (x^j - x^j_s) dx^i, so the field differentiated (V_i) is the
one attached to the outer integrator dx^i.  The scalar linear equation
dY = A Y dx pins this convention: its canonical lift has b = a^2/2 and the
step reproduces the Taylor expansion of exp(A a).

The Jacobian is advanced with the exact linearization of the same one-step
map, so the discrete J is the derivative of the discrete flow, not a
separately discretized equation.  J never feeds back into the state, so the
step loop carries only Y: it stores V(y_k) and V'(y_k), and after every
STEP_BLOCK steps one pass over the block evaluates the Hessians at the
block's states in one call, forms the linearizations M_k of all its steps as
stacked matmuls, and advances J_{k+1} = J_k + M_k J_k, one matmul per step.
The flow keeps every M_k: the transport from s_m to t_i is the product
(I + M_{i-1}) ... (I + M_m), which `malliavin` forms backward from t_i.  No
Jacobian is ever inverted, so an ill-conditioned or singular J leaves the
derivative as accurate as the step maps themselves.

The solver steps a stack of K driver paths at once, with the sample axis in
front of every array; one path is the K = 1 case.

Drift is folded in by adjoining time to the driver's increments (`_with_time`)
and stepping with the fields (V_0, V_1, ..., V_d); no splitting scheme exists.
This module holds the solve and the ODE oracle; `malliavin` forms the
Malliavin derivative J_{t<-s} V(Y_s) from the flows they return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import nilpotent
from .fields import VectorFieldSystem
from .lift import RoughPath
from .nilpotent import GEOMETRIC_TOL
from .young import GridFunction1D, TimeGrid, p_variation

EXPLOSION_NORM = 1e12
# the Jacobian is advanced a block of at most STEP_BLOCK steps at a time,
# after the state steps of the block.  Outputs do not depend on it.
STEP_BLOCK = 16


class ExplosionError(RuntimeError):
    """State grew past the explosion guard; carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# The failures that abort one sample of a run rather than the run itself.
NUMERICAL_ERRORS = (ExplosionError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class FlowResult:
    """Solution paths with their field values, Jacobians and step maps.

    For one driver path Y is (n, e).  For a stack of K paths every array
    and `pvar` have the sample axis in front (Y is (K, n, e)), and
    `sample(k)` is the one-path view of path k.  V[..., i, :, :] = V(Y_i) is
    the (d, e) array of driving fields (drift excluded) at t_i, as the solver
    evaluated them.  J[..., i, :, :] is the derivative of Y at t_i with
    respect to y0, always set.  M[..., k, :, :] is the linearization of step
    k, so that J_{k+1} = J_k + M_k J_k; `malliavin` transports by products of
    I + M_k.  pvar holds the driver's p-variation when the caller asked for
    it (metadata for growth diagnostics).  For a stack, errors[k] is the
    ExplosionError that aborted path k, or None; an aborted path is frozen
    at its last values, with M = 0 from the failing step on, and holds no
    solution.
    """

    grid: TimeGrid
    Y: np.ndarray
    V: np.ndarray
    J: np.ndarray
    M: np.ndarray
    pvar: float | np.ndarray | None = None
    errors: tuple = ()

    @property
    def final_state(self) -> np.ndarray:
        return self.Y[..., -1, :]

    def sample(self, k) -> "FlowResult":
        """View of path k of a stack; for a list k, the stack of those paths."""
        return replace(self, Y=self.Y[k], V=self.V[k], J=self.J[k], M=self.M[k],
                       pvar=None if self.pvar is None else self.pvar[k],
                       errors=tuple(self.errors[i] for i in k)
                       if np.ndim(k) else ())


def _check_geometric(da: np.ndarray, db: np.ndarray) -> None:
    worst = float(np.max(nilpotent.residual(da, db)))
    if worst > GEOMETRIC_TOL:
        raise ValueError(
            f"driver is not a geometric rough path "
            f"(symmetry residual {worst:.3e} > {GEOMETRIC_TOL:.1e})"
        )


def _sum_tail(products: np.ndarray, keep: int) -> np.ndarray:
    """Sum over all axes after the first `keep`, in one C-ordered pass, so
    that every sample's sum runs in the same order whatever the stack size."""
    return products.reshape(products.shape[:keep] + (-1,)).sum(axis=-1)


def _with_drift(vf: VectorFieldSystem) -> SimpleNamespace:
    """Field collection (V_0, V_1, ..., V_d) for the time-augmented driver,
    on (K, e) stacks of states.  Each part is evaluated, and its shape
    checked, by `vf` itself."""
    def join(drift, fields):
        return lambda y: np.concatenate([drift(y)[:, None], fields(y)], axis=1)
    return SimpleNamespace(d=vf.d + 1, e=vf.e, val=join(vf.drift_val, vf.val),
                           jac=join(vf.drift_jac, vf.jac),
                           hess=join(vf.drift_hess, vf.hess))


def _with_time(grid: TimeGrid, da: np.ndarray, db: np.ndarray) -> tuple:
    """Adjoin running time as component 0 of a stack of segment increments.

    Per segment of length dt with increment (da, db) the augmented increment
    has first level (dt, da) and second level
        [[dt^2/2      , dt da_j / 2],
         [da_i dt / 2 , db_ij      ]],
    the time-time and time-space integrals of the linear interpolant.  The
    result satisfies the same symmetry constraint as (da, db).
    """
    dt = np.broadcast_to(np.diff(grid.points)[:, None], da.shape[:-1] + (1,))
    da2 = np.concatenate([dt, da], axis=-1)
    db2 = 0.5 * nilpotent.tensor(da2, da2)
    db2[..., 1:, 1:] = db
    return da2, db2


def solve_flow_jacobian(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
                        pvar_index: float | None = None) -> FlowResult:
    """Solve the rough equation jointly with its Jacobian flow and step maps.

    All paths of X, one path (n, d) or a stack (K, n, d), step together.
    Every step is a handful of array operations over the sample axis, so
    each path's values do not depend on which other paths share the call.
    A path whose state or Jacobian stops being finite, or whose state passes
    EXPLOSION_NORM, is frozen at its last values and reported in `errors`.
    A single path raises instead.
    """
    if vf.d != X.dim:
        raise ValueError(f"fields expect a {vf.d}-dimensional driver, "
                         f"path has dimension {X.dim}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (vf.e,):
        raise ValueError(f"y0 must have shape {(vf.e,)}, got {y0.shape}")
    one = X.level1.ndim == 2
    if one:
        X = RoughPath(X.grid, X.level1[None], X.level2[None])

    da, db = X.segment_increments()
    _check_geometric(da, db)  # adjoining time adds no residual
    pvar = p_variation(X, pvar_index) if pvar_index is not None else None
    d = vf.d
    if vf.has_drift:
        (da, db), vf = _with_time(X.grid, da, db), _with_drift(vf)
    flow = _steps(X.grid, da, db, vf, y0)
    flow = replace(flow, V=flow.V[..., -d:, :], pvar=pvar)  # without the drift's values
    if not one:
        return flow
    if flow.errors[0] is not None:
        raise flow.errors[0]
    return flow.sample(0)


def _steps(grid: TimeGrid, da: np.ndarray, db: np.ndarray, vf, y0) -> FlowResult:
    """Step K paths along segment increments da (K, n-1, d), db (K, n-1, d, d)."""
    K, n, d, e = len(da), grid.n, vf.d, vf.e
    Y = np.zeros((K, n, e))
    Y[:, 0] = y0
    V = np.zeros((K, n, d, e))
    J = np.zeros((K, n, e, e))
    J[:, 0] = np.eye(e)
    M = np.zeros((K, n - 1, e, e))
    Vp = np.zeros((K, STEP_BLOCK, d, e, e))  # V'(y_k) at the block's steps
    errors = [None] * K
    stopped = np.full(K, n)  # the step at which each path blew up
    y = Y[:, 0].copy()
    for k0 in range(0, n - 1, STEP_BLOCK):
        k1 = min(k0 + STEP_BLOCK, n - 1)
        for k in range(k0, k1):
            a, b = da[:, k], db[:, k]
            V[:, k] = Vk = vf.val(y)
            Vp[:, k - k0] = Vpk = vf.jac(y)
            Vp_ai = Vpk.transpose(0, 2, 1, 3)
            # an overflow leaves y non-finite or past the guard: reported below
            with np.errstate(over="ignore", invalid="ignore"):
                # sum_{j,i,b} b[j, i] V_i'(y)[a, b] V_j(y)[b], axes (K, a, j, i, b)
                y = y + ((a[:, None, :] @ Vk)[:, 0]
                         + _sum_tail(b[:, None, :, :, None] * Vp_ai[:, :, None]
                                     * Vk[:, None, :, None], 2))
                blown = ~(np.linalg.norm(y, axis=-1) <= EXPLOSION_NORM)
            for row in np.flatnonzero(blown):
                # frozen at its last values: with no increment from step k
                # on, J keeps its value too
                errors[row] = _explosion("state", grid, k)
                stopped[row] = k
                da[row, k:] = db[row, k:] = 0.0
                y[row] = Y[row, k]
            Y[:, k + 1] = y
        block = slice(k0, k1)
        bad = _jacobian_block(vf, Y[:, block], V[:, block], Vp[:, :k1 - k0],
                              da[:, block], db[:, block], M[:, block],
                              J[:, k0:k1 + 1])
        for row in np.flatnonzero(bad.any(axis=1)):
            k = k0 + int(np.argmax(bad[row]))
            if k < stopped[row]:  # the Jacobian blew up first
                errors[row] = _explosion("Jacobian", grid, k)
                stopped[row] = k
                da[row, k:] = db[row, k:] = 0.0
                y[row] = Y[row, k + 1:k1 + 1] = Y[row, k]
                V[row, k + 1:k1] = V[row, k]
                J[row, k + 1:k1 + 1] = J[row, k]
                M[row, k:k1] = 0.0
    V[:, -1] = vf.val(y)
    return FlowResult(grid, Y, V, J, M, None, tuple(errors))


def _explosion(what: str, grid: TimeGrid, k: int) -> ExplosionError:
    t = float(grid.points[k + 1])
    return ExplosionError(f"{what} exploded at t = {t:.6g}", t)


def _jacobian_block(vf, y, v, vp, a, b, M, J) -> np.ndarray:
    """Advance J[:, 0] (K, e, e) over a block of B steps into J[:, 1:], in
    place, from the states y (K, B, e), field values v and first derivatives
    vp that the state steps stored at them and the increments (a, b); write
    the steps' linearizations into M (K, B, e, e) and flag (K, B) where J
    stops being finite.

    The linearization of the step at y with increment (a, b) is
        M = sum_i a^i V_i' + sum_{i,g} W[i, g] V_i''[., g, .]
              + sum_{i,g} V_i'[., g] U[i, g, .]
    with W = b^T V and U = b^T V' (W[i] = sum_j b[j, i] V_j).  Each term is
    one stacked matmul over (path, step), and J_{k+1} = J_k + M_k J_k.
    """
    (K, B, d), e = a.shape, J.shape[-1]
    Vpp = vf.hess(y.reshape(K * B, e)).reshape(K, B, d, e, e, e)
    bT = b.swapaxes(-1, -2)
    vp_flat = vp.reshape(K, B, d, e * e)
    # an overflow here leaves J non-finite, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        W = (bT @ v).reshape(K, B, 1, d * e)
        U = (bT @ vp_flat).reshape(K, B, d * e, e)
        M[...] = ((a[:, :, None] @ vp_flat
                   + W @ Vpp.transpose(0, 1, 2, 4, 3, 5).reshape(K, B, d * e, e * e)
                   ).reshape(K, B, e, e)
                  + vp.transpose(0, 1, 3, 2, 4).reshape(K, B, e, d * e) @ U)
        for s in range(B):
            J[:, s + 1] = J[:, s] + M[:, s] @ J[:, s]
    return ~np.isfinite(J[:, 1:]).all(axis=(-2, -1))


def _as_single_path(driver) -> GridFunction1D:
    if isinstance(driver, GridFunction1D):
        return driver
    if hasattr(driver, "n_samples"):
        if driver.n_samples != 1:
            raise ValueError("ODE oracle takes a single path; index the batch first")
        return driver.path(0)
    raise TypeError(f"cannot interpret {type(driver).__name__} as a driver path")


def solve_ode_reference(driver, vf: VectorFieldSystem, y0: np.ndarray,
                        substeps: int = 1) -> FlowResult:
    """Classical 4th-order integration of the piecewise-linear controlled ODE.

    Between grid points the driver moves at constant rate, so the controlled
    equation is an ODE with right-hand side sum_i V_i(y) xdot^i + V_0(y).
    Each segment's propagator I + M_k, dPhi = A(y) Phi from Phi = I, rides
    along in the same Runge-Kutta steps as its deviation M_k from I, and J
    advances by the solver's recurrence J_{k+1} = J_k + M_k J_k.  With enough
    substeps this is the convergence oracle for the rough scheme.
    """
    path = _as_single_path(driver)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x = np.asarray(path.values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != vf.d:
        raise ValueError(f"fields expect a {vf.d}-dimensional driver, "
                         f"path has {x.shape[1]} components")
    y0 = np.asarray(y0, dtype=float)
    grid = path.grid
    n, e = grid.n, vf.e
    Y = np.zeros((n, e))
    J = np.zeros((n, e, e))
    M = np.zeros((n - 1, e, e))
    Y[0] = y0
    J[0] = np.eye(e)
    y = y0.copy()
    for k in range(n - 1):
        dt_seg = grid.points[k + 1] - grid.points[k]
        rate = (x[k + 1] - x[k]) / dt_seg

        def rhs(yv, mv):
            V = vf.val(yv)
            dy = rate @ V
            A = np.einsum("i,iab->ab", rate, vf.jac(yv))
            if vf.has_drift:
                dy = dy + vf.drift_val(yv)
                A = A + vf.drift_jac(yv)
            return dy, A + A @ mv  # A (I + m)

        h = dt_seg / substeps
        m = np.zeros((e, e))
        for _ in range(substeps):
            k1y, k1m = rhs(y, m)
            k2y, k2m = rhs(y + 0.5 * h * k1y, m + 0.5 * h * k1m)
            k3y, k3m = rhs(y + 0.5 * h * k2y, m + 0.5 * h * k2m)
            k4y, k4m = rhs(y + h * k3y, m + h * k3m)
            y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        t_next = float(grid.points[k + 1])
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > EXPLOSION_NORM:
            raise ExplosionError(f"state exploded at t = {t_next:.6g}", t_next)
        Y[k + 1] = y
        M[k] = m
        J[k + 1] = J[k] + m @ J[k]
    V = np.array([vf.val(y) for y in Y])
    return FlowResult(grid, Y, V, J, M)


def log_operator_norm(J: np.ndarray) -> np.ndarray:
    """Log of the spectral norm of each matrix of a stack (..., e, e)."""
    return np.log(np.linalg.norm(J, ord=2, axis=(-2, -1)))

