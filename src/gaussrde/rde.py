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
separately discretized equation.  Inverses are taken directly at every grid
time, in one call on the stacked Jacobians after the steps; the adjoint
transport equation would re-discretize and lose the inverse-consistency
guarantee.

The solver steps a stack of K driver paths at once, with the sample axis in
front of every array; one path is the K = 1 case.

Drift is folded in by solving along the time-augmented lift with the field
collection (V_0, V_1, ..., V_d); no separate splitting scheme exists here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import nilpotent
from .fields import VectorFieldSystem
from .lift import RoughPath, spacetime_lift
from .nilpotent import GEOMETRIC_TOL
from .young import GridFunction1D, TimeGrid, p_variation, same_grid

EXPLOSION_NORM = 1e12
CONDITION_LIMIT = 1e12


class ExplosionError(RuntimeError):
    """State grew past the explosion guard; carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# The failures that abort one sample of a run rather than the run itself.
NUMERICAL_ERRORS = (ExplosionError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class FlowResult:
    """Solution paths with their field values and (optionally) Jacobian flows.

    For one driver path Y is (n, e).  For a stack of K paths every array
    and `pvar` and `max_condition` have the sample axis in front (Y is
    (K, n, e)), and `sample(k)` is the one-path view of path k.
    V[..., i, :, :] = V(Y_i) is the (d, e) array of driving fields (drift
    excluded) at t_i, as the solver evaluated them.  J[..., i, :, :] is the
    derivative of Y at t_i with respect to y0; J_inv its inverse, taken
    directly; max_condition the largest condition number of J.  pvar holds
    the driver's p-variation when the caller asked for it (metadata for
    growth diagnostics).  For a stack, errors[k] is the numerical failure
    (ExplosionError or LinAlgError) that aborted path k, or None; an aborted
    path's arrays hold no solution.
    """

    grid: TimeGrid
    Y: np.ndarray
    V: np.ndarray
    J: np.ndarray | None = None
    J_inv: np.ndarray | None = None
    pvar: float | np.ndarray | None = None
    pvar_index: float | None = None
    max_condition: float | np.ndarray = 1.0
    errors: tuple = ()

    @property
    def final_state(self) -> np.ndarray:
        return self.Y[..., -1, :]

    def transport(self, i: int, j: int) -> np.ndarray:
        """J_{t_j <- t_i} = J(t_j) J(t_i)^{-1}."""
        if self.J is None:
            raise ValueError("flow was solved without the Jacobian")
        return self.J[..., j, :, :] @ self.J_inv[..., i, :, :]

    def sample(self, k) -> "FlowResult":
        """View of path k of a stack; for a list k, the stack of those paths."""
        def pick(x):
            return None if x is None else x[k]
        return replace(self, Y=self.Y[k], V=self.V[k], J=pick(self.J),
                       J_inv=pick(self.J_inv), pvar=pick(self.pvar),
                       max_condition=self.max_condition[k],
                       errors=tuple(self.errors[i] for i in k)
                       if np.ndim(k) else ())


def _check_geometric(da: np.ndarray, db: np.ndarray) -> None:
    worst = float(np.max(nilpotent.residual(da, db)))
    if worst > GEOMETRIC_TOL:
        raise ValueError(
            f"driver is not a geometric rough path "
            f"(symmetry residual {worst:.3e} > {GEOMETRIC_TOL:.1e})"
        )


def by_rows(fn, take, rows):
    """fn(take(rows)) for a list of row indices of a stack, in one call; if
    that fails numerically, each row alone finds the failures and fn runs
    again on the others, so a failure aborts only its own row.  Returns fn's
    output on the rows that passed and {row: error} for the others."""
    try:
        return fn(take(rows)), {}
    except NUMERICAL_ERRORS:
        pass
    failed = {}
    for k in rows:
        try:
            fn(take([k]))
        except NUMERICAL_ERRORS as exc:
            failed[k] = exc
    return fn(take([k for k in rows if k not in failed])), failed


def _inverses(J: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Inverses of K paths' stacked Jacobians (K, n, e, e), each path's
    largest condition number, and each path's LinAlgError or None."""
    rows = list(range(len(J)))
    inv, failed = by_rows(np.linalg.inv, J.__getitem__, rows)
    J_inv = np.zeros_like(J)
    J_inv[[k for k in rows if k not in failed]] = inv
    return (J_inv, np.maximum(1.0, np.linalg.cond(J).max(axis=-1)),
            [failed.get(k) for k in rows])


def _sum_tail(products: np.ndarray, keep: int) -> np.ndarray:
    """Sum over all axes after the first `keep`, in one C-ordered pass, so
    that every sample's sum runs in the same order whatever the stack size."""
    return products.reshape(products.shape[:keep] + (-1,)).sum(axis=-1)


def _with_drift(vf: VectorFieldSystem) -> SimpleNamespace:
    """Field collection (V_0, V_1, ..., V_d) for the time-augmented driver.
    Each part is evaluated, and its shape checked, by `vf` itself."""
    def join(drift, fields, axis):
        return lambda y: np.concatenate([np.expand_dims(drift(y), axis), fields(y)],
                                        axis=axis)
    return SimpleNamespace(d=vf.d + 1, e=vf.e, val=join(vf.drift_val, vf.val, -2),
                           jac=join(vf.drift_jac, vf.jac, -3),
                           hess=join(vf.drift_hess, vf.hess, -4))


def _solve(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
           with_jacobian: bool, pvar_index: float | None) -> FlowResult:
    """Step all paths of X, one path (n, d) or a stack (K, n, d), together.

    Every step is a handful of array operations over the sample axis, so
    each path's values do not depend on which other paths share the call.
    A path whose state or Jacobian stops being finite, or whose state passes
    EXPLOSION_NORM, is frozen at its last values and reported in `errors`;
    so is a path with a singular Jacobian.  A single path raises instead.
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

    pvar = p_variation(X, pvar_index) if pvar_index is not None else None
    d = vf.d
    if vf.has_drift:
        X, vf = spacetime_lift(X), _with_drift(vf)
    flow = _steps(X, vf, y0, with_jacobian, pvar, pvar_index)
    flow = replace(flow, V=flow.V[..., -d:, :])  # without the drift's values
    if not one:
        return flow
    if flow.errors[0] is not None:
        raise flow.errors[0]
    return flow.sample(0)


def _steps(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
           with_jacobian: bool, pvar, pvar_index) -> FlowResult:
    da, db = X.segment_increments()
    _check_geometric(da, db)
    (K, n), d, e = X.level1.shape[:2], vf.d, vf.e
    Y = np.zeros((K, n, e))
    Y[:, 0] = y0
    V = np.zeros((K, n, d, e))
    J = J_inv = None
    max_cond = np.ones(K)
    errors = [None] * K
    y = Y[:, 0].copy()
    jac = np.broadcast_to(np.eye(e), (K, e, e)).copy()
    if with_jacobian:
        J = np.zeros((K, n, e, e))
        J[:, 0] = jac
    for k in range(n - 1):
        a, b = da[:, k], db[:, k]
        V[:, k] = Vk = vf.val(y)
        Vp = vf.jac(y)
        Vp_ai = Vp.transpose(0, 2, 1, 3)
        # sum_{j,i,b} b[j, i] V_i'(y)[a, b] V_j(y)[b], axes (K, a, j, i, b)
        step = ((a[:, None, :] @ Vk)[:, 0]
                + _sum_tail(b[:, None, :, :, None] * Vp_ai[:, :, None]
                            * Vk[:, None, :, None], 2))
        if with_jacobian:
            Vpp = vf.hess(y)
            # sums over (j, i, g) of b[j, i] V_i''[a, g, b] V_j[g] and of
            # b[j, i] V_i'[a, g] V_j'[g, b], axes (K, a, b, j, i, g)
            M = (_sum_tail(a[:, None, None, :] * Vp.transpose(0, 2, 3, 1), 3)
                 + _sum_tail(b[:, None, None, :, :, None]
                             * Vpp.transpose(0, 2, 4, 1, 3)[:, :, :, None]
                             * Vk[:, None, None, :, None, :], 3)
                 + _sum_tail(b[:, None, None, :, :, None]
                             * Vp_ai[:, :, None, None]
                             * Vp.transpose(0, 3, 1, 2)[:, None, :, :, None], 3))
            jac = jac + M @ jac
        y = y + step
        t_next = float(X.grid.points[k + 1])
        with np.errstate(over="ignore"):
            blown = ~(np.linalg.norm(y, axis=-1) <= EXPLOSION_NORM)
        bad = blown | ~np.isfinite(jac).all(axis=(-2, -1))
        for row in np.flatnonzero(bad):
            what = "state" if blown[row] else "Jacobian"
            errors[row] = ExplosionError(f"{what} exploded at t = {t_next:.6g}",
                                         t_next)
            # frozen: no further increments, last finite values kept
            da[row, k + 1:] = db[row, k + 1:] = 0.0
            y[row] = Y[row, k]
            if with_jacobian:
                jac[row] = J[row, k]
        Y[:, k + 1] = y
        if with_jacobian:
            J[:, k + 1] = jac
    V[:, -1] = vf.val(y)
    if with_jacobian:
        J_inv, max_cond, singular = _inverses(J)
        for k, exc in enumerate(singular):
            errors[k] = errors[k] or exc
        for cond, exc in zip(max_cond, errors):
            if exc is None and cond > CONDITION_LIMIT:
                warnings.warn(f"Jacobian condition number reached {cond:.3e}")
    return FlowResult(X.grid, Y, V, J, J_inv, pvar, pvar_index, max_cond,
                      tuple(errors))


def solve_rde(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
              pvar_index: float | None = None) -> FlowResult:
    """Solve the rough equation along X; solution path only."""
    return _solve(X, vf, y0, with_jacobian=False, pvar_index=pvar_index)


def solve_flow_jacobian(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
                        pvar_index: float | None = None) -> FlowResult:
    """Solve the rough equation jointly with its Jacobian flow and inverses."""
    return _solve(X, vf, y0, with_jacobian=True, pvar_index=pvar_index)


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
    equation is an ODE with right-hand side sum_i V_i(y) xdot^i + V_0(y); the
    Jacobian equation dJ = M(y) J rides along in the same Runge-Kutta steps.
    With enough substeps this is the convergence oracle for the rough scheme.
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
    Y[0] = y0
    J[0] = np.eye(e)
    y = y0.copy()
    jac = np.eye(e)
    for k in range(n - 1):
        dt_seg = grid.points[k + 1] - grid.points[k]
        rate = (x[k + 1] - x[k]) / dt_seg

        def rhs(yv, jv):
            V = vf.val(yv)
            dy = rate @ V
            M = np.einsum("i,iab->ab", rate, vf.jac(yv))
            if vf.has_drift:
                dy = dy + vf.drift_val(yv)
                M = M + vf.drift_jac(yv)
            return dy, M @ jv

        h = dt_seg / substeps
        for _ in range(substeps):
            k1y, k1j = rhs(y, jac)
            k2y, k2j = rhs(y + 0.5 * h * k1y, jac + 0.5 * h * k1j)
            k3y, k3j = rhs(y + 0.5 * h * k2y, jac + 0.5 * h * k2j)
            k4y, k4j = rhs(y + h * k3y, jac + h * k3j)
            y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            jac = jac + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
        t_next = float(grid.points[k + 1])
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > EXPLOSION_NORM:
            raise ExplosionError(f"state exploded at t = {t_next:.6g}", t_next)
        Y[k + 1] = y
        J[k + 1] = jac
    J_inv, max_cond, errors = _inverses(J[None])
    if errors[0] is not None:
        raise errors[0]
    V = np.array([vf.val(y) for y in Y])
    return FlowResult(grid, Y, V, J, J_inv[0], None, None, float(max_cond[0]))


def directional_derivative(flow: FlowResult, vf: VectorFieldSystem,
                           h: GridFunction1D, t: float) -> np.ndarray:
    """Derivative of Y_t along Cameron-Martin directions h of the driver.

    Variation-of-constants: D_h Y_t = sum_i int_0^t J_{t<-s} V_i(Y_s) dh^i_s,
    evaluated as a left-point Young sum on the grid with J_{t<-s} taken from
    the stored flow as J(t) J(s)^{-1}.  `h.values` is (n,) when d = 1, (n, d)
    for one direction, or (n, d, m) for a stack of m; the result is (e,), or
    (e, m) with column j for direction j, behind the sample axis when the
    flow is a stack of K paths.  At t = 0 it is zero.
    """
    if flow.J is None:
        raise ValueError("directional derivative needs a Jacobian-carrying flow")
    if not same_grid(flow.grid, h.grid):
        raise ValueError("direction must be sampled on the flow's grid")
    it = flow.grid.index_of(t)
    hv = np.asarray(h.values, dtype=float)
    if hv.ndim == 1:
        hv = hv[:, None]
    if hv.shape[1] != vf.d:
        raise ValueError(f"direction has {hv.shape[1]} components, driver has {vf.d}")
    if flow.V.shape[-2:] != (vf.d, vf.e):
        raise ValueError("flow was solved with fields of another shape")
    # Z[..., a, (s, i)] = (J_{t<-s} V_i(Y_s))^a, paired with dh^i_s in one product
    Z = (flow.J[..., it, None, :, :] @ flow.J_inv[..., :it, :, :]
         @ flow.V[..., :it, :, :].swapaxes(-2, -1)).swapaxes(-3, -2)
    dh = np.diff(hv[:it + 1], axis=0)
    return (Z.reshape(Z.shape[:-2] + (it * vf.d,))
            @ dh.reshape((it * vf.d,) + dh.shape[2:]))


def log_operator_norm(J: np.ndarray) -> np.ndarray:
    """Log of the spectral norm of each matrix of a stack (..., e, e)."""
    return np.log(np.linalg.norm(J, ord=2, axis=(-2, -1)))


def log_jacobian_diagnostic(flow: FlowResult, X: RoughPath, p: float) -> dict:
    """Scatter record relating Jacobian growth to driver roughness.

    Returns log of the operator norm of J_{T<-0} and the p-variation of the
    driver raised to p; no pass/fail judgement is attached.
    """
    if flow.J is None:
        raise ValueError("diagnostic needs a Jacobian-carrying flow")
    return {
        "log_norm_J": float(log_operator_norm(flow.J[-1])),
        "pvar_p": float(p_variation(X, p) ** p),
    }
