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

Drift is folded in by solving along the time-augmented lift with the field
collection (V_0, V_1, ..., V_d); no separate splitting scheme exists here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nilpotent
from .fields import VectorFieldSystem
from .lift import RoughPath, lift_piecewise_linear, spacetime_lift
from .nilpotent import GEOMETRIC_TOL
from .young import GridFunction1D, TimeGrid, p_variation

EXPLOSION_NORM = 1e12
CONDITION_LIMIT = 1e12


class ExplosionError(RuntimeError):
    """State grew past the explosion guard; carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class FlowResult:
    """Solution path with (optionally) the Jacobian flow along it.

    J[i] is the derivative of Y at time t_i with respect to y0; J_inv[i] its
    inverse, taken directly.  pvar holds the driver's p-variation when the
    caller asked for it (metadata for growth diagnostics).
    """

    grid: TimeGrid
    Y: np.ndarray
    J: np.ndarray | None = None
    J_inv: np.ndarray | None = None
    pvar: float | None = None
    pvar_index: float | None = None
    max_condition: float = 1.0

    @property
    def final_state(self) -> np.ndarray:
        return self.Y[-1]

    def transport(self, i: int, j: int) -> np.ndarray:
        """J_{t_j <- t_i} = J(t_j) J(t_i)^{-1}."""
        if self.J is None:
            raise ValueError("flow was solved without the Jacobian")
        return self.J[j] @ self.J_inv[i]


def _check_geometric(da: np.ndarray, db: np.ndarray) -> None:
    worst = float(np.max(nilpotent.residual(da, db)))
    if worst > GEOMETRIC_TOL:
        raise ValueError(
            f"driver is not a geometric rough path "
            f"(symmetry residual {worst:.3e} > {GEOMETRIC_TOL:.1e})"
        )


def _inverses(J: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverses of the stacked Jacobians and their largest condition number."""
    return np.linalg.inv(J), max(1.0, float(np.linalg.cond(J).max()))


def _augment_with_drift(vf: VectorFieldSystem) -> VectorFieldSystem:
    """Field collection (V_0, V_1, ..., V_d) for the time-augmented driver."""

    def value(y):
        return np.vstack([vf.drift_val(y)[None, :], vf.val(y)])

    def jacobian(y):
        return np.concatenate([vf.drift_jac(y)[None], vf.jac(y)], axis=0)

    def hessian(y):
        return np.concatenate([vf.drift_hess(y)[None], vf.hess(y)], axis=0)

    return VectorFieldSystem(e=vf.e, d=vf.d + 1, value=value,
                             jacobian=jacobian, hessian=hessian,
                             name=vf.name + "+drift")


def _solve(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
           with_jacobian: bool, pvar_index: float | None) -> FlowResult:
    if vf.d != X.dim:
        raise ValueError(f"fields expect a {vf.d}-dimensional driver, "
                         f"path has dimension {X.dim}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (vf.e,):
        raise ValueError(f"y0 must have shape {(vf.e,)}, got {y0.shape}")

    pvar = p_variation(X, pvar_index) if pvar_index is not None else None

    if vf.has_drift:
        inner = _solve(spacetime_lift(X), _augment_with_drift(vf), y0,
                       with_jacobian, None)
        return FlowResult(X.grid, inner.Y, inner.J, inner.J_inv,
                          pvar, pvar_index, inner.max_condition)

    da, db = X.segment_increments()
    _check_geometric(da, db)
    n, e = X.grid.n, vf.e
    Y = np.zeros((n, e))
    Y[0] = y0
    J = Jinv = None
    max_cond = 1.0
    if with_jacobian:
        J = np.zeros((n, e, e))
        J[0] = np.eye(e)
    y = y0.copy()
    jac = np.eye(e)
    for k in range(n - 1):
        a, b = da[k], db[k]
        V = vf.val(y)
        Vp = vf.jac(y)
        step = a @ V + np.einsum("ji,iab,jb->a", b, Vp, V)
        if with_jacobian:
            Vpp = vf.hess(y)
            M = (np.einsum("i,iab->ab", a, Vp)
                 + np.einsum("ji,iagb,jg->ab", b, Vpp, V)
                 + np.einsum("ji,iag,jgb->ab", b, Vp, Vp))
            jac = jac + M @ jac
        y = y + step
        t_next = float(X.grid.points[k + 1])
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > EXPLOSION_NORM:
            raise ExplosionError(f"state exploded at t = {t_next:.6g}", t_next)
        Y[k + 1] = y
        if with_jacobian:
            if not np.all(np.isfinite(jac)):
                raise ExplosionError(
                    f"Jacobian exploded at t = {t_next:.6g}", t_next)
            J[k + 1] = jac
    if with_jacobian:
        Jinv, max_cond = _inverses(J)
        if max_cond > CONDITION_LIMIT:
            warnings.warn(f"Jacobian condition number reached {max_cond:.3e}")
    return FlowResult(X.grid, Y, J, Jinv, pvar, pvar_index, max_cond)


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
    Jinv, max_cond = _inverses(J)
    return FlowResult(grid, Y, J, Jinv, None, None, max_cond)


def directional_derivative(flow: FlowResult, vf: VectorFieldSystem,
                           h: GridFunction1D, t: float) -> np.ndarray:
    """Derivative of Y_t along Cameron-Martin directions h of the driver.

    Variation-of-constants: D_h Y_t = sum_i int_0^t J_{t<-s} V_i(Y_s) dh^i_s,
    evaluated as a left-point Young sum on the grid with J_{t<-s} taken from
    the stored flow as J(t) J(s)^{-1}.  `h.values` is (n,) when d = 1, (n, d)
    for one direction, or (n, d, m) for a stack of m; the result is (e,), or
    (e, m) with column j for direction j.  At t = 0 it is zero.
    """
    if flow.J is None:
        raise ValueError("directional derivative needs a Jacobian-carrying flow")
    if not np.allclose(flow.grid.points, h.grid.points, rtol=1e-12, atol=1e-12):
        raise ValueError("direction must be sampled on the flow's grid")
    it = flow.grid.index_of(t)
    hv = np.asarray(h.values, dtype=float)
    if hv.ndim == 1:
        hv = hv[:, None]
    if hv.shape[1] != vf.d:
        raise ValueError(f"direction has {hv.shape[1]} components, driver has {vf.d}")
    V = np.array([vf.val(y) for y in flow.Y[:it]]).reshape(it, vf.d, vf.e)
    Z = flow.J[it] @ flow.J_inv[:it] @ V.transpose(0, 2, 1)
    return np.einsum("kad,kd...->a...", Z, np.diff(hv[:it + 1], axis=0))


def log_jacobian_diagnostic(flow: FlowResult, X: RoughPath, p: float) -> dict:
    """Scatter record relating Jacobian growth to driver roughness.

    Returns log of the operator norm of J_{T<-0} and the p-variation of the
    driver raised to p; no pass/fail judgement is attached.
    """
    if flow.J is None:
        raise ValueError("diagnostic needs a Jacobian-carrying flow")
    norm = float(np.linalg.norm(flow.J[-1], ord=2))
    return {
        "log_norm_J": float(np.log(norm)),
        "pvar_p": float(p_variation(X, p) ** p),
    }
