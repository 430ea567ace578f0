"""Step-2 solvers for dY = V(Y)dX + V_0(Y)dt and the transport of their flows.

The one-step map over a grid interval with group increment (a, b) is

    y <- y + sum_i V_i(y) a^i + sum_{i,j} (V_i' V_j)(y) b[j, i]

with b[j, i] = int (dx^j-increment) dx^i under the level-2 orientation
b[j, i] = int (x^j - x^j_s) dx^i, so the field differentiated (V_i) is the
one attached to the outer integrator dx^i.  The scalar linear equation
dY = A Y dx pins this convention: its canonical lift has b = a^2/2 and the
step reproduces the Taylor expansion of exp(A a).

The flow keeps the exact linearization M_k of each step of that map, so
I + M_k is the derivative of step k of the discrete flow, not of a
separately discretized equation.  Steps run STEP_BLOCK at a time: a block
forms its segment increments once and checks them for geometricity, and one
vectorised guard checks each block's states.  On the generic path the step
loop stores V(y_k) and V'(y_k), and after the guard one Hessian call and
stacked matmuls form the block's M_k.  Fields with an affine form V_i(y) =
A_i y + c_i (`VectorFieldSystem.affine`) take the affine path: M_k and the
step's shift c_k do not depend on the state, so a block forms them from its
increments, and each step is y <- y + M_k y + c_k, with no field call.  The
generic path, which every system can take, is the reference.  `transport` is
the one product of step maps: J_{t_i<-s_m} = (I + M_{i-1}) ... (I + M_m),
swept backward from t_i; J_{t_i} is its m = 0 term.  No Jacobian is ever
inverted, so an ill-conditioned or singular J leaves the transport as
accurate as the step maps themselves.

The solver steps a stack of K driver paths at once, with the sample axis in
front of every array; one path is the K = 1 case.

Drift is folded in by adjoining time to the driver's increments (`_with_time`,
one step block at a time) and stepping with the fields (V_0, V_1, ..., V_d);
no splitting scheme exists.
This module holds the solve, the transport and the ODE oracle; `malliavin`
forms the Malliavin derivative J_{t<-s} V(Y_s) from `transport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .fields import VectorFieldSystem, _apply
from .lift import RoughPath
from .nilpotent import GEOMETRIC_TOL, _largest, residual
from .young import GridFunction1D, TimeGrid, p_variation

EXPLOSION_NORM = 1e12
# The state steps run a block of at most STEP_BLOCK steps at a time, under
# one np.errstate; one guard then checks the block's states for an explosion
# (raising the first step's error), and the block's step maps follow.
# Outputs and errors do not depend on it.
STEP_BLOCK = 16


class ExplosionError(RuntimeError):
    """A state grew past the explosion guard, or a transport stopped being
    finite; carries the blow-up (or evaluation) time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# The failures that abort one sample of a run rather than the run itself.
NUMERICAL_ERRORS = (ExplosionError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class FlowResult:
    """Solution paths with their field values and step maps.

    For one driver path Y is (n, e).  For a stack of K paths every array
    and `pvar` have the sample axis in front (Y is (K, n, e)), and
    `sample(k)` is the one-path view of path k.  V[..., i, :, :] = V(Y_i) is
    the (d, e) array of driving fields (drift excluded) at t_i, as the solver
    formed them.  M[..., k, :, :] is the linearization of step k: I + M_k
    is the derivative of Y_{k+1} with respect to Y_k, and `transport` forms
    every J_{t<-s} as a product of them.  pvar holds the driver's
    p-variation when the caller asked for it (metadata for growth
    diagnostics).  Every path of a flow solved: a path that explodes makes
    the solve raise for its whole stack.
    """

    grid: TimeGrid
    Y: np.ndarray
    V: np.ndarray
    M: np.ndarray
    pvar: float | np.ndarray | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.Y[..., -1, :]

    def sample(self, k) -> "FlowResult":
        """View of path k of a stack; for a list k, the stack of those paths."""
        return replace(self, Y=self.Y[k], V=self.V[k], M=self.M[k],
                       pvar=None if self.pvar is None else self.pvar[k])


def _sum_tail(products: np.ndarray, keep: int) -> np.ndarray:
    """Sum over all axes after the first `keep`, in one C-ordered pass, so
    that every sample's sum runs in the same order whatever the stack size."""
    tail = math.prod(products.shape[keep:])  # not -1: a stack may be empty
    return products.reshape(products.shape[:keep] + (tail,)).sum(axis=-1)


def _with_drift(vf: VectorFieldSystem) -> SimpleNamespace:
    """Field collection (V_0, V_1, ..., V_d) for the time-augmented driver,
    on (K, e) stacks of states, with the drift's rows in front of an affine
    form.  Each part is evaluated, and its shape checked, by `vf` itself."""
    def join(drift, fields):
        return lambda y: np.concatenate([drift(y)[:, None], fields(y)], axis=1)
    if (affine := vf.affine) is not None:
        A, c, (A0, c0) = affine
        affine = (np.concatenate([A0[None], A]), np.concatenate([c0[None], c]), None)
    return SimpleNamespace(d=vf.d + 1, e=vf.e, val=join(vf.drift_val, vf.val),
                           jac=join(vf.drift_jac, vf.jac),
                           hess=join(vf.drift_hess, vf.hess), affine=affine)


def _with_time(dt: np.ndarray, da: np.ndarray, db: np.ndarray) -> tuple:
    """Adjoin running time as component 0 of a stack of segment increments
    (..., m, d), (..., m, d, d), with dt the m segment lengths.

    Per segment of length dt with increment (da, db) the augmented increment
    has first level (dt, da) and second level
        [[dt^2/2      , dt da_j / 2],
         [da_i dt / 2 , db_ij      ]],
    the time-time and time-space integrals of the linear interpolant.  The
    result satisfies the same symmetry constraint as (da, db).
    """
    da2 = np.concatenate([np.broadcast_to(dt[:, None], da.shape[:-1] + (1,)), da], axis=-1)
    db2 = np.empty(da2.shape + da2.shape[-1:])  # half of da2 (x) da2, then db
    db2[..., 0, 0] = (dt * dt) * 0.5
    db2[..., 0, 1:] = db2[..., 1:, 0] = (dt[:, None] * da) * 0.5
    db2[..., 1:, 1:] = db
    return da2, db2


def solve_flow_jacobian(X: RoughPath, vf: VectorFieldSystem, y0: np.ndarray,
                        pvar_index: float | None = None) -> FlowResult:
    """Solve the rough equation jointly with its step maps.

    All paths of X, one path (n, d) or a stack (K, n, d), step together.
    Every step is a handful of array operations over the sample axis, so
    each path's values do not depend on which other paths share the call.
    The first step at which some path's state stops being finite or passes
    EXPLOSION_NORM raises ExplosionError for the whole stack: the error a
    solve of that path alone raises.  A step block that is not geometric
    raises ValueError before it is stepped, so an explosion in an earlier
    block raises first.  The Jacobian J_{t<-s} of the flow is
    `transport(flow, it)`.
    """
    if vf.d != X.dim:
        raise ValueError(f"fields expect a {vf.d}-dimensional driver, "
                         f"path has dimension {X.dim}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (vf.e,) or not np.isfinite(y0).all():
        raise ValueError(f"y0 must be a finite vector of shape {(vf.e,)}, got {y0!r}")
    one = X.level1.ndim == 2
    if one:
        X = RoughPath(X.grid, X.level1[None], X.level2[None])

    time = vf.has_drift
    if time:
        vf = _with_drift(vf)
    flow = _steps(X, vf, y0, time)
    if pvar_index is not None:
        flow = replace(flow, pvar=p_variation(X, pvar_index))
    return flow.sample(0) if one else flow


def _steps(X: RoughPath, vf, y0, time: bool) -> FlowResult:
    """Step the K paths of X (K, n, d) along their segment increments,
    formed and checked for geometricity a step block at a time, so that the
    whole stack's (K, n-1, d, d) are never held; with `time`, along their
    time-adjoined increments, with V_0 the first field, which V leaves out."""
    grid = X.grid
    K, n, d, e = len(X.level1), grid.n, vf.d, vf.e
    dt = np.diff(grid.points)
    Y = np.zeros((K, n, e))
    Y[:, 0] = y0
    M = np.zeros((K, n - 1, e, e))
    V = np.zeros((K, n, d - time, e))
    if vf.affine is None:  # V(y_k), drift included, and V'(y_k) at a block's steps
        Vb, Vp = np.zeros((K, STEP_BLOCK, d, e)), np.zeros((K, STEP_BLOCK, d, e, e))
    y = Y[:, 0].copy()
    for k0 in range(0, n - 1, STEP_BLOCK):
        k1 = min(k0 + STEP_BLOCK, n - 1)
        block = slice(k0, k1)
        ba, bb = X.segment_increments(k0, k1)
        # a lift's residual is the rounding of differencing its level 2, so each
        # path's is judged against its size there, but only past GEOMETRIC_TOL:
        # the per-path reductions cost more than the residual; time adds none
        if residual(ba, bb).max(initial=0.0) > GEOMETRIC_TOL:
            worst = residual(ba, bb).max(axis=1)
            tol = GEOMETRIC_TOL * np.maximum(1.0, _largest(X.level2[:, k0:k1 + 1], (1, 2, 3)))
            if (worst > tol).any():
                j = int(np.argmax(worst / tol))
                raise ValueError(f"driver is not a geometric rough path "
                                 f"(symmetry residual {worst[j]:.3e} > {tol[j]:.1e})")
        if time:
            ba, bb = _with_time(dt[block], ba, bb)
        # an overflow leaves a state or a field value non-finite, or a state
        # past the guard: the block is checked below, before any step map; a
        # generic step from a non-finite value is itself non-finite
        finite = True
        with np.errstate(over="ignore", invalid="ignore"):
            if vf.affine is not None:
                Vs = _affine_steps(vf.affine, ba, bb, Y[:, k0:k1 + 1], M[:, block])
                V[:, block] = Vs[time:].transpose(3, 2, 0, 1)
                finite = np.isfinite(Vs).all(axis=(0, 1, 3))
            else:
                for k in range(k0, k1):
                    a, b = ba[:, k - k0], bb[:, k - k0]
                    Vb[:, k - k0] = Vk = vf.val(y)
                    Vp[:, k - k0] = Vpk = vf.jac(y)
                    Vp_ai = Vpk.transpose(0, 2, 1, 3)
                    # sum_{j,i,b} b[j, i] V_i'(y)[a, b] V_j(y)[b], axes (K, a, j, i, b)
                    y = y + ((a[:, None, :] @ Vk)[:, 0]
                             + _sum_tail(b[:, None, :, :, None] * Vp_ai[:, :, None]
                                         * Vk[:, None, :, None], 2))
                    Y[:, k + 1] = y
            bounded = finite & (np.linalg.norm(Y[:, k0 + 1:k1 + 1], axis=-1)
                                <= EXPLOSION_NORM).all(axis=0)
        if not bounded.all():
            t = float(grid.points[k0 + 1 + int(np.argmin(bounded))])
            raise ExplosionError(f"state exploded at t = {t:.6g}", t)
        if vf.affine is None:
            _step_maps(vf, Y[:, block], Vb[:, :k1 - k0], Vp[:, :k1 - k0], ba, bb, M[:, block])
            V[:, block] = Vb[:, :k1 - k0, time:]
    V[:, -1] = (vf.val(y) if vf.affine is None  # else as `linear_fields` forms it
                else _apply(vf.affine[0], Y[:, -1, None, :]) + vf.affine[1])[:, time:]
    return FlowResult(grid, Y, V, M)


def _affine_steps(affine, a, b, Y, M) -> np.ndarray:
    """Step affine fields V_i(y) = A_i y + c_i over a block of B steps along
    increments a (K, B, d), b (K, B, d, d): from Y[:, 0] (Y is (K, B + 1, e))
    write Y[:, 1:] and the step maps M (K, B, e, e); return V at Y[:, :-1] as
    (d, e, B, K).  At V' = A, V'' = 0 the generic step is y + M_k y + c_k:
        [M_k | c_k] = sum_i a^i [A_i | c_i] + sum_i A_i U_i,
        U_i = sum_j b[j, i] [A_j | c_j]   (the generic U = b^T V').
    b meets A_j before A_i: A_i A_j can overflow where b = 0, and a still
    path would then step by 0 * inf.  Every sum is a `_dot` over contiguous
    copies with the samples last, so no row depends on K."""
    A, c = affine[:2]
    e = c.shape[1]
    # [A_j | c_j] with j second: sum_j x[j] [A_j | c_j] is _dot(Ac, x)
    Ac = np.concatenate([A, c[:, :, None]], axis=-1).transpose(1, 0, 2)[..., None, None]
    second = sum(_dot(A[i][..., None, None, None], _dot(Ac, np.ascontiguousarray(b[..., i].T)))
                 for i in range(len(A)))  # summed apart, as in the generic M
    Mc = _dot(Ac, np.ascontiguousarray(a.T)) + second  # (e, e + 1, B, K)
    M[...] = Mc[:, :e].transpose(3, 2, 0, 1)
    y = Y[:, 0].T
    for k in range(Mc.shape[2]):
        y = y + _dot(Mc[:, :e, k], y) + Mc[:, e, k]
        Y[:, k + 1] = y.T
    return (_dot(A.transpose(0, 2, 1)[..., None, None], np.ascontiguousarray(Y[:, :-1].T))
            + c[..., None, None])


def _dot(P, Q):
    """sum_g P[:, g] Q[g], term by term: unlike a matmul's, no sum depends on K."""
    total = P[:, 0] * Q[0]
    for g in range(1, len(Q)):
        total += P[:, g] * Q[g]
    return total


def _step_maps(vf, y, v, vp, a, b, M) -> None:
    """Write into M (K, B, e, e) the linearizations of a block of B steps,
    from the states y (K, B, e), the field values v and first derivatives vp
    that the state steps stored at them, and the increments (a, b).

    The linearization of the step at y with increment (a, b) is
        M = sum_i a^i V_i' + sum_{i,g} W[i, g] V_i''[., g, .]
              + sum_{i,g} V_i'[., g] U[i, g, .]
    with W = b^T V and U = b^T V' (W[i] = sum_j b[j, i] V_j).  Each term is
    one stacked matmul over (path, step).
    """
    (K, B, d), e = a.shape, M.shape[-1]
    Vpp = vf.hess(y.reshape(K * B, e)).reshape(K, B, d, e, e, e)
    bT = b.swapaxes(-1, -2)
    vp_flat = vp.reshape(K, B, d, e * e)
    # an overflow here leaves M non-finite, which `transport` reports
    with np.errstate(over="ignore", invalid="ignore"):
        W = (bT @ v).reshape(K, B, 1, d * e)
        U = (bT @ vp_flat).reshape(K, B, d * e, e)
        M[...] = ((a[:, :, None] @ vp_flat
                   + W @ Vpp.transpose(0, 1, 2, 4, 3, 5).reshape(K, B, d * e, e * e)
                   ).reshape(K, B, e, e)
                  + vp.transpose(0, 1, 3, 2, 4).reshape(K, B, e, d * e) @ U)


def transport(flow: FlowResult, it: int) -> np.ndarray:
    """The Jacobians of the flow into t, the grid time of index it:
    P[..., m, :, :] = J_{t<-s_m} = (I + M_{it-1}) ... (I + M_m), m = 0..it,
    swept back from P_it = I by P_m = P_{m+1} + P_{m+1} M_m.  P[..., 0, :, :]
    is J_t, the derivative of Y_t with respect to y0.

    Raises ExplosionError, with `time` t, if some path's P is not finite.
    """
    e = flow.M.shape[-1]
    # the step index outermost, so that each sweep step reads and writes
    # one contiguous (..., e, e) stack
    P = np.empty((it + 1,) + flow.M.shape[:-3] + (e, e))
    P[it] = np.eye(e)
    M = np.moveaxis(flow.M, -3, 0)
    # an overflow leaves P non-finite, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(it - 1, -1, -1):
            P[m] = P[m + 1] + P[m + 1] @ M[m]
    if not np.isfinite(P).all():
        t = float(flow.grid.points[it])
        raise ExplosionError(f"transport to t = {t:.6g} exploded", t)
    return np.moveaxis(P, 0, -3)


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
    along in the same Runge-Kutta steps as its deviation M_k from I, so
    `transport` forms its Jacobians as it does the solver's.  With enough
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
    M = np.zeros((n - 1, e, e))
    Y[0] = y0
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
    V = np.array([vf.val(y) for y in Y])
    return FlowResult(grid, Y, V, M)


def log_operator_norm(J: np.ndarray) -> np.ndarray:
    """Log of the spectral norm of each matrix of a stack (..., e, e)."""
    return np.log(np.linalg.norm(J, ord=2, axis=(-2, -1)))

