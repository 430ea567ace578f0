"""Driving vector fields V_1..V_d and drift V_0 on R^e.

Layout conventions used across the solvers:
    value(y)[i, a]        component a of V_i at y
    jacobian(y)[i, a, b]  d V_i^a / d y^b
    hessian(y)[i, a, b, c]  d^2 V_i^a / (d y^b d y^c)
Every entry point also takes a (K, e) stack of states and returns the
stacked values, with the sample axis in front: one call when the system
declares that its callables broadcast over leading axes, one call per state
otherwise.  Derivatives not supplied analytically fall back to central
finite differences, state by state; the `derivative_mode` flag records which
route a system uses.
Builtin families are globally bounded or linear, so the step-2 scheme's
explosion guard is a diagnostic, not a crutch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

FD_STEP_JAC = 6e-6
FD_STEP_HESS = 1.2e-4


@dataclass(frozen=True)
class VectorFieldSystem:
    """Driving fields with first and second derivatives, plus optional drift.

    `broadcasts` declares that every supplied callable maps a (..., e) stack
    of states to its stacked values (a value that does not depend on the
    state may come back unstacked).
    """

    e: int
    d: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    drift: Callable[[np.ndarray], np.ndarray] | None = None
    drift_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    drift_hessian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    broadcasts: bool = False

    @property
    def derivative_mode(self) -> str:
        if self.jacobian is not None and self.hessian is not None:
            return "analytic"
        return "finite-difference"

    @property
    def has_drift(self) -> bool:
        return self.drift is not None

    # Evaluation entry points used by the solvers; these dispatch to the
    # analytic callables when present and to finite differences otherwise.

    def _eval(self, fn, y, shape: tuple, rowwise: bool = False) -> np.ndarray:
        """fn at a state y (e,), or at each row of a stack (K, e), as a C-ordered
        array of shape y.shape[:-1] + shape: the solver's products and sums
        round alike for every row only when the layout does not depend on K."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1 or (self.broadcasts and not rowwise):
            out = np.asarray(fn(y), dtype=float)
        else:
            out = np.array([fn(row) for row in y], dtype=float)
        if out.shape[out.ndim - len(shape):] != shape:
            raise ValueError(f"field callable returned {out.shape}, expected {shape}")
        full = y.shape[:-1] + shape
        if out.shape == full:
            return np.ascontiguousarray(out)
        stacked = np.empty(full)
        stacked[...] = out
        return stacked

    def _first(self, jacobian, value, y, shape: tuple) -> np.ndarray:
        """Analytic first derivative of a map with values of `shape`, else
        central differences of the map."""
        full = shape + (self.e,)
        if jacobian is not None:
            return self._eval(jacobian, y, full)
        return self._eval(lambda z: _fd_jacobian(value, z, shape), y, full,
                          rowwise=True)

    def _second(self, hessian, jacobian, value, y, shape: tuple) -> np.ndarray:
        """Analytic second derivative, else differences of the first; with no
        derivative supplied, differences of differences at FD_STEP_HESS (+-2h
        on the diagonal, +-h for the mixed terms)."""
        full = shape + (self.e, self.e)
        if hessian is not None:
            return self._eval(hessian, y, full)
        step = FD_STEP_JAC
        if jacobian is None:
            step = FD_STEP_HESS
            jacobian = functools.partial(_fd_jacobian, value, out_shape=shape, step=step)
        return self._eval(lambda z: _fd_jacobian(jacobian, z, shape + (self.e,), step),
                          y, full, rowwise=True)

    def val(self, y: np.ndarray) -> np.ndarray:
        return self._eval(self.value, y, (self.d, self.e))

    def jac(self, y: np.ndarray) -> np.ndarray:
        return self._first(self.jacobian, self.value, y, (self.d, self.e))

    def hess(self, y: np.ndarray) -> np.ndarray:
        return self._second(self.hessian, self.jacobian, self.value, y, (self.d, self.e))

    def drift_val(self, y: np.ndarray) -> np.ndarray:
        return self._eval(self.drift, y, (self.e,))

    def drift_jac(self, y: np.ndarray) -> np.ndarray:
        return self._first(self.drift_jacobian, self.drift, y, (self.e,))

    def drift_hess(self, y: np.ndarray) -> np.ndarray:
        return self._second(self.drift_hessian, self.drift_jacobian, self.drift, y,
                            (self.e,))


def _fd_jacobian(fn, y, out_shape, step: float = FD_STEP_JAC) -> np.ndarray:
    """Central difference of fn along each state coordinate, appended axis."""
    y = np.asarray(y, dtype=float)
    e = y.size
    h = step * max(1.0, float(np.max(np.abs(y))))
    out = np.zeros(out_shape + (e,))
    for b in range(e):
        dy = np.zeros(e)
        dy[b] = h
        out[..., b] = (np.asarray(fn(y + dy), dtype=float)
                       - np.asarray(fn(y - dy), dtype=float)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------


def _apply(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for matrices (..., e, e) and states (..., e), one row at a time:
    a matrix product would sum a stack of states in a size-dependent order."""
    return (A * y[..., None, :]).sum(axis=-1)


def linear_fields(A: np.ndarray, b: np.ndarray | None = None,
                  drift: tuple[np.ndarray, np.ndarray] | None = None) -> VectorFieldSystem:
    """Affine fields V_i(y) = A_i y + b_i; optional affine drift (A_0, b_0)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"A must be (d, e, e), got {A.shape}")
    d, e = A.shape[0], A.shape[1]
    b = np.zeros((d, e)) if b is None else np.asarray(b, dtype=float)
    if b.shape != (d, e):
        raise ValueError(f"b must be {(d, e)}, got {b.shape}")
    zero_hess = np.zeros((d, e, e, e))
    kw: dict = {}
    if drift is not None:
        A0 = np.asarray(drift[0], dtype=float)
        b0 = np.asarray(drift[1], dtype=float)
        kw = dict(drift=lambda y: _apply(A0, y) + b0,
                  drift_jacobian=lambda y: A0,
                  drift_hessian=lambda y: np.zeros((e, e, e)))
    return VectorFieldSystem(
        e=e, d=d,
        value=lambda y: _apply(A, y[..., None, :]) + b,
        jacobian=lambda y: A,
        hessian=lambda y: zero_hess,
        name="linear", broadcasts=True, **kw,
    )


def constant_fields(c: np.ndarray) -> VectorFieldSystem:
    """State-independent fields V_i(y) = c_i: the linear family with A = 0."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"c must be (d, e), got {c.shape}")
    d, e = c.shape
    return replace(linear_fields(np.zeros((d, e, e)), c), name="constant")


ROTATION_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_fields(omegas: np.ndarray = (1.0, 0.5),
                    shifts: np.ndarray | None = None) -> VectorFieldSystem:
    """Planar affine-rotation family, V_i(y) = omega_i G y + c_i with G the
    90-degree generator.  Defaults give two non-commuting fields that span
    the plane at any y, a convenient elliptic test system.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    d = omegas.size
    shifts = np.eye(d, 2) if shifts is None else np.asarray(shifts, dtype=float)
    if shifts.shape != (d, 2):
        raise ValueError(f"shifts must be {(d, 2)}, got {shifts.shape}")
    A = omegas[:, None, None] * ROTATION_GENERATOR[None, :, :]
    return replace(linear_fields(A, shifts), name="rotation")


def polynomial_fields(c0: np.ndarray, c1: np.ndarray | None = None,
                      c2: np.ndarray | None = None, c3: np.ndarray | None = None,
                      radius: float = 5.0) -> VectorFieldSystem:
    """Degree <= 3 polynomial fields evaluated through a bounded squashing.

    The raw polynomial P_i(y) = c0[i] + c1[i] y + c2[i][y,y] + c3[i][y,y,y]
    is evaluated at u = radius * tanh(y / radius), which leaves it unchanged
    near the origin but caps growth, so solutions cannot explode.  c2 and c3
    are symmetrized over their state axes.  Derivatives are analytic via the
    chain rule.
    """
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 2:
        raise ValueError(f"c0 must be (d, e), got {c0.shape}")
    d, e = c0.shape
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    c1 = np.zeros((d, e, e)) if c1 is None else np.asarray(c1, dtype=float)
    c2 = np.zeros((d, e, e, e)) if c2 is None else np.asarray(c2, dtype=float)
    c3 = np.zeros((d, e, e, e, e)) if c3 is None else np.asarray(c3, dtype=float)
    for arr, shape, label in ((c1, (d, e, e), "c1"), (c2, (d, e, e, e), "c2"),
                              (c3, (d, e, e, e, e), "c3")):
        if arr.shape != shape:
            raise ValueError(f"{label} must be {shape}, got {arr.shape}")
    c2 = 0.5 * (c2 + np.swapaxes(c2, 2, 3))
    c3 = (c3 + np.transpose(c3, (0, 1, 3, 2, 4)) + np.transpose(c3, (0, 1, 4, 3, 2))
          + np.transpose(c3, (0, 1, 2, 4, 3)) + np.transpose(c3, (0, 1, 3, 4, 2))
          + np.transpose(c3, (0, 1, 4, 2, 3))) / 6.0

    r = float(radius)

    def squash(y):
        u = r * np.tanh(y / r)
        s = 1.0 - (u / r) ** 2          # du/dy, diagonal
        sp = -2.0 * u * s / (r * r)     # d^2 u / dy^2, diagonal
        return u, s, sp

    def poly_val(u):
        return (c0 + np.einsum("iab,...b->...ia", c1, u)
                + np.einsum("iabc,...b,...c->...ia", c2, u, u)
                + np.einsum("iabcd,...b,...c,...d->...ia", c3, u, u, u))

    def poly_jac(u):
        return (c1 + 2.0 * np.einsum("iabc,...c->...iab", c2, u)
                + 3.0 * np.einsum("iabcd,...c,...d->...iab", c3, u, u))

    def poly_hess(u):
        return 2.0 * c2 + 6.0 * np.einsum("iabcd,...d->...iabc", c3, u)

    def value(y):
        u, _, _ = squash(y)
        return poly_val(u)

    def jacobian(y):
        u, s, _ = squash(y)
        return poly_jac(u) * s[..., None, None, :]

    def hessian(y):
        u, s, sp = squash(y)
        H = poly_hess(u) * s[..., None, None, :, None] * s[..., None, None, None, :]
        J = poly_jac(u)
        H += np.einsum("...iab,bc->...iabc", J * sp[..., None, None, :], np.eye(e))
        return H

    return VectorFieldSystem(e=e, d=d, value=value, jacobian=jacobian,
                             hessian=hessian, name="polynomial", broadcasts=True)


def ellipticity_rank(vf: VectorFieldSystem, y0: np.ndarray) -> int:
    """Rank of the d x e matrix [V_1(y0); ...; V_d(y0)]: its singular values
    above 1e-10 times the largest."""
    V = vf.val(np.asarray(y0, dtype=float))
    s = np.linalg.svd(V, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))
