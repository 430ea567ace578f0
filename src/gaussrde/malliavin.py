"""Malliavin covariance of an RDE solution map, by two independent routes.

Route one pairs the variation-of-constants integrand Z_k(s) = J_{t<-s} V_k(Y_s)
with itself against the rectangle increments of each component's covariance
kernel (a 2D Young integral).  Route two expands the derivative over an
orthonormal basis of the grid Cameron-Martin space and sums outer products
of directional derivatives.  Both read V(Y_s) from the flow; the kernel
sample and the basis depend only on the driver law, so the caller builds
them once per run.  On a fixed grid the two are the same finite sum
rearranged, so their agreement is a floating-point identity and serves as
the module's correctness certificate; neither route is ever shortcut through
the other.

Every function takes one flow or a stack of K flows (see `FlowResult`) and
then returns its matrices and scalars with the sample axis in front; each
sample's values are the same whichever stack it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldSystem
from .gaussian import CameronMartinBasis
from .rde import FlowResult, directional_derivative
from .young import GridFunction1D, GridFunction2D, TimeGrid, same_grid

DEGENERACY_TAU = 1e-10


def _scalars(*values):
    """Python scalars for one matrix (0-d values), arrays for a stack."""
    return [np.asarray(v).item() if np.ndim(v) == 0 else v for v in values]


@dataclass(frozen=True)
class MalliavinMatrix:
    """Symmetrized covariance matrix of Y_t with spectral scalars attached.

    `magnitude` bounds the Frobenius norm of the summed terms' absolute
    values (for a sum of semidefinite terms, the trace), so sigma's rounding
    error is a few ulps of it even where sigma cancels to rounding noise.
    For a stack of K flows sigma is (K, e, e) and the scalars are (K,)
    arrays; for one flow they are floats.
    """

    sigma: np.ndarray
    t: float
    lambda_min: float | np.ndarray
    det: float | np.ndarray
    method: str
    asymmetry: float | np.ndarray
    magnitude: float | np.ndarray

    @property
    def e(self) -> int:
        return self.sigma.shape[-1]

    @property
    def trace(self) -> float | np.ndarray:
        return _scalars(np.trace(self.sigma, axis1=-2, axis2=-1))[0]


def _finish(raw: np.ndarray, t: float, method: str, magnitude) -> MalliavinMatrix:
    raw = np.asarray(raw, dtype=float)
    asym = np.abs(raw - raw.swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    sigma = 0.5 * (raw + raw.swapaxes(-2, -1))
    lam, det, asym, magnitude = _scalars(np.linalg.eigvalsh(sigma)[..., 0],
                                         np.linalg.det(sigma), asym, magnitude)
    return MalliavinMatrix(sigma, float(t), lam, det, method, asym, magnitude)


def _integrand_values(flow: FlowResult, vf: VectorFieldSystem, it: int) -> np.ndarray:
    """Z[..., m, k, :] = J_{t<-s_m} V_k(Y_{s_m}) for grid indices m = 0..it."""
    if flow.J is None:
        raise ValueError("covariance routes need a Jacobian-carrying flow")
    if flow.V.shape[-2:] != (vf.d, vf.e):
        raise ValueError("flow was solved with fields of another shape")
    Z = (flow.J[..., it, None, :, :] @ flow.J_inv[..., :it + 1, :, :]
         @ flow.V[..., :it + 1, :, :].swapaxes(-2, -1))
    # C order gives each component's (m, e) slice the unit stride BLAS takes
    return np.ascontiguousarray(Z.swapaxes(-2, -1))


def _per_component(value, kind: type, d: int) -> list:
    """One `kind` value shared by the d driver components, or a list of d."""
    values = [value] * d if isinstance(value, kind) else list(value)
    if len(values) != d:
        raise ValueError(f"need {d} component {kind.__name__} values, "
                         f"got {len(values)}")
    return values


def _check_flow_grid(flow: FlowResult, *grids: TimeGrid) -> None:
    if not all(same_grid(g, flow.grid) for g in grids):
        raise ValueError("sample grid does not match the flow grid")


def malliavin_matrix_2d(flow: FlowResult, vf: VectorFieldSystem, kernel,
                        t: float) -> MalliavinMatrix:
    """Covariance via the double-integral representation.

    sigma_t = sum_k int int Z_k(s) (x) Z_k(s') dR^(k)(s, s') over [0, t]^2,
    evaluated with left-point values against the leading [0, t]^2 block of
    rectangle increments of `kernel`, the covariance sampled on the flow
    grid (`kernel_eval(model, flow.grid)`): one shared by all components or
    a list with one per component.
    """
    it = flow.grid.index_of(t)
    kernels = _per_component(kernel, GridFunction2D, vf.d)
    Z = _integrand_values(flow, vf, it)
    raw = magnitude = 0.0
    for k, Rk in enumerate(kernels):
        _check_flow_grid(flow, Rk.grid_s, Rk.grid_t)
        Zk, box = Z[..., :-1, k, :], Rk.rectangle_increments()[:it, :it]
        raw = raw + Zk.swapaxes(-2, -1) @ (box @ Zk)
        # |Zk^T box Zk| <= |Zk|^T |box| |Zk|, of norm at most |Zk|^2 |box|
        magnitude = magnitude + np.square(Zk).sum(axis=(-2, -1)) * np.linalg.norm(box)
    return _finish(raw, t, "2d-young", magnitude)


def malliavin_matrix_bm_reduction(flow: FlowResult, vf: VectorFieldSystem,
                                  t: float) -> MalliavinMatrix:
    """Covariance for the Brownian driver via its diagonal reduction.

    The min-kernel concentrates dR on the diagonal, collapsing the double
    integral to sum_k int_0^t Z_k(s) (x) Z_k(s) ds; quadrature uses the
    endpoint average on each grid cell.
    """
    it = flow.grid.index_of(t)
    Z = _integrand_values(flow, vf, it)
    dt = np.diff(flow.grid.points[:it + 1])
    P = np.einsum("...mka,...mkb->...mab", Z, Z)
    raw = np.einsum("m,...mab->...ab", dt, 0.5 * (P[..., :-1, :, :] + P[..., 1:, :, :]))
    return _finish(raw, t, "bm-reduction", np.trace(raw, axis1=-2, axis2=-1))


def malliavin_matrix_parseval(flow: FlowResult, vf: VectorFieldSystem, basis,
                              t: float) -> MalliavinMatrix:
    """Covariance via the basis expansion of the derivative.

    sigma_t = sum_{k,n} D_h Y_t (x) D_h Y_t with h the n-th basis path
    embedded into driver component k and zero elsewhere.  `basis` is one
    CameronMartinBasis shared by all components or a list, one per component.
    One `directional_derivative` call per component on its whole basis;
    independent of the 2D route.
    """
    bases = _per_component(basis, CameronMartinBasis, vf.d)
    raw = 0.0
    for k, bk in enumerate(bases):
        _check_flow_grid(flow, bk.grid)
        h = np.zeros((flow.grid.n, vf.d, bk.size))
        h[:, k] = bk.functions
        D = directional_derivative(flow, vf, GridFunction1D(flow.grid, h), t)
        raw = raw + D @ D.swapaxes(-2, -1)
    return _finish(raw, t, "parseval-basis", np.trace(raw, axis1=-2, axis2=-1))


def route_residual(a: np.ndarray, b: np.ndarray, floor=0.0) -> float | np.ndarray:
    """Frobenius gap between two covariance matrices, or per matrix of two
    (..., e, e) stacks, relative to the larger of their norms and `floor`.

    Pass the routes' `magnitude` as the floor: where sigma cancels to
    rounding noise (a pinned driver at its pin, say), the gap is then judged
    against the terms it was summed from instead of against the noise.
    """
    scale = np.maximum(np.maximum(np.linalg.norm(a, axis=(-2, -1)),
                                  np.linalg.norm(b, axis=(-2, -1))), floor)
    gap = np.linalg.norm(a - b, axis=(-2, -1))
    return _scalars(gap / np.where(scale > 0, scale, 1.0))[0]


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues and verdict of one matrix; for a stack, each field has
    the sample axis in front."""

    eigenvalues: np.ndarray
    lambda_min: float | np.ndarray
    det: float | np.ndarray
    verdict: str | np.ndarray
    tau: float
    threshold: float | np.ndarray


def spectrum(sigma, tau: float = DEGENERACY_TAU,
             scale: float | np.ndarray | None = None) -> SpectrumResult:
    """Eigendecomposition with a scale-relative degeneracy verdict.

    The verdict is "non-degenerate" iff lambda_min > tau * scale, where
    `scale` defaults to trace / e of the matrix itself.  Callers comparing a
    family of matrices (several evaluation times of one sample, say) should
    pass a common scale: a 1x1 matrix judged against its own trace can never
    be flagged, which would blind the verdict exactly in the pinned-driver
    case it exists to catch.  A stack (K, e, e) takes one scale per matrix.
    """
    mat = sigma.sigma if isinstance(sigma, MalliavinMatrix) else np.asarray(sigma, dtype=float)
    mat = 0.5 * (mat + mat.swapaxes(-2, -1))
    lam = np.linalg.eigvalsh(mat)
    if scale is None:
        scale = np.trace(mat, axis1=-2, axis2=-1) / mat.shape[-1]
    threshold = tau * np.asarray(scale, dtype=float)
    verdict = np.where(lam[..., 0] > threshold, "non-degenerate", "degenerate")
    return SpectrumResult(lam, *_scalars(lam[..., 0], np.linalg.det(mat), verdict),
                          tau, *_scalars(threshold))
