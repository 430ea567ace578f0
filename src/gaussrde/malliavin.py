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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldSystem
from .gaussian import CameronMartinBasis
from .rde import FlowResult, directional_derivative
from .young import GridFunction1D, GridFunction2D, TimeGrid, same_grid

DEGENERACY_TAU = 1e-10


@dataclass(frozen=True)
class MalliavinMatrix:
    """Symmetrized covariance matrix of Y_t with spectral scalars attached."""

    sigma: np.ndarray
    t: float
    lambda_min: float
    det: float
    method: str
    asymmetry: float

    @property
    def e(self) -> int:
        return self.sigma.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.sigma))


def _finish(raw: np.ndarray, t: float, method: str) -> MalliavinMatrix:
    raw = np.asarray(raw, dtype=float)
    asym = float(np.max(np.abs(raw - raw.T))) if raw.size else 0.0
    sigma = 0.5 * (raw + raw.T)
    lam = np.linalg.eigvalsh(sigma)
    return MalliavinMatrix(sigma, float(t), float(lam[0]),
                           float(np.linalg.det(sigma)), method, asym)


def _integrand_values(flow: FlowResult, vf: VectorFieldSystem, it: int) -> np.ndarray:
    """Z[m, k, :] = J_{t<-s_m} V_k(Y_{s_m}) for grid indices m = 0..it."""
    if flow.J is None:
        raise ValueError("covariance routes need a Jacobian-carrying flow")
    if flow.V.shape[1:] != (vf.d, vf.e):
        raise ValueError("flow was solved with fields of another shape")
    Z = flow.J[it] @ flow.J_inv[:it + 1] @ flow.V[:it + 1].transpose(0, 2, 1)
    # C order keeps the summation order of the einsums that pair Z
    return np.ascontiguousarray(Z.transpose(0, 2, 1))


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
    raw = np.zeros((vf.e, vf.e))
    for k, Rk in enumerate(kernels):
        _check_flow_grid(flow, Rk.grid_s, Rk.grid_t)
        box = Rk.rectangle_increments()[:it, :it]
        raw += np.einsum("ia,ij,jb->ab", Z[:-1, k], box, Z[:-1, k])
    return _finish(raw, t, "2d-young")


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
    mid = 0.5 * (np.einsum("mka,mkb->mab", Z[:-1], Z[:-1])
                 + np.einsum("mka,mkb->mab", Z[1:], Z[1:]))
    raw = np.einsum("m,mab->ab", dt, mid)
    return _finish(raw, t, "bm-reduction")


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
    raw = np.zeros((vf.e, vf.e))
    for k, bk in enumerate(bases):
        _check_flow_grid(flow, bk.grid)
        h = np.zeros((flow.grid.n, vf.d, bk.size))
        h[:, k] = bk.functions
        D = directional_derivative(flow, vf, GridFunction1D(flow.grid, h), t)
        raw += D @ D.T
    return _finish(raw, t, "parseval-basis")


def route_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius gap between two covariance matrices, relative to the larger."""
    gap, denom = np.linalg.norm(a - b), max(np.linalg.norm(a), np.linalg.norm(b))
    return float(gap / denom if denom > 0 else gap)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    lambda_min: float
    det: float
    verdict: str
    tau: float
    threshold: float


def spectrum(sigma, tau: float = DEGENERACY_TAU,
             scale: float | None = None) -> SpectrumResult:
    """Eigendecomposition with a scale-relative degeneracy verdict.

    The verdict is "non-degenerate" iff lambda_min > tau * scale, where
    `scale` defaults to trace / e of the matrix itself.  Callers comparing a
    family of matrices (several evaluation times of one sample, say) should
    pass a common scale: a 1x1 matrix judged against its own trace can never
    be flagged, which would blind the verdict exactly in the pinned-driver
    case it exists to catch.
    """
    mat = sigma.sigma if isinstance(sigma, MalliavinMatrix) else np.asarray(sigma, dtype=float)
    mat = 0.5 * (mat + mat.T)
    lam = np.linalg.eigvalsh(mat)
    e = mat.shape[0]
    if scale is None:
        scale = float(np.trace(mat)) / e
    threshold = tau * scale
    verdict = "non-degenerate" if lam[0] > threshold else "degenerate"
    return SpectrumResult(lam, float(lam[0]), float(np.linalg.det(mat)),
                          verdict, tau, float(threshold))
