"""Malliavin covariance of an RDE solution map, by two independent routes.

Route one pairs the variation-of-constants integrand Z_k(s) = J_{t<-s} V_k(Y_s)
with itself against the rectangle increments of each component's covariance
kernel (a 2D Young integral).  Route two expands the derivative over an
orthonormal basis of the grid Cameron-Martin space and sums outer products
of directional derivatives.  On a fixed grid the two are the same finite sum
rearranged, so their agreement is a floating-point identity and serves as
the module's correctness certificate; neither route is ever shortcut through
the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldSystem
from .gaussian import CameronMartinBasis, CovarianceModel, kernel_eval
from .rde import FlowResult, directional_derivative
from .young import GridFunction1D, TimeGrid, young_integral_2d

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
    V = np.array([vf.val(y) for y in flow.Y[:it + 1]])
    Z = flow.J[it] @ flow.J_inv[:it + 1] @ V.transpose(0, 2, 1)
    # C order keeps the summation order of the einsums that pair Z
    return np.ascontiguousarray(Z.transpose(0, 2, 1))


def _component_models(model, d: int) -> list[CovarianceModel]:
    if isinstance(model, CovarianceModel):
        return [model] * d
    models = list(model)
    if len(models) != d:
        raise ValueError(f"need {d} component models, got {len(models)}")
    return models


def malliavin_matrix_2d(flow: FlowResult, vf: VectorFieldSystem, model,
                        t: float) -> MalliavinMatrix:
    """Covariance via the double-integral representation.

    sigma_t = sum_k int int Z_k(s) (x) Z_k(s') dR^(k)(s, s') over [0, t]^2,
    evaluated with left-point values against rectangle increments of the
    kernel restricted to the sub-grid up to t.  `model` is one covariance
    model shared by all components or a list with one entry per component.
    """
    it = flow.grid.index_of(t)
    models = _component_models(model, vf.d)
    sub = TimeGrid(flow.grid.points[:it + 1])
    Z = _integrand_values(flow, vf, it)
    raw = np.zeros((vf.e, vf.e))
    for k, mk in enumerate(models):
        Zk = GridFunction1D(sub, Z[:, k, :])
        raw += young_integral_2d(Zk, Zk, kernel_eval(mk, sub))
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
    if isinstance(basis, CameronMartinBasis):
        bases = [basis] * vf.d
    else:
        bases = list(basis)
        if len(bases) != vf.d:
            raise ValueError(f"need {vf.d} component bases, got {len(bases)}")
    raw = np.zeros((vf.e, vf.e))
    for k, bk in enumerate(bases):
        if not np.allclose(bk.grid.points, flow.grid.points,
                           rtol=1e-12, atol=1e-12):
            raise ValueError("basis grid does not match the flow grid")
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
