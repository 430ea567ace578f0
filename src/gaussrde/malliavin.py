"""Malliavin derivative of an RDE solution and its covariance, by two routes.

The derivative D_s Y_t = J_{t<-s} V(Y_s) is formed in one place,
`_integrand_values`, from `rde.transport` and the flow's field values; the
routes and `directional_derivative` only pair it.  The transport J_{t<-s}
is the product of the step maps I + M_k between s and t, accumulated
backward from t, so no Jacobian is inverted and an ill-conditioned flow
loses no accuracy in the derivative.  Route one pairs each component with
itself against the rectangle increments of that component's covariance
kernel (a 2D Young integral).  Route two pairs it with the increments of an
orthonormal basis of the grid Cameron-Martin space and sums outer products.
The kernel sample and the basis depend only on the driver law, so the
caller builds them once per run.  On a fixed grid the two are the same
finite sum rearranged, so their agreement is a floating-point identity and serves as
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
from .rde import FlowResult, transport
from .young import GridFunction1D, GridFunction2D, TimeGrid, same_grid

DEGENERACY_TAU = 1e-10


def _scalars(*values):
    """Python scalars for one matrix (0-d values), arrays for a stack."""
    return [np.asarray(v).item() if np.ndim(v) == 0 else v for v in values]


@dataclass(frozen=True)
class MalliavinMatrix:
    """Symmetrized covariance matrix of Y_t with its route's diagnostics.

    `magnitude` bounds the Frobenius norm of the summed terms' absolute
    values (for a sum of semidefinite terms, the trace), so sigma's rounding
    error is a few ulps of it even where sigma cancels to rounding noise.
    For a stack of K flows sigma is (K, e, e) and the scalars are (K,)
    arrays; for one flow they are floats.  Its eigenvalues, determinant and
    verdict come from `spectrum`.
    """

    sigma: np.ndarray
    t: float
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
    return MalliavinMatrix(sigma, float(t), method, *_scalars(asym, magnitude))


def _integrand_values(flow: FlowResult, vf: VectorFieldSystem, it: int) -> np.ndarray:
    """The Malliavin derivative of Y_t, t the grid time of index it:
    Z[..., m, k, :] = D^k_{s_m} Y_t = J_{t<-s_m} V_k(Y_{s_m}), m = 0..it,
    with the transports J_{t<-s_m} of `transport`."""
    if flow.V.shape[-2:] != (vf.d, vf.e):
        raise ValueError("flow was solved with fields of another shape")
    Z = transport(flow, it) @ flow.V[..., :it + 1, :, :].swapaxes(-2, -1)
    # C order gives each component's (m, e) slice the unit stride BLAS takes
    return np.ascontiguousarray(Z.swapaxes(-2, -1))


def _per_component(value, kind: type, d: int) -> list:
    """One `kind` value shared by the d driver components, or a list of d."""
    values = [value] * d if isinstance(value, kind) else list(value)
    if len(values) != d:
        raise ValueError(f"need {d} component {kind.__name__} values, "
                         f"got {len(values)}")
    return values


def _check_flow_grid(flow: FlowResult, grid: TimeGrid) -> None:
    if not same_grid(grid, flow.grid):
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
        _check_flow_grid(flow, Rk.grid)
        Zk, box = Z[..., :-1, k, :], Rk.rectangle_increments()[:it, :it]
        raw = raw + Zk.swapaxes(-2, -1) @ (box @ Zk)
        # |Zk^T box Zk| <= |Zk|^T |box| |Zk|, of norm at most |Zk|^2 times
        # the operator norm of the symmetric |box|, itself at most its
        # largest row sum (for a diagonal box, the largest cell variance)
        magnitude = (magnitude + np.square(Zk).sum(axis=(-2, -1))
                     * np.abs(box).sum(axis=-1).max(initial=0.0))
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
    embedded into driver component k and zero elsewhere, so that D_h Y_t
    pairs component k of the derivative with the increments of that path.
    `basis` is one CameronMartinBasis shared by all components or a list,
    one per component.  The derivative is taken once per call; independent
    of the 2D route.
    """
    bases = _per_component(basis, CameronMartinBasis, vf.d)
    it = flow.grid.index_of(t)
    Z = _integrand_values(flow, vf, it)
    raw = 0.0
    for k, bk in enumerate(bases):
        _check_flow_grid(flow, bk.grid)
        # a C copy of the Fortran-ordered basis keeps BLAS's order of sums
        dh = np.ascontiguousarray(np.diff(bk.functions[:it + 1], axis=0))
        D = Z[..., :-1, k, :].swapaxes(-2, -1) @ dh
        raw = raw + D @ D.swapaxes(-2, -1)
    return _finish(raw, t, "parseval-basis", np.trace(raw, axis1=-2, axis2=-1))


def directional_derivative(flow: FlowResult, vf: VectorFieldSystem,
                           h: GridFunction1D, t: float) -> np.ndarray:
    """Derivative of Y_t along Cameron-Martin directions h of the driver.

    Variation-of-constants: D_h Y_t = sum_i int_0^t D^i_s Y_t dh^i_s, the
    derivative paired with the increments of h as a left-point Young sum on
    the grid.  `h.values` is (n,) when d = 1, (n, d) for one direction, or
    (n, d, m) for a stack of m; the result is (e,), or (e, m) with column j
    for direction j, behind the sample axis when the flow is a stack of K
    paths.  At t = 0 it is zero.
    """
    _check_flow_grid(flow, h.grid)
    it = flow.grid.index_of(t)
    hv = h.values if h.values.ndim > 1 else h.values[:, None]
    if hv.shape[1] != vf.d:
        raise ValueError(f"direction has {hv.shape[1]} components, driver has {vf.d}")
    Z = _integrand_values(flow, vf, it)[..., :it, :, :]
    # D^i_s Y_t paired with dh^i_s in one product over (s, i), on a C copy
    # so that BLAS sums each row of D in that order
    Z = np.ascontiguousarray(Z.reshape(flow.Y.shape[:-2] + (-1, vf.e)).swapaxes(-2, -1))
    dh = np.diff(hv[:it + 1], axis=0)
    return Z @ dh.reshape((-1,) + dh.shape[2:])


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


def spectrum(sigma, scale: float | np.ndarray,
             tau: float = DEGENERACY_TAU) -> SpectrumResult:
    """Eigendecomposition with a scale-relative degeneracy verdict.

    The verdict is "non-degenerate" iff lambda_min > tau * scale.  The scale
    is the caller's (the pipeline passes the matrix's own 2D-route
    magnitude / e, a bound on its summed terms): a matrix judged against its
    own trace can never be flagged when it is 1x1, which would blind the
    verdict exactly in the pinned-driver case it exists to catch.  A stack
    (K, e, e) takes one scale per matrix.  A matrix that is not finite has
    no verdict: FloatingPointError.
    """
    mat = sigma.sigma if isinstance(sigma, MalliavinMatrix) else np.asarray(sigma, dtype=float)
    if not np.isfinite(mat).all():
        raise FloatingPointError("spectrum of a matrix that is not finite")
    mat = 0.5 * (mat + mat.swapaxes(-2, -1))
    lam = np.linalg.eigvalsh(mat)
    threshold = tau * np.asarray(scale, dtype=float)
    verdict = np.where(lam[..., 0] > threshold, "non-degenerate", "degenerate")
    return SpectrumResult(lam, *_scalars(lam[..., 0], np.linalg.det(mat), verdict),
                          tau, *_scalars(threshold))
