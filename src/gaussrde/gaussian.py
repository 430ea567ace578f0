"""Gaussian driver models on a grid: kernels, exact sampling, Cameron-Martin.

A driver is a d-dimensional process with independent components, each given
by a covariance kernel R(s, t).  Everything downstream works with the kernel
sampled on the simulation grid, so the Cameron-Martin space here is the
finite-dimensional column space of the grid covariance matrix, with inner
product <R a, R b>_H = a' R b.  On the grid this reproducing structure is
exact, not an approximation, which is what makes the Parseval identity and
the embedding inequality testable at tight tolerances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .young import (GridFunction1D, GridFunction2D, TimeGrid, p_variation_with_partition,
                    rho_variation_2d, rho_variation_partition_sum)

EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance kernel of one driver component plus variation metadata.

    `rho` is the analytic 2D variation index of the kernel, used to pick the
    roughness scale p of the lifted path; `name` feeds reports and errors.
    """

    name: str
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho: float

    def __call__(self, s, t):
        return self.kernel(np.asarray(s, dtype=float), np.asarray(t, dtype=float))


def brownian_model() -> CovarianceModel:
    """Standard Brownian motion, R(s, t) = min(s, t), rho = 1."""
    return CovarianceModel("brownian", lambda s, t: np.minimum(s, t), 1.0)


def fbm_model(hurst: float) -> CovarianceModel:
    """Fractional Brownian motion with Hurst index in (0, 1).

    R(s, t) = (t^2H + s^2H - |t - s|^2H) / 2, rho = max(1, 1/(2H)).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {hurst}")
    two_h = 2.0 * hurst

    def kernel(s, t):
        return 0.5 * (np.abs(t) ** two_h + np.abs(s) ** two_h
                      - np.abs(t - s) ** two_h)

    return CovarianceModel("fbm", kernel, max(1.0, 1.0 / two_h))


def bridge_model(horizon: float) -> CovarianceModel:
    """Brownian bridge pinned to 0 at `horizon`; R(s,t) = min(s,t) - st/T."""
    if horizon <= 0:
        raise ValueError(f"bridge horizon must be positive, got {horizon}")

    def kernel(s, t):
        return np.minimum(s, t) - s * t / horizon

    return CovarianceModel("bridge", kernel, 1.0)


def zero_model() -> CovarianceModel:
    """Deterministic zero driver; degenerate on purpose."""
    return CovarianceModel("zero", lambda s, t: np.zeros(np.broadcast(s, t).shape), 1.0)


@dataclass(frozen=True)
class KernelSample(GridFunction2D):
    """R sampled on grid x grid, with the model it samples (its name and rho)."""

    model: CovarianceModel


def kernel_eval(model: CovarianceModel, grid: TimeGrid) -> KernelSample:
    """Sample R on grid x grid: the one kernel sample the covariance routes
    and everything in this module read.  Its [1:, 1:] block is the covariance
    of the path values after time 0 (where the value is identically 0)."""
    S, T = np.meshgrid(grid.points, grid.points, indexing="ij")
    return KernelSample(grid, model(S, T), model)


@dataclass(frozen=True)
class PathSample:
    """One batch of driver paths, values[k, i, c] = sample k, time i, component c."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def path(self, k: int) -> GridFunction1D:
        return GridFunction1D(self.grid, self.values[k])


def sample_paths(models: list[CovarianceModel], grid: TimeGrid, n_samples: int,
                 seed: int, first: int = 0, factors: list | None = None) -> PathSample:
    """Draw exact joint samples of the driver at the grid times.

    Components are independent; each is its grid covariance's factor from
    `cholesky_factors` times a standard normal vector, from one kernel sample
    per distinct model, or `factors` a caller took once for several batches.

    Streams are counter-based: sample k is drawn from default_rng([seed, k]),
    its d components one after another, so any subset of indices can be
    regenerated independently.  The batch holds samples first, ...,
    first + n_samples - 1; `streams.standard_normals` hashes their stream
    keys in one pass and seeds each stream's PCG64 from its words.
    """
    # numpy.random (about 12 ms to import) loads on the first draw, not
    # with the package
    from .streams import standard_normals

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if factors is None:
        each = {m: cholesky_factors([kernel_eval(m, grid)])[0] for m in dict.fromkeys(models)}
        factors = [each[m] for m in models]
    d = len(models)
    n = grid.n
    z = standard_normals(seed, first, n_samples, (d, n - 1))
    out = np.zeros((n_samples, n, d))
    for c in range(d):
        # one matrix-vector product per sample: the bits of factors[c] @ z[k, c]
        np.matmul(factors[c], z[:, c, :, None], out=out[:, 1:, c, None])
    return PathSample(grid, out)


def cholesky_factors(kernels: list[KernelSample]) -> list[np.ndarray]:
    """Per kernel sample, the Cholesky factor of its grid covariance.

    Only an exactly zero covariance (zero model) gets a zero factor; a
    semidefinite matrix (bridge at its pin time) gets a diagonal jitter of
    1e-12 * trace / n before a retry, with a warning; sampling never silently
    degrades beyond that.
    """
    factors = []
    for kernel in kernels:
        cov = kernel.values[1:, 1:]
        if not cov.any():
            factors.append(np.zeros_like(cov))
            continue
        try:
            factors.append(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError:
            jitter = 1e-12 * np.trace(cov) / cov.shape[0]
            warnings.warn(
                f"grid covariance for {kernel.model.name!r} is semidefinite; "
                f"adding diagonal jitter {jitter:.3e}"
            )
            factors.append(np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])))
    return factors


# ---------------------------------------------------------------------------
# Cameron-Martin structure on the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameronMartinBasis:
    """Orthonormal basis h_n of the grid Cameron-Martin space of one component.

    Columns of `functions` are the basis paths prefixed with h_n(0) = 0;
    `eigenvalues` are the retained eigenvalues of the grid covariance, and
    h_n = sqrt(lambda_n) v_n so that <h_n, h_m>_H = delta_nm.
    """

    grid: TimeGrid
    functions: np.ndarray
    eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return self.functions.shape[1]

    def element(self, n: int) -> GridFunction1D:
        return GridFunction1D(self.grid, self.functions[:, n])


def cameron_martin_basis(kernel: KernelSample) -> CameronMartinBasis:
    """Eigenbasis of the grid covariance, scaled to be H-orthonormal.

    Eigenvalues below 1e-12 times the largest are discarded (they are
    numerically zero directions); a kernel that is zero on the grid yields an
    empty basis.  Materially negative eigenvalues mean the input was not a
    covariance and raise.
    """
    grid, name = kernel.grid, kernel.model.name
    lam, vec = np.linalg.eigh(kernel.values[1:, 1:])
    top = float(lam[-1]) if lam.size else 0.0
    if top <= 0.0:
        if np.any(lam < -abs(top) - 1e-12):
            raise ValueError(f"kernel {name!r} is not positive semidefinite")
        return CameronMartinBasis(grid, np.zeros((grid.n, 0)), np.zeros(0))
    if lam[0] < -EIGENVALUE_CUTOFF * top:
        raise ValueError(
            f"kernel {name!r} is not positive semidefinite "
            f"(eigenvalue {lam[0]:.3e})"
        )
    keep = lam > EIGENVALUE_CUTOFF * top
    lam = lam[keep][::-1]
    vec = vec[:, keep][:, ::-1]
    funcs = np.vstack([np.zeros((1, lam.size)), vec * np.sqrt(lam)])
    return CameronMartinBasis(grid, funcs, lam.copy())


def cm_element_from_coeffs(basis: CameronMartinBasis, coeffs: np.ndarray) -> GridFunction1D:
    """Linear combination sum_n c_n h_n; its H-norm squared is |c|^2."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} coefficients, got shape {c.shape}")
    return GridFunction1D(basis.grid, basis.functions @ c)


def nondegeneracy_check(kernel: KernelSample, t: float) -> dict:
    """Decide whether a nonzero weighting of the increments on [0, t], a grid
    time, can have zero variance, from the exact extreme
    eigenvalues of their covariance: the leading [0, t]^2 block of the
    kernel's rectangle increments, which the 2D route pairs.  A pinned or zero
    kernel shows a zero direction, an eigenvalue at most EIGENVALUE_CUTOFF
    times the largest; the verdict is relative, so a small horizon does not
    make a driver degenerate."""
    it = kernel.grid.index_of(t)
    box = kernel.rectangle_increments()[:it, :it]
    box = 0.5 * (box + box.T)
    lam = np.linalg.eigvalsh(box)
    scale = max(float(lam[-1]), 0.0)
    degenerate = scale <= 0.0 or lam[0] <= EIGENVALUE_CUTOFF * scale
    return {
        "degenerate": bool(degenerate),
        "min_eigenvalue": float(lam[0]),
        "max_eigenvalue": float(lam[-1]),
    }


def cm_embedding_check(kernel: KernelSample, h: GridFunction1D,
                       h_norm_sq: float | None = None) -> dict:
    """Check |h|_{rho-var} <= sqrt(<h,h>_H) * sqrt(|R|_{rho-var}) on the grid.

    The left side is the exact rho-variation of h by dynamic programming.
    The right side uses the rho-variation of the sampled kernel; since that
    supremum is only estimated from below on large grids, the partition that
    optimizes the left side is added to the kernel's candidate partitions,
    which keeps the reported inequality sound partition by partition.

    `h_norm_sq` is the Cameron-Martin norm squared when the caller knows it
    (for basis combinations it is just |coeffs|^2); otherwise it is recovered
    by projecting h onto the grid covariance.  The kernel's model gives rho.
    """
    rho = kernel.model.rho
    lhs, partition = p_variation_with_partition(h, rho)
    if kernel.grid.n <= 14:
        rvar = rho_variation_2d(kernel, rho, mode="exact")
    else:
        rvar = rho_variation_2d(kernel, rho, mode="diagonal-refinement",
                                extra_partitions=[partition])
    if h_norm_sq is None:
        cov = kernel.values[1:, 1:]
        target = np.asarray(h.values, dtype=float)[1:]
        coeff, *_ = np.linalg.lstsq(cov, target, rcond=None)
        if not np.allclose(cov @ coeff, target, rtol=1e-8, atol=1e-10):
            raise ValueError("h does not lie in the grid Cameron-Martin space")
        h_norm_sq = float(coeff @ target)
    rhs = np.sqrt(h_norm_sq) * np.sqrt(rvar.value)
    # Direct per-partition comparison: on the lhs-optimal partition the bound
    # holds with the partition sum of R, independent of how rvar was estimated.
    partition_rhs = np.sqrt(h_norm_sq) * (
        rho_variation_partition_sum(kernel, rho, partition) ** (0.5 / rho)
    )
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "holds": bool(lhs <= rhs * (1 + 1e-12) + 1e-15),
        "h_norm": float(np.sqrt(h_norm_sq)),
        "kernel_variation": float(rvar.value),
        "kernel_variation_is_lower_bound": rvar.is_lower_bound,
        "partition_rhs": float(partition_rhs),
    }
