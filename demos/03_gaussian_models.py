"""Gaussian driver models and their Cameron-Martin structure.

Samples the built-in covariance models, rebuilds the grid covariance
from the eigen-basis, and checks the variation embedding that controls
how Cameron-Martin perturbations enter rough integrals.  Each model's
kernel is sampled on the grid once; the basis, the embedding check and
the non-degeneracy check all read that one sample.
"""

import numpy as np

from gaussrde import (
    brownian_model,
    bridge_model,
    cameron_martin_basis,
    cm_element_from_coeffs,
    cm_embedding_check,
    fbm_model,
    kernel_eval,
    nondegeneracy_check,
    sample_paths,
    uniform_grid,
)

grid = uniform_grid(1.0, 65)

models = {
    "brownian": brownian_model(),
    "fbm H=0.40": fbm_model(0.4),
    "fbm H=0.75": fbm_model(0.75),
    "bridge": bridge_model(1.0),
}
kernels = {name: kernel_eval(model, grid) for name, model in models.items()}

print("model          rho    var(X_1)   increment var on [0.5, 0.75]")
for name, model in models.items():
    v1 = model.kernel(1.0, 1.0)
    iv = (model.kernel(0.75, 0.75) - 2 * model.kernel(0.5, 0.75)
          + model.kernel(0.5, 0.5))
    print(f"{name:<14} {model.rho:<6.3g} {v1:<10.4f} {iv:.4f}")

# Sampling is counter-based per path index, so a batch of 3 is the
# prefix of a batch of 5 at the same seed.
big = sample_paths([brownian_model()] * 2, grid, 5, seed=42)
small = sample_paths([brownian_model()] * 2, grid, 3, seed=42)
print("\nbatch prefix property:", np.array_equal(big.values[:3], small.values))

# The scaled eigenvector basis reconstructs the grid covariance, the
# kernel sample after time 0, exactly.
basis = cameron_martin_basis(kernels["fbm H=0.75"])
F = np.stack([basis.element(n).values for n in range(basis.size)])
C = kernels["fbm H=0.75"].values[1:, 1:]
print("basis size:", basis.size)
print("covariance reconstruction error:",
      np.max(np.abs(F[:, 1:].T @ F[:, 1:] - C)))

# Embedding: the rho-variation of a Cameron-Martin element is bounded by
# its H-norm times the square root of the kernel variation.
rng = np.random.default_rng(3)
print("\nembedding margins (rhs / lhs), 5 random elements per model:")
for name in ("brownian", "fbm H=0.40", "fbm H=0.75"):
    margins = []
    b = cameron_martin_basis(kernels[name])
    for _ in range(5):
        c = rng.standard_normal(b.size)
        h = cm_element_from_coeffs(b, c)
        rep = cm_embedding_check(kernels[name], h, h_norm_sq=float(c @ c))
        margins.append(rep["rhs"] / rep["lhs"])
    print(f"  {name:<12} min {min(margins):.3f}  max {max(margins):.3f}")

# Degeneracy scan over the increment covariance.  The bridge kernel pins
# the path at the horizon, so on the full grid some weighting of the
# increments has zero variance; on [0, 0.5], the leading block of the same
# sample, it is fine.
print()
for name, kernel in kernels.items():
    rep = nondegeneracy_check(kernel, grid.horizon)
    print(f"{name:<14} full grid "
          f"{'DEGENERATE' if rep['degenerate'] else 'ok':<12} "
          f"min eig {rep['min_eigenvalue']:.3e}")

rep = nondegeneracy_check(kernels["bridge"], 0.5)
print(f"{'bridge':<14} up to 0.5 "
      f"{'DEGENERATE' if rep['degenerate'] else 'ok':<12} "
      f"min eig {rep['min_eigenvalue']:.3e}")

print("bridge kernel at the pin R(1,1):", kernels["bridge"].values[-1, -1])
