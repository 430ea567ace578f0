"""Malliavin covariance of the flow by two independent routes.

The matrix is assembled once by pairing transported vector fields
against the covariance kernel with a 2D Young integral, and again by
summing squared directional derivatives over the Cameron-Martin basis.
The two routes share no quadrature code, so their agreement is a real
cross-check.  A third reduction, valid for Brownian drivers only,
integrates the squared integrand on the diagonal.
"""

import numpy as np

from gaussrde import (
    GridFunction1D,
    brownian_model,
    bridge_model,
    cameron_martin_basis,
    cholesky_factors,
    constant_fields,
    fbm_model,
    kernel_eval,
    lift_piecewise_linear,
    linear_fields,
    malliavin_matrix_2d,
    malliavin_matrix_bm_reduction,
    malliavin_matrix_parseval,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    spectrum,
    uniform_grid,
)

grid = uniform_grid(1.0, 65)
vf = rotation_fields()
y0 = np.array([0.8, -0.3])

# The kernel sampled on the grid once feeds the driver's Cholesky factors,
# the Cameron-Martin basis and the 2D route.
for model, name in ((brownian_model(), "brownian"), (fbm_model(0.4), "fbm 0.4")):
    kernel = kernel_eval(model, grid)
    basis = cameron_martin_basis(kernel)
    batch = sample_paths([model] * 2, grid, 1, seed=21,
                         factors=cholesky_factors([kernel]) * 2)
    flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf, y0)
    direct = malliavin_matrix_2d(flow, vf, kernel, 1.0)
    pars = malliavin_matrix_parseval(flow, vf, basis, 1.0)
    gap = np.linalg.norm(pars.sigma - direct.sigma) / np.linalg.norm(direct.sigma)
    lam_min = np.linalg.eigvalsh(direct.sigma)[0]
    print(f"{name:<9} route gap {gap:.2e}   lambda_min {lam_min:.4e}")

# Brownian diagonal reduction approaches the 2D route as the mesh refines.
print("\nBM diagonal reduction vs 2D route:")
fine = uniform_grid(1.0, 513)
base = sample_paths([brownian_model()] * 2, fine, 1, seed=22)
for stride in (8, 2):
    idx = np.arange(0, 513, stride)
    g = uniform_grid(1.0, idx.size)
    flow = solve_flow_jacobian(
        lift_piecewise_linear(GridFunction1D(g, base.values[0, idx, :])), vf, y0)
    d = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), g), 1.0)
    r = malliavin_matrix_bm_reduction(flow, vf, 1.0)
    gap = np.linalg.norm(r.sigma - d.sigma) / np.linalg.norm(d.sigma)
    print(f"  n={idx.size:<4d} relative gap {gap:.4f}")

# Non-spanning fields produce a rank-deficient matrix regardless of the
# driver: one constant direction can only ever spread mass along itself.
vf_flat = constant_fields(np.array([[1.0, 0.0]]))
kernel = kernel_eval(brownian_model(), grid)
batch = sample_paths([kernel.model], grid, 1, seed=23, factors=cholesky_factors([kernel]))
flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf_flat,
                           np.zeros(2))
m = malliavin_matrix_2d(flow, vf_flat, kernel, 1.0)
print("\nconstant non-spanning fields:")
print(m.sigma)
spec = spectrum(m, scale=1.0)
print("verdict:", spec.verdict, " det:", spec.det)

# The pinned bridge collapses the matrix exactly at the pin time while
# staying full-rank before it.
vf1 = linear_fields(np.array([[[0.4]]]))
bridge_kernel = kernel_eval(bridge_model(1.0), grid)
batch = sample_paths([bridge_kernel.model], grid, 1, seed=24,
                     factors=cholesky_factors([bridge_kernel]))
flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf1,
                           np.array([1.0]))
for t in (0.5, 1.0):
    m = malliavin_matrix_2d(flow, vf1, bridge_kernel, t)
    print(f"bridge t={t}: sigma={m.sigma[0, 0]:.4e}  "
          f"verdict={spectrum(m, scale=1.0).verdict}")
