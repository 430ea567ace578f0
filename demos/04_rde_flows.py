"""Solving differential equations driven by rough paths.

Closed-form oracles for linear systems, mesh refinement against a
classical ODE solve for smooth drivers, the Jacobian flow checked by
finite differences, and the explosion guard.
"""

import numpy as np
from scipy.linalg import expm

from gaussrde import (
    ExplosionError,
    GridFunction1D,
    brownian_model,
    lift_piecewise_linear,
    linear_fields,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    solve_ode_reference,
    uniform_grid,
)

# Scalar linear dY = A Y dx along the ramp x(t) = t: the exact answer is
# y0 * exp(A).  The one-step second-order scheme converges at rate 2.
A = 0.7
y0 = np.array([1.3])
exact = 1.3 * np.exp(A)
print("scalar linear convergence:")
for n in (17, 65, 257, 1025):
    g = uniform_grid(1.0, n)
    X = lift_piecewise_linear(GridFunction1D(g, g.points.copy()))
    flow = solve_flow_jacobian(X, linear_fields(np.array([[[A]]])), y0)
    print(f"  n={n:<5d} error {abs(flow.final_state[0] - exact):.3e}")

# Matrix case: rotation generator, quarter turn.
rot = np.array([[0.0, -1.0], [1.0, 0.0]])
g = uniform_grid(1.0, 513)
X = lift_piecewise_linear(GridFunction1D(g, (np.pi / 2) * g.points))
flow = solve_flow_jacobian(X, linear_fields(rot[None]), np.array([1.0, 0.0]))
print("\nquarter turn of (1,0):", flow.final_state, "(exact (0,1))")

# Smooth two-dimensional driver vs a substepped ODE reference on the
# affine rotation system.
vf = rotation_fields()
y0 = np.array([1.0, 0.5])
print("\nrough solve vs ODE reference, smooth driver:")
for n in (65, 129, 257):
    g = uniform_grid(1.0, n)
    t = g.points
    vals = 0.8 * np.column_stack([np.sin(2 * t), t * np.cos(t)])
    vals -= vals[0]
    path = GridFunction1D(g, vals)
    rough = solve_flow_jacobian(lift_piecewise_linear(path), vf, y0)
    ode = solve_ode_reference(path, vf, y0, substeps=8)
    gap = np.linalg.norm(rough.final_state - ode.final_state)
    print(f"  n={n:<5d} gap {gap:.3e}")

# The Jacobian returned with the flow is the exact derivative of the
# discrete map, so a centered difference of the solver matches it.
grid = uniform_grid(1.0, 129)
batch = sample_paths([brownian_model()] * 2, grid, 1, seed=9)
X = lift_piecewise_linear(batch.path(0))
flow = solve_flow_jacobian(X, vf, y0)
eps = 1e-6
fd = np.zeros((2, 2))
for k in range(2):
    da = np.zeros(2)
    da[k] = eps
    up = solve_flow_jacobian(X, vf, y0 + da).final_state
    dn = solve_flow_jacobian(X, vf, y0 - da).final_state
    fd[:, k] = (up - dn) / (2 * eps)
print("\nJacobian vs finite difference of the solver:")
print(flow.J[-1])
print(fd)

# expm comparison for the Jacobian of the linear quarter turn above.
print("\nexpm(rot * pi/2):")
print(expm(rot * np.pi / 2))

# Quadratic growth can push the state past the guard radius; the solver
# raises with the blow-up time attached instead of returning inf.
from gaussrde import polynomial_fields

c2 = np.zeros((1, 1, 1, 1))
c2[0, 0, 0, 0] = 5.0
vf_bad = polynomial_fields(c0=np.zeros((1, 1)), c2=c2, radius=1e6)
g = uniform_grid(1.0, 257)
X = lift_piecewise_linear(GridFunction1D(g, 40.0 * g.points.reshape(-1, 1)))
try:
    solve_flow_jacobian(X, vf_bad, np.array([1.0]))
except ExplosionError as exc:
    print("\nexplosion detected at t =", exc.time)
