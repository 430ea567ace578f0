"""Step-2 group arithmetic and path lifts.

Walks through the nilpotent group algebra: products, inverses, the Chen
identity for concatenated increments, the signed-area reading of the
second level, and how the homogeneous norm scales under dilation.  An
element is a pair (level1, level2) of arrays, (d,) and (d, d); the same
functions take stacks of elements along trailing axes, components first:
(d, ...) and (d, d, ...).
"""

import numpy as np

from gaussrde import GridFunction1D, TimeGrid, lift_piecewise_linear
from gaussrde.nilpotent import area, increment, norm, product, residual

rng = np.random.default_rng(7)

# A geometric element: symmetric part of the second level is a (x) a / 2.
a = rng.standard_normal(2)
s = rng.standard_normal((2, 2))
g = (a, 0.5 * np.outer(a, a) + 0.5 * (s - s.T))
h = (-a, 0.5 * np.outer(a, a) + 0.3 * (s.T - s))

print("geometricity residual of g:", residual(*g))

# The inverse of h is its increment back to the identity (0, 0).
prod = product(*g, *h)
back = product(*prod, *increment(*h, 0.0, 0.0))
print("g*h then *h^-1 recovers g: ",
      np.allclose(back[0], g[0]), np.allclose(back[1], g[1]))

e = (np.zeros(2), np.zeros((2, 2)))
gid = product(*g, *e)
print("identity acts trivially:   ",
      np.allclose(gid[0], g[0]), np.allclose(gid[1], g[1]))

# Chen: the increment g^-1 * k splits through any midpoint h.
kv = rng.standard_normal(2)
k = (kv, 0.5 * np.outer(kv, kv))
split = product(*increment(*g, *h), *increment(*h, *k))
direct = increment(*g, *k)
print("Chen split residual:       ",
      np.max(np.abs(split[1] - direct[1])))

# Lift a closed planar loop.  The antisymmetric part of the second level
# is the signed enclosed area, positive for counterclockwise traversal.
square = np.array([
    [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0],
])
X = lift_piecewise_linear(GridFunction1D(TimeGrid(np.linspace(0, 1, 5)), square))
loop = X.increment(0, 4)
print("\nunit square, CCW:")
print("  displacement:", loop[0])
print("  signed area :", area(*loop)[0, 1])

# Homogeneous norm: level 1 scales like lam, level 2 like lam^2, so the
# norm of the dilated element is exactly lam times the original.
lam = 3.7
dilated = (lam * g[0], lam**2 * g[1])
print("\nnorm of g:        ", norm(*g))
print("norm of dilation: ", norm(*dilated))
print("ratio (expect lam):", norm(*dilated) / norm(*g))

# Lifted sample paths stay geometric at every increment; one call covers
# the increments from time 0 to every grid point, with the lift's levels
# (n, d) and (n, d, d) read components first.
walk = np.cumsum(rng.standard_normal((64, 3)), axis=0) * 0.1
walk -= walk[0]
Y = lift_piecewise_linear(GridFunction1D(TimeGrid(np.linspace(0, 1, 64)), walk))
a, b = np.moveaxis(Y.level1, 0, -1), np.moveaxis(Y.level2, 0, -1)
worst = residual(a[:, 1:], b[:, :, 1:]).max()
print("\nworst geometricity residual along a lifted walk:", worst)
