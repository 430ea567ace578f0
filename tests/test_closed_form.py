"""Closed-form oracle: commuting diagonal linear fields V_i(y) = A_i y.

The scheme's step is linear in y, so I + M_k is the step map itself and
J_{t<-s} Y_s = Y_t on the grid: the Malliavin derivative D^i_s Y_t =
J_{t<-s} A_i Y_s = A_i Y_t is constant in s.  The rectangle increments of
the kernel over [0, t]^2 sum to R(t, t), so both routes' sigma_t is exactly
R(t, t) sum_i A_i Y_t Y_t^T A_i^T, for every kernel and every mesh, up to
rounding.  Unlike the route check, this truth does not come from the flow's
own derivative, so a fault in the step maps shows.
"""

import numpy as np
import pytest

from gaussrde import (bridge_model, brownian_model, cameron_martin_basis, fbm_model,
                      kernel_eval, lift_piecewise_linear, linear_fields,
                      malliavin_matrix_2d, malliavin_matrix_bm_reduction,
                      malliavin_matrix_parseval, sample_paths, solve_flow_jacobian,
                      uniform_grid)
from gaussrde.experiments import ROUTE_TOL
from gaussrde.malliavin import route_residual

A = np.array([np.diag([1.0, 0.3]), np.diag([-0.4, 0.8])])
VF = linear_fields(A)
Y0 = np.ones(2)
# about ten times the largest gap measured, 1.1e-14 of the 2D route's `magnitude`
TOL = 1e-13

MODELS = {"brownian": brownian_model(), "fbm-0.35": fbm_model(0.35),
          "fbm-0.4": fbm_model(0.4), "fbm-0.75": fbm_model(0.75),
          "bridge-1": bridge_model(1.0)}


def solve(model, n, count, seed=3):
    grid = uniform_grid(1.0, n)
    X = lift_piecewise_linear(sample_paths([model] * 2, grid, count, seed))
    return solve_flow_jacobian(X, VF, Y0)


def closed_form(flows, model, t):
    """R(t, t) sum_i A_i Y_t Y_t^T A_i^T per path."""
    AY = A @ flows.Y[:, flows.grid.index_of(t), None, :, None]  # (K, d, e, 1)
    return float(model(t, t)) * np.einsum("kia,kib->kab", AY[..., 0], AY[..., 0])


def gap(sigma, exact, scale):
    """Per path, the Frobenius gap to the closed form over `scale`, the 2D
    route's magnitude: the bound on its summed terms that the verdict and
    the route check also use.  It stays a bound on them where sigma cancels
    (the bridge at its pin), where the Parseval route's own magnitude is
    sigma's rounding noise."""
    return np.linalg.norm(sigma - exact, axis=(-2, -1)) / scale


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("n", [33, 257])
@pytest.mark.parametrize("name", list(MODELS))
def test_both_routes_match_the_closed_form(name, n):
    model = MODELS[name]
    flows = solve(model, n, 24 if n > 100 else 64)
    grid = flows.grid
    kernel, basis = kernel_eval(model, grid), cameron_martin_basis(model, grid)
    for t in (0.5, 1.0):
        exact = closed_form(flows, model, t)
        assert np.all(np.linalg.norm(exact, axis=(-2, -1)) > 0) == (name != "bridge-1"
                                                                     or t < 1)
        routes = [malliavin_matrix_2d(flows, VF, kernel, t),
                  malliavin_matrix_parseval(flows, VF, basis, t)]
        if name == "brownian":
            routes.append(malliavin_matrix_bm_reduction(flows, VF, t))
        for mat in routes:
            assert gap(mat.sigma, exact, routes[0].magnitude).max() <= TOL, (mat.method, t)


def test_the_closed_form_sees_a_fault_the_route_check_cannot(monkeypatch):
    """Every step map scaled by 1.05: both routes pair the same wrong
    derivative, so they still agree, while sigma leaves the closed form."""
    import gaussrde.rde

    step_maps = gaussrde.rde._step_maps

    def scaled(vf, y, v, vp, a, b, M):
        step_maps(vf, y, v, vp, a, b, M)
        M *= 1.05

    model = fbm_model(0.4)
    clean = solve(model, 65, 64)
    monkeypatch.setattr(gaussrde.rde, "_step_maps", scaled)
    faulty = solve(model, 65, 64)
    assert np.array_equal(faulty.Y, clean.Y)
    kernel, basis = kernel_eval(model, faulty.grid), cameron_martin_basis(model, faulty.grid)
    for t in (0.5, 1.0):
        exact = closed_form(faulty, model, t)
        mat = malliavin_matrix_2d(faulty, VF, kernel, t)
        check = malliavin_matrix_parseval(faulty, VF, basis, t)
        # every path leaves the closed form, the worst by more than 1e-3
        gaps = gap(mat.sigma, exact, mat.magnitude)
        assert gaps.min() > 1e3 * TOL and gaps.max() > 1e-3
        residual = route_residual(mat.sigma, check.sigma,
                                  np.maximum(mat.magnitude, check.magnitude))
        assert residual.max() <= ROUTE_TOL
