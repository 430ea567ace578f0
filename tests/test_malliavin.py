import numpy as np
import pytest

from gaussrde import (
    GridFunction1D,
    brownian_model,
    cameron_martin_basis,
    constant_fields,
    fbm_model,
    lift_piecewise_linear,
    linear_fields,
    malliavin_matrix_2d,
    malliavin_matrix_bm_reduction,
    malliavin_matrix_parseval,
    polynomial_fields,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    solve_rde,
    spectrum,
    uniform_grid,
)
import gaussrde.malliavin as malliavin
from gaussrde.malliavin import _component_models, _integrand_values, route_residual


def brownian_flow(vf, y0, n=65, seed=70, d=None):
    d = vf.d if d is None else d
    grid = uniform_grid(1.0, n)
    batch = sample_paths([brownian_model()] * d, grid, 1, seed)
    X = lift_piecewise_linear(batch.path(0))
    return solve_flow_jacobian(X, vf, y0), grid


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_scalar_linear_covariance_telescopes():
    """With one linear scalar field the transported integrand is constant,
    so the double integral collapses to (A Y_t)^2 R(t, t) exactly on the
    grid, for any kernel vanishing at zero."""
    A = 0.8
    vf = linear_fields(np.array([[[A]]]))
    for model in (brownian_model(), fbm_model(0.75)):
        grid = uniform_grid(1.0, 65)
        batch = sample_paths([model], grid, 1, seed=71)
        flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf,
                                   np.array([1.1]))
        for t in (1.0, grid.points[32]):
            it = grid.index_of(t)
            mat = malliavin_matrix_2d(flow, vf, model, t)
            expected = (A * flow.Y[it, 0]) ** 2 * model(t, t)
            assert np.isclose(mat.sigma[0, 0], expected, rtol=1e-10)
            assert mat.method == "2d-young"


def test_routes_agree_to_rounding():
    """2D-integral and basis-expansion routes are the same finite sum
    rearranged, so they must agree far below any modelling tolerance."""
    y0 = np.array([0.8, -0.3])
    cases = [
        (rotation_fields(), brownian_model()),
        (rotation_fields(), fbm_model(0.4)),
        (linear_fields(np.stack([np.diag([0.4, 0.1]), 0.3 * np.eye(2)]),
                       drift=(np.diag([-0.2, 0.1]), np.zeros(2))),
         brownian_model()),
    ]
    for vf, model in cases:
        grid = uniform_grid(1.0, 49)
        batch = sample_paths([model] * vf.d, grid, 1, seed=72)
        flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf, y0)
        basis = cameron_martin_basis(model, grid)
        for t in (1.0, grid.points[24]):
            direct = malliavin_matrix_2d(flow, vf, model, t)
            parseval = malliavin_matrix_parseval(flow, vf, basis, t)
            assert parseval.method == "parseval-basis"
            assert rel_gap(parseval.sigma, direct.sigma) < 1e-10


def test_bm_reduction_gap_shrinks_with_mesh():
    vf = rotation_fields()
    y0 = np.array([0.5, 0.2])
    grid_fine = uniform_grid(1.0, 257)
    base = sample_paths([brownian_model()] * 2, grid_fine, 1, seed=73)
    gaps = []
    for stride in (8, 1):
        idx = np.arange(0, 257, stride)
        grid = uniform_grid(1.0, idx.size)
        X = lift_piecewise_linear(GridFunction1D(grid, base.values[0, idx, :]))
        flow = solve_flow_jacobian(X, vf, y0)
        direct = malliavin_matrix_2d(flow, vf, brownian_model(), 1.0)
        reduced = malliavin_matrix_bm_reduction(flow, vf, 1.0)
        assert reduced.method == "bm-reduction"
        gaps.append(rel_gap(reduced.sigma, direct.sigma))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.02


def test_constant_fields_degenerate_covariance():
    # one constant field in the plane: J = I and Z = (1, 0) for all s, so
    # the covariance is rank one with top entry R(T, T)
    vf = constant_fields(np.array([[1.0, 0.0]]))
    flow, grid = brownian_flow(vf, np.zeros(2), n=33, seed=74, d=1)
    mat = malliavin_matrix_2d(flow, vf, brownian_model(), 1.0)
    assert np.allclose(mat.sigma, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-12)
    assert mat.det <= 1e-12
    res = spectrum(mat)
    assert res.verdict == "degenerate"


def test_covariance_psd_and_symmetric():
    rng = np.random.default_rng(75)
    vf = polynomial_fields(
        c0=rng.standard_normal((2, 2)) * 0.4,
        c1=rng.standard_normal((2, 2, 2)) * 0.3,
        c2=rng.standard_normal((2, 2, 2, 2)) * 0.2,
    )
    for seed in range(76, 79):
        flow, _ = brownian_flow(vf, np.array([0.1, -0.2]), seed=seed)
        mat = malliavin_matrix_2d(flow, vf, brownian_model(), 1.0)
        assert np.array_equal(mat.sigma, mat.sigma.T)
        assert mat.asymmetry < 1e-10
        assert mat.lambda_min >= -1e-10 * max(mat.trace, 1.0)


def test_spectrum_verdicts_and_scale():
    assert spectrum(np.eye(2)).verdict == "non-degenerate"
    assert spectrum(np.zeros((2, 2))).verdict == "degenerate"
    assert spectrum(np.diag([1.0, 0.0])).verdict == "degenerate"
    # a 1x1 matrix judged against its own trace cannot be flagged; a shared
    # external scale restores the comparison the verdict is meant to make
    tiny = np.array([[1e-18]])
    assert spectrum(tiny).verdict == "non-degenerate"
    assert spectrum(tiny, scale=1.0).verdict == "degenerate"
    res = spectrum(np.diag([2.0, 3.0]), tau=0.5)
    assert res.threshold == 0.5 * 2.5
    assert res.verdict == "non-degenerate"
    assert np.isclose(res.det, 6.0)


def test_spectrum_accepts_matrix_or_result():
    vf = rotation_fields()
    flow, _ = brownian_flow(vf, np.array([1.0, 0.0]), seed=79)
    mat = malliavin_matrix_2d(flow, vf, brownian_model(), 1.0)
    a = spectrum(mat)
    b = spectrum(mat.sigma)
    assert np.allclose(a.eigenvalues, b.eigenvalues)


def test_input_guards():
    vf = rotation_fields()
    grid = uniform_grid(1.0, 17)
    batch = sample_paths([brownian_model()] * 2, grid, 1, seed=80)
    X = lift_piecewise_linear(batch.path(0))
    bare = solve_rde(X, vf, np.zeros(2))
    with pytest.raises(ValueError):
        malliavin_matrix_2d(bare, vf, brownian_model(), 1.0)
    flow = solve_flow_jacobian(X, vf, np.zeros(2))
    with pytest.raises(ValueError):
        _component_models([brownian_model()], 2)
    other = cameron_martin_basis(brownian_model(), uniform_grid(1.0, 9))
    with pytest.raises(ValueError):
        malliavin_matrix_parseval(flow, vf, other, 1.0)
    with pytest.raises(ValueError):
        malliavin_matrix_2d(flow, vf, [brownian_model()] * 3, 1.0)


def test_integrand_values_terminal_point():
    # at s = t the transport is the identity, so Z is just V(Y_t)
    vf = rotation_fields()
    flow, grid = brownian_flow(vf, np.array([0.3, 0.3]), n=33, seed=81)
    it = grid.n - 1
    Z = _integrand_values(flow, vf, it)
    assert np.allclose(Z[it], vf.val(flow.Y[it]), atol=1e-10)


def test_integrand_values_match_per_point_loop(monkeypatch):
    # reference: the per-point loop that the stacked product replaced; the
    # values and both routes built on them must agree with it bit for bit
    def per_point(flow, vf, it):
        out = np.zeros((it + 1, vf.d, vf.e))
        for m in range(it + 1):
            out[m] = (flow.J[it] @ flow.J_inv[m] @ vf.val(flow.Y[m]).T).T
        return out

    rng = np.random.default_rng(82)
    cubic = polynomial_fields(c0=rng.standard_normal((3, 3)) * 0.4,
                              c1=rng.standard_normal((3, 3, 3)) * 0.3,
                              c2=rng.standard_normal((3, 3, 3, 3)) * 0.1)
    cases = [(rotation_fields(), np.array([0.3, 0.3])),
             (cubic, np.array([0.1, -0.2, 0.3]))]
    for vf, y0 in cases:
        flow, grid = brownian_flow(vf, y0, n=33, seed=83)
        for it in (0, 11, grid.n - 1):
            assert np.array_equal(_integrand_values(flow, vf, it),
                                  per_point(flow, vf, it))
        stacked = [malliavin_matrix_2d(flow, vf, fbm_model(0.4), t).sigma
                   for t in (0.5, 1.0)]
        stacked.append(malliavin_matrix_bm_reduction(flow, vf, 1.0).sigma)
        with monkeypatch.context() as m:
            m.setattr(malliavin, "_integrand_values", per_point)
            looped = [malliavin_matrix_2d(flow, vf, fbm_model(0.4), t).sigma
                      for t in (0.5, 1.0)]
            looped.append(malliavin_matrix_bm_reduction(flow, vf, 1.0).sigma)
        for a, b in zip(stacked, looped):
            assert np.array_equal(a, b)


def test_routes_agree_with_per_component_models():
    # with different kernels per component, a basis embedded into the wrong
    # component changes the Parseval sum; the matching one agrees with 2D
    vf = rotation_fields()
    models = [brownian_model(), fbm_model(0.4)]
    grid = uniform_grid(1.0, 49)
    batch = sample_paths(models, grid, 1, seed=84)
    flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf,
                               np.array([0.8, -0.3]))
    bases = [cameron_martin_basis(m, grid) for m in models]
    for t in (1.0, grid.points[24]):
        direct = malliavin_matrix_2d(flow, vf, models, t)
        matched = malliavin_matrix_parseval(flow, vf, bases, t)
        swapped = malliavin_matrix_parseval(flow, vf, bases[::-1], t)
        assert rel_gap(matched.sigma, direct.sigma) < 1e-10
        assert rel_gap(swapped.sigma, direct.sigma) > 1e-3


def test_route_residual():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert route_residual(a, a) == 0.0
    assert np.isclose(route_residual(a, 2 * a), 0.5)
    assert route_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
