import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from gaussrde import (
    GridFunction1D,
    brownian_model,
    cameron_martin_basis,
    constant_fields,
    fbm_model,
    kernel_eval,
    lift_piecewise_linear,
    linear_fields,
    malliavin_matrix_2d,
    malliavin_matrix_bm_reduction,
    malliavin_matrix_parseval,
    polynomial_fields,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    spectrum,
    transport,
    uniform_grid,
    young_integral_2d,
)
import gaussrde.malliavin as malliavin
from gaussrde.malliavin import _integrand_values, _per_component, route_residual
from gaussrde.rde import log_operator_norm
from gaussrde.young import GridFunction2D, TimeGrid


def brownian_flow(vf, y0, n=65, seed=70, d=None):
    d = vf.d if d is None else d
    grid = uniform_grid(1.0, n)
    batch = sample_paths([brownian_model()] * d, grid, 1, seed)
    X = lift_piecewise_linear(batch.path(0))
    return solve_flow_jacobian(X, vf, y0), grid


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def transports(flow, it):
    """J_{t<-s_m} for m = 0..it of one flow, t the time of index it, one
    matrix at a time: P_it = I and P_m = P_{m+1} + P_{m+1} M_m."""
    P = np.zeros((it + 1,) + flow.M.shape[-2:])
    P[it] = np.eye(flow.M.shape[-1])
    for m in range(it - 1, -1, -1):
        P[m] = P[m + 1] + P[m + 1] @ flow.M[m]
    return P


def forward_jacobians(flow):
    """J_t at every grid time of one flow by the forward recurrence
    J_{k+1} = J_k + M_k J_k that `transport` replaced."""
    J = np.zeros((flow.grid.n,) + flow.M.shape[-2:])
    J[0] = np.eye(flow.M.shape[-1])
    for k in range(flow.grid.n - 1):
        J[k + 1] = J[k] + flow.M[k] @ J[k]
    return J


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
            mat = malliavin_matrix_2d(flow, vf, kernel_eval(model, grid), t)
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
        kernel = kernel_eval(model, grid)
        basis = cameron_martin_basis(kernel)
        for t in (1.0, grid.points[24]):
            direct = malliavin_matrix_2d(flow, vf, kernel, t)
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
        direct = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), grid),
                                     1.0)
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
    mat = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), grid), 1.0)
    assert np.allclose(mat.sigma, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-12)
    res = spectrum(mat, scale=mat.trace / mat.e)
    assert res.det <= 1e-12
    assert res.verdict == "degenerate"


def test_covariance_psd_and_symmetric():
    rng = np.random.default_rng(75)
    vf = polynomial_fields(
        c0=rng.standard_normal((2, 2)) * 0.4,
        c1=rng.standard_normal((2, 2, 2)) * 0.3,
        c2=rng.standard_normal((2, 2, 2, 2)) * 0.2,
    )
    for seed in range(76, 79):
        flow, grid = brownian_flow(vf, np.array([0.1, -0.2]), seed=seed)
        mat = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), grid),
                                  1.0)
        assert np.array_equal(mat.sigma, mat.sigma.T)
        assert mat.asymmetry < 1e-10
        assert np.linalg.eigvalsh(mat.sigma)[0] >= -1e-10 * max(mat.trace, 1.0)


def test_spectrum_verdicts_and_scale():
    assert spectrum(np.eye(2), scale=1.0).verdict == "non-degenerate"
    assert spectrum(np.zeros((2, 2)), scale=0.0).verdict == "degenerate"
    assert spectrum(np.diag([1.0, 0.0]), scale=0.5).verdict == "degenerate"
    # a 1x1 matrix judged against its own trace cannot be flagged; a shared
    # external scale restores the comparison the verdict is meant to make
    tiny = np.array([[1e-18]])
    assert spectrum(tiny, scale=1e-18).verdict == "non-degenerate"
    assert spectrum(tiny, scale=1.0).verdict == "degenerate"
    res = spectrum(np.diag([2.0, 3.0]), scale=2.5, tau=0.5)
    assert res.threshold == 0.5 * 2.5
    assert res.verdict == "non-degenerate"
    assert np.isclose(res.det, 6.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_of_a_matrix_that_is_not_finite_is_an_error():
    # no eigenvalue or determinant is a verdict on NaN or inf entries, so
    # the sample aborts (FloatingPointError is one of NUMERICAL_ERRORS)
    with pytest.raises(FloatingPointError, match="not finite"):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, np.inf])])
    with pytest.raises(FloatingPointError, match="not finite"):
        spectrum(stack, np.ones(3))
    assert spectrum(stack[:2], np.ones(2)).verdict.tolist() == ["non-degenerate"] * 2


def test_spectrum_accepts_matrix_or_result():
    vf = rotation_fields()
    flow, grid = brownian_flow(vf, np.array([1.0, 0.0]), seed=79)
    mat = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), grid), 1.0)
    a = spectrum(mat, scale=1.0)
    b = spectrum(mat.sigma, scale=1.0)
    assert np.allclose(a.eigenvalues, b.eigenvalues)


def test_input_guards():
    vf = rotation_fields()
    grid = uniform_grid(1.0, 17)
    batch = sample_paths([brownian_model()] * 2, grid, 1, seed=80)
    X = lift_piecewise_linear(batch.path(0))
    kernel = kernel_eval(brownian_model(), grid)
    flow = solve_flow_jacobian(X, vf, np.zeros(2))
    with pytest.raises(ValueError, match="need 2 component"):
        _per_component([kernel], GridFunction2D, 2)
    coarse = uniform_grid(1.0, 9)
    other = cameron_martin_basis(kernel_eval(brownian_model(), coarse))
    with pytest.raises(ValueError, match="grid does not match"):
        malliavin_matrix_parseval(flow, vf, other, 1.0)
    with pytest.raises(ValueError, match="need 2 component"):
        malliavin_matrix_2d(flow, vf, [kernel] * 3, 1.0)
    # a kernel sampled on another grid is rejected, shared or per component
    shifted = uniform_grid(2.0, 17)
    for wrong in (kernel_eval(brownian_model(), coarse),
                  kernel_eval(brownian_model(), shifted)):
        with pytest.raises(ValueError, match="grid does not match"):
            malliavin_matrix_2d(flow, vf, wrong, 1.0)
        with pytest.raises(ValueError, match="grid does not match"):
            malliavin_matrix_2d(flow, vf, [kernel, wrong], 1.0)
    # a 1-D direction is one component, and the driver has two
    with pytest.raises(ValueError, match="direction has 1 components, driver has 2"):
        malliavin.directional_derivative(flow, vf, GridFunction1D(grid, np.zeros(17)), 1.0)


def test_integrand_values_terminal_point():
    # at s = t the transport is the identity, so Z is just V(Y_t)
    vf = rotation_fields()
    flow, grid = brownian_flow(vf, np.array([0.3, 0.3]), n=33, seed=81)
    it = grid.n - 1
    Z = _integrand_values(flow, vf, it)
    assert np.allclose(Z[it], vf.val(flow.Y[it]), atol=1e-10)


def test_integrand_values_match_per_point_loop(monkeypatch):
    # reference: a per-point loop over the transports formed one matrix at
    # a time; the values and every pairing built on them must agree with it
    # bit for bit
    def per_point(flow, vf, it):
        out = np.zeros((it + 1, vf.d, vf.e))
        P = transports(flow, it)
        for m in range(it + 1):
            out[m] = (P[m] @ vf.val(flow.Y[m]).T).T
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
        kernel = kernel_eval(fbm_model(0.4), grid)
        basis = cameron_martin_basis(kernel)
        h = GridFunction1D(grid, basis.functions[:, None, :].repeat(vf.d, axis=1))

        def routes():
            out = [malliavin_matrix_2d(flow, vf, kernel, t).sigma
                   for t in (0.5, 1.0)]
            return out + [malliavin_matrix_bm_reduction(flow, vf, 1.0).sigma,
                          malliavin_matrix_parseval(flow, vf, basis, 1.0).sigma,
                          malliavin.directional_derivative(flow, vf, h, 0.5)]

        stacked = routes()
        with monkeypatch.context() as m:
            m.setattr(malliavin, "_integrand_values", per_point)
            looped = routes()
        for a, b in zip(stacked, looped):
            assert np.array_equal(a, b)


def test_derivative_of_an_ill_conditioned_flow_is_the_exact_step_product():
    # A_1 = 3 [[1, 6], [0, -1]], A_2 = 3 [[0, 1], [-1, 0]] on Brownian drivers
    # drive cond(J) past 1e10, where J_t J_s^{-1} loses digits to the inverse
    # (about 3e-5 relative here).  The backward sweep matches the exact
    # rational product of the flow's own float64 step maps to 1e-12 of each
    # matrix's largest entry.
    vf = linear_fields(3.0 * np.array([[[1.0, 6.0], [0.0, -1.0]],
                                       [[0.0, 1.0], [-1.0, 0.0]]]))
    grid = uniform_grid(1.0, 65)
    batch = sample_paths([brownian_model()] * 2, grid, 8, seed=5)
    flows = solve_flow_jacobian(lift_piecewise_linear(batch), vf, np.array([1.0, 0.5]))
    it = grid.n - 1
    assert np.linalg.cond(transport(flows, it)[:, 0]).max() > 1e10
    Z = _integrand_values(flows, vf, it)

    def exact(a):
        return np.array([[Fraction(x) for x in row] for row in a], dtype=object)

    for k in range(8):
        P = exact(np.eye(2))
        for m in range(it, -1, -1):
            if m < it:
                P = P + P.dot(exact(flows.M[k, m]))
            ref = exact(flows.V[k, m]).dot(P.T).astype(float)
            assert np.abs(Z[k, m] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_routes_agree_with_per_component_models():
    # with different kernels per component, a basis embedded into the wrong
    # component changes the Parseval sum; the matching one agrees with 2D
    vf = rotation_fields()
    models = [brownian_model(), fbm_model(0.4)]
    grid = uniform_grid(1.0, 49)
    batch = sample_paths(models, grid, 1, seed=84)
    flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)), vf,
                               np.array([0.8, -0.3]))
    kernels = [kernel_eval(m, grid) for m in models]
    bases = [cameron_martin_basis(k) for k in kernels]
    for t in (1.0, grid.points[24]):
        direct = malliavin_matrix_2d(flow, vf, kernels, t)
        matched = malliavin_matrix_parseval(flow, vf, bases, t)
        swapped = malliavin_matrix_parseval(flow, vf, bases[::-1], t)
        assert rel_gap(matched.sigma, direct.sigma) < 1e-10
        assert rel_gap(swapped.sigma, direct.sigma) > 1e-3


def transported_stack(flow, vf, it):
    """The integrand J_{t<-s} V(Y_s) for s < t laid out as the solver module
    laid it out for its directional derivative: (..., e, it * d), column
    (s, i), in C order."""
    Z = _integrand_values(flow, vf, it)[..., :it, :, :]
    Z = np.ascontiguousarray(Z.swapaxes(-2, -1)).swapaxes(-3, -2)
    return Z.reshape(Z.shape[:-2] + (it * vf.d,))


def inline_directional_derivative(flow, vf, hv, t):
    # reference: the inline formula of the directional derivative before it
    # paired the one derivative of `_integrand_values`
    it = flow.grid.index_of(t)
    hv = hv[:, None] if hv.ndim == 1 else hv
    dh = np.diff(hv[:it + 1], axis=0)
    return transported_stack(flow, vf, it) @ dh.reshape((it * vf.d,) + dh.shape[2:])


def padded_parseval(flow, vf, bases, t):
    # reference: the Parseval route before it took the derivative once, one
    # directional derivative per component along an (n, d, size) stack of
    # directions that is zero outside that component
    it = flow.grid.index_of(t)
    raw = 0.0
    for k, bk in enumerate(bases):
        h = np.zeros((flow.grid.n, vf.d, bk.size))
        h[:, k] = bk.functions
        D = inline_directional_derivative(flow, vf, h, t)
        raw = raw + D @ D.swapaxes(-2, -1)
    return 0.5 * (raw + raw.swapaxes(-2, -1))


def one_derivative_cases():
    grid = uniform_grid(1.0, 33)
    drift = linear_fields(np.array([[[0.6]]]), drift=(np.array([[0.5]]), np.array([0.1])))
    rng = np.random.default_rng(89)
    cubic = polynomial_fields(c0=rng.standard_normal((2, 3)) * 0.4,
                              c1=rng.standard_normal((2, 3, 3)) * 0.3,
                              c2=rng.standard_normal((2, 3, 3, 3)) * 0.1)
    cases = [(drift, [brownian_model()], np.array([1.0])),
             (rotation_fields(), [fbm_model(0.4)] * 2, np.array([0.8, -0.3])),
             (rotation_fields(), [brownian_model(), fbm_model(0.4)],
              np.array([0.8, -0.3])),
             (cubic, [fbm_model(0.7), brownian_model()], np.array([0.1, -0.2, 0.3]))]
    for vf, models, y0 in cases:
        batch = sample_paths(models, grid, 6, seed=90)
        flows = solve_flow_jacobian(lift_piecewise_linear(batch), vf, y0)
        yield vf, models, flows, grid


def test_parseval_route_matches_zero_padded_directions():
    # one derivative paired per component gives the padded pairing's sigma
    # bit for bit, for one flow and for a stack
    for vf, models, flows, grid in one_derivative_cases():
        bases = [cameron_martin_basis(kernel_eval(m, grid)) for m in models]
        for t in (grid.points[13], 1.0):
            for flow in (flows, flows.sample(2)):
                got = malliavin_matrix_parseval(flow, vf, bases, t).sigma
                assert np.array_equal(got, padded_parseval(flow, vf, bases, t))


def test_directional_derivative_matches_inline_formula():
    rng = np.random.default_rng(91)
    for vf, _, flows, grid in one_derivative_cases():
        stack = rng.standard_normal((grid.n, vf.d, 4)).cumsum(axis=0)
        directions = [stack, stack[:, :, 0]] + ([stack[:, 0, 0]] if vf.d == 1 else [])
        for hv in directions:
            h = GridFunction1D(grid, hv)
            for t in (0.0, grid.points[13], 1.0):
                for flow in (flows, flows.sample(3)):
                    got = malliavin.directional_derivative(flow, vf, h, t)
                    assert np.array_equal(
                        got, inline_directional_derivative(flow, vf, hv, t))


def test_route_residual():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert route_residual(a, a) == 0.0
    assert np.isclose(route_residual(a, 2 * a), 0.5)
    assert route_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_2d_route_matches_subgrid_young_integral():
    # reference: the path the per-run kernel sample replaced, with the fields
    # evaluated again at the states and the kernel sampled on the sub-grid up
    # to t; paired in the same order, the new sigma must equal it bit for
    # bit, and the einsum pairing of young_integral_2d to 1e-12 relative
    def subgrid_sigma(flow, vf, model, t):
        it = flow.grid.index_of(t)
        sub = TimeGrid(flow.grid.points[:it + 1])
        V = np.array([vf.val(y) for y in flow.Y[:it + 1]])
        Z = transports(flow, it) @ V.transpose(0, 2, 1)
        Z = np.ascontiguousarray(Z.transpose(0, 2, 1))
        sub_kernel = kernel_eval(model, sub)
        raw, young = 0.0, np.zeros((vf.e, vf.e))
        for k in range(vf.d):
            Zk = Z[:-1, k, :]
            raw = raw + Zk.T @ (sub_kernel.rectangle_increments() @ Zk)
            young += young_integral_2d(GridFunction1D(sub, Z[:, k, :]),
                                       GridFunction1D(sub, Z[:, k, :]), sub_kernel)
        return (malliavin._finish(raw, t, "2d-young", 0.0).sigma,
                malliavin._finish(young, t, "2d-young", 0.0).sigma)

    rng = np.random.default_rng(86)
    models = (brownian_model(), fbm_model(0.4), fbm_model(0.7))
    cases = 0
    for d in (1, 2, 3):
        for e in (1, 2, 3):
            vf = polynomial_fields(c0=rng.standard_normal((d, e)) * 0.5,
                                   c1=rng.standard_normal((d, e, e)) * 0.3,
                                   c2=rng.standard_normal((d, e, e, e)) * 0.1)
            y0 = rng.standard_normal(e) * 0.3
            for n in (17, 65):
                grid = uniform_grid(1.0, n)
                for model in models:
                    kernel = kernel_eval(model, grid)
                    batch = sample_paths([model] * d, grid, 1,
                                         seed=int(rng.integers(1 << 30)))
                    flow = solve_flow_jacobian(
                        lift_piecewise_linear(batch.path(0)), vf, y0)
                    for t in (grid.points[n // 2 - 3], 1.0):
                        got = malliavin_matrix_2d(flow, vf, kernel, t).sigma
                        same_order, young = subgrid_sigma(flow, vf, model, t)
                        assert np.array_equal(got, same_order)
                        assert rel_gap(got, young) < 1e-12
                        cases += 1
    assert cases == 108


def test_routes_read_field_values_from_flow():
    # after the solve, no route evaluates the fields again
    vf = rotation_fields()
    flow, grid = brownian_flow(vf, np.array([0.3, 0.3]), n=17, seed=87)

    def unavailable(y):
        raise AssertionError("fields evaluated after the solve")

    blind = dataclasses.replace(vf, value=unavailable, affine=None)
    kernel = kernel_eval(brownian_model(), grid)
    basis = cameron_martin_basis(kernel)
    for t in (0.5, 1.0):
        direct = malliavin_matrix_2d(flow, blind, kernel, t)
        parseval = malliavin_matrix_parseval(flow, blind, basis, t)
        malliavin_matrix_bm_reduction(flow, blind, t)
        assert rel_gap(parseval.sigma, direct.sigma) < 1e-10


def per_sample_reference(flow, vf, kernel, basis, t):
    """The per-sample formulas the stacked routes replaced, for one path:
    the einsum pairing of the 2D route, the Parseval sum over each
    component's basis with its own einsum, and per-matrix eigvalsh, det and
    SVD norm, with the transport J_t J_s^{-1} of the forward recurrence (the
    flows are well conditioned).  Returns sigma by both routes, eigenvalues,
    det, log |J_t|."""
    it = flow.grid.index_of(t)
    J = forward_jacobians(flow)
    Z = J[it] @ np.linalg.inv(J[:it + 1]) @ flow.V[:it + 1].transpose(0, 2, 1)
    Z = Z.transpose(0, 2, 1)
    box = kernel.rectangle_increments()[:it, :it]
    dh = np.diff(basis.functions[:it + 1], axis=0)
    direct = np.zeros((vf.e, vf.e))
    parseval = np.zeros((vf.e, vf.e))
    for k in range(vf.d):
        direct += np.einsum("ia,ij,jb->ab", Z[:-1, k], box, Z[:-1, k])
        D = np.einsum("ma,mn->an", Z[:-1, k], dh)
        parseval += D @ D.T
    direct = 0.5 * (direct + direct.T)
    return (direct, 0.5 * (parseval + parseval.T), np.linalg.eigvalsh(direct),
            np.linalg.det(direct), np.log(np.linalg.norm(J[it], ord=2)))


def stacked_case(name, count, seed=88):
    rng = np.random.default_rng(seed)
    if name == "rotation-fbm":
        vf, model, y0 = rotation_fields(), fbm_model(0.4), np.array([0.8, -0.3])
    elif name == "linear-drift":
        vf = linear_fields(np.stack([np.diag([0.4, 0.1]), 0.3 * np.eye(2)]),
                           drift=(np.diag([-0.2, 0.1]), np.array([0.1, 0.0])))
        model, y0 = brownian_model(), np.array([0.7, -0.4])
    else:
        poly = polynomial_fields(c0=rng.standard_normal((2, 2)) * 0.5,
                                 c1=rng.standard_normal((2, 2, 2)) * 0.3,
                                 c2=rng.standard_normal((2, 2, 2, 2)) * 0.1)
        vf = dataclasses.replace(poly, jacobian=None, hessian=None)
        assert vf.derivative_mode == "finite-difference"
        model, y0 = brownian_model(), np.array([0.1, -0.2])
    grid = uniform_grid(1.0, 33)
    batch = sample_paths([model] * vf.d, grid, count, seed)
    flows = solve_flow_jacobian(lift_piecewise_linear(batch), vf, y0)
    kernel = kernel_eval(model, grid)
    return flows, vf, kernel, cameron_martin_basis(kernel)


@pytest.mark.parametrize("name", ["rotation-fbm", "linear-drift", "finite-difference"])
def test_stacked_routes_match_per_sample_formulas(name):
    flows, vf, kernel, basis = stacked_case(name, 7)
    for t in (flows.grid.points[13], 1.0):
        direct = malliavin_matrix_2d(flows, vf, kernel, t)
        parseval = malliavin_matrix_parseval(flows, vf, basis, t)
        spec = spectrum(direct, scale=direct.trace / vf.e)
        log_norm = log_operator_norm(transport(flows, flows.grid.index_of(t))[:, 0])
        assert direct.sigma.shape == (7, 2, 2) and spec.verdict.shape == (7,)
        for k in range(7):
            sigma, other, lam, det, ln = per_sample_reference(
                flows.sample(k), vf, kernel, basis, t)
            scale = np.linalg.norm(sigma)
            assert np.linalg.norm(direct.sigma[k] - sigma) <= 1e-12 * scale
            assert np.linalg.norm(parseval.sigma[k] - other) <= 1e-12 * scale
            assert abs(spec.lambda_min[k] - lam[0]) <= 1e-12 * scale
            assert np.abs(spec.eigenvalues[k] - lam).max() <= 1e-12 * scale
            assert abs(spec.det[k] - det) <= 1e-12 * scale ** 2
            assert abs(log_norm[k] - ln) <= 1e-12 * max(1.0, abs(ln))


@pytest.mark.parametrize("name", ["rotation-fbm", "linear-drift", "finite-difference"])
def test_stacked_routes_do_not_depend_on_the_stack(name):
    # each path's matrices, spectrum, residual and log-norm are the same bit
    # for bit in a stack of 1, 7 or 33 paths, and as a single flow
    flows, vf, kernel, basis = stacked_case(name, 33)

    def tail(f, t):
        direct = malliavin_matrix_2d(f, vf, kernel, t)
        parseval = malliavin_matrix_parseval(f, vf, basis, t)
        spec = spectrum(direct, scale=direct.trace)
        it = f.grid.index_of(t)
        return (direct.sigma, direct.magnitude, parseval.sigma, parseval.magnitude,
                spec.eigenvalues, spec.det, spec.verdict,
                route_residual(direct.sigma, parseval.sigma,
                               np.maximum(direct.magnitude, parseval.magnitude)),
                log_operator_norm(transport(f, it)[..., 0, :, :]))

    for t in (flows.grid.points[13], 1.0):
        full = tail(flows, t)
        for size in (1, 7):
            part = tail(flows.sample(list(range(size))), t)
            for a, b in zip(part, full):
                assert np.array_equal(a, b[:size])
        one = tail(flows.sample(5), t)
        for a, b in zip(one, full):
            assert np.array_equal(a, b[5])


@pytest.mark.parametrize("name", ["rotation-fbm", "linear-drift", "finite-difference"])
def test_the_covariance_tail_matches_the_routes_called_alone(name):
    """`evaluate_flows` forms one transport and one derivative per call and
    hands it to both routes and to log |J_t|: sigma, magnitude, spectrum,
    residual and log-norm are those of the routes on the flow, bit for bit,
    and the row names its values in CSV order."""
    from gaussrde.experiments import evaluate_flows

    flows, vf, kernel, basis = stacked_case(name, 9)
    for it in (13, flows.grid.n - 1):
        t = flows.grid.points[it]
        mat, spec, row = evaluate_flows(flows, vf, kernel, basis, it, 1e-10)
        direct = malliavin_matrix_2d(flows, vf, kernel, t)
        alone = spectrum(direct, tau=1e-10, scale=direct.magnitude / vf.e)
        parseval = malliavin_matrix_parseval(flows, vf, basis, t)
        assert np.array_equal(mat.sigma, direct.sigma)
        assert np.array_equal(mat.magnitude, direct.magnitude)
        for field in ("eigenvalues", "lambda_min", "det", "verdict", "threshold"):
            assert np.array_equal(getattr(spec, field), getattr(alone, field))
        for field in ("lambda_min", "det", "verdict"):
            assert np.array_equal(row[field], getattr(alone, field))
        assert np.array_equal(row["residual"], route_residual(
            direct.sigma, parseval.sigma, np.maximum(direct.magnitude, parseval.magnitude)))
        assert np.array_equal(row["log_norm_J"],
                              log_operator_norm(transport(flows, it)[..., 0, :, :]))
        assert list(row) == [f"y_{a + 1}" for a in range(vf.e)] + [
            "lambda_min", "det", "verdict", "pvar_driver", "log_norm_J", "residual"]
        for a in range(vf.e):
            assert np.array_equal(row[f"y_{a + 1}"], flows.Y[:, it, a])


def test_route_residual_per_matrix_with_a_floor():
    # (K, e, e): one value per matrix; a floor above both norms replaces them
    a = np.array([[[1.0]], [[1e-17]], [[4.0]]])
    b = np.array([[[1.0]], [[-1e-17]], [[3.0]]])
    assert np.array_equal(route_residual(a, b), [0.0, 2.0, 0.25])
    assert np.allclose(route_residual(a, b, np.array([0.0, 1.0, 2.0])),
                       [0.0, 2e-17, 0.25], rtol=1e-12, atol=0)
    assert route_residual(a[1], b[1], 1e-15) == 2e-17 / 1e-15


@pytest.mark.parametrize("name", ["rotation-fbm", "linear-drift", "finite-difference"])
def test_magnitude_bounds_the_summed_terms(name):
    # the 2D route's magnitude is at least the norm of |Z|^T |box| |Z|, whose
    # ulps bound the pairing's rounding; the Parseval route's is its trace
    flows, vf, kernel, basis = stacked_case(name, 5)
    for t in (flows.grid.points[13], 1.0):
        it = flows.grid.index_of(t)
        direct = malliavin_matrix_2d(flows, vf, kernel, t)
        parseval = malliavin_matrix_parseval(flows, vf, basis, t)
        absZ = np.abs(_integrand_values(flows, vf, it)[:, :-1])
        box = np.abs(kernel.rectangle_increments()[:it, :it])
        terms = sum(absZ[:, :, k].swapaxes(-2, -1) @ box @ absZ[:, :, k]
                    for k in range(vf.d))
        assert np.all(direct.magnitude >= np.linalg.norm(terms, axis=(-2, -1)))
        assert np.all(direct.magnitude >= np.linalg.norm(direct.sigma, axis=(-2, -1)))
        assert np.array_equal(parseval.magnitude,
                              np.trace(parseval.sigma, axis1=-2, axis2=-1))


def test_magnitude_is_the_trace_for_a_brownian_driver_on_any_grid():
    # the min-kernel's box is diagonal with the cell lengths, so on a uniform
    # grid the 2D bound equals the trace and tau is one relative threshold
    vf = linear_fields(np.array([[[0.7]]]))
    for n in (17, 65, 257):
        flow, grid = brownian_flow(vf, np.array([1.0]), n=n, seed=n)
        mat = malliavin_matrix_2d(flow, vf, kernel_eval(brownian_model(), grid), 1.0)
        assert abs(mat.magnitude / mat.trace - 1.0) <= 1e-12
