import numpy as np
import pytest
from scipy.linalg import expm

from gaussrde import (
    ExplosionError,
    GridFunction1D,
    PathSample,
    RoughPath,
    VectorFieldSystem,
    brownian_model,
    constant_fields,
    directional_derivative,
    fbm_model,
    lift_piecewise_linear,
    linear_fields,
    log_jacobian_diagnostic,
    p_variation,
    polynomial_fields,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    solve_ode_reference,
    solve_rde,
    spacetime_lift,
    translate,
    uniform_grid,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def smooth_driver(n, horizon=1.0, amplitude=1.0):
    grid = uniform_grid(horizon, n)
    t = grid.points
    values = amplitude * np.column_stack([np.sin(2 * t), t * np.cos(t)])
    values -= values[0]
    return lift_piecewise_linear(GridFunction1D(grid, values)), grid


def scalar_ramp(n, total, horizon=1.0):
    grid = uniform_grid(horizon, n)
    values = total * grid.points / horizon
    return lift_piecewise_linear(GridFunction1D(grid, values)), grid


def brownian_driver(n, d, seed, horizon=1.0):
    grid = uniform_grid(horizon, n)
    batch = sample_paths([brownian_model()] * d, grid, 1, seed)
    return lift_piecewise_linear(batch.path(0)), grid


def test_zero_fields_freeze_state():
    X, grid = smooth_driver(17)
    vf = constant_fields(np.zeros((2, 3)))
    flow = solve_flow_jacobian(X, vf, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(flow.Y, flow.Y[0], atol=1e-15)
    assert np.allclose(flow.J, np.eye(3), atol=1e-15)


def test_zero_driver_freezes_state():
    grid = uniform_grid(1.0, 9)
    X = lift_piecewise_linear(GridFunction1D(grid, np.zeros((9, 2))))
    vf = rotation_fields()
    flow = solve_rde(X, vf, np.array([1.0, 0.0]))
    assert np.allclose(flow.Y, flow.Y[0], atol=1e-15)


def test_single_step_taylor_expansion():
    """One grid segment with the canonical lift reproduces the second-order
    Taylor factor 1 + A a + A^2 a^2 / 2 exactly, fixing the level-2 pairing."""
    a, A, y0 = 0.37, 0.8, 1.5
    X, _ = scalar_ramp(2, a)
    vf = linear_fields(np.array([[[A]]]))
    flow = solve_flow_jacobian(X, vf, np.array([y0]))
    factor = 1.0 + A * a + 0.5 * (A * a) ** 2
    assert np.isclose(flow.Y[1, 0], y0 * factor, rtol=1e-14)
    assert np.isclose(flow.J[1, 0, 0], factor, rtol=1e-14)


def test_scalar_linear_convergence():
    A, y0, total = 0.8, 1.3, 0.9
    exact = y0 * np.exp(A * total)
    errors = []
    for n in (33, 65, 129, 257):
        grid = uniform_grid(1.0, n)
        values = total * np.sin(0.5 * np.pi * grid.points)  # smooth, ends at total
        X = lift_piecewise_linear(GridFunction1D(grid, values))
        flow = solve_rde(X, linear_fields(np.array([[[A]]])), np.array([y0]))
        errors.append(abs(flow.final_state[0] - exact))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 1e-5


def test_pure_drift_exponential():
    lam = 0.7
    grid = uniform_grid(1.0, 129)
    X = lift_piecewise_linear(GridFunction1D(grid, np.zeros((129, 1))))
    vf = linear_fields(np.zeros((1, 2, 2)),
                       drift=(lam * np.eye(2), np.zeros(2)))
    y0 = np.array([1.0, -2.0])
    flow = solve_flow_jacobian(X, vf, y0)
    assert np.allclose(flow.final_state, np.exp(lam) * y0, rtol=1e-5)
    assert np.allclose(flow.J[-1], np.exp(lam) * np.eye(2), rtol=1e-5)


def test_rotation_against_matrix_exponential():
    """Linear rotation driven by a ramp: state and Jacobian converge to the
    matrix exponential at the driver's total displacement."""
    angle = 0.5 * np.pi
    y0 = np.array([1.0, 0.0])
    vf = linear_fields(ROT[None, :, :])
    X, _ = scalar_ramp(513, angle)
    flow = solve_flow_jacobian(X, vf, y0)
    target = expm(ROT * angle)
    assert np.allclose(flow.final_state, target @ y0, atol=1e-4)
    assert np.allclose(flow.final_state, np.array([0.0, 1.0]), atol=1e-4)
    assert np.allclose(flow.J[-1], target, atol=1e-4)


def test_jacobian_inverse_and_transport_consistency():
    X, grid = brownian_driver(129, 2, seed=60)
    flow = solve_flow_jacobian(X, rotation_fields(), np.array([0.4, -0.3]))
    for i in range(0, grid.n, 16):
        res = flow.J[i] @ flow.J_inv[i] - np.eye(2)
        assert np.max(np.abs(res)) < 1e-8
    # two-leg transport composes into the direct one
    t0, t1, t2 = 10, 60, 120
    direct = flow.transport(t0, t2)
    legs = flow.transport(t1, t2) @ flow.transport(t0, t1)
    assert np.allclose(direct, legs, atol=1e-8)


def test_jacobian_is_derivative_of_discrete_flow():
    # J is the exact linearization of the implemented one-step map, so it
    # must match centered differences of the discrete flow itself
    rng = np.random.default_rng(61)
    vf = polynomial_fields(
        c0=rng.standard_normal((2, 2)) * 0.3,
        c1=rng.standard_normal((2, 2, 2)) * 0.4,
        c2=rng.standard_normal((2, 2, 2, 2)) * 0.2,
    )
    X, _ = brownian_driver(65, 2, seed=62)
    y0 = np.array([0.2, -0.1])
    flow = solve_flow_jacobian(X, vf, y0)
    eps = 1e-6
    fd = np.zeros((2, 2))
    for b in range(2):
        dy = np.zeros(2)
        dy[b] = eps
        plus = solve_rde(X, vf, y0 + dy).final_state
        minus = solve_rde(X, vf, y0 - dy).final_state
        fd[:, b] = (plus - minus) / (2 * eps)
    assert np.allclose(flow.J[-1], fd, atol=1e-6)


def test_flow_inverses_and_condition_match_per_step_values():
    """Inverses and the condition number, taken once on the stacked
    Jacobians, equal the values taken matrix by matrix."""
    X, grid = brownian_driver(65, 2, seed=61)
    y0 = np.array([0.4, -0.3])
    rng = np.random.default_rng(63)
    sheared = linear_fields(rng.standard_normal((2, 2, 2)),
                            drift=(rng.standard_normal((2, 2)), np.zeros(2)))
    for vf in (rotation_fields(), sheared):
        rough = solve_flow_jacobian(X, vf, y0)
        ode = solve_ode_reference(GridFunction1D(grid, X.level1), vf, y0)
        for flow in (rough, ode):
            np.testing.assert_array_equal(
                flow.J_inv, [np.linalg.inv(j) for j in flow.J])
            assert flow.max_condition == max(
                1.0, *(float(np.linalg.cond(j)) for j in flow.J))


def test_rde_matches_ode_oracle_on_smooth_path():
    X, grid = smooth_driver(257, amplitude=0.8)
    vf = rotation_fields()
    y0 = np.array([1.0, 0.5])
    rough = solve_flow_jacobian(X, vf, y0)
    path = GridFunction1D(grid, X.level1)
    ode = solve_ode_reference(path, vf, y0, substeps=8)
    assert np.allclose(rough.final_state, ode.final_state, atol=2e-4)
    assert np.allclose(rough.J[-1], ode.J[-1], atol=2e-4)


def test_drift_rides_along_with_the_fields():
    X, grid = smooth_driver(257, amplitude=0.5)
    A = np.stack([0.8 * ROT, 0.4 * np.eye(2)])
    drift = (np.array([[-0.3, 0.1], [0.0, -0.2]]), np.array([0.2, 0.0]))
    vf = linear_fields(A, drift=drift)
    y0 = np.array([0.7, -0.4])
    rough = solve_rde(X, vf, y0)
    ode = solve_ode_reference(GridFunction1D(grid, X.level1), vf, y0, substeps=8)
    assert np.allclose(rough.final_state, ode.final_state, atol=2e-4)


def test_directional_derivative_scalar_linear_is_exact():
    # for commuting scalar fields the transported integrand is constant in s,
    # so the left-point sum telescopes with no quadrature error at all
    A = 0.9
    X, grid = brownian_driver(65, 1, seed=63)
    flow = solve_flow_jacobian(X, linear_fields(np.array([[[A]]])), np.array([1.2]))
    h = GridFunction1D(grid, grid.points**2)
    for t in (grid.points[-1], grid.points[30]):
        it = grid.index_of(t)
        got = directional_derivative(flow, linear_fields(np.array([[[A]]])), h, t)
        expected = A * flow.Y[it, 0] * (h.values[it] - h.values[0])
        assert np.isclose(got[0], expected, rtol=1e-11)
    assert np.allclose(
        directional_derivative(flow, linear_fields(np.array([[[A]]])), h, 0.0), 0.0)


def test_directional_derivative_matches_per_step_sum():
    # reference: the per-step left-point sum that the stacked product replaced
    def per_step(flow, vf, hv, t):
        it = flow.grid.index_of(t)
        out = np.zeros(vf.e)
        dh = np.diff(hv[:it + 1], axis=0)
        for k in range(it):
            out += flow.J[it] @ flow.J_inv[k] @ vf.val(flow.Y[k]).T @ dh[k]
        return out

    grid = uniform_grid(1.0, 33)
    custom = VectorFieldSystem(
        e=2, d=1, value=lambda y: np.array([[np.sin(y[1]), 0.5 * np.cos(y[0])]]))
    cases = [
        (rotation_fields(), [fbm_model(0.4)] * 2),
        (linear_fields(np.stack([np.diag([0.4, 0.1]), 0.3 * np.eye(2)]),
                       drift=(np.diag([-0.2, 0.1]), np.array([0.1, 0.0]))),
         [brownian_model()] * 2),
        (custom, [brownian_model()]),
    ]
    rng = np.random.default_rng(66)
    for vf, models in cases:
        X = lift_piecewise_linear(sample_paths(models, grid, 1, seed=67).path(0))
        flow = solve_flow_jacobian(X, vf, np.array([0.7, -0.4]))
        stack = rng.standard_normal((grid.n, vf.d, 5)).cumsum(axis=0)
        stack -= stack[0]
        for t in (0.0, grid.points[13], 1.0):
            got = directional_derivative(flow, vf, GridFunction1D(grid, stack), t)
            assert got.shape == (vf.e, 5)
            for j in range(5):
                ref = per_step(flow, vf, stack[:, :, j], t)
                one = directional_derivative(
                    flow, vf, GridFunction1D(grid, stack[:, :, j]), t)
                assert one.shape == (vf.e,)
                assert np.allclose(one, ref, rtol=1e-12, atol=1e-14)
                assert np.allclose(got[:, j], one, rtol=1e-13, atol=1e-15)
                if vf.d == 1:
                    flat = directional_derivative(
                        flow, vf, GridFunction1D(grid, stack[:, 0, j]), t)
                    assert np.array_equal(flat, one)
            if t == 0.0:
                assert np.array_equal(got, np.zeros((vf.e, 5)))


def test_flow_field_values_match_field_evaluation():
    # reference: the per-state vf.val calls that the stored V replaced
    grid = uniform_grid(1.0, 33)
    rng = np.random.default_rng(68)
    custom = VectorFieldSystem(
        e=2, d=1, value=lambda y: np.array([[np.sin(y[1]), 0.5 * np.cos(y[0])]]))
    cubic = polynomial_fields(c0=rng.standard_normal((2, 3)) * 0.4,
                              c1=rng.standard_normal((2, 3, 3)) * 0.3,
                              c2=rng.standard_normal((2, 3, 3, 3)) * 0.1)
    cases = [
        (rotation_fields(), [fbm_model(0.4)] * 2, np.array([0.7, -0.4])),
        (linear_fields(np.stack([np.diag([0.4, 0.1]), 0.3 * np.eye(2)]),
                       drift=(np.diag([-0.2, 0.1]), np.array([0.1, 0.0]))),
         [brownian_model()] * 2, np.array([0.7, -0.4])),
        (custom, [brownian_model()], np.array([0.7, -0.4])),
        (cubic, [fbm_model(0.7)] * 2, np.array([0.1, -0.2, 0.3])),
    ]
    for vf, models, y0 in cases:
        path = sample_paths(models, grid, 1, seed=69).path(0)
        X = lift_piecewise_linear(path)
        for flow in (solve_rde(X, vf, y0), solve_flow_jacobian(X, vf, y0),
                     solve_ode_reference(path, vf, y0, substeps=2)):
            assert flow.V.shape == (grid.n, vf.d, vf.e)
            for m in range(grid.n):
                assert np.array_equal(flow.V[m], vf.val(flow.Y[m]))
    h = GridFunction1D(grid, np.zeros((grid.n, 2)))
    with pytest.raises(ValueError, match="another shape"):
        directional_derivative(flow, rotation_fields(), h, 1.0)


def test_directional_derivative_matches_translation_fd():
    # commuting diagonal system keeps the left-point quadrature bias tiny
    A = np.stack([np.diag([0.4, 0.4]), np.diag([0.3, -0.2])])
    vf = linear_fields(A)
    X, grid = brownian_driver(257, 2, seed=64)
    y0 = np.array([1.0, 1.0])
    flow = solve_flow_jacobian(X, vf, y0)
    hv = np.column_stack([np.sin(np.pi * grid.points), grid.points])
    h = GridFunction1D(grid, hv)
    got = directional_derivative(flow, vf, h, grid.horizon)
    eps = 1e-4
    up = solve_rde(translate(X, GridFunction1D(grid, eps * hv)), vf, y0)
    dn = solve_rde(translate(X, GridFunction1D(grid, -eps * hv)), vf, y0)
    fd = (up.final_state - dn.final_state) / (2 * eps)
    assert np.linalg.norm(got - fd) < 5e-3 * np.linalg.norm(fd)


def test_directional_derivative_gap_shrinks_with_mesh():
    # non-commuting fields leave an O(mesh) quadrature bias; refining the
    # same driver must shrink the gap against the translation difference
    vf = rotation_fields()
    y0 = np.array([0.6, -0.2])
    grid_fine = uniform_grid(1.0, 513)
    base = sample_paths([brownian_model()] * 2, grid_fine, 1, seed=65)
    eps = 1e-4
    gaps = []
    for stride in (16, 4, 1):
        idx = np.arange(0, 513, stride)
        grid = uniform_grid(1.0, idx.size)
        xv = base.values[0, idx, :]
        X = lift_piecewise_linear(GridFunction1D(grid, xv))
        hv = np.column_stack([np.sin(np.pi * grid.points), grid.points**2])
        h = GridFunction1D(grid, hv)
        flow = solve_flow_jacobian(X, vf, y0)
        got = directional_derivative(flow, vf, h, 1.0)
        up = solve_rde(translate(X, GridFunction1D(grid, eps * hv)), vf, y0)
        dn = solve_rde(translate(X, GridFunction1D(grid, -eps * hv)), vf, y0)
        fd = (up.final_state - dn.final_state) / (2 * eps)
        gaps.append(np.linalg.norm(got - fd) / np.linalg.norm(fd))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.02


def test_explosion_guard():
    X, _ = scalar_ramp(65, 40.0)
    vf = linear_fields(np.array([[[5.0]]]))
    with pytest.raises(ExplosionError) as exc:
        solve_rde(X, vf, np.array([1.0]))
    assert 0.0 < exc.value.time <= 1.0


def test_non_geometric_driver_rejected():
    grid = uniform_grid(1.0, 5)
    a = np.column_stack([grid.points, 2 * grid.points])
    b = np.zeros((5, 2, 2))  # violates the symmetry constraint
    X = RoughPath(grid, a, b)
    with pytest.raises(ValueError, match="geometric"):
        solve_rde(X, rotation_fields(), np.zeros(2))


def test_dimension_guards():
    X, _ = smooth_driver(9)  # 2-component driver
    with pytest.raises(ValueError):
        solve_rde(X, linear_fields(np.zeros((3, 2, 2))), np.zeros(2))
    with pytest.raises(ValueError):
        solve_rde(X, rotation_fields(), np.zeros(3))


def test_pvar_metadata():
    X, _ = brownian_driver(33, 2, seed=66)
    flow = solve_rde(X, rotation_fields(), np.zeros(2), pvar_index=2.3)
    assert flow.pvar is not None and flow.pvar > 0
    assert flow.pvar_index == 2.3
    from gaussrde import p_variation

    assert np.isclose(flow.pvar, p_variation(X, 2.3), rtol=1e-12)
    plain = solve_rde(X, rotation_fields(), np.zeros(2))
    assert plain.pvar is None


def test_log_jacobian_diagnostic():
    grid = uniform_grid(1.0, 9)
    X = lift_piecewise_linear(GridFunction1D(grid, np.zeros((9, 2))))
    flow = solve_flow_jacobian(X, rotation_fields(), np.array([1.0, 0.0]))
    diag = log_jacobian_diagnostic(flow, X, 2.5)
    assert np.isclose(diag["log_norm_J"], 0.0, atol=1e-12)
    assert diag["pvar_p"] == 0.0
    no_jac = solve_rde(X, rotation_fields(), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        log_jacobian_diagnostic(no_jac, X, 2.5)


def test_retraced_driver_returns_to_start():
    """Going out along a path and back along the same trace cancels: the
    terminal state must return to y0 up to the scheme's mesh error."""
    n = 513
    grid_half = uniform_grid(1.0, n)
    t = grid_half.points
    leg = 0.8 * np.column_stack([np.sin(1.3 * t), np.cos(0.7 * t) - 1.0])
    full = np.vstack([leg, leg[-2::-1]])
    grid = uniform_grid(2.0, 2 * n - 1)
    X = lift_piecewise_linear(GridFunction1D(grid, full))
    y0 = np.array([0.9, -0.4])
    flow = solve_rde(X, rotation_fields(), y0)
    assert np.linalg.norm(flow.final_state - y0) < 1e-6


def test_ode_oracle_input_handling():
    grid = uniform_grid(1.0, 17)
    batch = sample_paths([brownian_model()], grid, 2, seed=67)
    vf = linear_fields(np.array([[[0.5]]]))
    with pytest.raises(ValueError):
        solve_ode_reference(batch, vf, np.array([1.0]))
    single = sample_paths([brownian_model()], grid, 1, seed=67)
    out = solve_ode_reference(single, vf, np.array([1.0]), substeps=2)
    assert out.Y.shape == (17, 1)
    with pytest.raises(ValueError):
        solve_ode_reference(single, vf, np.array([1.0]), substeps=0)
    with pytest.raises(TypeError):
        solve_ode_reference(np.zeros(17), vf, np.array([1.0]))


def reference_solve(X, vf, y0):
    """The per-path step loop that the stacked solver replaced, kept as the
    reference: Y, V, J, J_inv and max_condition of one path."""
    if vf.has_drift:
        augmented = VectorFieldSystem(
            e=vf.e, d=vf.d + 1,
            value=lambda y: np.vstack([vf.drift_val(y)[None, :], vf.val(y)]),
            jacobian=lambda y: np.concatenate([vf.drift_jac(y)[None], vf.jac(y)]),
            hessian=lambda y: np.concatenate([vf.drift_hess(y)[None], vf.hess(y)]))
        Y, V, J, J_inv, cond = reference_solve(spacetime_lift(X), augmented, y0)
        return Y, V[:, 1:], J, J_inv, cond
    da, db = X.segment_increments()
    n, e = X.grid.n, vf.e
    Y, V, J = np.zeros((n, e)), np.zeros((n, vf.d, e)), np.zeros((n, e, e))
    Y[0], J[0] = y0, np.eye(e)
    y, jac = y0.copy(), np.eye(e)
    for k in range(n - 1):
        a, b = da[k], db[k]
        V[k] = Vk = vf.val(y)
        Vp, Vpp = vf.jac(y), vf.hess(y)
        step = a @ Vk + np.einsum("ji,iab,jb->a", b, Vp, Vk)
        M = (np.einsum("i,iab->ab", a, Vp)
             + np.einsum("ji,iagb,jg->ab", b, Vpp, Vk)
             + np.einsum("ji,iag,jgb->ab", b, Vp, Vp))
        jac = jac + M @ jac
        y = y + step
        Y[k + 1], J[k + 1] = y, jac
    V[-1] = vf.val(y)
    return Y, V, J, np.linalg.inv(J), max(1.0, float(np.linalg.cond(J).max()))


def assert_relatively_close(got, ref, rel=1e-12):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def stacked_solver_cases():
    rng = np.random.default_rng(70)
    cases = [
        (linear_fields(np.array([[[1.0]]]), drift=(np.array([[0.5]]), np.zeros(1))),
         [brownian_model()], np.array([1.0])),
        (linear_fields(rng.standard_normal((2, 2, 2)) * 0.5,
                       rng.standard_normal((2, 2)) * 0.3,
                       drift=(rng.standard_normal((2, 2)) * 0.3, np.array([0.1, 0.0]))),
         [brownian_model()] * 2, np.array([0.7, -0.4])),
        (rotation_fields(), [fbm_model(0.4)] * 2, np.array([1.0, 0.0])),
        # finite-difference derivatives, evaluated one state at a time
        (VectorFieldSystem(e=2, d=1, value=lambda y: np.array(
            [[np.sin(y[1]), 0.5 * np.cos(y[0])]])), [brownian_model()],
         np.array([0.7, -0.4])),
    ]
    # moderate coefficients and Brownian drivers keep cond(J) below 1e3: in
    # an ill-conditioned flow a change of summation order alone moves J_inv
    # by far more than 1e-12
    for d, e in ((1, 1), (2, 3), (3, 2), (3, 3)):
        vf = polynomial_fields(c0=rng.standard_normal((d, e)) * 0.5,
                               c1=rng.standard_normal((d, e, e)) * 0.2,
                               c2=rng.standard_normal((d, e, e, e)) * 0.1,
                               c3=rng.standard_normal((d, e, e, e, e)) * 0.05)
        cases.append((vf, [brownian_model()] * d, rng.standard_normal(e) * 0.5))
    return cases


def test_stacked_solver_matches_per_path_loop():
    grid = uniform_grid(1.0, 33)
    for vf, models, y0 in stacked_solver_cases():
        batch = sample_paths(models, grid, 5, seed=71)
        flows = solve_flow_jacobian(lift_piecewise_linear(batch), vf, y0,
                                    pvar_index=2.5)
        assert flows.Y.shape == (5, grid.n, vf.e) and flows.errors == (None,) * 5
        states = solve_rde(lift_piecewise_linear(batch), vf, y0)
        assert np.array_equal(states.Y, flows.Y) and states.J is None
        for k in range(5):
            X = lift_piecewise_linear(batch.path(k))
            Y, V, J, J_inv, cond = reference_solve(X, vf, y0)
            assert cond < 1e3
            for got, ref in ((flows.Y[k], Y), (flows.V[k], V), (flows.J[k], J),
                             (flows.J_inv[k], J_inv)):
                assert_relatively_close(got, ref)
            assert abs(flows.max_condition[k] - cond) <= 1e-12 * cond
            # one path is the K = 1 case of the same arithmetic
            one = solve_flow_jacobian(X, vf, y0, pvar_index=2.5)
            view = flows.sample(k)
            for name in ("Y", "V", "J", "J_inv"):
                assert np.array_equal(getattr(one, name), getattr(view, name))
            assert (one.pvar, one.max_condition) == (view.pvar, view.max_condition)
            assert one.pvar == p_variation(X, 2.5)


def rows_without(flows, k):
    keep = [i for i in range(len(flows.errors)) if i != k]
    return [getattr(flows, name)[keep] for name in ("Y", "V", "J", "J_inv", "pvar",
                                                    "max_condition")]


def test_stacked_solver_isolates_an_exploding_path():
    grid = uniform_grid(1.0, 65)
    vf = linear_fields(np.array([[[5.0]]]))
    values = sample_paths([brownian_model()], grid, 4, seed=72).values
    values[2, :, 0] = 40.0 * grid.points
    with pytest.raises(ExplosionError) as single:
        solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[2])),
                            vf, np.array([1.0]))
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values, 72)),
                                vf, np.array([1.0]), pvar_index=2.5)
    error = flows.errors[2]
    assert isinstance(error, ExplosionError)
    assert str(error) == str(single.value) and error.time == single.value.time
    assert [e is None for e in flows.errors] == [True, True, False, True]
    others = solve_flow_jacobian(
        lift_piecewise_linear(PathSample(grid, values[[0, 1, 3]], 72)),
        vf, np.array([1.0]), pvar_index=2.5)
    for got, ref in zip(rows_without(flows, 2), rows_without(others, -1)):
        assert np.array_equal(got, ref)


def test_stacked_solver_isolates_a_singular_jacobian():
    # V = 1, V' = 0, V'' = -2: a unit first increment (b = 1/2) sends J to 0
    vf = VectorFieldSystem(e=1, d=1, value=lambda y: np.ones((1, 1)),
                           jacobian=lambda y: np.zeros((1, 1, 1)),
                           hessian=lambda y: np.full((1, 1, 1, 1), -2.0))
    grid = uniform_grid(1.0, 17)
    values = sample_paths([brownian_model()], grid, 3, seed=73).values
    values[1, 1, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError) as single:
        solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                            vf, np.zeros(1))
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values, 73)),
                                vf, np.zeros(1), pvar_index=2.5)
    error = flows.errors[1]
    assert isinstance(error, np.linalg.LinAlgError) and str(error) == str(single.value)
    assert flows.errors[0] is None and flows.errors[2] is None
    others = solve_flow_jacobian(
        lift_piecewise_linear(PathSample(grid, values[[0, 2]], 73)), vf, np.zeros(1),
        pvar_index=2.5)
    for got, ref in zip(rows_without(flows, 1), rows_without(others, -1)):
        assert np.array_equal(got, ref)
