import numpy as np
import pytest
from scipy.linalg import expm

from gaussrde import (
    ExplosionError,
    GridFunction1D,
    PathSample,
    RoughPath,
    TimeGrid,
    VectorFieldSystem,
    brownian_model,
    constant_fields,
    directional_derivative,
    fbm_model,
    lift_piecewise_linear,
    linear_fields,
    p_variation,
    polynomial_fields,
    rotation_fields,
    sample_paths,
    solve_flow_jacobian,
    solve_ode_reference,
    translate,
    uniform_grid,
)
from gaussrde import nilpotent

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
    flow = solve_flow_jacobian(X, vf, np.array([1.0, 0.0]))
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
        flow = solve_flow_jacobian(X, linear_fields(np.array([[[A]]])), np.array([y0]))
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
    # the transport by step maps is J_t J_s^{-1}, and two legs compose into
    # the direct one
    X, grid = brownian_driver(129, 2, seed=60)
    flow = solve_flow_jacobian(X, rotation_fields(), np.array([0.4, -0.3]))

    def transport(s, t):
        P = np.eye(2)
        for k in range(s, t):
            P = P + flow.M[k] @ P
        return P

    t0, t1, t2 = 10, 60, 120
    direct = transport(t0, t2)
    assert np.allclose(direct, flow.J[t2] @ np.linalg.inv(flow.J[t0]), atol=1e-12)
    assert np.allclose(direct, transport(t1, t2) @ transport(t0, t1), atol=1e-12)


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
        plus = solve_flow_jacobian(X, vf, y0 + dy).final_state
        minus = solve_flow_jacobian(X, vf, y0 - dy).final_state
        fd[:, b] = (plus - minus) / (2 * eps)
    assert np.allclose(flow.J[-1], fd, atol=1e-6)


def test_flow_step_maps_advance_the_jacobian():
    """Both solvers keep the step maps that advance their Jacobians:
    J_{k+1} = J_k + M_k J_k bit for bit."""
    X, grid = brownian_driver(65, 2, seed=61)
    y0 = np.array([0.4, -0.3])
    rng = np.random.default_rng(63)
    sheared = linear_fields(rng.standard_normal((2, 2, 2)),
                            drift=(rng.standard_normal((2, 2)), np.zeros(2)))
    for vf in (rotation_fields(), sheared):
        rough = solve_flow_jacobian(X, vf, y0)
        ode = solve_ode_reference(GridFunction1D(grid, X.level1), vf, y0)
        for flow in (rough, ode):
            assert flow.M.shape == (grid.n - 1, 2, 2)
            for k in range(grid.n - 1):
                assert np.array_equal(flow.J[k + 1], flow.J[k] + flow.M[k] @ flow.J[k])


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
    rough = solve_flow_jacobian(X, vf, y0)
    ode = solve_ode_reference(GridFunction1D(grid, X.level1), vf, y0, substeps=8)
    assert np.allclose(rough.final_state, ode.final_state, atol=2e-4)


def test_with_time_adjoins_the_grid_steps_to_the_increments():
    from gaussrde.rde import _with_time

    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(40).uniform(0.01, 0.1, 24))]))
    X = lift_piecewise_linear(sample_paths([brownian_model()] * 2, grid, 3, seed=40))
    da, db = X.segment_increments()
    ta, tb = _with_time(grid, da, db)
    assert ta.shape == (3, 24, 3) and tb.shape == (3, 24, 3, 3)
    dt = np.diff(grid.points)
    assert np.array_equal(ta[..., 0], np.broadcast_to(dt, (3, 24)))
    assert np.array_equal(ta[..., 1:], da) and np.array_equal(tb[..., 1:, 1:], db)
    assert np.array_equal(tb[..., 0, 0], np.broadcast_to(0.5 * dt**2, (3, 24)))
    # the time entries match exactly: the residual is the driver's own, and 0
    # on the exact increments of a piecewise-linear path
    assert np.array_equal(nilpotent.residual(ta, tb), nilpotent.residual(da, db))
    da = np.diff(X.level1, axis=-2)
    exact = _with_time(grid, da, 0.5 * nilpotent.tensor(da, da))
    assert np.all(nilpotent.residual(*exact) == 0.0)


def test_with_time_of_a_linear_path_has_no_area():
    # (t, t v) is a straight line in space-time: its whole increment has no area
    from gaussrde.rde import _with_time

    grid = uniform_grid(1.0, 11)
    X = lift_piecewise_linear(GridFunction1D(grid, np.outer(grid.points, [0.7, -1.2])))
    ta, tb = _with_time(grid, *X.segment_increments())
    a, b = ta[0], tb[0]
    for k in range(1, grid.n - 1):
        a, b = nilpotent.product(a, b, ta[k], tb[k])
    assert np.allclose(a, [1.0, 0.7, -1.2], atol=1e-15)
    assert np.allclose(nilpotent.area(a, b), 0.0, atol=1e-15)


def test_drift_solve_chains_no_signatures(monkeypatch):
    # time is adjoined to the increments: no second rough path is built
    import gaussrde.lift

    grid = uniform_grid(1.0, 17)
    X = lift_piecewise_linear(sample_paths([brownian_model()], grid, 4, seed=41))
    vf = linear_fields(np.array([[[0.6]]]), drift=(np.array([[-0.4]]), np.array([0.1])))

    def no_chain(*args):
        raise AssertionError("signatures chained during the solve")

    monkeypatch.setattr(gaussrde.lift, "_chain", no_chain)
    flows = solve_flow_jacobian(X, vf, np.array([1.0]), pvar_index=2.5)
    assert flows.errors == (None,) * 4 and np.all(np.isfinite(flows.Y))


def test_state_overflow_aborts_only_its_path():
    """V(y) = 1e200 y: the second-order term of the first step overflows on
    a moving driver.  The overflow is caught by the explosion guard, not
    raised as a RuntimeWarning."""
    grid = uniform_grid(1.0, 9)
    values = sample_paths([brownian_model()], grid, 3, seed=1).values
    values[0] = 0.0
    vf = linear_fields(np.array([[[1e200]]]))
    y0 = np.ones(1)
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values, 1)),
                                vf, y0, pvar_index=2.5)
    for row in (1, 2):
        error = flows.errors[row]
        assert isinstance(error, ExplosionError) and error.time == 0.125
        assert str(error) == "state exploded at t = 0.125"
    assert flows.errors[0] is None
    alone = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values[:1], 1)),
                                vf, y0, pvar_index=2.5)
    for name in ("Y", "V", "J", "M", "pvar"):
        assert np.array_equal(getattr(flows, name)[0], getattr(alone, name)[0])
    with pytest.raises(ExplosionError, match="state exploded at t = 0.125"):
        solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                            vf, y0)


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
    # reference: the per-step left-point sum that the stacked product
    # replaced, with the transport J_t J_s^{-1} (the flows are well conditioned)
    def per_step(flow, vf, hv, t):
        it = flow.grid.index_of(t)
        out = np.zeros(vf.e)
        dh = np.diff(hv[:it + 1], axis=0)
        for k in range(it):
            out += flow.J[it] @ np.linalg.inv(flow.J[k]) @ vf.val(flow.Y[k]).T @ dh[k]
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
        for flow in (solve_flow_jacobian(X, vf, y0),
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
    up = solve_flow_jacobian(translate(X, GridFunction1D(grid, eps * hv)), vf, y0)
    dn = solve_flow_jacobian(translate(X, GridFunction1D(grid, -eps * hv)), vf, y0)
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
        up = solve_flow_jacobian(translate(X, GridFunction1D(grid, eps * hv)), vf, y0)
        dn = solve_flow_jacobian(translate(X, GridFunction1D(grid, -eps * hv)), vf, y0)
        fd = (up.final_state - dn.final_state) / (2 * eps)
        gaps.append(np.linalg.norm(got - fd) / np.linalg.norm(fd))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.02


def test_explosion_guard():
    X, _ = scalar_ramp(65, 40.0)
    vf = linear_fields(np.array([[[5.0]]]))
    with pytest.raises(ExplosionError) as exc:
        solve_flow_jacobian(X, vf, np.array([1.0]))
    assert 0.0 < exc.value.time <= 1.0


def test_non_geometric_driver_rejected():
    grid = uniform_grid(1.0, 5)
    a = np.column_stack([grid.points, 2 * grid.points])
    b = np.zeros((5, 2, 2))  # violates the symmetry constraint
    X = RoughPath(grid, a, b)
    with pytest.raises(ValueError, match="geometric"):
        solve_flow_jacobian(X, rotation_fields(), np.zeros(2))


def test_non_geometric_driver_is_named_by_its_residual():
    # a lift whose level 2 at one grid point has its symmetric part moved by
    # `shift` has symmetry residual `shift`: accepted inside GEOMETRIC_TOL
    # (1e-9), rejected past it with the residual in the message, with or
    # without drift (adjoining time adds no residual)
    X, _ = smooth_driver(9)
    drift = linear_fields(np.stack([ROT, np.eye(2)]), drift=(ROT, np.ones(2)))
    for vf in (rotation_fields(), drift):
        b = X.level2.copy()
        b[4, 0, 0] += 0.5e-9
        solve_flow_jacobian(RoughPath(X.grid, X.level1, b), vf, np.zeros(2))
        b[4, 0, 0] += 1.5e-9
        with pytest.raises(ValueError, match=r"not a geometric rough path "
                                             r"\(symmetry residual 2\.000e-09 > 1\.0e-09\)"):
            solve_flow_jacobian(RoughPath(X.grid, X.level1, b), vf, np.zeros(2))


def test_dimension_guards():
    X, _ = smooth_driver(9)  # 2-component driver
    with pytest.raises(ValueError):
        solve_flow_jacobian(X, linear_fields(np.zeros((3, 2, 2))), np.zeros(2))
    with pytest.raises(ValueError):
        solve_flow_jacobian(X, rotation_fields(), np.zeros(3))


def test_pvar_metadata():
    X, _ = brownian_driver(33, 2, seed=66)
    flow = solve_flow_jacobian(X, rotation_fields(), np.zeros(2), pvar_index=2.3)
    assert flow.pvar is not None and flow.pvar > 0
    from gaussrde import p_variation

    assert np.isclose(flow.pvar, p_variation(X, 2.3), rtol=1e-12)
    plain = solve_flow_jacobian(X, rotation_fields(), np.zeros(2))
    assert plain.pvar is None


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
    flow = solve_flow_jacobian(X, rotation_fields(), y0)
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
    reference: Y, V, J and the step maps M of one path.  Time is adjoined to
    the increments as the solver does it."""
    from gaussrde.rde import _with_time

    da, db = X.segment_increments()
    d = vf.d
    if vf.has_drift:
        da, db = _with_time(X.grid, da, db)
        f = vf
        vf = VectorFieldSystem(
            e=f.e, d=f.d + 1,
            value=lambda y: np.vstack([f.drift_val(y)[None, :], f.val(y)]),
            jacobian=lambda y: np.concatenate([f.drift_jac(y)[None], f.jac(y)]),
            hessian=lambda y: np.concatenate([f.drift_hess(y)[None], f.hess(y)]))
    n, e = X.grid.n, vf.e
    Y, V, J = np.zeros((n, e)), np.zeros((n, vf.d, e)), np.zeros((n, e, e))
    Ms = np.zeros((n - 1, e, e))
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
        Y[k + 1], J[k + 1], Ms[k] = y, jac, M
    V[-1] = vf.val(y)
    return Y, V[:, -d:], J, Ms


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
    # moderate coefficients and Brownian drivers keep cond(J) below 1e3, so
    # that J_t J_s^{-1} is a reference for the transport to 1e-12
    for d, e in ((1, 1), (2, 3), (3, 2), (3, 3)):
        vf = polynomial_fields(c0=rng.standard_normal((d, e)) * 0.5,
                               c1=rng.standard_normal((d, e, e)) * 0.2,
                               c2=rng.standard_normal((d, e, e, e)) * 0.1,
                               c3=rng.standard_normal((d, e, e, e, e)) * 0.05)
        cases.append((vf, [brownian_model()] * d, rng.standard_normal(e) * 0.5))
    return cases


def test_stacked_solver_matches_per_path_loop():
    from gaussrde.malliavin import _integrand_values

    grid = uniform_grid(1.0, 33)
    for vf, models, y0 in stacked_solver_cases():
        batch = sample_paths(models, grid, 5, seed=71)
        flows = solve_flow_jacobian(lift_piecewise_linear(batch), vf, y0,
                                    pvar_index=2.5)
        assert flows.Y.shape == (5, grid.n, vf.e) and flows.errors == (None,) * 5
        for k in range(5):
            X = lift_piecewise_linear(batch.path(k))
            Y, V, J, M = reference_solve(X, vf, y0)
            assert np.linalg.cond(J, 1).max() < 1e3
            for got, ref in ((flows.Y[k], Y), (flows.V[k], V), (flows.J[k], J),
                             (flows.M[k], M)):
                assert_relatively_close(got, ref)
            # one path is the K = 1 case of the same arithmetic
            one = solve_flow_jacobian(X, vf, y0, pvar_index=2.5)
            view = flows.sample(k)
            for name in ("Y", "V", "J", "M"):
                assert np.array_equal(getattr(one, name), getattr(view, name))
            assert one.pvar == view.pvar == p_variation(X, 2.5)
            for it in (0, 17, grid.n - 1):
                Z = _integrand_values(one, vf, it)
                ref = (J[it] @ np.linalg.inv(J[:it + 1])
                       @ V[:it + 1].transpose(0, 2, 1)).transpose(0, 2, 1)
                assert_relatively_close(Z, ref)


def stepwise_reference(X, vf, y0):
    """The per-step loop that advanced the Jacobian with the state, one step
    at a time, kept as the reference for the block pass: Y, V, J, M and
    errors of a stack of paths.  Its Jacobian update runs under errstate, so
    an overflow reaches the finiteness check; an aborted path has M = 0 from
    the failing step on."""
    from gaussrde.rde import EXPLOSION_NORM, _sum_tail, _with_drift, _with_time

    d = vf.d
    da, db = X.segment_increments()
    if vf.has_drift:
        (da, db), vf = _with_time(X.grid, da, db), _with_drift(vf)
    (K, n), e = X.level1.shape[:2], vf.e
    Y = np.zeros((K, n, e))
    Y[:, 0] = y0
    V = np.zeros((K, n, vf.d, e))
    J = np.zeros((K, n, e, e))
    Ms = np.zeros((K, n - 1, e, e))
    errors = [None] * K
    y = Y[:, 0].copy()
    J[:, 0] = jac = np.broadcast_to(np.eye(e), (K, e, e)).copy()
    for k in range(n - 1):
        a, b = da[:, k], db[:, k]
        V[:, k] = Vk = vf.val(y)
        Vp = vf.jac(y)
        Vp_ai = Vp.transpose(0, 2, 1, 3)
        step = ((a[:, None, :] @ Vk)[:, 0]
                + _sum_tail(b[:, None, :, :, None] * Vp_ai[:, :, None]
                            * Vk[:, None, :, None], 2))
        Vpp = vf.hess(y)
        M = (_sum_tail(a[:, None, None, :] * Vp.transpose(0, 2, 3, 1), 3)
             + _sum_tail(b[:, None, None, :, :, None]
                         * Vpp.transpose(0, 2, 4, 1, 3)[:, :, :, None]
                         * Vk[:, None, None, :, None, :], 3)
             + _sum_tail(b[:, None, None, :, :, None]
                         * Vp_ai[:, :, None, None]
                         * Vp.transpose(0, 3, 1, 2)[:, None, :, :, None], 3))
        with np.errstate(over="ignore", invalid="ignore"):
            jac = jac + M @ jac
        Ms[:, k] = M
        y = y + step
        t_next = float(X.grid.points[k + 1])
        with np.errstate(over="ignore"):
            blown = ~(np.linalg.norm(y, axis=-1) <= EXPLOSION_NORM)
        bad = blown | ~np.isfinite(jac).all(axis=(-2, -1))
        for row in np.flatnonzero(bad):
            what = "state" if blown[row] else "Jacobian"
            errors[row] = ExplosionError(f"{what} exploded at t = {t_next:.6g}",
                                         t_next)
            da[row, k + 1:] = db[row, k + 1:] = 0.0
            y[row], jac[row], Ms[row, k] = Y[row, k], J[row, k], 0.0
        Y[:, k + 1], J[:, k + 1] = y, jac
    V[:, -1] = vf.val(y)
    return Y, V[..., -d:, :], J, Ms, errors


def assert_matches_stepwise_reference(flows, X, vf, y0):
    Y, V, J, M, errors = stepwise_reference(X, vf, y0)
    assert np.array_equal(flows.Y, Y) and np.array_equal(flows.V, V)
    assert_relatively_close(flows.J, J)
    assert_relatively_close(flows.M, M)
    assert [(type(e), str(e), getattr(e, "time", None)) for e in flows.errors] == [
        (type(e), str(e), getattr(e, "time", None)) for e in errors]


def test_block_pass_matches_the_stepwise_loop():
    grid = uniform_grid(1.0, 33)
    for vf, models, y0 in stacked_solver_cases():
        X = lift_piecewise_linear(sample_paths(models, grid, 5, seed=74))
        flows = solve_flow_jacobian(X, vf, y0)
        assert flows.errors == (None,) * 5
        assert_matches_stepwise_reference(flows, X, vf, y0)


def exploding_fields(gain):
    """e = d = 1 with V(y) = gain y and V' = 50, V'' = 0 declared."""
    return VectorFieldSystem(e=1, d=1, value=lambda y: gain * y[..., None, :],
                             jacobian=lambda y: np.full((1, 1, 1), 50.0),
                             hessian=lambda y: np.zeros((1, 1, 1, 1)))


def exploding_stack():
    """Rows 1 and 3 of five follow the ramp 640 t, the others are Brownian."""
    grid = uniform_grid(1.0, 65)
    values = sample_paths([brownian_model()], grid, 5, seed=75).values
    values[[1, 3], :, 0] = 640.0 * grid.points
    return lift_piecewise_linear(PathSample(grid, values, 75))


def test_blow_ups_are_named_as_the_stepwise_loop_names_them():
    """Each ramp step multiplies J by 125501, which overflows at t = 61/64,
    and Y by 1 + 2510 gain.  With gain 2.25e-4 the state would pass
    EXPLOSION_NORM one step later, in the same block of 16, so the Jacobian
    names the failure; with gain 2.3e-4 both blow up at t = 61/64 and the
    state names it; with gain 1e-3 the state passes it first, at t = 23/64.
    Either way the aborted path is frozen at the same values as by the
    stepwise loop."""
    X = exploding_stack()
    for gain, what, time in ((2.25e-4, "Jacobian", 0.953125), (2.3e-4, "state", 0.953125),
                             (1e-3, "state", 0.359375)):
        vf = exploding_fields(gain)
        flows = solve_flow_jacobian(X, vf, np.ones(1))
        for row in (1, 3):
            assert str(flows.errors[row]) == f"{what} exploded at t = {time:.6g}"
        assert_matches_stepwise_reference(flows, X, vf, np.ones(1))


def test_jacobian_overflow_aborts_only_its_path():
    """V = 0, V' = 50, V'' = 0 along the ramp 640 t: J overflows at step 61
    while the state never moves.  The overflow is caught by the finiteness
    check, not raised as a RuntimeWarning."""
    vf = exploding_fields(0.0)
    grid = uniform_grid(1.0, 65)
    values = sample_paths([brownian_model()], grid, 3, seed=76).values
    values[1, :, 0] = 640.0 * grid.points
    y0 = np.array([0.3])
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values, 76)),
                                vf, y0, pvar_index=2.5)
    error = flows.errors[1]
    assert isinstance(error, ExplosionError)
    assert str(error) == "Jacobian exploded at t = 0.953125" and error.time == 0.953125
    assert flows.errors[0] is None and flows.errors[2] is None
    assert np.array_equal(flows.Y[1], np.full((65, 1), 0.3))
    others = solve_flow_jacobian(
        lift_piecewise_linear(PathSample(grid, values[[0, 2]], 76)), vf, y0,
        pvar_index=2.5)
    for got, ref in zip(rows_without(flows, 1), rows_without(others, -1)):
        assert np.array_equal(got, ref)
    with pytest.raises(ExplosionError) as single:
        solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                            vf, y0)
    assert str(single.value) == str(error) and single.value.time == error.time


def test_output_is_independent_of_step_block(monkeypatch):
    import gaussrde.rde

    grid = uniform_grid(1.0, 33)
    cases = [(lift_piecewise_linear(sample_paths(models, grid, 4, seed=77)), vf, y0)
             for vf, models, y0 in stacked_solver_cases()[:3]]
    cases.append((exploding_stack(), exploding_fields(2.25e-4), np.ones(1)))
    for X, vf, y0 in cases:
        flows = []
        for block in (1, 7, X.grid.n - 1, 4 * X.grid.n):
            monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
            flows.append(solve_flow_jacobian(X, vf, y0, pvar_index=2.5))
        for flow in flows[1:]:
            for name in ("Y", "V", "J", "M", "pvar"):
                assert np.array_equal(getattr(flow, name), getattr(flows[0], name))
            assert [str(e) for e in flow.errors] == [str(e) for e in flows[0].errors]


def rows_without(flows, k):
    keep = [i for i in range(len(flows.errors)) if i != k]
    return [getattr(flows, name)[keep] for name in ("Y", "V", "J", "M", "pvar")]


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


def test_stacked_solver_solves_through_a_singular_jacobian():
    # V = 1, V' = 0, V'' = -2: a unit first increment (b = 1/2) sends J to 0.
    # The derivative takes no inverse, so the path solves like the others
    # and its transports are the per-point products of the step maps
    from gaussrde.malliavin import _integrand_values

    vf = VectorFieldSystem(e=1, d=1, value=lambda y: np.ones((1, 1)),
                           jacobian=lambda y: np.zeros((1, 1, 1)),
                           hessian=lambda y: np.full((1, 1, 1, 1), -2.0))
    grid = uniform_grid(1.0, 17)
    values = sample_paths([brownian_model()], grid, 3, seed=73).values
    values[1, 1, 0] = 1.0
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values, 73)),
                                vf, np.zeros(1), pvar_index=2.5)
    assert flows.errors == (None,) * 3
    assert flows.M[1, 0, 0, 0] == -1.0 and not flows.J[1, 1:].any()
    one = solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                              vf, np.zeros(1))
    assert np.array_equal(one.J, flows.J[1]) and np.array_equal(one.M, flows.M[1])
    for it in (5, grid.n - 1):
        Z = _integrand_values(flows, vf, it)
        for k in range(3):
            for m in range(it + 1):
                P = np.eye(1)
                for j in range(it - 1, m - 1, -1):
                    P = P + P @ flows.M[k, j]
                assert np.array_equal(Z[k, m], (P @ flows.V[k, m].T).T)
        # the transport across the first step is 0, and only that one
        assert not Z[1, 0].any() and Z[1, 1:].all()
