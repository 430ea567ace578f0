import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from gaussrde import (
    ExplosionError,
    FlowResult,
    GridFunction1D,
    PathSample,
    RoughPath,
    TimeGrid,
    VectorFieldSystem,
    bridge_model,
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
    transport,
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


def forward_jacobians(flow):
    """The forward recurrence J_{k+1} = J_k + M_k J_k that the solvers ran
    before `transport` replaced it, kept as the reference for J_t: the
    Jacobian at every grid time of one flow or a stack."""
    M = flow.M
    J = np.zeros(M.shape[:-3] + (M.shape[-3] + 1,) + M.shape[-2:])
    J[..., 0, :, :] = np.eye(M.shape[-1])
    for k in range(M.shape[-3]):
        J[..., k + 1, :, :] = J[..., k, :, :] + M[..., k, :, :] @ J[..., k, :, :]
    return J


def test_zero_fields_freeze_state():
    X, grid = smooth_driver(17)
    vf = constant_fields(np.zeros((2, 3)))
    flow = solve_flow_jacobian(X, vf, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(flow.Y, flow.Y[0], atol=1e-15)
    assert np.allclose(transport(flow, 16), np.eye(3), atol=1e-15)


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
    assert np.isclose(transport(flow, 1)[0, 0, 0], factor, rtol=1e-14)


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
    assert np.allclose(transport(flow, 128)[0], np.exp(lam) * np.eye(2), rtol=1e-5)


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
    assert np.allclose(transport(flow, 512)[0], target, atol=1e-4)


def test_jacobian_inverse_and_transport_consistency():
    # the transport by step maps is the forward product of the step maps
    # and J_t J_s^{-1}, and two legs compose into the direct one
    X, grid = brownian_driver(129, 2, seed=60)
    flow = solve_flow_jacobian(X, rotation_fields(), np.array([0.4, -0.3]))

    def product(s, t):
        P = np.eye(2)
        for k in range(s, t):
            P = P + flow.M[k] @ P
        return P

    t0, t1, t2 = 10, 60, 120
    direct = transport(flow, t2)[t0]
    J = forward_jacobians(flow)
    assert np.allclose(direct, product(t0, t2), atol=1e-12)
    assert np.allclose(direct, J[t2] @ np.linalg.inv(J[t0]), atol=1e-12)
    assert np.allclose(direct, transport(flow, t2)[t1] @ transport(flow, t1)[t0],
                       atol=1e-12)


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
    assert np.allclose(transport(flow, 64)[0], fd, atol=1e-6)


def assert_transport_matches_forward_recurrence(flow):
    """J_t from the backward sweep of `transport` is the forward product of
    the same step maps to 1e-12 relative, at every grid time."""
    J = forward_jacobians(flow)
    for it in range(flow.grid.n):
        assert_relatively_close(transport(flow, it)[..., 0, :, :], J[..., it, :, :])


def test_transport_matches_the_forward_recurrence():
    """The solvers no longer advance J_{k+1} = J_k + M_k J_k; the transport
    that replaced it agrees with that recurrence for the rough solver on
    every stacked case and for the ODE oracle."""
    grid = uniform_grid(1.0, 33)
    for vf, models, y0 in stacked_solver_cases():
        flows = solve_flow_jacobian(
            lift_piecewise_linear(sample_paths(models, grid, 5, seed=61)), vf, y0)
        assert flows.M.shape == (5, grid.n - 1, vf.e, vf.e)
        assert_transport_matches_forward_recurrence(flows)
        X = lift_piecewise_linear(sample_paths(models, grid, 1, seed=62).path(0))
        for flow in (solve_flow_jacobian(X, vf, y0),
                     solve_ode_reference(GridFunction1D(grid, X.level1), vf, y0)):
            assert flow.M.shape == (grid.n - 1, vf.e, vf.e)
            assert_transport_matches_forward_recurrence(flow)


def test_rde_matches_ode_oracle_on_smooth_path():
    X, grid = smooth_driver(257, amplitude=0.8)
    vf = rotation_fields()
    y0 = np.array([1.0, 0.5])
    rough = solve_flow_jacobian(X, vf, y0)
    path = GridFunction1D(grid, X.level1)
    ode = solve_ode_reference(path, vf, y0, substeps=8)
    assert np.allclose(rough.final_state, ode.final_state, atol=2e-4)
    assert np.allclose(transport(rough, 256)[0], transport(ode, 256)[0], atol=2e-4)


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
    dt = np.diff(grid.points)
    ta, tb = _with_time(dt, da, db)
    assert ta.shape == (3, 24, 3) and tb.shape == (3, 3, 24, 3)
    assert np.array_equal(ta[0], np.broadcast_to(dt[:, None], (24, 3)))
    assert np.array_equal(ta[1:], da) and np.array_equal(tb[1:, 1:], db)
    assert np.array_equal(tb[0, 0], np.broadcast_to(0.5 * dt[:, None]**2, (24, 3)))
    # the time entries match exactly: the residual is the driver's own, and 0
    # on the exact increments of a piecewise-linear path
    assert np.array_equal(nilpotent.residual(ta, tb), nilpotent.residual(da, db))
    da = np.diff(X.level1, axis=-2).T  # component-first (d, 24, K)
    exact = _with_time(dt, da, 0.5 * nilpotent.tensor(da, da))
    # a block of segments gets the time of its own segments
    block = _with_time(dt[5:9], da[..., 5:9, :], db[..., 5:9, :])
    assert all(np.array_equal(part, whole[..., 5:9, :]) for part, whole in zip(block, (ta, tb)))
    assert np.all(nilpotent.residual(*exact) == 0.0)


def test_with_time_of_a_linear_path_has_no_area():
    # (t, t v) is a straight line in space-time: its whole increment has no area
    from gaussrde.rde import _with_time

    grid = uniform_grid(1.0, 11)
    X = lift_piecewise_linear(GridFunction1D(grid, np.outer(grid.points, [0.7, -1.2])))
    ta, tb = _with_time(np.diff(grid.points), *X.segment_increments())
    a, b = ta[..., 0], tb[..., 0]
    for k in range(1, grid.n - 1):
        a, b = nilpotent.product(a, b, ta[..., k], tb[..., k])
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
    assert np.all(np.isfinite(flows.Y))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_state_overflow_raises_for_its_stack():
    """V(y) = 1e200 y: the second-order term of the first step overflows on
    a moving driver.  The overflow is caught by the explosion guard, not
    raised as a RuntimeWarning: the stack raises at the first step, as each
    moving path alone does, and the still path alone solves."""
    grid = uniform_grid(1.0, 9)
    values = sample_paths([brownian_model()], grid, 3, seed=1).values
    values[0] = 0.0
    vf = linear_fields(np.array([[[1e200]]]))
    y0 = np.ones(1)
    for stack in (values, values[1:2], values[2:]):
        with pytest.raises(ExplosionError) as error:
            solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, stack)), vf, y0,
                                pvar_index=2.5)
        assert str(error.value) == "state exploded at t = 0.125"
        assert error.value.time == 0.125
    still = solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[0])),
                                vf, y0)
    assert np.all(still.Y == 1.0)


def test_a_non_finite_y0_is_a_value_error():
    """Bad input is not a numerical failure: no state is stepped."""
    X = lift_piecewise_linear(sample_paths([brownian_model()], uniform_grid(1.0, 9), 3,
                                           seed=1))
    vf = linear_fields(np.array([[[1.0]]]))
    for y0 in (np.array([np.nan]), np.array([np.inf])):
        with pytest.raises(ValueError, match="y0 must be a finite vector") as error:
            solve_flow_jacobian(X, vf, y0)
        assert not isinstance(error.value, np.linalg.LinAlgError)


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
    # replaced, with the transport J_t J_s^{-1} of the forward recurrence
    # (the flows are well conditioned)
    def per_step(flow, vf, hv, t):
        it = flow.grid.index_of(t)
        J = forward_jacobians(flow)
        out = np.zeros(vf.e)
        dh = np.diff(hv[:it + 1], axis=0)
        for k in range(it):
            out += J[it] @ np.linalg.inv(J[k]) @ vf.val(flow.Y[k]).T @ dh[k]
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
    # without drift (adjoining time adds no residual); the check runs a step
    # block at a time, so the point is also put where two blocks meet and at
    # the end of a short last block
    drift = linear_fields(np.stack([ROT, np.eye(2)]), drift=(ROT, np.ones(2)))
    for (n, point), vf in itertools.product([(9, 4), (40, 16), (40, 39)],
                                            (rotation_fields(), drift)):
        X, _ = smooth_driver(n)
        b = X.level2.copy()
        b[point, 0, 0] += 0.5e-9
        solve_flow_jacobian(RoughPath(X.grid, X.level1, b), vf, np.zeros(2))
        b[point, 0, 0] += 1.5e-9
        with pytest.raises(ValueError, match=r"not a geometric rough path "
                                             r"\(symmetry residual 2\.000e-09 > 1\.0e-09\)"):
            solve_flow_jacobian(RoughPath(X.grid, X.level1, b), vf, np.zeros(2))


def test_geometricity_is_judged_relative_to_the_path_size():
    # differencing a large lift's level 2 rounds its segments' symmetric
    # parts by far more than 1e-9; each path is judged against
    # GEOMETRIC_TOL times its largest |level 2| entry over the block
    grid = uniform_grid(1.0, 65)
    values = sample_paths([brownian_model()] * 2, grid, 1, seed=3).values[0]
    X = lift_piecewise_linear(GridFunction1D(grid, 1e4 * values))
    assert nilpotent.residual(*X.segment_increments()).max() > nilpotent.GEOMETRIC_TOL
    vf = rotation_fields((1e-4, 1e-4))
    assert np.isfinite(solve_flow_jacobian(X, vf, np.zeros(2)).Y).all()
    # the scale is per path: a unit-size path that breaks the constraint by
    # 2e-9 is rejected beside a huge geometric one, with its own threshold
    small, _ = smooth_driver(65)
    b = small.level2.copy()
    b[40, 0, 0] += 2e-9
    stack = RoughPath(grid, np.stack([X.level1, small.level1]), np.stack([X.level2, b]))
    with pytest.raises(ValueError, match=r"\(symmetry residual 2\.000e-09 > 1\.0e-09\)"):
        solve_flow_jacobian(stack, vf, np.zeros(2))


def test_the_blocks_are_checked_in_order_before_they_are_stepped():
    # the ramp explodes at t = 13/64, in the first step block: a bad point
    # in that block is named before the block is stepped, one in a later
    # block is never reached
    X, grid = scalar_ramp(65, 40.0)
    vf = linear_fields(np.array([[[5.0]]]))
    for point, error in ((5, ValueError), (40, ExplosionError)):
        b = X.level2.copy()
        b[point, 0, 0] += 1e-6
        with pytest.raises(error):
            solve_flow_jacobian(RoughPath(grid, X.level1, b), vf, np.array([1.0]))


def test_each_step_block_forms_its_increments_once(monkeypatch):
    import gaussrde.rde

    calls = []
    segment_increments = RoughPath.segment_increments

    def counted(self, *args):
        calls.append(args)
        return segment_increments(self, *args)

    monkeypatch.setattr(RoughPath, "segment_increments", counted)
    X, _ = smooth_driver(40)
    drift = linear_fields(np.stack([ROT, np.eye(2)]), drift=(ROT, np.ones(2)))
    for block in (16, 7):
        monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
        for vf in (rotation_fields(), drift, generic(rotation_fields()), generic(drift)):
            calls.clear()
            solve_flow_jacobian(X, vf, np.zeros(2))
            assert len(calls) == math.ceil(39 / block)


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
    ramp = 2.0 * grid.points
    # a 1-D path is one component
    flat, column = (solve_ode_reference(GridFunction1D(grid, x), vf, np.array([1.0]))
                    for x in (ramp, ramp[:, None]))
    assert np.array_equal(flat.Y, column.Y) and np.array_equal(flat.M, column.M)
    with pytest.raises(ValueError, match="fields expect a 1-dimensional driver, "
                                         "path has 2 components"):
        solve_ode_reference(GridFunction1D(grid, np.zeros((17, 2))), vf, np.array([1.0]))
    # y' = 100 y along a ramp: one RK4 step of 1/16 multiplies y by about 131,
    # so the sixth passes EXPLOSION_NORM
    with pytest.raises(ExplosionError, match=re.escape("state exploded at t = 0.375")):
        solve_ode_reference(GridFunction1D(grid, grid.points),
                            linear_fields(np.array([[[100.0]]])), np.array([1.0]))


def reference_solve(X, vf, y0):
    """The per-path step loop that the stacked solver replaced, kept as the
    reference: Y, V, J and the step maps M of one path.  Time is adjoined to
    the increments as the solver does it."""
    from gaussrde.rde import _with_time

    da, db = X.segment_increments()
    d = vf.d
    if vf.has_drift:
        da, db = _with_time(np.diff(X.grid.points), da, db)
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
        a, b = da[..., k], db[..., k]
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
        assert flows.Y.shape == (5, grid.n, vf.e)
        for k in range(5):
            X = lift_piecewise_linear(batch.path(k))
            Y, V, J, M = reference_solve(X, vf, y0)
            assert np.linalg.cond(J, 1).max() < 1e3
            for got, ref in ((flows.Y[k], Y), (flows.V[k], V), (flows.M[k], M)):
                assert_relatively_close(got, ref)
            # one path is the K = 1 case of the same arithmetic
            one = solve_flow_jacobian(X, vf, y0, pvar_index=2.5)
            view = flows.sample(k)
            for name in ("Y", "V", "M"):
                assert np.array_equal(getattr(one, name), getattr(view, name))
            assert one.pvar == view.pvar == p_variation(X, 2.5)
            for it in (0, 17, grid.n - 1):
                P = transport(one, it)
                assert np.array_equal(P, transport(flows, it)[k])
                assert_relatively_close(P[0], J[it])
                Z = _integrand_values(one, vf, it)
                ref = (J[it] @ np.linalg.inv(J[:it + 1])
                       @ V[:it + 1].transpose(0, 2, 1)).transpose(0, 2, 1)
                assert_relatively_close(Z, ref)


def stepwise_reference(X, vf, y0):
    """The per-step loop that formed the step maps with the state, one step
    at a time, kept as the reference for the block pass: Y, V, M and, per
    path, the ExplosionError of its first step past the guard, or None.  A
    path past the guard is held at its last state, and its values from there
    on are not a solution."""
    from gaussrde.rde import EXPLOSION_NORM, _sum_tail, _with_drift, _with_time

    d = vf.d
    da, db = X.segment_increments()
    if vf.has_drift:
        (da, db), vf = _with_time(np.diff(X.grid.points), da, db), _with_drift(vf)
    da, db = da.T, db.transpose(3, 2, 0, 1)  # sample-first (K, n - 1, ...)
    (K, n), e = X.level1.shape[:2], vf.e
    Y = np.zeros((K, n, e))
    Y[:, 0] = y0
    V = np.zeros((K, n, vf.d, e))
    Ms = np.zeros((K, n - 1, e, e))
    errors = [None] * K
    y = Y[:, 0].copy()
    for k in range(n - 1):
        a, b = da[:, k], db[:, k]
        V[:, k] = Vk = vf.val(y)
        Vp = vf.jac(y)
        Vp_ai = Vp.transpose(0, 2, 1, 3)
        step = ((a[:, None, :] @ Vk)[:, 0]
                + _sum_tail(b[:, None, :, :, None] * Vp_ai[:, :, None]
                            * Vk[:, None, :, None], 2))
        Vpp = vf.hess(y)
        with np.errstate(over="ignore", invalid="ignore"):
            Ms[:, k] = (_sum_tail(a[:, None, None, :] * Vp.transpose(0, 2, 3, 1), 3)
                        + _sum_tail(b[:, None, None, :, :, None]
                                    * Vpp.transpose(0, 2, 4, 1, 3)[:, :, :, None]
                                    * Vk[:, None, None, :, None, :], 3)
                        + _sum_tail(b[:, None, None, :, :, None]
                                    * Vp_ai[:, :, None, None]
                                    * Vp.transpose(0, 3, 1, 2)[:, None, :, :, None], 3))
            y = y + step
            blown = ~(np.linalg.norm(y, axis=-1) <= EXPLOSION_NORM)
        t_next = float(X.grid.points[k + 1])
        for row in np.flatnonzero(blown):
            if errors[row] is None:
                errors[row] = ExplosionError(f"state exploded at t = {t_next:.6g}",
                                             t_next)
            y[row] = Y[row, k]
        Y[:, k + 1] = y
    V[:, -1] = vf.val(y)
    return Y, V[..., -d:, :], Ms, errors


def named(error):
    return type(error), str(error), getattr(error, "time", None)


def assert_matches_stepwise_reference(X, vf, y0):
    """Each path alone solves to the reference's values or raises the error
    it names; the stack solves to the reference's values when every path
    does, and otherwise raises the error of its earliest-failing path."""
    Y, V, M, errors = stepwise_reference(X, vf, y0)
    for k, error in enumerate(errors):
        path = RoughPath(X.grid, X.level1[k], X.level2[k])
        if error is None:
            one = solve_flow_jacobian(path, vf, y0)
            assert np.array_equal(one.Y, Y[k]) and np.array_equal(one.V, V[k])
            assert_relatively_close(one.M, M[k])
        else:
            with pytest.raises(ExplosionError) as alone:
                solve_flow_jacobian(path, vf, y0)
            assert named(alone.value) == named(error)
    failing = [error for error in errors if error is not None]
    if not failing:
        flows = solve_flow_jacobian(X, vf, y0)
        assert np.array_equal(flows.Y, Y) and np.array_equal(flows.V, V)
        assert_relatively_close(flows.M, M)
        return
    with pytest.raises(ExplosionError) as stack:
        solve_flow_jacobian(X, vf, y0)
    assert named(stack.value) == named(min(failing, key=lambda error: error.time))


def generic(vf):
    """vf without its affine form: the solver's generic path, which the
    stepwise reference loop spells out."""
    return dataclasses.replace(vf, affine=None)


def test_block_pass_matches_the_stepwise_loop():
    grid = uniform_grid(1.0, 33)
    for vf, models, y0 in stacked_solver_cases():
        X = lift_piecewise_linear(sample_paths(models, grid, 5, seed=74))
        assert_matches_stepwise_reference(X, generic(vf), y0)


AFFINE_FAMILIES = {
    "linear": linear_fields(np.array([[[1.0]]])),
    "linear-drift": linear_fields(np.array([[[1.0]]]),
                                  drift=(np.array([[0.5]]), np.array([0.1]))),
    "linear-planar-drift": linear_fields(
        np.array([[[0.3, -0.2], [0.1, 0.4]], [[0.0, 0.5], [-0.5, 0.0]]]),
        np.array([[0.2, 0.0], [0.0, 0.3]]),
        drift=(np.array([[-0.1, 0.2], [0.0, -0.3]]), np.array([0.1, 0.2]))),
    "constant": constant_fields(np.array([[1.0, 0.2], [-0.3, 1.0]])),
    "rotation": rotation_fields(),
}


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("family", list(AFFINE_FAMILIES))
def test_the_affine_path_matches_the_generic_path(family):
    """For every kernel and stacks of 0, 1 and 7 paths at n = 33, Y and M of
    the affine path lie within 8 ulps of the largest |Y| and |M| of the
    generic path (measured: at most 5 for Y, 1 for M), and V is the fields'
    value at the affine path's own states.  On scalar fields (d = e = 1) M is
    the generic M bit for bit, with or without drift."""
    vf = AFFINE_FAMILIES[family]
    grid = uniform_grid(1.0, 33)
    y0 = np.linspace(0.7, -0.4, vf.e)
    for model in (brownian_model(), fbm_model(0.35), fbm_model(0.4), fbm_model(0.75),
                  bridge_model(1.0)):
        values = sample_paths([model] * vf.d, grid, 7, seed=78).values
        for count in (0, 1, 7):
            X = lift_piecewise_linear(PathSample(grid, values[:count]))
            flow = solve_flow_jacobian(X, vf, y0)
            ref = solve_flow_jacobian(X, generic(vf), y0)
            for name in ("Y", "M"):
                got, want = getattr(flow, name), getattr(ref, name)
                ulp = np.spacing(np.max(np.abs(want), initial=0.0))
                assert np.max(np.abs(got - want), initial=0.0) <= 8 * ulp, name
            assert np.array_equal(flow.V, vf.val(flow.Y))
            if vf.d == vf.e == 1:
                assert np.array_equal(flow.M, ref.M)


def test_the_affine_path_calls_no_field(monkeypatch):
    """Affine fields with drift: the steps, the step maps and V come from the
    affine form, and no field callable is evaluated."""
    vf = AFFINE_FAMILIES["linear-planar-drift"]
    grid = uniform_grid(1.0, 33)
    X = lift_piecewise_linear(sample_paths([brownian_model()] * 2, grid, 5, seed=79))
    ref = solve_flow_jacobian(X, vf, np.array([0.7, -0.4]))

    def no_call(self, *args, **kwargs):
        raise AssertionError("a field was evaluated")

    monkeypatch.setattr(VectorFieldSystem, "_eval", no_call)
    flows = solve_flow_jacobian(X, vf, np.array([0.7, -0.4]), pvar_index=2.5)
    for name in ("Y", "V", "M"):
        assert np.array_equal(getattr(flows, name), getattr(ref, name))


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
    return lift_piecewise_linear(PathSample(grid, values))


def test_blow_ups_are_named_as_the_stepwise_loop_names_them():
    """Each ramp step multiplies Y by 1 + 2510 gain.  With gain 2.25e-4 the
    state passes EXPLOSION_NORM at t = 62/64, with 2.3e-4 at t = 61/64 and
    with 1e-3 at t = 23/64.  Either way the stack and each ramp alone raise
    the time the stepwise loop names."""
    X = exploding_stack()
    for gain, time in ((2.25e-4, 0.96875), (2.3e-4, 0.953125), (1e-3, 0.359375)):
        vf = exploding_fields(gain)
        with pytest.raises(ExplosionError,
                           match=re.escape(f"state exploded at t = {time:.6g}")):
            solve_flow_jacobian(X, vf, np.ones(1))
        assert_matches_stepwise_reference(X, vf, np.ones(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transport_overflow_is_named_by_its_evaluation_time():
    """V = 0, V' = 50, V'' = 0 along the ramp 640 t: each step map is
    I + M = 125501 while the state never moves, so the path solves and its
    transport from 0 overflows past t = 60/64.  The transport raises for the
    stack, naming the evaluation time, not a RuntimeWarning; without that
    path, or into an earlier time, it is finite."""
    vf = exploding_fields(0.0)
    grid = uniform_grid(1.0, 65)
    values = sample_paths([brownian_model()], grid, 3, seed=76).values
    values[1, :, 0] = 640.0 * grid.points
    y0 = np.array([0.3])
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values)),
                                vf, y0, pvar_index=2.5)
    assert np.array_equal(flows.Y[1], np.full((65, 1), 0.3))
    assert np.all(flows.M[1] == 125500.0)
    assert np.isfinite(transport(flows, 60)).all()
    one = solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                              vf, y0)
    for it in (61, 64):
        time = float(grid.points[it])
        for stack in (flows, one):
            with pytest.raises(ExplosionError) as error:
                transport(stack, it)
            assert str(error.value) == f"transport to t = {time:.6g} exploded"
            assert error.value.time == time
        assert np.isfinite(transport(flows.sample([0, 2]), it)).all()


def test_output_is_independent_of_step_block(monkeypatch):
    import gaussrde.rde

    grid = uniform_grid(1.0, 33)
    cases = [(lift_piecewise_linear(sample_paths(models, grid, 4, seed=77)), vf, y0)
             for vf, models, y0 in stacked_solver_cases()[:3]]
    for X, vf, y0 in cases:
        flows = []
        for block in (1, 7, X.grid.n - 1, 4 * X.grid.n):
            monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
            flows.append(solve_flow_jacobian(X, vf, y0, pvar_index=2.5))
        for flow in flows[1:]:
            for name in ("Y", "V", "M", "pvar"):
                assert np.array_equal(getattr(flow, name), getattr(flows[0], name))
    X, vf = exploding_stack(), exploding_fields(2.25e-4)
    for block in (1, 7, X.grid.n - 1, 4 * X.grid.n):
        monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
        with pytest.raises(ExplosionError, match="state exploded at t = 0.96875"):
            solve_flow_jacobian(X, vf, np.ones(1), pvar_index=2.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_explosion_inside_a_step_block_raises_its_first_step(monkeypatch):
    """V(y) = (1e40 y_1, 0): each step of a driver ramp multiplies y_1 by
    about 5e76.  Path 1 starts its ramp at t_8 and passes the guard at t_9,
    path 2 starts at t_10.  Inside a block the later steps of path 1 overflow
    y_1 to inf, and the field then evaluates 0 * inf in its zero entries.
    The block's states are checked before its step maps, so every block size
    raises path 1's error at its first step, not a RuntimeWarning."""
    import gaussrde.rde

    grid = uniform_grid(1.0, 33)
    values = np.zeros((3, 33, 1))
    values[1, 8:, 0] = grid.points[8:] - grid.points[8]
    values[2, 10:, 0] = grid.points[10:] - grid.points[10]
    vf = linear_fields(np.array([[[1e40, 0.0], [0.0, 0.0]]]))
    # the stack, and path 2 alone, which explodes two steps later
    cases = [(lift_piecewise_linear(PathSample(grid, v)), float(grid.points[it]))
             for v, it in ((values, 9), (values[2:], 11))]
    for block in (1, 7, grid.n - 1):
        monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
        for X, time in cases:
            with pytest.raises(ExplosionError) as error:
                solve_flow_jacobian(X, vf, np.ones(2), pvar_index=2.5)
            assert str(error.value) == f"state exploded at t = {time:.6g}"
            assert error.value.time == time


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_field_that_overflows_at_a_finite_state_raises_an_explosion():
    """V(y) = 1e300 y at y0 = 1e10 overflows in the field itself, inside the
    guard, and the solve raises ExplosionError at the first step, which
    aborts the sample in a run.  On a ramp the state goes to inf; on a still
    driver the generic state goes to 0 * inf, while the affine path, whose
    step maps are 0, checks the field values themselves."""
    vf = linear_fields(np.array([[[1e300]]]))
    for total in (1.0, 0.0):
        X, grid = scalar_ramp(9, total)
        for fields in (vf, generic(vf)):
            with pytest.raises(ExplosionError) as error:
                solve_flow_jacobian(X, fields, np.array([1e10]))
            assert error.value.time == grid.points[1]


def test_a_stack_raises_the_error_of_its_earliest_failing_path():
    """Ramps of slope 40 (path 2) and 30 (path 0) make dY = 5 Y dx explode,
    path 2 first: the stack raises path 2's own error, and the others solve
    alone and in a stack as they do without the failing paths."""
    grid = uniform_grid(1.0, 65)
    vf = linear_fields(np.array([[[5.0]]]))
    values = sample_paths([brownian_model()], grid, 4, seed=72).values
    values[2, :, 0] = 40.0 * grid.points
    values[0, :, 0] = 30.0 * grid.points
    alone = []
    for k in range(4):
        X = lift_piecewise_linear(GridFunction1D(grid, values[k]))
        try:
            alone.append(solve_flow_jacobian(X, vf, np.array([1.0]), pvar_index=2.5))
        except ExplosionError as error:
            alone.append(error)
    assert [type(a) for a in alone] == [ExplosionError, FlowResult, ExplosionError,
                                        FlowResult]
    assert alone[2].time < alone[0].time
    with pytest.raises(ExplosionError) as stack:
        solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values)),
                            vf, np.array([1.0]), pvar_index=2.5)
    assert named(stack.value) == named(alone[2])
    others = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values[[1, 3]])),
                                 vf, np.array([1.0]), pvar_index=2.5)
    for row, k in enumerate((1, 3)):
        for name in ("Y", "V", "M", "pvar"):
            assert np.array_equal(getattr(others, name)[row], getattr(alone[k], name))


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
    flows = solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, values)),
                                vf, np.zeros(1), pvar_index=2.5)
    assert flows.M[1, 0, 0, 0] == -1.0
    assert not any(transport(flows, it)[1, 0].any() for it in range(1, grid.n))
    one = solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, values[1])),
                              vf, np.zeros(1))
    assert np.array_equal(one.M, flows.M[1])
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
