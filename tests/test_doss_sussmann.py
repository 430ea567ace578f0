"""Doss-Sussmann oracle: one nonlinear field driven by a scalar path.

For d = e = 1, write Phi(x) for the flow of V for time x from y0.  Along any
continuous driver, the piecewise-linear one the run lifts included, the exact
solution is Y_t = Phi(X_t) (Doss 1977; Sussmann, Ann. Probab. 1978), so the
gap between the run's Y^n_t and Phi(X_t) is the step-2 scheme's error alone.
The Malliavin variance of the exact solution is sigma_t = R(t, t) V(Y_t)^2,
and a start at a zero of V gives Y = y0 and sigma = 0 along every path: a
degenerate control whose driver is non-degenerate and whose field fails.

The field is the polynomial family's V(y) = u - u^2 at u = 5 tanh(y / 5),
its default squashing, so these runs take the generic (non-affine) solver
path.  Phi comes from scipy's DOP853 at rtol 1e-13, independently of the
package.

The same holds coordinate by coordinate for d = e = 2 fields that act each
on its own coordinate, V_i(y) = V(y_i) e_i: they commute, Y^i_t = Phi(X^i_t),
and sigma_t is diagonal with entries R(t, t) V(Y^i_t)^2.  That case runs the
generic solver's two-dimensional path.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gaussrde import (brownian_model, cameron_martin_basis, fbm_model, kernel_eval,
                      lift_piecewise_linear, load_config, run_experiment, sample_paths,
                      solve_flow_jacobian, uniform_grid)
from gaussrde.experiments import _ks_normal, build_fields, evaluate_flows
from test_experiments import read_rows

CONFIG = """
[model]
kernel = {kernel}
n = {n}
d = {d}

[fields]
family = polynomial
e = {d}
coeffs = {coeffs}
y0 = {y0}

[experiment]
count = {count}
seed = 0

[output]
csv = samples.csv
"""

KERNELS = {"brownian": ("brownian", brownian_model()),
           "fbm-0.4": ("fbm\nhurst = 0.4", fbm_model(0.4))}

# At seed 0, count 200 and t = 1, per (kernel, n): the root mean square and
# the largest of the paths' relative errors |Y^n_1 / Phi(X_1) - 1|, and the
# median of the rows' relative gaps |lambda_min / (R(1, 1) V(Y^n_1)^2) - 1|.
# Over seeds 0-15 every root mean square and median fell within 0.72-1.46
# times its seed-0 value; the bands below are half to twice it.
MEASURED = {("brownian", 65): (2.34e-3, 1.48e-2, 3.47e-3),
            ("brownian", 257): (6.11e-4, 5.14e-3, 9.49e-4),
            ("fbm-0.4", 65): (7.47e-3, 3.53e-2, 1.14e-2),
            ("fbm-0.4", 257): (3.05e-3, 2.26e-2, 4.93e-3)}
# The KS statistic of the paths' Y^n_1 against the exact law of Y_1, over seeds
# 0-15 at both kernels and both n: 0.038-0.161 (0.059-0.093 at seed 0).  It is
# the driver's own sampling noise: the KS statistic of X_1 against N(0, R(1, 1))
# differed from it by at most 5.4e-3, the step-2 scheme's error in law.
KS_BAND = (0.03, 0.17)
# V on its own coordinate, for each of d = e coordinates
COEFFS = {1: "1 1 1 = 1 ; 1 1 1 1 = -1",
          2: "1 1 1 = 1 ; 1 1 1 1 = -1 ; 2 2 2 = 1 ; 2 2 2 2 = -1"}
# The decoupled d = e = 2 runs from y0 = (0.3, 0.6), as MEASURED per
# coordinate: at seed 0 the first coordinate's errors are the d = 1 ones.
# Over seeds 0-15 every root mean square and median fell within 0.64-1.46
# times its seed-0 value, and every largest error within 0.27-2.94 times it;
# the bands below are half to twice, and 4 times for the largest.
MEASURED_2D = {("brownian", 65): ((2.34e-3, 1.48e-2, 3.50e-3), (1.96e-3, 7.99e-3, 2.65e-3)),
               ("brownian", 257): ((6.11e-4, 5.14e-3, 9.49e-4), (5.60e-4, 1.92e-3, 6.27e-4)),
               ("fbm-0.4", 65): ((7.47e-3, 3.53e-2, 1.15e-2), (5.80e-3, 2.49e-2, 9.74e-3)),
               ("fbm-0.4", 257): ((3.05e-3, 2.26e-2, 4.92e-3), (2.45e-3, 9.66e-3, 4.04e-3))}
Y0_2D = (0.3, 0.6)


def V(y):
    u = 5.0 * np.tanh(np.asarray(y) / 5.0)
    return u - u * u


def flow(y0, xs):
    """Phi(x) at each x: V's flow from y0 for time x, forwards for x >= 0
    and backwards for x < 0."""
    out = np.empty_like(xs)
    for sign in (1.0, -1.0):
        part = sign * xs >= 0
        if part.any():
            sol = solve_ivp(lambda x, y: sign * V(y), (0.0, np.max(sign * xs[part])), [y0],
                            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
            out[part] = sol.sol(sign * xs[part])[0]
    return out


def run(tmp_path, kernel, n, y0, count, d=1):
    """The run's report and its samples.csv, one dict per row."""
    path = tmp_path / "doss_sussmann.ini"
    path.write_text(CONFIG.format(kernel=KERNELS[kernel][0], n=n, d=d, coeffs=COEFFS[d],
                                  y0=y0, count=count))
    report = run_experiment(load_config(str(path)), out_dir=str(tmp_path))
    return report, read_rows(tmp_path / "samples.csv")


def test_a_start_at_a_zero_of_the_field_is_degenerate_on_every_path(tmp_path):
    report, rows = run(tmp_path, "fbm-0.4", 65, 0.0, 50)
    assert report.summary["aborted"] == 0 and len(rows) == 50
    assert all(float(r["y_1"]) == 0.0 and float(r["lambda_min"]) == 0.0 for r in rows)
    assert all(r["verdict"] == "degenerate" for r in rows)
    assert report.summary["fraction_degenerate"] == 1.0


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_the_run_follows_the_flow_of_the_driver(tmp_path, kernel):
    """Each path's Y^n_1 against Phi(X_1), and each row's sigma (its
    lambda_min, at e = 1) against R(1, 1) V(Y^n_1)^2, in bands around the
    errors measured; both fall with the mesh.  The final states against the
    exact law: Y_1 = Phi(X_1) has the cdf y -> N(Phi^-1(y) / sqrt(R(1, 1))),
    with Phi^-1 read from the table (X_1, Phi(X_1)), which Phi keeps in
    order."""
    model, rms = KERNELS[kernel][1], {}
    for n in (65, 257):
        report, rows = run(tmp_path, kernel, n, 0.3, 200)
        assert report.summary["aborted"] == 0 and report.summary["fraction_degenerate"] == 0.0
        Y = np.array([float(r["y_1"]) for r in rows])
        X1 = sample_paths([model], uniform_grid(1.0, n), 200, 0).values[:, -1, 0]
        table = flow(0.3, X1)
        error = np.abs(Y / table - 1.0)
        exact = float(model(1.0, 1.0)) * V(Y) ** 2
        gap = np.abs(np.array([float(r["lambda_min"]) for r in rows]) / exact - 1.0)
        rms[n], worst, median = np.sqrt(np.mean(error ** 2)), error.max(), np.median(gap)
        measured_rms, measured_worst, measured_median = MEASURED[kernel, n]
        assert 0.5 * measured_rms <= rms[n] <= 2.0 * measured_rms
        assert worst <= 2.0 * measured_worst
        assert 0.5 * measured_median <= median <= 2.0 * measured_median
        sd = np.sqrt(float(model(1.0, 1.0)))
        ks = _ks_normal(np.interp(Y, np.sort(table), np.sort(X1)), 0.0, sd)
        assert KS_BAND[0] <= ks <= KS_BAND[1]
        assert abs(ks - _ks_normal(X1, 0.0, sd)) <= 1e-2
    # measured: 3.8 times smaller (Brownian) and 2.5 times (fBm(0.4))
    assert rms[257] < 0.5 * rms[65]


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_decoupled_planar_fields_follow_the_flow_on_each_coordinate(tmp_path, kernel):
    """d = e = 2, each field on its own coordinate: each coordinate's Y^n_1
    against Phi(X^i_1), and sigma's two diagonal entries, read from the row's
    lambda_min and det (the entry with the smaller exact value is lambda_min),
    against R(1, 1) V(Y^i_1)^2, in bands around the errors measured.  The
    off-diagonal of the sigma `evaluate_flows` forms is exactly 0."""
    model, rms = KERNELS[kernel][1], {}
    for n in (65, 257):
        report, rows = run(tmp_path, kernel, n, " ".join(map(str, Y0_2D)), 200, d=2)
        assert report.summary["aborted"] == 0 and report.summary["fraction_degenerate"] == 0.0
        Y = np.array([[float(r["y_1"]), float(r["y_2"])] for r in rows])
        X1 = sample_paths([model] * 2, uniform_grid(1.0, n), 200, 0).values[:, -1, :]
        table = np.column_stack([flow(y0, X1[:, i]) for i, y0 in enumerate(Y0_2D)])
        error = np.abs(Y / table - 1.0)
        exact = float(model(1.0, 1.0)) * V(Y) ** 2
        lam, det = (np.array([float(r[name]) for r in rows]) for name in ("lambda_min", "det"))
        first = (exact[:, 0] <= exact[:, 1])[:, None]
        diagonal = np.where(first, np.column_stack([lam, det / lam]),
                            np.column_stack([det / lam, lam]))
        gap = np.abs(diagonal / exact - 1.0)
        rms[n] = np.sqrt(np.mean(error ** 2, axis=0))
        for i, (measured_rms, measured_worst, measured_median) in enumerate(
                MEASURED_2D[kernel, n]):
            assert 0.5 * measured_rms <= rms[n][i] <= 2.0 * measured_rms
            assert error[:, i].max() <= 4.0 * measured_worst
            assert 0.5 * measured_median <= np.median(gap[:, i]) <= 2.0 * measured_median
    assert np.all(rms[257] < 0.5 * rms[65])

    path = tmp_path / "doss_sussmann.ini"  # the n = 257 run's config
    cfg, grid = load_config(str(path)), uniform_grid(1.0, 257)
    vf = build_fields(cfg)
    flows = solve_flow_jacobian(lift_piecewise_linear(sample_paths([model] * 2, grid, 200, 0)),
                                vf, cfg.y0)
    mat, _, _ = evaluate_flows(flows, vf, kernel_eval(model, grid),
                               cameron_martin_basis(model, grid), grid.n - 1, cfg.tau)
    assert np.all(mat.sigma[:, 0, 1] == 0.0) and np.all(mat.sigma[:, 1, 0] == 0.0)
    assert np.all(np.diagonal(mat.sigma, axis1=1, axis2=2) > 0.0)
