"""Closed-form oracle: commuting diagonal linear fields V_i(y) = A_i y.

The scheme's step is linear in y, so I + M_k is the step map itself and
J_{t<-s} Y_s = Y_t on the grid: the Malliavin derivative D^i_s Y_t =
J_{t<-s} A_i Y_s = A_i Y_t is constant in s.  The rectangle increments of
the kernel over [0, t]^2 sum to R(t, t), so both routes' sigma_t is exactly
R(t, t) sum_i A_i Y_t Y_t^T A_i^T, for every kernel and every mesh, up to
rounding.  Unlike the route check, this truth does not come from the flow's
own derivative, so a fault in the step maps shows.
"""

import dataclasses

import numpy as np
import pytest

import gaussrde.rde
from gaussrde import (GridFunction2D, bridge_model, brownian_model, cameron_martin_basis,
                      fbm_model, kernel_eval, lift_piecewise_linear, linear_fields,
                      load_config, malliavin_matrix_2d, malliavin_matrix_bm_reduction,
                      malliavin_matrix_parseval, run_experiment, sample_paths,
                      solve_flow_jacobian, uniform_grid)
from gaussrde.experiments import ROUTE_TOL, _ks_normal, evaluate_flows
from gaussrde.malliavin import route_residual

A = np.array([np.diag([1.0, 0.3]), np.diag([-0.4, 0.8])])
VF = linear_fields(A)
# C = sum_i a_i a_i^T for the diagonals a_i of A: [[1.16, -0.02], [-0.02, 0.73]]
C = np.diagonal(A, axis1=1, axis2=2).T @ np.diagonal(A, axis1=1, axis2=2)
Y0 = np.ones(2)
# about ten times the largest gap measured, 1.1e-14 of the 2D route's `magnitude`
TOL = 1e-13

MODELS = {"brownian": brownian_model(), "fbm-0.35": fbm_model(0.35),
          "fbm-0.4": fbm_model(0.4), "fbm-0.75": fbm_model(0.75),
          "bridge-1": bridge_model(1.0)}


def solve(model, n, count, seed=3, vf=VF):
    grid = uniform_grid(1.0, n)
    X = lift_piecewise_linear(sample_paths([model] * 2, grid, count, seed))
    return solve_flow_jacobian(X, vf, Y0)


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


# solver path: (the fields that take it, the function that writes its step maps)
PATHS = {"generic": (dataclasses.replace(VF, affine=None), "_step_maps"),
         "affine": (VF, "_affine_steps")}


def scale_step_maps(monkeypatch, path):
    """Make the solver's step maps on `path` come out scaled by 1.05, after
    its states are stepped: the states stay."""
    maps = getattr(gaussrde.rde, PATHS[path][1])

    def scaled(*args):
        out = maps(*args)
        args[-1][...] *= 1.05  # the step maps, M, come last
        return out
    monkeypatch.setattr(gaussrde.rde, PATHS[path][1], scaled)


def test_the_closed_form_sees_a_fault_the_route_check_cannot(monkeypatch):
    """Every step map scaled by 1.05, on either solver path: both routes pair
    the same wrong derivative, so they still agree, while sigma leaves the
    closed form."""
    model = fbm_model(0.4)
    for path, (vf, _) in PATHS.items():
        clean = solve(model, 65, 64, vf=vf)
        with monkeypatch.context() as patch:
            scale_step_maps(patch, path)
            faulty = solve(model, 65, 64, vf=vf)
        assert np.array_equal(faulty.Y, clean.Y)
        kernel, basis = kernel_eval(model, faulty.grid), cameron_martin_basis(model, faulty.grid)
        for t in (0.5, 1.0):
            exact = closed_form(faulty, model, t)
            mat = malliavin_matrix_2d(faulty, VF, kernel, t)
            check = malliavin_matrix_parseval(faulty, VF, basis, t)
            # every path leaves the closed form, the worst by more than 1e-3
            gaps = gap(mat.sigma, exact, mat.magnitude)
            assert gaps.min() > 1e3 * TOL and gaps.max() > 1e-3, path
            residual = route_residual(mat.sigma, check.sigma,
                                      np.maximum(mat.magnitude, check.magnitude))
            assert residual.max() <= ROUTE_TOL, path


def drop(basis, columns):
    """The basis restricted to some of its elements."""
    return dataclasses.replace(basis, functions=basis.functions[:, columns],
                               eigenvalues=basis.eigenvalues[columns])


def shift_box(kernel):
    """A kernel sample whose rectangle increments are kernel's shifted one
    grid step along s (row i is row i + 1, the last row 0): the 2D route
    then pairs Z(s_i) with the cells of s_(i+1).  A symmetric kernel has a
    symmetric box, so a transposed one would inject nothing."""
    return GridFunction2D(kernel.grid, np.vstack([kernel.values[1:], kernel.values[-1:]]))


# fault: (the route check catches it, the closed form catches it, the fault as a
# map of (flows, kernel sample, basis)).  A scaled input is scaled by 1.05; the
# basis is ordered by eigenvalue, largest first.
FAULTS = {
    "clean": (False, False, lambda f, k, b: (f, k, b)),
    "M_scaled": (False, True, lambda f, k, b: (dataclasses.replace(f, M=1.05 * f.M), k, b)),
    "V_scaled": (False, True, lambda f, k, b: (dataclasses.replace(f, V=1.05 * f.V), k, b)),
    "kernel_scaled": (True, True,
                      lambda f, k, b: (f, GridFunction2D(k.grid, 1.05 * k.values), b)),
    "basis_scaled": (True, False, lambda f, k, b: (
        f, k, dataclasses.replace(b, functions=1.05 * b.functions))),
    "basis_without_smallest": (True, False, lambda f, k, b: (f, k, drop(b, slice(-1)))),
    "basis_without_largest": (True, False, lambda f, k, b: (f, k, drop(b, slice(1, None)))),
    "pairing_shifted": (True, True, lambda f, k, b: (f, shift_box(k), b)),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_which_check_catches_which_fault(fault):
    """One fault at a time in the inputs of the covariance tail (fBm(0.4),
    n = 65, 64 paths, t = 1).  Measured (route residual, closed-form gap):
    clean (5.7e-16, 6.8e-16); M (6.2e-16, 3.7e-2); V (5.0e-16, 2.5e-2);
    kernel (1.3e-2, 1.3e-2); basis (2.8e-2, 6.8e-16); basis without its
    smallest element (6.1e-8, 6.8e-16), without its largest (2.1e-1,
    6.8e-16); the 2D route pairing Z with its box shifted one grid step
    (6.6e-3, 6.6e-3).  The route check sees only the kernel, the basis and
    one route's pairing, since both routes pair one derivative; the closed
    form sees M, V, the kernel and the pairing."""
    route_catches, closed_form_catches, inject = FAULTS[fault]
    model = fbm_model(0.4)
    flows = solve(model, 65, 64)
    flows, kernel, basis = inject(flows, kernel_eval(model, flows.grid),
                                  cameron_martin_basis(model, flows.grid))
    mat, _, row = evaluate_flows(flows, VF, kernel, basis, flows.grid.n - 1, 1e-10)
    assert (row["residual"].max() > ROUTE_TOL) == route_catches
    worst = gap(mat.sigma, closed_form(flows, model, 1.0), mat.magnitude).max()
    if closed_form_catches:
        assert worst > 1e-3
    else:
        assert worst <= TOL


RUN_CONFIG = """
[model]
kernel = fbm
hurst = 0.4
n = 65
d = 2

[fields]
family = linear
e = 2
y0 = 1.0 1.0
matrices = 1 0 0 0.3 ; -0.4 0 0 0.8

[experiment]
times = 0.5 1.0
count = 400
seed = {seed}

[output]
csv = samples.csv
"""


def run_rows(tmp_path, seed=0):
    """The CSV of a run on A's fields, as float columns (the verdict aside)."""
    path = tmp_path / "closed_form.ini"
    path.write_text(RUN_CONFIG.format(seed=seed))
    run_experiment(load_config(str(path)), out_dir=str(tmp_path))
    header, *lines = (tmp_path / "samples.csv").read_text().splitlines()
    cells = list(zip(*(line.split(",") for line in lines)))
    return {name: np.array(column, dtype=float)
            for name, column in zip(header.split(","), cells) if name != "verdict"}


def row_gaps(rows):
    """Per CSV row, the gaps of `lambda_min` and `det` to the closed form at
    the row's own y and t, over trace and trace^2."""
    y = np.column_stack([rows["y_1"], rows["y_2"]])
    AY = np.einsum("iab,kb->kia", A, y)
    exact = MODELS["fbm-0.4"](rows["t"], rows["t"])[:, None, None] * np.einsum(
        "kia,kib->kab", AY, AY)
    trace = np.trace(exact, axis1=1, axis2=2)
    return (np.abs(rows["lambda_min"] - np.linalg.eigvalsh(exact)[:, 0]) / trace,
            np.abs(rows["det"] - np.linalg.det(exact)) / trace ** 2)


def test_every_row_of_a_run_matches_the_closed_form(tmp_path):
    """`lambda_min` and `det` of every CSV row against the closed form at
    the row's own state: the largest gaps measured over seeds 0-7 at counts
    400 and 1000 were 1.03e-15 of the trace and 9.7e-16 of trace^2."""
    rows = run_rows(tmp_path)
    assert rows["t"].size == 800
    lambda_gap, det_gap = row_gaps(rows)
    assert lambda_gap.max() <= TOL and det_gap.max() <= TOL


def test_a_run_samples_the_lognormal_law(tmp_path):
    """log Y_j(1) is N(0, R(1, 1) C_jj), R(1, 1) = 1, up to the scheme's
    error.  At seed 0 the KS statistics measured 0.028 and 0.048; over seeds
    0-7 the largest was 0.081.  The 2-D KDE's gap to the exact density is
    the next test's."""
    rows = run_rows(tmp_path)
    final = rows["t"] == 1.0
    for j in range(2):
        assert _ks_normal(np.log(rows[f"y_{j + 1}"][final]), 0.0, np.sqrt(C[j, j])) < 0.06


def test_the_2d_kde_stays_in_its_measured_band_against_the_exact_law(tmp_path):
    """Accuracy baseline of the run's 2-D KDE (Silverman's bandwidth per
    axis) against the exact density of Y_1, lognormal with log Y_1 ~ N(0, C),
    on the run's own query grid: the sup gap over the exact peak (at the
    mode exp(-C 1)) measured 0.613-0.773 at count 400 and 0.469-0.632 at
    count 4000 over seeds 0-7 (0.696 and 0.469 at seed 0).  Over the exact
    density's largest value on the grid it was 0.685-0.804 and 0.560-0.687.
    Silverman's bandwidth oversmooths this skewed law, so the gap falls
    slowly with count; the band records that, and a better bandwidth moves
    it down."""
    norm = 2 * np.pi * np.sqrt(np.linalg.det(C))
    peak = np.exp(0.5 * C.sum()) / norm
    gaps = []
    for count, (lo, hi) in {400: (0.60, 0.79), 4000: (0.45, 0.65)}.items():
        path = tmp_path / "closed_form.ini"
        path.write_text(RUN_CONFIG.format(seed=0).replace("count = 400", f"count = {count}"))
        report = run_experiment(load_config(str(path)), out_dir=str(tmp_path))
        y = np.stack(np.meshgrid(*report.query_grid, indexing="ij"), axis=-1)
        exact = np.zeros(y.shape[:2])  # 0 off the positive quadrant
        inside = np.all(y > 0, axis=-1)
        x = np.log(y[inside])
        exact[inside] = np.exp(-0.5 * np.einsum("ka,ab,kb->k", x, np.linalg.inv(C), x)) / (
            norm * y[inside].prod(axis=1))
        gaps.append(np.abs(report.kde_values - exact).max() / peak)
        assert lo < gaps[-1] < hi, (count, gaps[-1])
    assert gaps[1] < gaps[0]


def test_the_rows_of_a_run_see_a_fault_in_the_step_maps(tmp_path, monkeypatch):
    """With every step map scaled by 1.05, on either solver path, the run
    still passes its route check (worst residual measured 6.0e-16), but its
    rows leave the closed form: the worst gap measured 7.1e-2 of the trace."""
    import gaussrde.experiments

    build = gaussrde.experiments.build_fields
    for path in PATHS:
        with monkeypatch.context() as patch:
            if path == "generic":
                patch.setattr(gaussrde.experiments, "build_fields",
                              lambda cfg: dataclasses.replace(build(cfg), affine=None))
            scale_step_maps(patch, path)
            lambda_gap, det_gap = row_gaps(run_rows(tmp_path))
        assert max(lambda_gap.max(), det_gap.max()) > 1e-3, path


BRIDGE_CONFIG = """
[model]
kernel = bridge
pin = 1.0
n = 65
d = 2

[fields]
family = linear
e = 2
y0 = 1 1
matrices = 1 0 0 0.3 ; -0.4 0 0 0.8

[experiment]
times = 0.5 1.0
count = 200
seed = 0
allow_degenerate = true

[output]
json = summary.json
"""


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
def test_the_summary_of_each_time_finds_the_bridge_degenerate_at_its_pin_alone(
        tmp_path, monkeypatch):
    """A bridge pinned at 1 has X_1 = 0, so by the closed form sigma_1 = 0
    while sigma_0.5 is not.  The summary of each time's rows says so: every
    row degenerate at t = 1 and none at t = 0.5, as measured at seed 0.
    summary.json's `fraction_degenerate` still pools both times into 0.5."""
    import json

    import gaussrde.experiments

    summarise, records = gaussrde.experiments.summarise_rows, []

    def recording(record, rows):
        records.append(dict(record))
        return summarise(record, rows)

    monkeypatch.setattr(gaussrde.experiments, "summarise_rows", recording)
    path = tmp_path / "bridge.ini"
    path.write_text(BRIDGE_CONFIG)
    run_experiment(load_config(str(path)), out_dir=str(tmp_path))
    [record] = records
    per_time = {t: summarise(record, record["t"] == t) for t in (0.5, 1.0)}
    assert {t: s["fraction_degenerate"] for t, s in per_time.items()} == {0.5: 0.0, 1.0: 1.0}
    assert all(s["oracle_check"]["checked"] == 200 for s in per_time.values())
    assert json.loads((tmp_path / "summary.json").read_text())["fraction_degenerate"] == 0.5
