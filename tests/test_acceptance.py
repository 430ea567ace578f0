"""End-to-end acceptance suite: ten numbered criteria, one test each.

Every test prints one [PASS]/[FAIL] line with its measured quantities and
elapsed time, then asserts at the stated tolerance.  Criteria that consume
Monte Carlo batches run through the same config-driven pipeline the CLI
uses; the rest drive the library directly.
"""

import textwrap
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gaussrde import (
    ConfigError,
    GridFunction1D,
    brownian_model,
    cameron_martin_basis,
    check_conditions,
    cm_element_from_coeffs,
    cm_embedding_check,
    directional_derivative,
    fbm_model,
    kernel_eval,
    lift_piecewise_linear,
    linear_fields,
    load_config,
    malliavin_matrix_2d,
    malliavin_matrix_bm_reduction,
    malliavin_matrix_parseval,
    polynomial_fields,
    rotation_fields,
    run_experiment,
    sample_paths,
    solve_flow_jacobian,
    solve_ode_reference,
    translate,
    uniform_grid,
    young_integral_1d,
    young_integral_2d,
)
from gaussrde.nilpotent import increment, product, residual
from test_experiments import read_rows


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _elapsed(t0):
    return f"{time.perf_counter() - t0:.2f}s"


def _random_geometric(rng, d):
    a = rng.standard_normal(d)
    s = rng.standard_normal((d, d))
    return a, 0.5 * np.outer(a, a) + 0.5 * (s - s.T)


def _gap(g, h):
    return max(float(np.max(np.abs(g[0] - h[0]))), float(np.max(np.abs(g[1] - h[1]))))


def test_criterion_01_group_and_chen_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        g, h, k = (_random_geometric(rng, d) for _ in range(3))
        e = (np.zeros(d), np.zeros((d, d)))
        inverse = increment(*g, 0.0, 0.0)
        worst = max(worst, _gap(product(*g, *inverse), e))
        lhs = product(*product(*g, *h), *k)
        rhs = product(*g, *product(*h, *k))
        worst = max(worst, _gap(lhs, rhs))
        split = product(*increment(*g, *h), *increment(*h, *k))
        worst = max(worst, _gap(split, increment(*g, *k)))
        worst = max(worst, float(residual(*product(*g, *h))))
    for trial in range(100):
        d = int(rng.integers(1, 4))
        grid = uniform_grid(1.0, 32)
        values = np.cumsum(rng.standard_normal((32, d)), axis=0)
        values -= values[0]
        X = lift_piecewise_linear(GridFunction1D(grid, values))
        i, j, k = np.sort(rng.choice(32, size=3, replace=False))
        split = product(*X.increment(i, j), *X.increment(j, k))
        direct = X.increment(i, k)
        worst = max(worst, _gap(split, direct), float(residual(*direct)))
    _report(1, "group and Chen suite", worst <= 1e-9,
            f"max residual {worst:.3e} (tol 1e-9) over 1000 elements + "
            f"100 lifts, {_elapsed(t0)}")


def test_criterion_02_translation_theorem():
    t0 = time.perf_counter()
    grid = uniform_grid(1.0, 64)
    worst = 0.0
    for seed in range(200):
        batch = sample_paths([brownian_model()] * 2, grid, 3, seed=1000 + seed)
        xv, hv, kv = batch.values[0], 0.5 * batch.values[1], 0.5 * batch.values[2]
        X = lift_piecewise_linear(GridFunction1D(grid, xv))
        h = GridFunction1D(grid, hv)
        shifted = translate(X, h)
        direct = lift_piecewise_linear(GridFunction1D(grid, xv + hv))
        worst = max(worst,
                    float(np.max(np.abs(shifted.level1 - direct.level1))),
                    float(np.max(np.abs(shifted.level2 - direct.level2))))
        twice = translate(shifted, GridFunction1D(grid, kv))
        joint = translate(X, GridFunction1D(grid, hv + kv))
        worst = max(worst,
                    float(np.max(np.abs(twice.level1 - joint.level1))),
                    float(np.max(np.abs(twice.level2 - joint.level2))))
    _report(2, "translation theorem on grids", worst <= 1e-10,
            f"max residual {worst:.3e} (tol 1e-10) over 200 pairs at n=64, "
            f"{_elapsed(t0)}")


def test_criterion_03_cameron_martin_embedding():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    grid = uniform_grid(1.0, 64)
    models = [brownian_model(), fbm_model(0.4), fbm_model(0.75)]
    counts = [334, 333, 333]
    violations = 0
    checked = 0
    min_margin = np.inf
    for model, count in zip(models, counts):
        kernel = kernel_eval(model, grid)
        basis = cameron_martin_basis(kernel)
        for _ in range(count):
            coeffs = rng.standard_normal(basis.size)
            h = cm_element_from_coeffs(basis, coeffs)
            rep = cm_embedding_check(kernel, h, h_norm_sq=float(coeffs @ coeffs))
            checked += 1
            sound = rep["holds"] and rep["lhs"] <= rep["partition_rhs"] * (1 + 1e-12)
            if not sound:
                violations += 1
            if rep["lhs"] > 0:
                min_margin = min(min_margin, rep["partition_rhs"] / rep["lhs"])
    _report(3, "Cameron-Martin embedding", violations == 0,
            f"{violations} violations in {checked} elements "
            f"(min rhs/lhs margin {min_margin:.3f}), {_elapsed(t0)}")


def test_criterion_04_parseval_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    grid = uniform_grid(1.0, 128)
    worst = 0.0
    for model in (brownian_model(), fbm_model(0.4)):
        R = kernel_eval(model, grid)
        basis = cameron_martin_basis(R)
        for _ in range(50):
            f = GridFunction1D(grid, rng.standard_normal(128))
            g = GridFunction1D(grid, rng.standard_normal(128))
            series = sum(
                young_integral_1d(f, basis.element(n))
                * young_integral_1d(g, basis.element(n))
                for n in range(basis.size)
            )
            direct = young_integral_2d(f, g, R)
            rel = abs(series - direct) / max(abs(direct), 1e-300)
            worst = max(worst, rel)
    _report(4, "Parseval / 2D-Young identity", worst <= 1e-8,
            f"max relative error {worst:.3e} (tol 1e-8) over 100 pairs at "
            f"n=128, {_elapsed(t0)}")


def test_criterion_05_rde_solver_oracles():
    t0 = time.perf_counter()
    n = 1024
    grid = uniform_grid(1.0, n)

    # (a) closed forms exp(A x_T) y0 with smooth deterministic drivers
    gaps_a = []
    A = 0.7
    X = lift_piecewise_linear(GridFunction1D(grid, grid.points.copy()))
    flow = solve_flow_jacobian(X, linear_fields(np.array([[[A]]])), np.array([1.3]))
    exact = 1.3 * np.exp(A * 1.0)
    gaps_a.append(abs(flow.final_state[0] - exact) / abs(exact))

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    angle = np.pi / 3
    X = lift_piecewise_linear(GridFunction1D(grid, angle * grid.points))
    y0 = np.array([1.0, 0.4])
    flow = solve_flow_jacobian(X, linear_fields(rot[None]), y0)
    target = expm(rot * angle) @ y0
    gaps_a.append(np.linalg.norm(flow.final_state - target) / np.linalg.norm(target))

    A2 = np.stack([np.diag([0.4, 0.4]), np.diag([0.3, -0.2])])
    rates = np.array([0.8, 0.6])
    X = lift_piecewise_linear(GridFunction1D(grid, np.outer(grid.points, rates)))
    y0 = np.array([1.0, -0.5])
    flow = solve_flow_jacobian(X, linear_fields(A2), y0)
    target = expm(A2[0] * rates[0] + A2[1] * rates[1]) @ y0
    gaps_a.append(np.linalg.norm(flow.final_state - target) / np.linalg.norm(target))
    worst_a = max(gaps_a)

    # (b) monotone agreement with the smooth-driver ODE oracle, rotation system
    vf = rotation_fields()
    y0 = np.array([1.0, 0.5])
    gaps_b = []
    for m in (65, 129, 257, 513):
        g = uniform_grid(1.0, m)
        tt = g.points
        values = 0.8 * np.column_stack([np.sin(2 * tt), tt * np.cos(tt)])
        values -= values[0]
        path = GridFunction1D(g, values)
        rough = solve_flow_jacobian(lift_piecewise_linear(path), vf, y0)
        ode = solve_ode_reference(path, vf, y0, substeps=8)
        gaps_b.append(float(np.linalg.norm(rough.final_state - ode.final_state)))
    monotone = all(b < a for a, b in zip(gaps_b, gaps_b[1:]))
    ok = worst_a <= 1e-6 and monotone and gaps_b[-1] <= 1e-4
    _report(5, "RDE solver oracles", ok,
            f"closed-form max rel err {worst_a:.3e} (tol 1e-6) at n=1024; "
            f"oracle gaps {['%.2e' % g for g in gaps_b]} monotone={monotone} "
            f"final tol 1e-4, {_elapsed(t0)}")


def test_criterion_06_duhamel_vs_finite_difference():
    t0 = time.perf_counter()
    n = 512
    grid = uniform_grid(1.0, n)
    A = np.stack([np.diag([0.4, 0.4]), np.diag([0.3, -0.2])])
    vf = linear_fields(A)
    y0 = np.array([1.0, 1.0])
    eps = 1e-4
    rng = np.random.default_rng(104)
    gaps = []
    for seed in range(20):
        batch = sample_paths([brownian_model()] * 2, grid, 1, seed=2000 + seed)
        X = lift_piecewise_linear(batch.path(0))
        t = grid.points
        hv = np.zeros((n, 2))
        for j in range(2):
            c = rng.standard_normal(5) * 0.4
            hv[:, j] = c[0] * t + sum(
                c[m] * np.sin(np.pi * m * t) / (np.pi * m) for m in range(1, 5))
        h = GridFunction1D(grid, hv)
        flow = solve_flow_jacobian(X, vf, y0)
        duhamel = directional_derivative(flow, vf, h, 1.0)
        up = solve_flow_jacobian(translate(X, GridFunction1D(grid, eps * hv)), vf, y0)
        dn = solve_flow_jacobian(translate(X, GridFunction1D(grid, -eps * hv)), vf, y0)
        fd = (up.final_state - dn.final_state) / (2 * eps)
        gaps.append(float(np.linalg.norm(duhamel - fd) / np.linalg.norm(fd)))
    worst = max(gaps)
    _report(6, "Duhamel vs finite difference", worst <= 0.01,
            f"max relative gap {worst:.3e} (tol 1e-2) over 20 pairs, "
            f"eps=1e-4, n=512, {_elapsed(t0)}")


def test_criterion_07_malliavin_route_equivalence():
    t0 = time.perf_counter()
    grid = uniform_grid(1.0, 128)
    rng = np.random.default_rng(105)
    systems = [
        ("rotation", rotation_fields(), brownian_model(), np.array([0.8, -0.3])),
        ("linear+drift",
         linear_fields(np.stack([np.diag([0.4, 0.1]), 0.3 * np.eye(2)]),
                       drift=(np.diag([-0.2, 0.1]), np.zeros(2))),
         brownian_model(), np.array([1.0, 0.5])),
        ("polynomial",
         polynomial_fields(c0=rng.standard_normal((2, 2)) * 0.4,
                           c1=rng.standard_normal((2, 2, 2)) * 0.3,
                           c2=rng.standard_normal((2, 2, 2, 2)) * 0.15),
         fbm_model(0.4), np.array([0.2, -0.1])),
    ]
    worst = 0.0
    for _, vf, model, y0 in systems:
        kernel = kernel_eval(model, grid)
        basis = cameron_martin_basis(kernel)
        for k in range(10):
            batch = sample_paths([model] * vf.d, grid, 1, seed=3000 + k)
            flow = solve_flow_jacobian(lift_piecewise_linear(batch.path(0)),
                                       vf, y0)
            direct = malliavin_matrix_2d(flow, vf, kernel, 1.0)
            parseval = malliavin_matrix_parseval(flow, vf, basis, 1.0)
            rel = (np.linalg.norm(parseval.sigma - direct.sigma)
                   / max(np.linalg.norm(direct.sigma), 1e-300))
            worst = max(worst, rel)

    # Brownian diagonal reduction: 2% at the fine mesh, shrinking under it
    vf = rotation_fields()
    y0 = np.array([0.5, 0.2])
    fine = uniform_grid(1.0, 513)
    reduction_ok = True
    fine_gaps, coarse_gaps = [], []
    for k in range(3):
        base = sample_paths([brownian_model()] * 2, fine, 1, seed=4000 + k)
        for stride, sink in ((4, coarse_gaps), (1, fine_gaps)):
            idx = np.arange(0, 513, stride)
            g = uniform_grid(1.0, idx.size)
            X = lift_piecewise_linear(GridFunction1D(g, base.values[0, idx, :]))
            flow = solve_flow_jacobian(X, vf, y0)
            direct = malliavin_matrix_2d(flow, vf,
                                         kernel_eval(brownian_model(), g), 1.0)
            reduced = malliavin_matrix_bm_reduction(flow, vf, 1.0)
            sink.append(np.linalg.norm(reduced.sigma - direct.sigma)
                        / np.linalg.norm(direct.sigma))
    for cg, fg in zip(coarse_gaps, fine_gaps):
        if not (fg <= 0.02 and fg < cg):
            reduction_ok = False
    ok = worst <= 1e-6 and reduction_ok
    _report(7, "Malliavin route equivalence", ok,
            f"max parseval/2d rel gap {worst:.3e} (tol 1e-6) on 30 samples; "
            f"BM reduction fine gaps {['%.4f' % g for g in fine_gaps]} "
            f"(tol 0.02, all below coarse), {_elapsed(t0)}")


DICHOTOMY_TEMPLATE = """
[model]
kernel = {kernel}
horizon = 1.0
n = 65
d = 2

[fields]
family = rotation
e = 2
y0 = 1.0 0.0
omegas = 1.0 0.5

[experiment]
times = 0.5 1.0
count = 1000
seed = {seed}
"""


def test_criterion_08_density_dichotomy(tmp_path):
    t0 = time.perf_counter()
    details = []
    ok = True

    # elliptic fields, non-degenerate drivers: every sample non-degenerate
    kernels = [("brownian", ""), ("fbm", "hurst = 0.4"),
               ("fbm", "hurst = 0.5"), ("fbm", "hurst = 0.75")]
    for i, (kernel, extra) in enumerate(kernels):
        text = DICHOTOMY_TEMPLATE.format(kernel=kernel, seed=500 + i)
        if extra:
            text = text.replace(f"kernel = {kernel}", f"kernel = {kernel}\n{extra}")
        path = tmp_path / f"elliptic_{i}.ini"
        path.write_text(textwrap.dedent(text))
        summary = run_experiment(load_config(str(path))).summary
        label = kernel + (f"({extra.split('=')[1].strip()})" if extra else "")
        details.append(f"{label}: {summary['fraction_degenerate']:.4f} degenerate "
                       f"of {summary['count']}")
        if summary["aborted"] != 0 or summary["fraction_degenerate"] != 0.0:
            ok = False

    # non-spanning constant fields: every sample degenerate with det ~ 0
    flat = """
    [model]
    kernel = brownian
    horizon = 1.0
    n = 33
    d = 1

    [fields]
    family = constant
    e = 2
    y0 = 0.0 0.0
    vectors = 1.0 0.0

    [experiment]
    times = 1.0
    count = 1000
    seed = 510

    [output]
    csv = flat.csv
    """
    path = tmp_path / "flat.ini"
    path.write_text(textwrap.dedent(flat))
    summary = run_experiment(load_config(str(path)), out_dir=str(tmp_path)).summary
    rows = read_rows(tmp_path / "flat.csv")
    dets = np.array([float(r["det"]) for r in rows])
    flat_ok = (summary["fraction_degenerate"] == 1.0 and len(rows) == 1000
               and np.all(np.abs(dets) <= 1e-12))
    details.append(f"constant fields: {summary['fraction_degenerate']:.4f} "
                   f"degenerate, max |det| {np.max(np.abs(dets)):.2e}")
    ok = ok and flat_ok

    # pinned bridge, scalar system: degenerate exactly at the pin time
    bridge = """
    [model]
    kernel = bridge
    horizon = 1.0
    n = 65
    d = 1

    [fields]
    family = linear
    e = 1
    y0 = 1.0
    matrices = 0.4

    [experiment]
    times = 0.5 1.0
    count = 200
    seed = 511
    allow_degenerate = true

    [output]
    csv = bridge.csv
    """
    path = tmp_path / "bridge.ini"
    path.write_text(textwrap.dedent(bridge))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(load_config(str(path)), out_dir=str(tmp_path))
    rows = read_rows(tmp_path / "bridge.csv")
    at_pin = [r["verdict"] for r in rows if float(r["t"]) == 1.0]
    before = [r["verdict"] for r in rows if float(r["t"]) == 0.5]
    bridge_ok = (len(at_pin) == 200 and all(v == "degenerate" for v in at_pin)
                 and all(v == "non-degenerate" for v in before))
    details.append(f"bridge: {sum(v == 'degenerate' for v in at_pin)}/200 "
                   f"degenerate at the pin, 0/200 before it")
    ok = ok and bridge_ok

    _report(8, "density dichotomy", ok,
            "; ".join(details) + f", {_elapsed(t0)}")


def test_criterion_09_density_sanity(tmp_path):
    t0 = time.perf_counter()
    text = """
    [model]
    kernel = brownian
    horizon = 1.0
    n = 65
    d = 1

    [fields]
    family = linear
    e = 1
    y0 = 1.0
    matrices = 1.0

    [experiment]
    times = 1.0
    count = 10000
    seed = 512
    reference = lognormal 0 1
    """
    path = tmp_path / "density.ini"
    path.write_text(textwrap.dedent(text))
    summary = run_experiment(load_config(str(path))).summary
    mass_err = abs(summary["kde"]["mass"] - 1.0)
    ks = summary["reference"]["ks_distance"]
    ok = ks < 0.05 and mass_err <= 1e-3 and summary["fraction_degenerate"] == 0.0
    _report(9, "density sanity", ok,
            f"KS distance {ks:.4f} (tol 0.05) at 10^4 samples, "
            f"KDE mass error {mass_err:.2e} (tol 1e-3), {_elapsed(t0)}")


def test_criterion_10_condition_gating(tmp_path):
    t0 = time.perf_counter()
    rough = """
    [model]
    kernel = fbm
    hurst = 0.3
    horizon = 1.0
    n = 17
    d = 1

    [fields]
    family = linear
    e = 1
    y0 = 1.0
    matrices = 1.0
    """
    path = tmp_path / "rough.ini"
    path.write_text(textwrap.dedent(rough))
    rejected = False
    try:
        load_config(str(path))
    except ConfigError:
        rejected = True

    flat = """
    [model]
    kernel = brownian
    horizon = 1.0
    n = 17
    d = 1

    [fields]
    family = constant
    e = 2
    y0 = 0.0 0.0
    vectors = 1.0 0.0
    """
    path = tmp_path / "flat.ini"
    path.write_text(textwrap.dedent(flat))
    rep = check_conditions(load_config(str(path)))
    flagged = not rep["ellipticity"] and rep["spanning_rank"] == 1
    ok = rejected and flagged
    _report(10, "condition gating", ok,
            f"hurst=0.3 rejected: {rejected}; non-spanning fields flagged: "
            f"{flagged}, {_elapsed(t0)}")
