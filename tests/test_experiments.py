import dataclasses
import json
import logging
import re
import textwrap

import numpy as np
import pytest
from scipy import stats

from gaussrde import (
    ConfigError,
    ExplosionError,
    GridFunction1D,
    RunError,
    kde_density,
    lift_piecewise_linear,
    load_config,
    run_experiment,
    solve_flow_jacobian,
    uniform_grid,
)
from gaussrde.cli import main as cli_main
from gaussrde.experiments import (
    _default_query_grid,
    _kde_mass,
    _reference_comparison,
    build_fields,
    build_model,
    check_conditions,
    config_hash,
    silverman_bandwidth,
    variation_index,
)

ROTATION_CONFIG = """
[model]
kernel = brownian
horizon = 1.0
n = 17
d = 2

[fields]
family = rotation
e = 2
y0 = 1.0 0.0
omegas = 1.0 0.5

[experiment]
times = 0.5 1.0
count = 30
seed = 11

[output]
csv = samples.csv
json = summary.json
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_load_config_full(tmp_path):
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    assert cfg.kernel == "brownian"
    assert cfg.n == 17 and cfg.d == 2 and cfg.e == 2
    assert cfg.family == "rotation"
    assert np.allclose(cfg.y0, [1.0, 0.0])
    assert cfg.times == (0.5, 1.0)
    assert cfg.count == 30 and cfg.seed == 11
    assert not cfg.allow_degenerate
    assert cfg.threads == 1
    assert cfg.reference is None
    assert cfg.csv_path == "samples.csv"
    assert cfg.tau == 1e-10


def test_load_config_inline_comments(tmp_path):
    text = ROTATION_CONFIG.replace("n = 17", "n = 17  # grid points")
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.n == 17


@pytest.mark.parametrize("mutation", [
    ("kernel = brownian", "kernel = pink_noise"),
    ("family = rotation", "family = quadratic"),
    ("n = 17", "n = 4"),
    ("count = 30", "count = 0"),
    ("times = 0.5 1.0", "times = 0.0 1.0"),
    ("times = 0.5 1.0", "times = 1.5"),
    ("y0 = 1.0 0.0", "y0 = 1.0"),
    ("seed = 11", "threads = 0\nseed = 11"),
    ("times = 0.5 1.0", "times = 0.3 1.0"),
])
def test_load_config_rejects_bad_values(tmp_path, mutation):
    old, new = mutation
    path = write_config(tmp_path, ROTATION_CONFIG.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/exp.ini")


def test_load_config_missing_sections(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        load_config(write_config(tmp_path, "[fields]\nfamily = rotation\n"))
    with pytest.raises(ConfigError, match="fields"):
        load_config(write_config(tmp_path, "[model]\nkernel = brownian\n"))


def test_rough_hurst_rejected(tmp_path):
    text = ROTATION_CONFIG.replace("kernel = brownian",
                                   "kernel = fbm\nhurst = 0.3")
    with pytest.raises(ConfigError, match="hurst"):
        load_config(write_config(tmp_path, text))
    # the boundary itself is excluded too
    text = ROTATION_CONFIG.replace(
        "kernel = brownian", "kernel = fbm\nhurst = 0.3333333333333333")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))
    # just inside the supported regime is fine
    text = ROTATION_CONFIG.replace("kernel = brownian",
                                   "kernel = fbm\nhurst = 0.4")
    cfg = load_config(write_config(tmp_path, text))
    assert build_model(cfg).rho == pytest.approx(1.25)


def test_fbm_requires_hurst_key(tmp_path):
    text = ROTATION_CONFIG.replace("kernel = brownian", "kernel = fbm")
    with pytest.raises(ConfigError, match="hurst"):
        load_config(write_config(tmp_path, text))


def test_build_linear_fields_from_config(tmp_path):
    text = """
    [model]
    kernel = brownian
    horizon = 1.0
    n = 17
    d = 2

    [fields]
    family = linear
    e = 2
    y0 = 1.0 1.0
    matrices = 0 -1 1 0 ; 1 0 0 1
    offsets = 0.5 0 ; 0 0
    drift_matrix = -0.1 0 0 -0.1
    drift_offset = 0.2 0.0
    """
    cfg = load_config(write_config(tmp_path, text))
    vf = build_fields(cfg)
    y = np.array([2.0, -1.0])
    V = vf.val(y)
    assert np.allclose(V[0], np.array([[0, -1], [1, 0]]) @ y + [0.5, 0])
    assert np.allclose(V[1], y)
    assert vf.has_drift
    assert np.allclose(vf.drift_val(y), -0.1 * y + [0.2, 0.0])


def test_build_polynomial_fields_from_config(tmp_path):
    text = """
    [model]
    kernel = brownian
    horizon = 1.0
    n = 17
    d = 1

    [fields]
    family = polynomial
    e = 2
    y0 = 0 0
    coeffs = 1 1 = 0.5 ; 1 1 2 = 0.3 ; 1 2 1 1 = 0.2 ; 1 1 = 0.25
    radius = 50
    """
    cfg = load_config(write_config(tmp_path, text))
    vf = build_fields(cfg)
    # constant terms accumulate: 0.5 + 0.25 on component (1,1)
    assert np.allclose(vf.val(np.zeros(2)), [[0.75, 0.0]])
    # linear term c1[0,0,1] = 0.3 shows up in the jacobian at the origin
    assert np.allclose(vf.jac(np.zeros(2))[0], [[0.0, 0.3], [0.0, 0.0]])
    # quadratic term 0.2 y_1^2 in the second output
    y = np.array([0.4, 0.0])
    assert np.isclose(vf.val(y)[0, 1], 0.2 * 0.16, atol=1e-4)


@pytest.mark.parametrize("coeffs", [
    "1 1 0.5",            # no equals sign
    "1 = 0.5",            # too few indices
    "1 1 1 1 1 1 = 0.5",  # too many indices
    "2 1 = 0.5",          # field index out of range for d = 1
    "1 3 = 0.5",          # output index out of range for e = 2
])
def test_bad_polynomial_terms(tmp_path, coeffs):
    text = f"""
    [model]
    kernel = brownian
    n = 17
    d = 1

    [fields]
    family = polynomial
    e = 2
    y0 = 0 0
    coeffs = {coeffs}
    """
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_variation_index_values():
    from gaussrde import brownian_model, fbm_model

    assert variation_index(brownian_model()) == pytest.approx(2.5)
    assert variation_index(fbm_model(0.4)) == pytest.approx(2.75)
    assert variation_index(fbm_model(0.75)) == pytest.approx(2.5)
    # the index always exceeds twice rho but stays below 3
    for hurst in (0.35, 0.4, 0.45, 0.6, 0.9):
        m = fbm_model(hurst)
        p = variation_index(m)
        assert 2 * m.rho < p < 3.0


def test_check_conditions_reports(tmp_path):
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    rep = check_conditions(cfg)
    assert rep["ellipticity"] and rep["spanning_rank"] == 2
    assert rep["gaussian_nondeg"]
    assert rep["rho_report"]["analytic_rho"] == 1.0
    assert rep["rho_report"]["warning"] is None

    flat = ROTATION_CONFIG.replace(
        "family = rotation", "family = constant\nvectors = 1 0 ; 2 0").replace(
        "omegas = 1.0 0.5", "")
    rep = check_conditions(load_config(write_config(tmp_path, flat)))
    assert not rep["ellipticity"]
    assert rep["spanning_rank"] == 1

    pinned = ROTATION_CONFIG.replace("kernel = brownian", "kernel = bridge")
    rep = check_conditions(load_config(write_config(tmp_path, pinned)))
    assert not rep["gaussian_nondeg"]
    assert rep["per_time"][1.0]["degenerate"]
    assert not rep["per_time"][0.5]["degenerate"]


def test_run_experiment_basic(tmp_path):
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    report = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert report.count == 30 and report.aborted == 0
    assert report.fraction_degenerate == 0.0
    assert report.oracle_checked == report.count - report.aborted
    assert report.oracle_max_residual < 1e-10
    assert report.samples.shape == (30, 2)

    csv_path = tmp_path / "out" / "samples.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ("sample_index,t,y_1,y_2,lambda_min,det,verdict,"
                       "pvar_driver,log_norm_J")
    assert len(lines) == 1 + 30 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.5
    assert first[6] == "non-degenerate"

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["count"] == 30
    assert summary["aborted"] == 0
    assert summary["fraction_degenerate"] == 0.0
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["oracle_check"]["checked"] == summary["count"] - summary["aborted"]
    assert summary["kde"] is None  # fewer than 100 samples


def test_run_experiment_is_deterministic(tmp_path):
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for name in ("samples.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


LINEAR_DRIFT_CONFIG = """
[model]
kernel = brownian
horizon = 1.0
n = 17
d = 1

[fields]
family = linear
e = 1
y0 = 1.0
matrices = 1.0
drift_matrix = 0.5

[experiment]
times = 0.5 1.0
count = 30
seed = 7

[output]
csv = samples.csv
json = summary.json
"""


def with_a_ramp(sample):
    """sample_paths with the driver of sample 3 replaced by a steep ramp,
    along which the linear + drift flow explodes."""
    def sample_paths(models, grid, n_samples, seed):
        batch = sample(models, grid, n_samples, seed)
        batch.values[3, :, 0] = 100.0 * grid.points
        return batch
    return sample_paths


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
def test_run_experiment_output_is_independent_of_chunk_size(tmp_path, monkeypatch):
    import gaussrde.experiments

    sample = gaussrde.experiments.sample_paths
    ramp = LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120")
    for name, text, sampler in (("rotation", ROTATION_CONFIG, sample),
                                ("drift", LINEAR_DRIFT_CONFIG, sample),
                                ("bridge", BRIDGE_SCALAR_CONFIG, sample),
                                ("ramp", ramp, with_a_ramp(sample))):
        cfg = load_config(write_config(tmp_path, text, name=f"{name}.ini"))
        monkeypatch.setattr(gaussrde.experiments, "sample_paths", sampler)
        outputs = []
        for chunk in (1, 7, cfg.count, 4 * cfg.count):
            monkeypatch.setattr(gaussrde.experiments, "CHUNK", chunk)
            out = tmp_path / f"{name}-{chunk}"
            report = run_experiment(cfg, out_dir=str(out))
            outputs.append([(out / f).read_bytes() for f in ("samples.csv", "summary.json")])
        assert all(o == outputs[0] for o in outputs[1:]), name
        assert report.aborted == (name == "ramp")
        assert report.oracle_checked == report.count - report.aborted


def test_run_experiment_aborts_only_the_exploding_sample(tmp_path, monkeypatch, caplog):
    import gaussrde.experiments

    cfg = load_config(write_config(
        tmp_path, LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120")))
    run_experiment(cfg, out_dir=str(tmp_path / "clean"))
    grid = uniform_grid(cfg.horizon, cfg.n)
    with pytest.raises(ExplosionError) as single:
        solve_flow_jacobian(lift_piecewise_linear(GridFunction1D(grid, 100.0 * grid.points)),
                            build_fields(cfg), cfg.y0)
    monkeypatch.setattr(gaussrde.experiments, "sample_paths",
                        with_a_ramp(gaussrde.experiments.sample_paths))
    with caplog.at_level(logging.WARNING, logger="gaussrde"):
        report = run_experiment(cfg, out_dir=str(tmp_path / "ramp"))
    assert report.aborted == 1
    assert caplog.messages == [f"sample 3 aborted: {single.value}"]
    clean = (tmp_path / "clean" / "samples.csv").read_text().splitlines()
    ramp = (tmp_path / "ramp" / "samples.csv").read_text().splitlines()
    assert ramp == [row for row in clean if not row.startswith("3,")]
    failure = f"first failure: sample 3: ExplosionError: {single.value}"
    with pytest.raises(RunError, match=re.escape(failure)):
        run_experiment(dataclasses.replace(cfg, count=10))


def test_a_failure_in_the_stacked_tail_aborts_only_its_sample(tmp_path, monkeypatch,
                                                              caplog):
    """A numerical error raised by the covariance of one sample's chunk is
    traced to that sample; the chunk's other samples keep their rows."""
    import gaussrde.experiments

    cfg = load_config(write_config(
        tmp_path, LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120")))
    clean = run_experiment(cfg, out_dir=str(tmp_path / "clean"))
    marked = clean.samples[3]
    sigma_2d = gaussrde.experiments.malliavin_matrix_2d

    def failing_on_sample_3(flows, *args, **kwargs):
        if np.any(np.all(flows.Y[:, -1] == marked, axis=-1)):
            raise np.linalg.LinAlgError("marked sample")
        return sigma_2d(flows, *args, **kwargs)

    monkeypatch.setattr(gaussrde.experiments, "malliavin_matrix_2d", failing_on_sample_3)
    for chunk in (7, 32):
        monkeypatch.setattr(gaussrde.experiments, "CHUNK", chunk)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gaussrde"):
            report = run_experiment(cfg, out_dir=str(tmp_path / f"marked-{chunk}"))
        assert report.aborted == 1 and report.oracle_checked == 119
        assert caplog.messages == ["sample 3 aborted: marked sample"]
        rows = (tmp_path / f"marked-{chunk}" / "samples.csv").read_text().splitlines()
        full = (tmp_path / "clean" / "samples.csv").read_text().splitlines()
        assert rows == [row for row in full if not row.startswith("3,")]


def test_drift_solve_evaluates_each_field_once_per_step(tmp_path, monkeypatch):
    """Value, Jacobian and Hessian of the drift and of the driving fields:
    six checked evaluations a step, whatever the number of paths."""
    from gaussrde import VectorFieldSystem, brownian_model, sample_paths

    cfg = load_config(write_config(tmp_path, LINEAR_DRIFT_CONFIG))
    vf = build_fields(cfg)
    grid = uniform_grid(cfg.horizon, cfg.n)
    calls = []
    evaluate = VectorFieldSystem._eval

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(VectorFieldSystem, "_eval", counting)
    for count in (1, 5):
        X = lift_piecewise_linear(sample_paths([brownian_model()], grid, count, 0))
        calls.clear()
        solve_flow_jacobian(X, vf, cfg.y0)
        # and the values at the final state: drift and driving fields
        assert len(calls) == 6 * (cfg.n - 1) + 2


BRIDGE_SCALAR_CONFIG = """
[model]
kernel = bridge
horizon = 1.0
n = 17
d = 1

[fields]
family = linear
e = 1
y0 = 1.0
matrices = 0.4

[experiment]
times = 0.5 1.0
count = 20
seed = 3
allow_degenerate = true
"""


def test_run_experiment_rejects_pinned_driver_by_default(tmp_path):
    text = BRIDGE_SCALAR_CONFIG.replace("allow_degenerate = true", "")
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match="degenerate"):
        run_experiment(cfg)


def test_run_experiment_bridge_dichotomy(tmp_path):
    # pinned driver, scalar linear system: the covariance collapses exactly
    # at the pin time and only there
    cfg = load_config(write_config(tmp_path, BRIDGE_SCALAR_CONFIG))
    with pytest.warns(UserWarning, match="semidefinite"):
        report = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert report.aborted == 0
    assert report.fraction_degenerate == pytest.approx(0.5)
    # at the pin both routes give rounding noise; the route check judges the
    # gap against the magnitude of the summed terms, so no false alarm
    assert report.oracle_checked == 20
    assert report.oracle_max_residual < 1e-10
    rows = (tmp_path / "out" / "samples.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        cells = row.split(",")
        t, verdict = float(cells[1]), cells[5]
        assert verdict == ("degenerate" if t == 1.0 else "non-degenerate")


def test_cli_run_at_the_pin_alone_exits_0(tmp_path):
    # every evaluated covariance is rounding noise; the route check must not
    # turn the degenerate scenario the config allows into a failed run
    text = BRIDGE_SCALAR_CONFIG.replace("times = 0.5 1.0", "times = 1.0")
    cfg = write_config(tmp_path, text)
    with pytest.warns(UserWarning, match="semidefinite"):
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["oracle_check"]["checked"] == 20
    assert summary["oracle_check"]["max_rel_residual"] < 1e-10


def test_run_experiment_zero_driver_fully_degenerate(tmp_path):
    text = """
    [model]
    kernel = zero
    horizon = 1.0
    n = 17
    d = 1

    [fields]
    family = constant
    e = 1
    y0 = 0.5
    vectors = 1.0

    [experiment]
    times = 1.0
    count = 5
    seed = 0
    allow_degenerate = true
    """
    report = run_experiment(load_config(write_config(tmp_path, text)))
    assert report.fraction_degenerate == 1.0
    assert np.allclose(report.samples, 0.5)


def test_run_experiment_aborts_on_mass_explosions(tmp_path):
    text = ROTATION_CONFIG.replace(
        "family = rotation", "family = linear\nmatrices = 100 0 0 100 ; 0 0 0 0"
    ).replace("omegas = 1.0 0.5", "").replace("count = 30", "count = 10")
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(RunError, match="aborted"):
        run_experiment(cfg)


def test_silverman_bandwidth_formula_and_floor():
    rng = np.random.default_rng(90)
    x = rng.standard_normal((500, 1)) * 2.0
    h = silverman_bandwidth(x)
    sig = np.std(x, axis=0, ddof=1)
    assert np.allclose(h, sig * (4.0 / (3 * 500)) ** 0.2)
    flat = np.full((200, 1), 7.0)
    assert np.allclose(silverman_bandwidth(flat), 7e-9)


def test_kde_density_integrates_to_one_1d():
    rng = np.random.default_rng(91)
    x = rng.standard_normal(3000) * 1.3 + 0.4
    h = silverman_bandwidth(x)
    grid = _default_query_grid(x[:, None], h)
    values = kde_density(x, grid)
    assert abs(_kde_mass(grid, values) - 1.0) < 1e-3
    # close to the true normal density in sup norm
    pdf = stats.norm.pdf(grid, loc=0.4, scale=1.3)
    assert np.max(np.abs(values - pdf)) < 0.05


def test_kde_density_integrates_to_one_2d():
    rng = np.random.default_rng(92)
    x = rng.standard_normal((3000, 2)) @ np.diag([1.0, 0.5])
    h = silverman_bandwidth(x)
    grid = _default_query_grid(x, h)
    values = kde_density(x, grid)
    assert values.shape == (grid[0].size, grid[1].size)
    assert abs(_kde_mass(grid, values) - 1.0) < 5e-3


def test_kde_density_guards():
    rng = np.random.default_rng(93)
    with pytest.raises(ValueError, match="e <= 2"):
        kde_density(rng.standard_normal((200, 3)), None)
    with pytest.raises(ValueError, match="100"):
        kde_density(rng.standard_normal(50), np.linspace(-3, 3, 10))


def test_reference_comparison_lognormal():
    rng = np.random.default_rng(94)
    samples = np.exp(rng.standard_normal(5000))
    h = silverman_bandwidth(samples)
    grid = _default_query_grid(samples[:, None], h)
    values = kde_density(samples, grid)
    ks, sup = _reference_comparison(("lognormal", 0.0, 1.0), samples, grid, values)
    assert ks < 0.03
    assert sup < 0.5  # KDE of a peaked density is biased near the mode
    with pytest.raises(RunError, match="positive"):
        _reference_comparison(("lognormal", 0.0, 1.0), np.array([-1.0, 2.0]),
                              grid, values)


def test_config_hash_tracks_content(tmp_path):
    cfg_a = load_config(write_config(tmp_path, ROTATION_CONFIG, "a.ini"))
    cfg_b = load_config(write_config(tmp_path, ROTATION_CONFIG, "b.ini"))
    assert config_hash(cfg_a) == config_hash(cfg_b)
    cfg_c = load_config(write_config(
        tmp_path, ROTATION_CONFIG.replace("seed = 11", "seed = 12"), "c.ini"))
    assert config_hash(cfg_a) != config_hash(cfg_c)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_check_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, ROTATION_CONFIG)
    assert cli_main(["check", "--config", good]) == 0
    out = capsys.readouterr().out
    assert "ellipticity: True" in out

    flat = ROTATION_CONFIG.replace(
        "family = rotation", "family = constant\nvectors = 1 0 ; 2 0").replace(
        "omegas = 1.0 0.5", "")
    bad = write_config(tmp_path, flat, "flat.ini")
    assert cli_main(["check", "--config", bad]) == 2

    tolerated = write_config(
        tmp_path, flat.replace("seed = 11", "seed = 11\nallow_degenerate = true"),
        "flat_ok.ini")
    assert cli_main(["check", "--config", tolerated]) == 0


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, ROTATION_CONFIG)
    out = tmp_path / "artifacts"
    assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "fraction degenerate: 0.0000" in printed
    assert (out / "samples.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_sample_lift_solve(tmp_path):
    cfg = write_config(tmp_path, ROTATION_CONFIG)
    sample_out = tmp_path / "driver.csv"
    assert cli_main(["sample", "--config", cfg, "--out", str(sample_out)]) == 0
    header = sample_out.read_text().split("\n", 1)[0]
    assert header == "t,x_1,x_2"

    lift_out = tmp_path / "lift.csv"
    assert cli_main(["lift", "--config", cfg, "--out", str(lift_out),
                     "--index", "1"]) == 0
    from gaussrde import rough_path_from_csv

    X = rough_path_from_csv(str(lift_out))
    assert X.dim == 2 and X.grid.n == 17

    solve_out = tmp_path / "solution.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(solve_out)]) == 0
    header = solve_out.read_text().split("\n", 1)[0]
    assert header == "t,y_1,y_2"
    table = np.loadtxt(str(solve_out), delimiter=",", skiprows=1)
    assert table.shape == (17, 3)
    assert np.allclose(table[0, 1:], [1.0, 0.0])


def test_cli_malliavin_report(tmp_path, capsys):
    cfg = write_config(tmp_path, ROTATION_CONFIG)
    out = tmp_path / "spectrum.json"
    assert cli_main(["malliavin", "--config", cfg, "--time", "0.5",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "verdict: non-degenerate" in printed
    payload = json.loads(out.read_text())
    assert payload["t"] == 0.5
    assert payload["verdict"] == "non-degenerate"
    assert payload["route_residual"] < 1e-10
    assert len(payload["sigma"]) == 2


def test_cli_malliavin_time_must_be_a_config_time(tmp_path, capsys):
    # --time follows the rule of the config's times: a grid point in (0, T]
    cfg = write_config(tmp_path, ROTATION_CONFIG)
    for t in ("0.3", "0.0", "1.5"):
        assert cli_main(["malliavin", "--config", cfg, "--time", t]) == 2
        assert "config error: evaluation times" in capsys.readouterr().err


def test_cli_density_outputs_table(tmp_path, capsys, monkeypatch):
    text = ROTATION_CONFIG.replace("count = 30", "count = 120")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "density.csv"
    # the config's own [output] paths are relative, keep them out of the repo
    monkeypatch.chdir(tmp_path)
    assert cli_main(["density", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mass" in printed
    header = out.read_text().split("\n", 1)[0]
    assert header == "y_1,y_2,density"


def test_cli_config_error_exits_2(tmp_path, capsys):
    text = ROTATION_CONFIG.replace("kernel = brownian",
                                   "kernel = fbm\nhurst = 0.25")
    cfg = write_config(tmp_path, text)
    assert cli_main(["check", "--config", cfg]) == 2
    assert cli_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_run_failure_exits_3(tmp_path):
    text = ROTATION_CONFIG.replace(
        "family = rotation", "family = linear\nmatrices = 100 0 0 100 ; 0 0 0 0"
    ).replace("omegas = 1.0 0.5", "").replace("count = 30", "count = 10")
    cfg = write_config(tmp_path, text)
    assert cli_main(["run", "--config", cfg]) == 3


def test_cli_run_exits_3_when_the_routes_disagree(tmp_path, monkeypatch, capsys):
    import gaussrde.experiments

    parseval = gaussrde.experiments.malliavin_matrix_parseval

    def off_by_1e_6(*args, **kwargs):
        mat = parseval(*args, **kwargs)
        return dataclasses.replace(mat, sigma=mat.sigma * (1.0 + 1e-6))

    cfg = write_config(tmp_path, ROTATION_CONFIG)
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(gaussrde.experiments, "malliavin_matrix_parseval", off_by_1e_6)
    out = tmp_path / "off"
    assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "run failed: covariance routes disagree on sample" in capsys.readouterr().err
    assert not out.exists()


def test_cli_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "gaussrde.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout.lower() or "usage" in proc.stdout.lower()


def test_run_experiment_propagates_programming_errors(tmp_path, monkeypatch):
    """Only numerical failures count as aborted samples; a bug surfaces."""
    import gaussrde.experiments

    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(gaussrde.experiments, "solve_flow_jacobian", broken)
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    with pytest.raises(TypeError, match="broken solver"):
        run_experiment(cfg)


def test_run_experiment_samples_the_kernel_once(tmp_path, monkeypatch):
    """The kernel sample depends only on the driver law: one per run."""
    import gaussrde.experiments

    calls = []
    sample_kernel = gaussrde.experiments.kernel_eval

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_kernel(*args, **kwargs)

    monkeypatch.setattr(gaussrde.experiments, "kernel_eval", counting)
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    report = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert report.count == 30 and report.oracle_checked == report.count - report.aborted
    assert len(calls) == 1


def test_check_and_run_share_the_gaussian_gate(tmp_path, monkeypatch):
    """check_conditions and run_experiment reach the same verdict per time."""
    import gaussrde.experiments

    seen = []
    check = gaussrde.experiments.nondegeneracy_check

    def recording(model, grid):
        rep = check(model, grid)
        seen.append((grid.horizon, rep["degenerate"]))
        return rep

    monkeypatch.setattr(gaussrde.experiments, "nondegeneracy_check", recording)
    for kernel in ("brownian", "fbm\nhurst = 0.4", "bridge\npin = 1.0"):
        text = ROTATION_CONFIG.replace("brownian", kernel).replace("count = 30", "count = 3")
        cfg = load_config(write_config(tmp_path, text))
        seen.clear()
        per_time = check_conditions(cfg)["per_time"]
        from_check, pinned = list(seen), kernel.startswith("bridge")
        assert from_check == [(t, rep["degenerate"]) for t, rep in per_time.items()]
        assert from_check == [(0.5, False), (1.0, pinned)]
        seen.clear()
        if pinned:
            with pytest.raises(ConfigError, match=re.escape("degenerate on [0, 1.0]")):
                run_experiment(cfg)
        else:
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert seen == from_check


def test_run_experiment_takes_the_kernel_double_difference_once(tmp_path, monkeypatch):
    """Every sample and time pairs with one rectangle-increment array."""
    import gaussrde.young

    shapes = []
    double_difference = gaussrde.young._double_difference

    def counting(values):
        shapes.append(values.shape)
        return double_difference(values)

    monkeypatch.setattr(gaussrde.young, "_double_difference", counting)
    text = ROTATION_CONFIG.replace("seed = 11", "seed = 11\nallow_degenerate = true")
    report = run_experiment(load_config(write_config(tmp_path, text)),
                            out_dir=str(tmp_path / "out"))
    assert report.count == 30 and report.oracle_checked == report.count - report.aborted
    assert shapes == [(17, 17)]
