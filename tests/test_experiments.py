import csv
import dataclasses
import functools
import gc
import json
import logging
import math
import re
import textwrap
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats

from gaussrde import (
    ConfigError,
    ExplosionError,
    GridFunction1D,
    PathSample,
    RunError,
    kde_density,
    lift_piecewise_linear,
    load_config,
    run_experiment,
    sample_paths,
    solve_flow_jacobian,
    uniform_grid,
)
from gaussrde.cli import main as cli_main
from gaussrde.experiments import (
    _default_query_grid,
    _kde_mass,
    _ks_normal,
    _lognormal_pdf,
    _normal_pdf,
    _reference_comparison,
    build_fields,
    build_model,
    by_rows,
    check_conditions,
    config_hash,
    sample_floats,
    silverman_bandwidth,
    time_indices,
    variation_index,
    write_rows_csv,
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


# ROTATION_CONFIG's [fields] lines
ROTATION_FIELDS = "family = rotation\ne = 2\ny0 = 1.0 0.0\nomegas = 1.0 0.5"


def planar(family, *lines):
    """(old, new) that makes ROTATION_CONFIG's fields a planar `family` with
    its own `lines`."""
    return ROTATION_FIELDS, "\n".join([f"family = {family}", "e = 2", "y0 = 1.0 0.0", *lines])


# ROTATION_CONFIG's fields made linear, with a NaN in its matrices
NAN_MATRICES = planar("linear", "matrices = nan 0 0 1 ; 1 0 0 1")
# (old, new, the config error's message) for files configparser cannot read
MALFORMED = [
    ("n = 17", "n = 17\nn = 33", "option 'n' in section 'model' already exists"),
    ("seed = 11", "seed = 11\n[experiment]\ncount = 3",
     "section 'experiment' already exists"),
    ("[model]", "n = 17\n[model]", "File contains no section headers"),
    ("seed = 11", "seed = 11\nallow degenerate", "Source contains parsing errors"),
]
# (old, new, message) for a key of another kernel or family
FOREIGN_KEYS = [
    ("kernel = brownian", "kernel = brownian\nhurst = 0.2",
     "unknown key 'hurst' in [model] for kernel 'brownian'"),
    ("kernel = brownian", "kernel = fbm\nhurst = 0.4\npin = 1.0",
     "unknown key 'pin' in [model] for kernel 'fbm'"),
    ("omegas = 1.0 0.5", "omegas = 1.0 0.5\nmatrices = 1 0 0 1 ; 1 0 0 1",
     "unknown key 'matrices' in [fields] for family 'rotation'"),
    ("omegas = 1.0 0.5", "omegas = 1.0 0.5\nradius = 5",
     "unknown key 'radius' in [fields] for family 'rotation'"),
]


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    """A run's samples.csv as one dict per row, keyed by the header's names."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    ("kernel = brownian", "kernel = pink_noise", "unknown kernel 'pink_noise'"),
    ("family = rotation", "family = quadratic", "unknown family 'quadratic'"),
    ("n = 17", "n = 4", "grid size n must be >= 8, got 4"),
    ("count = 30", "count = 0", "count must be >= 1"),
    ("times = 0.5 1.0", "times = 0.0 1.0", "evaluation times must lie in (0, horizon]"),
    ("times = 0.5 1.0", "times = 1.5", "evaluation times must lie in (0, horizon]"),
    ("y0 = 1.0 0.0", "y0 = 1.0", "y0 needs 2 components, got 1"),
    ("seed = 11", "threads = 0\nseed = 11", "threads must be >= 1"),
    ("times = 0.5 1.0", "times = 0.3 1.0",
     "evaluation times must be grid points: time 0.3 is not a grid point"),
    ("times = 0.5 1.0", "times = 1.0 1.0", "evaluation times must be distinct grid points"),
    ("seed = 11", "seed = 11\nreference = normal 0 1",  # e = 2
     "a reference law needs a scalar state (e = 1), got e = 2"),
    ("seed = 11", "seed = -3", "seed must be >= 0"),
    ("seed = 11", "seed = 11\n[thresholds]\ntau = nan", "numbers must be finite, got 'nan'"),
    ("seed = 11", "seed = 11\n[thresholds]\ntau = inf", "numbers must be finite, got 'inf'"),
    ("count = 30", "coutn = 30", "unknown key 'coutn' in [experiment]"),
    ("[output]", "[outptu]", "unknown section [outptu]"),
    ("seed = 11", "seed = 11\nallow_degenerate = ture", "Not a boolean: ture"),
    ("kernel = brownian", "kernel = bridge\npin = nan", "numbers must be finite, got 'nan'"),
    ("horizon = 1.0", "horizon = inf", "numbers must be finite, got 'inf'"),
    ("y0 = 1.0 0.0", "y0 = nan 0.0", "numbers must be finite, got 'nan'"),
    ("omegas = 1.0 0.5", "omegas = 1.0 -inf", "numbers must be finite, got '-inf'"),
    ("times = 0.5 1.0", "times = 0.5 nan", "numbers must be finite, got 'nan'"),
    (*NAN_MATRICES, "numbers must be finite, got 'nan'"),
    *MALFORMED,
    *FOREIGN_KEYS,
    # each error the cases above do not reach
    ("horizon = 1.0", "horizon = 0", "horizon must be positive"),
    ("d = 2", "d = 0", "driver dimension d must be >= 1"),
    ("e = 2", "e = 0", "state dimension e must be >= 1"),
    ("seed = 11", "seed = 11\n[thresholds]\ntau = 0", "tau must be positive"),
    ("seed = 11", "seed = 11\nreference = cauchy 0 1",
     "unknown reference distribution 'cauchy'"),
    ("seed = 11", "seed = 11\nreference = normal 0",
     "reference normal needs two parameters (mu sigma)"),
    ("seed = 11", "seed = 11\nreference = normal 0 0", "reference sigma must be positive"),
    ("kernel = brownian", "kernel = fbm\nhurst = 1.5", "hurst must lie in (0, 1), got 1.5"),
    ("e = 2\ny0 = 1.0 0.0", "e = 1\ny0 = 1.0", "rotation family is planar; set e = 2"),
    ("omegas = 1.0 0.5", "omegas = 1.0", "omegas needs 2 entries, got 1"),
    (*planar("constant"), "constant family needs a vectors key"),
    (*planar("constant", "vectors = 1 0"), "vectors must give 2 rows of 2 entries"),
    (*planar("linear"), "linear family needs a matrices key"),
    (*planar("linear", "matrices = 1 0 0 1"),
     "matrices must give 2 rows of 4 entries (row-major)"),
    (*planar("linear", "matrices = 1 0 0 1 ; 1 0 0 1", "offsets = 1 0"),
     "offsets must give 2 rows of 2 entries"),
    (*planar("linear", "matrices = 1 0 0 1 ; 1 0 0 1", "drift_offset = 1"),
     "drift_offset needs 2 entries"),
    (*planar("polynomial"), "polynomial family needs a coeffs key"),
])
def test_load_config_rejects_bad_values(tmp_path, mutation):
    """Each (old, new) edit of ROTATION_CONFIG raises its own message."""
    old, new, message = mutation
    path = write_config(tmp_path, ROTATION_CONFIG.replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_load_config_reads_flags_and_threads(tmp_path):
    for flag, value in (("on", True), ("yes", True), ("1", True), ("off", False),
                        ("no", False), ("0", False), ("FALSE", False)):
        text = BRIDGE_SCALAR_CONFIG.replace("allow_degenerate = true",
                                            f"allow_degenerate = {flag}\nthreads = 2")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.allow_degenerate is value and cfg.threads == 2


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


def test_evaluation_times_are_matched_relative_to_the_horizon():
    grid = uniform_grid(1e-9, 1025)
    with pytest.raises(ConfigError, match="grid points"):
        time_indices(grid, [3.3e-10])
    with pytest.raises(ConfigError, match="horizon"):
        time_indices(grid, [1e-9 + 5e-13])
    assert time_indices(grid, list(grid.points[1:])) == list(range(1, 1025))
    # repeats are caught by grid index, so two times that round to one point too
    with pytest.raises(ConfigError, match="distinct"):
        time_indices(grid, [5e-10, 5e-10 * (1 + 1e-13)])


def test_check_conditions_reports(tmp_path):
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    rep = check_conditions(cfg)
    assert rep["ellipticity"] and rep["spanning_rank"] == 2
    assert rep["gaussian_nondeg"]
    assert rep["rho_report"]["analytic_rho"] == 1.0

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
    summary = report.summary
    assert summary["count"] == 30 and summary["aborted"] == 0
    assert summary["fraction_degenerate"] == 0.0
    assert summary["oracle_check"]["checked"] == 30
    assert summary["oracle_check"]["max_rel_residual"] < 1e-10
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


@pytest.mark.parametrize("output, args", [
    pytest.param("csv = out.txt\njson = out.txt", [], id="out.txt-out.txt"),
    pytest.param("csv = a/x\njson = b/x", ["--out", "out"], id="a/x-b/x"),
    pytest.param("csv = summary.json", ["--out", "out"], id="csv-summary.json"),
    pytest.param("json = samples.csv", ["--out", "out"], id="json-samples.csv"),
])
def test_a_run_whose_two_artifacts_are_one_file_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, output, args):
    """`run` resolves its two paths before any sample is drawn: with `--out`
    each is its basename there, or samples.csv and summary.json if unnamed."""
    import gaussrde.experiments

    def no_sampling(*_, **__):
        raise AssertionError("a sample was drawn")

    text = ROTATION_CONFIG.replace("csv = samples.csv\njson = summary.json", output)
    cfg = write_config(tmp_path, text)
    monkeypatch.setattr(gaussrde.experiments, "sample_paths", no_sampling)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", "--config", cfg, *args]) == 2
    assert "config error: [output] csv and json resolve to one file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]


def test_a_run_makes_the_directory_of_each_artifact(tmp_path, monkeypatch):
    """Without `--out` the config's paths, of one basename, are written as
    they are, each into a new subdirectory; `check` writes nothing and
    passes the config."""
    text = ROTATION_CONFIG.replace("csv = samples.csv\njson = summary.json",
                                   "csv = a/x\njson = b/c/x")
    cfg = write_config(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["check", "--config", cfg]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]
    assert cli_main(["run", "--config", cfg]) == 0
    assert len(read_rows(tmp_path / "a" / "x")) == 30 * 2
    assert json.loads((tmp_path / "b" / "c" / "x").read_text())["count"] == 30


def test_a_key_summarise_rows_adds_reaches_the_report_and_summary_json(tmp_path, monkeypatch):
    """`run_experiment` builds summary.json's payload once, around the
    pooled `summarise_rows`: a key that function adds is in `report.summary`
    and in the file as it is, with no other change."""
    import gaussrde.experiments

    summarise = gaussrde.experiments.summarise_rows

    def with_a_probe(record, rows):
        return {**summarise(record, rows), "probe": {"rows": int(record["t"][rows].size)}}

    monkeypatch.setattr(gaussrde.experiments, "summarise_rows", with_a_probe)
    report = run_experiment(load_config(write_config(tmp_path, ROTATION_CONFIG)),
                            out_dir=str(tmp_path / "out"))
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert report.summary["probe"] == {"rows": 60}
    assert written == report.summary


def test_each_number_gaussrde_run_prints_is_the_one_in_summary_json(tmp_path, capsys):
    text = LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120\nreference = lognormal 0.5 1")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    values = [summary["count"], summary["aborted"], summary["fraction_degenerate"],
              summary["oracle_check"]["checked"], summary["oracle_check"]["max_rel_residual"],
              summary["kde"]["mass"], summary["reference"]["ks_distance"]]
    printed = re.findall(r"\d+(?:\.\d+)?(?:e[+-]\d+)?", capsys.readouterr().out)
    assert len(printed) == len(values)
    for text, value in zip(printed, values):
        # the value rounded to the digits printed
        places = len(text.split("e")[0].partition(".")[2])
        spec = f".{places}e" if "e" in text else f".{places}f" if places else "d"
        assert format(value, spec) == text


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


def chunks_of(monkeypatch, cfg, size):
    """Make `run_experiment` take the samples of cfg in chunks of at most
    `size`: a float budget of `size` samples."""
    import gaussrde.experiments

    monkeypatch.setattr(gaussrde.experiments, "CHUNK_FLOATS", size * sample_floats(cfg))


def marking_sample_3(sample, mark):
    """sample_paths with the driver of the run's sample 3, in whichever
    batch holds it, passed through mark(grid)."""
    def sample_paths(models, grid, n_samples, seed, first=0, **kwargs):
        batch = sample(models, grid, n_samples, seed, first, **kwargs)
        if first <= 3 < first + n_samples:
            batch.values[3 - first, :, 0] = mark(grid)
        return batch
    return sample_paths


def with_a_ramp(sample):
    """sample_paths with the driver of sample 3 replaced by a steep ramp,
    along which the linear + drift flow explodes."""
    return marking_sample_3(sample, lambda grid: 100.0 * grid.points)


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
def test_run_experiment_output_is_independent_of_chunk_size(tmp_path, monkeypatch):
    import gaussrde.experiments

    sample = gaussrde.experiments.sample_paths
    ramp = LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120")
    for name, text, sampler in (("rotation", ROTATION_CONFIG, sample),
                                ("drift", LINEAR_DRIFT_CONFIG, sample),
                                ("bridge", BRIDGE_SCALAR_CONFIG, sample),
                                ("ramp", ramp, with_a_ramp(sample)),
                                ("overflow", SWEEP_CONFIG, with_a_transport_overflow(sample))):
        cfg = load_config(write_config(tmp_path, text, name=f"{name}.ini"))
        monkeypatch.setattr(gaussrde.experiments, "sample_paths", sampler)
        outputs = []
        for chunk in (1, 7, cfg.count, 4 * cfg.count):
            chunks_of(monkeypatch, cfg, chunk)
            out = tmp_path / f"{name}-{chunk}"
            report = run_experiment(cfg, out_dir=str(out))
            outputs.append([(out / f).read_bytes() for f in ("samples.csv", "summary.json")])
        assert all(o == outputs[0] for o in outputs[1:]), name
        assert report.aborted == (name in ("ramp", "overflow"))
        # the overflow costs sample 3 only its t = 1 row
        assert report.summary["oracle_check"]["checked"] == cfg.count - (name == "ramp")


def test_the_semidefinite_warning_comes_once_per_run(tmp_path, monkeypatch):
    """The bridge at its pin has a semidefinite grid covariance: its factor
    is taken, with the jitter's warning, once per run, however many chunks
    are sampled with it."""
    cfg = load_config(write_config(tmp_path, BRIDGE_SCALAR_CONFIG, name="bridge.ini"))
    for chunk in (1, 7, cfg.count):
        chunks_of(monkeypatch, cfg, chunk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg, out_dir=str(tmp_path / f"bridge-{chunk}"))
        # the trace of min(s, t) - st on the grid is 2.65625
        assert [str(w.message) for w in caught if "semidefinite" in str(w.message)] == [
            "grid covariance for 'bridge' is semidefinite; adding diagonal jitter "
            "1.660e-13"], chunk


def test_rows_do_not_depend_on_the_other_evaluation_times(tmp_path, capsys):
    # the flow grows by orders of magnitude from t = 50 to t = 100: judged
    # against a scale shared by both times, clearly non-degenerate t = 50
    # rows would read degenerate
    text = (ROTATION_CONFIG.replace("horizon = 1.0", "horizon = 100.0")
            .replace("count = 30", "count = 20").replace("seed = 11", "seed = 1"))

    def rows_by_time(times):
        cfg = write_config(tmp_path, text.replace("times = 0.5 1.0", f"times = {times}"),
                           name=f"{times}.ini")
        out = tmp_path / times
        summary = run_experiment(load_config(cfg), out_dir=str(out)).summary
        assert summary["fraction_degenerate"] == 0.0
        by_time = {}
        for row in read_rows(out / "samples.csv"):
            by_time.setdefault(row["t"], []).append(row)
        return cfg, by_time

    cfg, both = rows_by_time("50 100")
    assert both == {**rows_by_time("50")[1], **rows_by_time("100")[1]}
    # `gaussrde malliavin` on the one sample gives the run's row, bit for bit
    out = tmp_path / "malliavin.json"
    assert cli_main(["malliavin", "--config", cfg, "--index", "4", "--time", "50",
                     "--out", str(out)]) == 0
    row = next(r for r in both["50"] if r["sample_index"] == "4")
    assert f"verdict: {row['verdict']} " in capsys.readouterr().out
    single = json.loads(out.read_text())
    assert single["verdict"] == row["verdict"]
    for name in ("lambda_min", "det"):
        assert single[name] == float(row[name]), name


def test_a_long_horizon_run_keeps_its_lifts_geometric(tmp_path):
    # at horizon 1e7 a lift's level 2 reaches about 1e7, and differencing it
    # leaves symmetry residuals above 1e-9 that are rounding alone: each path
    # is judged relative to its size, so the run loses no sample
    text = (ROTATION_CONFIG.replace("horizon = 1.0\nn = 17", "horizon = 1e7\nn = 65")
            .replace("omegas = 1.0 0.5", "omegas = 1e-7 1e-7")
            .replace("times = 0.5 1.0", "times = 1e7").replace("count = 30", "count = 20"))
    cfg = write_config(tmp_path, text)
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["aborted"] == 0
    assert summary["oracle_check"]["max_rel_residual"] < 1e-10


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
    assert report.summary["aborted"] == 1
    assert caplog.messages == [f"sample 3 aborted: {single.value}"]
    clean = (tmp_path / "clean" / "samples.csv").read_text().splitlines()
    ramp = (tmp_path / "ramp" / "samples.csv").read_text().splitlines()
    assert ramp == [row for row in clean if not row.startswith("3,")]
    failure = f"first failure: sample 3: ExplosionError: {single.value}"
    with pytest.raises(RunError, match=re.escape(failure)):
        run_experiment(dataclasses.replace(cfg, count=10))


SWEEP_CONFIG = """
[model]
kernel = brownian
horizon = 1.0
n = 65
d = 1

[fields]
family = linear
e = 1
y0 = 0.0
matrices = 1.0

[experiment]
times = 0.5 1.0
count = 120
seed = 5

[output]
csv = samples.csv
json = summary.json
"""


def with_a_transport_overflow(sample):
    """sample_paths with the driver of sample 3 replaced by 32 increments
    of -1, then 32 of +99000.  Along it the step maps of dY = Y dx from
    y0 = 0 are 1/2, then about 4.9e9: the state stays 0 and J_1 = 2.85e300
    is finite, but the transport from t = 1/2 to 1 overflows."""
    steps = np.repeat([-1.0, 99000.0], 32)
    return marking_sample_3(sample, lambda grid: np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_transport_overflow_aborts_only_its_sample(tmp_path, monkeypatch, caplog):
    """The overflow at t = 1 drops only sample 3's t = 1 row: its t = 0.5 row
    is the one a run at t = 0.5 alone writes, and the other samples keep
    every row."""
    import gaussrde.experiments

    cfg = load_config(write_config(tmp_path, SWEEP_CONFIG))
    run_experiment(cfg, out_dir=str(tmp_path / "clean"))
    monkeypatch.setattr(gaussrde.experiments, "sample_paths",
                        with_a_transport_overflow(gaussrde.experiments.sample_paths))
    run_experiment(dataclasses.replace(cfg, times=(0.5,)), out_dir=str(tmp_path / "half"))
    with caplog.at_level(logging.WARNING, logger="gaussrde"):
        report = run_experiment(cfg, out_dir=str(tmp_path / "overflow"))
    assert report.summary["aborted"] == 1 and report.summary["oracle_check"]["checked"] == 120
    assert caplog.messages == ["sample 3 aborted: transport to t = 1 exploded"]
    clean = (tmp_path / "clean" / "samples.csv").read_bytes().splitlines()
    half = (tmp_path / "half" / "samples.csv").read_bytes().splitlines()
    overflow = (tmp_path / "overflow" / "samples.csv").read_bytes().splitlines()
    # the header, samples 0-2 with two rows each, then sample 3's one row
    assert overflow[7:8] == [row for row in half if row.startswith(b"3,")]
    assert overflow[:7] + overflow[8:] == [row for row in clean if not row.startswith(b"3,")]
    assert [row for row in overflow if row.split(b",")[1] == b"0.5"] == half[1:]
    failure = "first failure: sample 3: ExplosionError: transport to t = 1 exploded"
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
    for chunk in (None, 7, 32):  # None: the default budget, one chunk of 120
        if chunk is not None:
            chunks_of(monkeypatch, cfg, chunk)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gaussrde"):
            report = run_experiment(cfg, out_dir=str(tmp_path / f"marked-{chunk}"))
        assert report.summary["aborted"] == 1
        assert report.summary["oracle_check"]["checked"] == 119
        assert caplog.messages == ["sample 3 aborted: marked sample"]
        rows = (tmp_path / f"marked-{chunk}" / "samples.csv").read_text().splitlines()
        full = (tmp_path / "clean" / "samples.csv").read_text().splitlines()
        assert rows == [row for row in full if not row.startswith("3,")]


def test_by_rows_finds_the_failing_rows_by_halving():
    """fn fails on a stack holding a marked row and names every marked row
    it holds, so each failure found must be the error of its row alone."""
    calls = []

    def fn(rows):
        calls.append(list(rows))
        bad = [k for k in rows if k in marked]
        if bad:
            raise ExplosionError(f"rows {bad}", 0.0)
        return list(rows)

    rows = list(range(128))
    for marked in ({77}, {5, 100}):
        calls.clear()
        out, failed = by_rows(fn, lambda rows: rows, rows)
        assert out == calls[-1] == [k for k in rows if k not in marked]
        assert {k: str(error) for k, error in failed.items()} == {
            k: f"rows {[k]}" for k in marked}
    # one failure in 128 rows: the first call, two probes on each of 7
    # levels of halving, and the call on the others
    marked = {77}
    calls.clear()
    by_rows(fn, lambda rows: rows, rows)
    assert len(calls) <= 2 * 7 + 2
    marked = set(range(8))
    calls.clear()
    out, failed = by_rows(fn, lambda rows: rows, list(range(8)))
    assert out == calls[-1] == [] and sorted(failed) == list(range(8))

    def broken(rows):
        raise ValueError("not a numerical failure")

    with pytest.raises(ValueError, match="not a numerical failure"):
        by_rows(broken, lambda rows: rows, rows)


def test_by_rows_keeps_no_reference_to_its_stack():
    """No reference cycle keeps the stack alive after the call: a run would
    otherwise hold every chunk's state until a full garbage collection."""
    class Stack:
        pass

    stack = Stack()
    ref = weakref.ref(stack)
    take = functools.partial(lambda stack, rows: stack, stack)
    gc.disable()
    try:
        by_rows(lambda stack: None, take, [0, 1])
        del stack, take
        assert ref() is None
    finally:
        gc.enable()


def test_a_hopeless_run_stops_at_the_chunk_that_crosses_1_percent(tmp_path,
                                                                  monkeypatch):
    import gaussrde.experiments

    text = ROTATION_CONFIG.replace(
        "family = rotation", "family = linear\nmatrices = 100 0 0 100 ; 0 0 0 0"
    ).replace("omegas = 1.0 0.5", "").replace("count = 30", "count = 1000")
    lift = gaussrde.experiments.lift_piecewise_linear
    lifted = []

    def recording_lift(paths):
        lifted.append(paths.n_samples)
        return lift(paths)

    monkeypatch.setattr(gaussrde.experiments, "lift_piecewise_linear", recording_lift)
    with pytest.raises(RunError, match=re.escape(
            "more than 1% of the 1000 samples aborted; first failure: sample 0: "
            "ExplosionError: state exploded at t = ")):
        run_experiment(load_config(write_config(tmp_path, text)))
    # the first chunk of 500 (d = e = 2, n = 17: at most 722 in the budget),
    # then only the halving probes of its samples
    assert lifted[0] == 500 and max(lifted[1:]) < 500


def test_a_run_on_ramps_alone_isolates_only_what_fails_it(tmp_path, monkeypatch, caplog):
    """Every driver a ramp: the one chunk of 1000 fails, and the halving
    stops at its 11th failing sample, the first past 1% of the count.  It
    probes each half of a failing set, so each of those samples costs at
    most two solves per level of halving (isolating all 1000 would take
    about two thousand)."""
    import gaussrde.experiments

    cfg = load_config(write_config(tmp_path, LINEAR_DRIFT_CONFIG.replace(
        "count = 30", "count = 1000")))
    solve = gaussrde.experiments.solve_flow_jacobian
    stacks = []

    def ramps(models, grid, n_samples, seed, first=0, **kwargs):
        return PathSample(grid, np.broadcast_to(100.0 * grid.points[:, None],
                                                (n_samples, grid.n, 1)).copy())

    def counting_solve(X, *args, **kwargs):
        stacks.append(X.level1.shape[0])
        return solve(X, *args, **kwargs)

    monkeypatch.setattr(gaussrde.experiments, "sample_paths", ramps)
    monkeypatch.setattr(gaussrde.experiments, "solve_flow_jacobian", counting_solve)
    with caplog.at_level(logging.WARNING, logger="gaussrde"), pytest.raises(
            RunError, match=re.escape("more than 1% of the 1000 samples aborted; first "
                                      "failure: sample 0: ExplosionError: ")):
        run_experiment(cfg)
    assert stacks[0] == 1000
    assert len(stacks) <= 1 + 2 * 11 * math.ceil(math.log2(1000))
    assert [m.split(" aborted")[0] for m in caplog.messages] == [
        f"sample {k}" for k in range(11)]


def at_n_65(text):
    return text.replace("n = 17", "n = 65")


@pytest.mark.parametrize("text, count, stacks", [
    # the perfbench shapes at n = 65: at most 604 scalar or 189 planar samples
    pytest.param(at_n_65(ROTATION_CONFIG), 150, [150], id="150-stacks0"),
    pytest.param(at_n_65(LINEAR_DRIFT_CONFIG), 1000, [500] * 2, id="1000-stacks1"),
    pytest.param(at_n_65(ROTATION_CONFIG), 94, [94], id="94-stacks5"),
    pytest.param(at_n_65(ROTATION_CONFIG), 128, [128], id="128-stacks2"),
    pytest.param(at_n_65(ROTATION_CONFIG), 129, [129], id="129-stacks3"),
    pytest.param(at_n_65(ROTATION_CONFIG), 189, [189], id="189-stacks6"),
    pytest.param(at_n_65(ROTATION_CONFIG), 190, [95, 95], id="190-stacks7"),
    pytest.param(at_n_65(ROTATION_CONFIG), 191, [96, 95], id="191-stacks8"),
    pytest.param(at_n_65(LINEAR_DRIFT_CONFIG), 605, [303, 302], id="605-stacks9"),
    pytest.param(at_n_65(LINEAR_DRIFT_CONFIG), 1, [1], id="1-stacks4")])
def test_samples_go_in_equal_chunks_of_at_most_CHUNK(tmp_path, monkeypatch, text, count,
                                                     stacks):
    """Equal chunks of at most CHUNK_FLOATS / sample_floats(config) samples,
    each sampled alone; the chunk's own flows reach the covariance at each
    evaluation time when every path solved."""
    import gaussrde.experiments

    solve, evaluate = gaussrde.experiments.solve_flow_jacobian, gaussrde.experiments.evaluate_flows
    solved, evaluated = [], []

    def recording_solve(X, *args, **kwargs):
        solved.append(solve(X, *args, **kwargs))
        return solved[-1]

    def recording_evaluate(flows, *args, **kwargs):
        evaluated.append(flows)
        return evaluate(flows, *args, **kwargs)

    monkeypatch.setattr(gaussrde.experiments, "solve_flow_jacobian", recording_solve)
    monkeypatch.setattr(gaussrde.experiments, "evaluate_flows", recording_evaluate)
    sample, sampled = gaussrde.experiments.sample_paths, []

    def recording_sample(models, grid, n_samples, seed, first=0, **kwargs):
        sampled.append((first, n_samples))
        return sample(models, grid, n_samples, seed, first, **kwargs)

    monkeypatch.setattr(gaussrde.experiments, "sample_paths", recording_sample)
    cfg = load_config(write_config(tmp_path, text.replace("count = 30", f"count = {count}")))
    run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert [len(f.Y) for f in solved] == stacks
    assert sampled == [(sum(stacks[:i]), size) for i, size in enumerate(stacks)]
    per_time = [s for s in solved for _ in cfg.times]
    assert all(e is s for e, s in zip(evaluated, per_time, strict=True))


def test_one_transport_per_chunk_and_evaluation_time(tmp_path, monkeypatch):
    """Both covariance routes and log |J_t| read one derivative: a run makes
    one `transport` per (chunk, evaluation time), wherever it is looked up."""
    import gaussrde.experiments
    import gaussrde.malliavin
    import gaussrde.rde

    calls = []

    def counting_transport(flow, it):
        calls.append((len(flow.Y), it))
        return gaussrde.rde.transport(flow, it)

    for module in (gaussrde.experiments, gaussrde.malliavin):
        monkeypatch.setattr(module, "transport", counting_transport)
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    chunks_of(monkeypatch, cfg, 7)
    run_experiment(cfg, out_dir=str(tmp_path / "out"))
    # 30 samples in chunks of 6, two evaluation times each
    assert calls == [(6, it) for _ in range(5) for it in (8, 16)]


def test_a_column_of_the_row_record_reaches_the_csv_last(tmp_path, monkeypatch):
    """The CSV writes `evaluate_flows`' named columns as they come: a column
    added there alone is the table's last, on every row, in sample order
    across chunks."""
    import gaussrde.experiments

    evaluate = gaussrde.experiments.evaluate_flows

    def probing(*args, **kwargs):
        mat, spec, row = evaluate(*args, **kwargs)
        return mat, spec, {**row, "probe": -row["lambda_min"]}

    monkeypatch.setattr(gaussrde.experiments, "evaluate_flows", probing)
    cfg = load_config(write_config(tmp_path, ROTATION_CONFIG))
    chunks_of(monkeypatch, cfg, 7)
    run_experiment(cfg, out_dir=str(tmp_path / "out"))
    header = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
    assert header == ("sample_index,t,y_1,y_2,lambda_min,det,verdict,"
                      "pvar_driver,log_norm_J,probe")
    rows = read_rows(tmp_path / "out" / "samples.csv")
    assert [int(r["sample_index"]) for r in rows] == [i for i in range(30) for _ in range(2)]
    assert all(float(r["probe"]) == -float(r["lambda_min"]) for r in rows)


def test_run_experiment_memory_peak(tmp_path):
    """The 1-D KDE is binned and the covariance reads the chunk's arrays in
    place, so 1000 samples of a scalar run stay below 4 MB of traced
    allocations (one 512 x 1000 kernel matrix alone is 4.1 MB)."""
    import tracemalloc

    cfg = load_config(write_config(
        tmp_path, LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 1000")))
    run_experiment(cfg, out_dir=str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_drift_solve_evaluates_fields_once_per_step_and_hessians_once_per_block(
        tmp_path, monkeypatch):
    """On the generic path: value and Jacobian of the drift and of the
    driving fields at every step, their Hessians once per block of steps,
    and the two values at the final state: checked evaluations whatever the
    number of paths."""
    import gaussrde.rde
    from gaussrde import VectorFieldSystem, brownian_model, sample_paths

    cfg = load_config(write_config(tmp_path, LINEAR_DRIFT_CONFIG))
    vf = dataclasses.replace(build_fields(cfg), affine=None)
    grid = uniform_grid(cfg.horizon, cfg.n)
    calls = []
    evaluate = VectorFieldSystem._eval

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(VectorFieldSystem, "_eval", counting)
    for block in (gaussrde.rde.STEP_BLOCK, 7):
        monkeypatch.setattr(gaussrde.rde, "STEP_BLOCK", block)
        for count in (1, 5):
            X = lift_piecewise_linear(sample_paths([brownian_model()], grid, count, 0))
            calls.clear()
            solve_flow_jacobian(X, vf, cfg.y0)
            blocks = math.ceil((cfg.n - 1) / block)
            assert len(calls) == 4 * (cfg.n - 1) + 2 * blocks + 2


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
    summary = report.summary
    assert summary["aborted"] == 0
    assert summary["fraction_degenerate"] == pytest.approx(0.5)
    # at the pin both routes give rounding noise; the route check judges the
    # gap against the magnitude of the summed terms, so no false alarm
    assert summary["oracle_check"]["checked"] == 20
    assert summary["oracle_check"]["max_rel_residual"] < 1e-10
    for row in read_rows(tmp_path / "out" / "samples.csv"):
        assert row["verdict"] == ("degenerate" if float(row["t"]) == 1.0 else "non-degenerate")


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
    # each time's own scale bounds its summed terms, not the noise
    assert summary["fraction_degenerate"] == 1.0


def test_cli_bridge_pinned_before_the_horizon_exits_2(tmp_path, capsys):
    # past the pin min(s, t) - st/pin is a negative variance: the config is
    # refused before any path is sampled
    text = BRIDGE_SCALAR_CONFIG.replace("horizon = 1.0", "horizon = 1.0\npin = 0.5")
    cfg = write_config(tmp_path, text)
    assert cli_main(["check", "--config", cfg]) == 2
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "pin 0.5 lies before the horizon" in err
    assert not (tmp_path / "out").exists()


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
    assert report.summary["fraction_degenerate"] == 1.0
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


def kde_density_2d_reference(samples, qx, qy):
    """The per-query-row 2D estimate that one product of kernel matrices
    replaced."""
    n = samples.shape[0]
    h = silverman_bandwidth(samples)
    out = np.zeros((qx.size, qy.size))
    norm = n * h[0] * h[1] * 2 * np.pi
    for i, x in enumerate(qx):
        zx = (x - samples[:, 0]) / h[0]
        zy = (qy[:, None] - samples[None, :, 1]) / h[1]
        out[i] = (np.exp(-0.5 * zx ** 2)[None, :] * np.exp(-0.5 * zy ** 2)).sum(axis=1) / norm
    return out


@pytest.mark.parametrize("n", [100, 150, 1000])
def test_kde_density_2d_matches_the_row_loop(n):
    rng = np.random.default_rng(95 + n)
    x = rng.standard_normal((n, 2)) @ np.array([[1.0, 0.3], [0.0, 0.5]])
    qx, qy = _default_query_grid(x, silverman_bandwidth(x))
    qx = qx[:-7]  # a rectangular grid keeps the axes apart
    ref = kde_density_2d_reference(x, qx, qy)
    assert np.allclose(kde_density(x, (qx, qy)), ref, rtol=1e-12,
                       atol=1e-12 * ref.max())


def kde_density_1d_reference(samples, query):
    """The direct 1-D estimate, one kernel value per (query, sample), that
    the binned evaluation replaced."""
    h = silverman_bandwidth(samples)
    K = np.exp(-0.5 * ((query[:, None] - samples) / h[0]) ** 2)
    return K.sum(axis=1) / (math.prod([samples.size, *h]) * (2 * math.pi) ** 0.5)


def assert_binned_kde_matches_the_one_matrix_formula(x):
    """Within 1e-4 of the direct sum's peak on the whole query grid and on
    subsets of it, and non-negative."""
    query = _default_query_grid(x[:, None], silverman_bandwidth(x))
    peak = kde_density_1d_reference(x, query).max()
    for q in (query, query[:7], query[100:400:3]):
        values = kde_density(x, q)
        assert values.shape == q.shape and values.min() >= 0.0
        assert np.max(np.abs(values - kde_density_1d_reference(x, q))) < 1e-4 * peak


@pytest.mark.parametrize("n", [100, 1000, 1001])
def test_kde_density_1d_matches_the_one_matrix_formula(n):
    """The binned 1-D KDE of lognormal samples against the direct sum
    (largest gap measured 2.7e-5 of its peak)."""
    rng = np.random.default_rng(96 + n)
    assert_binned_kde_matches_the_one_matrix_formula(np.exp(rng.standard_normal(n)))


@pytest.mark.parametrize("law", ["normal", "t2", "cauchy"])
def test_kde_density_1d_matches_the_one_matrix_formula_on_other_laws(law):
    """The same bound on 3000 normal and 1000 t(2) and Cauchy samples, whose
    tails stretch the binning grid (largest gap measured 4.2e-5, Cauchy)."""
    rng = np.random.default_rng(97)
    x = {"normal": lambda: 0.4 + 1.3 * rng.standard_normal(3000),
         "t2": lambda: rng.standard_t(2, 1000),
         "cauchy": lambda: rng.standard_cauchy(1000)}[law]()
    assert_binned_kde_matches_the_one_matrix_formula(x)


def test_kde_density_1d_memory_does_not_grow_by_a_kernel_matrix():
    """The binned 1-D KDE holds its bins and a few arrays of one float per
    sample: going from 1000 to 20 000 samples raises its traced peak by at
    most six such arrays (0.9 MB), where a (queries, count) matrix would
    add 78 MB and one (64, count) block of kernel rows 9.7 MB."""
    import tracemalloc

    def peak(count):
        x = np.exp(np.random.default_rng(97).standard_normal(count))
        query = _default_query_grid(x[:, None], silverman_bandwidth(x))
        kde_density(x, query)
        tracemalloc.start()
        try:
            kde_density(x, query)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) - peak(1000) < 6 * 8 * (20000 - 1000)


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


def test_reference_comparison_normal():
    rng = np.random.default_rng(95)
    samples = 0.4 + 1.3 * rng.standard_normal(5000)
    h = silverman_bandwidth(samples)
    grid = _default_query_grid(samples[:, None], h)
    values = kde_density(samples, grid)
    ks, sup = _reference_comparison(("normal", 0.4, 1.3), samples, grid, values)
    assert ks < 0.03
    assert sup < 0.05
    assert abs(ks - stats.kstest(samples, "norm", args=(0.4, 1.3)).statistic) < 1e-15
    assert abs(sup - np.max(np.abs(values - stats.norm.pdf(grid, 0.4, 1.3)))) < 1e-15


def test_a_run_kde_stays_in_its_measured_band_against_the_exact_law(tmp_path):
    """Accuracy baseline of the run's own KDE (Silverman bandwidth) against
    the exact law of the scalar benchmark shape, lognormal(0.5, 1): the sup
    gap over the exact peak 1/sqrt(2 pi) measured 0.436-0.495 at count 1000
    and 0.378-0.411 at count 4000 (seeds 0-2), falling with count on every
    seed.  The band records that estimate; a better bandwidth moves it down."""
    config = LINEAR_DRIFT_CONFIG.replace("n = 17", "n = 65").replace(
        "times = 0.5 1.0", "times = 1.0\nreference = lognormal 0.5 1")
    peak = 1 / math.sqrt(2 * math.pi)
    bands = {1000: (0.43, 0.51), 4000: (0.37, 0.42)}
    for seed in range(3):
        gaps = []
        for count, (lo, hi) in bands.items():
            cfg = load_config(write_config(tmp_path, config.replace(
                "count = 30", f"count = {count}").replace("seed = 7", f"seed = {seed}")))
            report = run_experiment(cfg, out_dir=str(tmp_path / "out"))
            gaps.append(report.summary["reference"]["sup_distance"] / peak)
            assert lo < gaps[-1] < hi, (seed, count, gaps[-1])
        assert gaps[1] < gaps[0], seed


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 1.0), (-1.0, 0.3), (2.0, 2.5)])
def test_reference_pdfs_match_scipy(mu, sigma):
    """The closed-form pdfs against scipy.stats, on a grid reaching below 0
    as the query grid of a lognormal run does: there the lognormal pdf is
    exactly 0, and no log of a non-positive number is taken."""
    q = np.concatenate([np.linspace(-3.0, 8.0, 2001), [0.0, -0.0, 5e-324, 1e-300]])
    eps = np.finfo(float).eps
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        normal = _normal_pdf(q, mu, sigma)
        lognormal = _lognormal_pdf(q, mu, sigma)
    expected = stats.norm.pdf(q, loc=mu, scale=sigma)
    np.testing.assert_allclose(normal, expected, rtol=4 * eps, atol=0)
    expected = stats.lognorm.pdf(q, s=sigma, scale=math.exp(mu))
    assert np.all(lognormal[q <= 0] == 0.0)
    # within a few ulp of the peak, the scale of the sup distance
    assert np.max(np.abs(lognormal - expected)) <= 8 * eps * expected.max()


@pytest.mark.parametrize("m", [1, 2, 7, 100, 1000])
def test_ks_normal_matches_scipy(m):
    for seed in range(5):
        rng = np.random.default_rng(1000 * m + seed)
        for x in (rng.normal(0.3, 1.7, m),
                  rng.choice([-0.5, 0.3, 2.0], m),  # tied samples
                  rng.normal(4.0, 1.0, m)):  # far from the reference law
            expected = stats.kstest(x, "norm", args=(0.3, 1.7)).statistic
            assert abs(_ks_normal(x, 0.3, 1.7) - expected) <= 4 * np.finfo(float).eps


def test_ks_normal_is_the_per_sample_formula_bit_for_bit():
    """The vectorised cdf against the per-sample comprehension it replaced:
    the same statistic, bit for bit, on draws near and far from the law."""
    def per_sample(samples, mu, sigma):
        x = np.sort(np.asarray(samples, dtype=float))
        m = x.size
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2)) for v in ((x - mu) / sigma).tolist()])
        return float(max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m)))

    rng = np.random.default_rng(1176)
    for m in (1, 2, 1000):
        for _ in range(20):
            mu, sigma = rng.normal(0.0, 2.0), rng.uniform(0.1, 3.0)
            for x in (rng.normal(mu, sigma, m), rng.lognormal(0.5, 1.0, m),
                      rng.normal(mu + 40.0 * sigma, sigma, m)):  # cdf 0 or 1
                assert _ks_normal(x, mu, sigma) == per_sample(x, mu, sigma)


def test_config_hash_tracks_content(tmp_path):
    cfg_a = load_config(write_config(tmp_path, ROTATION_CONFIG, "a.ini"))
    cfg_b = load_config(write_config(tmp_path, ROTATION_CONFIG, "b.ini"))
    assert config_hash(cfg_a) == config_hash(cfg_b)
    cfg_c = load_config(write_config(
        tmp_path, ROTATION_CONFIG.replace("seed = 11", "seed = 12"), "c.ini"))
    assert config_hash(cfg_a) != config_hash(cfg_c)


def tuple_writer(path, rows, e):
    """Reference: the CSV writer of row tuples that `write_rows_csv`
    replaced."""
    ycols = ",".join(f"y_{i + 1}" for i in range(e))
    lines = [f"sample_index,t,{ycols},lambda_min,det,verdict,pvar_driver,log_norm_J"]
    lines += [",".join(c if isinstance(c, str) else "%.17g" % float(c) for c in row)
              for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def savetxt_writer(path, names, table):
    """Reference: the CLI's table writer that `write_rows_csv` replaced."""
    np.savetxt(path, table, delimiter=",", header=",".join(names), comments="",
               fmt="%.17g")


@pytest.mark.parametrize("rows", [0, 1, 2, 9])
@pytest.mark.parametrize("e", [1, 2])
def test_write_rows_csv_matches_the_writers_it_replaced(tmp_path, rows, e):
    rng = np.random.default_rng(rows + 10 * e)
    special = [-0.0, 1e-300, np.inf, -np.inf, np.nan, 5e-324, 0.1, -1e300]
    values = np.concatenate([special, rng.standard_normal(rows)])
    floats = [np.roll(values, k)[:rows] for k in range(5 + e)]
    index = rng.integers(0, 2**40, rows)
    verdict = rng.choice(["non-degenerate", "degenerate"], rows)
    t, *ys, lam, det, pvar, log_norm = floats
    names = (["sample_index", "t"] + [f"y_{a + 1}" for a in range(e)]
             + ["lambda_min", "det", "verdict", "pvar_driver", "log_norm_J"])
    columns = [index, t, *ys, lam, det, verdict, pvar, log_norm]

    def written(writer, name, *args):
        writer(str(tmp_path / name), *args)
        return (tmp_path / name).read_bytes()

    # the run's old rows were a tuple of numpy scalars per (sample, time)
    assert (written(write_rows_csv, "columns.csv", names, columns)
            == written(tuple_writer, "tuples.csv", list(zip(*columns)), e))
    numeric = [index, t, *ys]
    assert (written(write_rows_csv, "table.csv", names[:2 + e], numeric)
            == written(savetxt_writer, "savetxt.csv", names[:2 + e],
                       np.column_stack(numeric)))


def test_loading_a_config_does_not_import_scipy_stats(tmp_path):
    """Neither loading a config nor a run with a reference law imports
    scipy: in a process where any scipy import raises, a lognormal
    reference run still reports its KS distance."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gaussrde

    src = str(Path(gaussrde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    config = write_config(tmp_path, LINEAR_DRIFT_CONFIG.replace(
        "count = 30", "count = 100\nreference = lognormal 0 1"))
    code = ("import sys; sys.modules['scipy'] = None; import gaussrde; "
            f"report = gaussrde.run_experiment(gaussrde.load_config({config!r}), "
            f"out_dir={str(tmp_path / 'out')!r}); "
            "print(report.summary['reference'] is not None, "
            "[m for m, v in sys.modules.items() if m.startswith('scipy') and v])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "True []"


def test_loading_a_config_does_not_import_numpy_random(tmp_path):
    """numpy.random (about 12 ms to import) waits for the first draw and
    numpy.fft (about 5 ms) for the first 1-D KDE: `import gaussrde` and
    `load_config` leave both out, and a run brings numpy.random in."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gaussrde

    src = str(Path(gaussrde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    config = write_config(tmp_path, LINEAR_DRIFT_CONFIG)
    code = ("import sys; import gaussrde; "
            f"config = gaussrde.load_config({config!r}); "
            "loaded = lambda: [m for m in sys.modules "
            "if m.startswith(('numpy.random', 'numpy.fft'))]; "
            f"print(loaded()); gaussrde.run_experiment(config, out_dir={str(tmp_path)!r}); "
            "print(bool(loaded()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["[]", "True"]


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


def test_cli_check_rho_line_does_not_depend_on_the_horizon(tmp_path, capsys):
    # the report is the kernel's roughness index, which rescaling time keeps
    lines = []
    for horizon, times in (("1.0", "0.5 1.0"), ("1e-9", "5e-10 1e-9")):
        text = ROTATION_CONFIG.replace("horizon = 1.0", f"horizon = {horizon}")
        text = text.replace("times = 0.5 1.0", f"times = {times}")
        assert cli_main(["check", "--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        lines.append([line for line in out.splitlines() if "rho" in line])
    assert lines[0] == lines[1] == ["rho: analytic 1"]


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
    sample_out = tmp_path / "new" / "driver.csv"  # its directory is made
    assert cli_main(["sample", "--config", cfg, "--out", str(sample_out)]) == 0
    header = sample_out.read_text().split("\n", 1)[0]
    assert header == "t,x_1,x_2"

    lift_out = tmp_path / "lift.csv"
    assert cli_main(["lift", "--config", cfg, "--out", str(lift_out),
                     "--index", "1"]) == 0
    lines = lift_out.read_text().splitlines()
    assert lines[0] == "t,a_1,a_2,b_1_1,b_1_2,b_2_1,b_2_2"
    # the %.17g table reads back bit for bit as the lift of sample 1
    config = load_config(cfg)
    grid = uniform_grid(config.horizon, config.n)
    X = lift_piecewise_linear(
        sample_paths([build_model(config)] * 2, grid, 2, config.seed).path(1))
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table, np.column_stack(
        [grid.points, X.level1, X.level2.reshape(grid.n, 4)]))

    solve_out = tmp_path / "solution.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(solve_out)]) == 0
    header = solve_out.read_text().split("\n", 1)[0]
    assert header == "t,y_1,y_2"
    table = np.loadtxt(str(solve_out), delimiter=",", skiprows=1)
    assert table.shape == (17, 3)
    assert np.allclose(table[0, 1:], [1.0, 0.0])


def test_cli_sample_draws_only_the_indexed_path(tmp_path, monkeypatch):
    """`--index 5` writes row 5 of a 6-path batch from one stream."""
    import gaussrde.streams

    cfg = write_config(tmp_path, ROTATION_CONFIG)
    config = load_config(cfg)
    grid = uniform_grid(config.horizon, config.n)
    batch = sample_paths([build_model(config)] * config.d, grid, 6, config.seed)
    keys = []
    stream_states = gaussrde.streams.stream_states

    def recording(seed, first, count):
        keys.extend([seed, first + k] for k in range(count))
        return stream_states(seed, first, count)

    monkeypatch.setattr(gaussrde.streams, "stream_states", recording)
    out = tmp_path / "driver.csv"
    assert cli_main(["sample", "--config", cfg, "--out", str(out), "--index", "5"]) == 0
    assert keys == [[config.seed, 5]]
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], grid.points)
    assert np.array_equal(table[:, 1:], batch.values[5])


def test_cli_sample_refuses_a_negative_index(tmp_path, capsys):
    out = tmp_path / "driver.csv"
    assert cli_main(["sample", "--config", write_config(tmp_path, ROTATION_CONFIG),
                     "--out", str(out), "--index", "-1"]) == 2
    assert "config error: --index must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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
    report = run_experiment(load_config(cfg))
    qx, qy = report.query_grid
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert table.shape == (qx.size * qy.size, 3)
    # y_1 is the outer index
    assert np.array_equal(table[:, 0], np.repeat(qx, qy.size))
    assert np.array_equal(table[:, 1], np.tile(qy, qx.size))
    assert np.array_equal(table[:, 2], report.kde_values.ravel())


def test_cli_density_outputs_1d_table(tmp_path, capsys, monkeypatch):
    text = LINEAR_DRIFT_CONFIG.replace("count = 30", "count = 120")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "density.csv"
    monkeypatch.chdir(tmp_path)
    assert cli_main(["density", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().split("\n", 1)[0] == "y_1,density"
    report = run_experiment(load_config(cfg))
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.array_equal(table, np.column_stack([report.query_grid,
                                                  report.kde_values]))


def test_cli_density_outputs_raw_samples_below_100(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, ROTATION_CONFIG)
    out = tmp_path / "density.csv"
    monkeypatch.chdir(tmp_path)
    assert cli_main(["density", "--config", cfg, "--out", str(out)]) == 0
    assert "reporting raw samples" in capsys.readouterr().out
    assert out.read_text().split("\n", 1)[0] == "y_1,y_2"
    report = run_experiment(load_config(cfg))
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert report.kde_values is None and report.samples.shape == (30, 2)
    assert np.array_equal(table, report.samples)


def test_cli_config_error_exits_2(tmp_path, capsys):
    text = ROTATION_CONFIG.replace("kernel = brownian",
                                   "kernel = fbm\nhurst = 0.25")
    cfg = write_config(tmp_path, text)
    assert cli_main(["check", "--config", cfg]) == 2
    assert cli_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    cfg = write_config(tmp_path, ROTATION_CONFIG.replace("seed = 11", "seed = -3"))
    assert cli_main(["run", "--config", cfg]) == 2
    assert cli_main(["sample", "--config", cfg, "--index", "0",
                     "--out", str(tmp_path / "path.csv")]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    for old, new, message in (
            ("count = 30", "coutn = 30", "unknown key 'coutn' in [experiment]"),
            ("[output]", "[outptu]", "unknown section [outptu]"),
            ("seed = 11", "seed = 11\nallow_degenerate = ture", "Not a boolean: ture"),
            ("kernel = brownian", "kernel = bridge\npin = nan",
             "numbers must be finite, got 'nan'"),
            ("y0 = 1.0 0.0", "y0 = nan 0.0", "numbers must be finite, got 'nan'"),
            (*NAN_MATRICES, "numbers must be finite, got 'nan'"),
            *MALFORMED, *FOREIGN_KEYS):
        cfg = write_config(tmp_path, ROTATION_CONFIG.replace(old, new))
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


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


def test_cli_malliavin_exits_3_when_the_routes_disagree(tmp_path, monkeypatch, capsys):
    import gaussrde.experiments

    parseval = gaussrde.experiments.malliavin_matrix_parseval

    def off_by_1e_6(*args, **kwargs):
        mat = parseval(*args, **kwargs)
        return dataclasses.replace(mat, sigma=mat.sigma * (1.0 + 1e-6))

    cfg = write_config(tmp_path, ROTATION_CONFIG)
    monkeypatch.setattr(gaussrde.experiments, "malliavin_matrix_parseval", off_by_1e_6)
    out = tmp_path / "spectrum.json"
    assert cli_main(["malliavin", "--config", cfg, "--index", "2",
                     "--out", str(out)]) == 3
    assert ("run failed: covariance routes disagree on sample 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "gaussrde.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
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
    assert report.summary["oracle_check"]["checked"] == 30
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
    assert report.summary["oracle_check"]["checked"] == 30
    assert shapes == [(17, 17)]
