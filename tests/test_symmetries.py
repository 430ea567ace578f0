"""The run's self-similarity as an exact oracle.

An H-self-similar driver has (X_{cs})_s equal in law to c^H (X_s)_s, and with
the same seed the sampler draws paths that are exactly c^H times each other
when c is a power of two.  So the equation on [0, cT] with fields V and drift
V_0 is the one on [0, T] with c^H V and c V_0, read at times t/c.  The Malliavin
matrices agree too: one run pairs D Y with c^{2H} R, the other c^H D Y with R.
The step-2 scheme is covariant under this map, so the discrete runs agree bit
for bit, not only in the limit: every CSV column but `t` (which is scaled) and
`pvar_driver` (which is c^H times the other, up to the rounding of its root).

The fields are linear with offsets and a drift, so the horizon reaches the
solver through the drift's time steps, and a solver that takes them as
1/(n - 1) whatever the horizon fails here.  A fault that both runs share, in
the fields or the step maps, passes.
"""

import csv

import numpy as np
import pytest

from gaussrde import load_config, run_experiment

# y0 and the coefficients of the fingerprint config linear-drift-planar-fbm-0.35
Y0 = "0.7 -0.4"
MATRICES = np.array([[0.3, -0.2, 0.1, 0.4], [0.0, 0.5, -0.5, 0.0]])
OFFSETS = np.array([[0.2, 0.0], [0.0, 0.3]])
DRIFT_MATRIX = np.array([-0.1, 0.2, 0.0, -0.3])
DRIFT_OFFSET = np.array([0.1, 0.2])
TIMES = np.array([0.5, 1.0])
# Largest gap between pvar_driver and c^H times its twin, in ulps of the
# former: seeds 0-15 of every case below gave at most 2 (c^H = 2) and 3
# (c^H = 8).
PVAR_ULPS = 4


def numbers(values) -> str:
    return " ".join(repr(float(v)) for v in np.ravel(values))


def config(model, horizon, scale, drift_scale, seed):
    """The config on [0, horizon] with the fields times `scale` and the drift
    times `drift_scale`, read at TIMES * horizon; degenerate drivers (the
    bridge at its pin) are allowed."""
    matrices = " ; ".join(numbers(scale * row) for row in MATRICES)
    offsets = " ; ".join(numbers(scale * row) for row in OFFSETS)
    return (f"[model]\n{model}\nhorizon = {horizon!r}\nn = 65\nd = 2\n\n"
            f"[fields]\nfamily = linear\ne = 2\ny0 = {Y0}\nmatrices = {matrices}\n"
            f"offsets = {offsets}\ndrift_matrix = {numbers(drift_scale * DRIFT_MATRIX)}\n"
            f"drift_offset = {numbers(drift_scale * DRIFT_OFFSET)}\n\n"
            f"[experiment]\ntimes = {numbers(horizon * TIMES)}\ncount = 200\n"
            f"seed = {seed}\nallow_degenerate = true\n\n[output]\ncsv = samples.csv\n")


def columns(tmp_path, name, text) -> dict:
    """The run's CSV columns, as the text it wrote."""
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    run_experiment(load_config(str(path)), out_dir=str(tmp_path / name))
    with open(tmp_path / name / "samples.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


# id: (kernel on [0, c], kernel on [0, 1], c, c^H)
CASES = {
    "brownian-c4": ("kernel = brownian", "kernel = brownian", 4.0, 2.0),
    "bridge-at-pin-c4": ("kernel = bridge\npin = 4.0", "kernel = bridge\npin = 1.0", 4.0, 2.0),
    "fbm-0.75-c16": ("kernel = fbm\nhurst = 0.75", "kernel = fbm\nhurst = 0.75", 16.0, 8.0),
}


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", list(CASES))
def test_a_run_on_a_scaled_horizon_is_its_scaled_twin(tmp_path, case, seed):
    """Horizon c with fields V and drift V_0 against horizon 1 with c^H V and
    c V_0, at times t / c and with one seed."""
    long_model, unit_model, c, c_h = CASES[case]
    long = columns(tmp_path, "long", config(long_model, c, 1.0, 1.0, seed))
    unit = columns(tmp_path, "unit", config(unit_model, 1.0, c_h, c, seed))
    assert list(long) == list(unit)
    assert np.array_equal(np.array(long["t"], dtype=float), c * np.array(unit["t"], dtype=float))
    for name in long.keys() - {"t", "pvar_driver"}:
        assert long[name] == unit[name], name
    pvar = np.array(long["pvar_driver"], dtype=float)
    twin = c_h * np.array(unit["pvar_driver"], dtype=float)
    assert np.all(np.abs(pvar - twin) <= PVAR_ULPS * np.spacing(pvar))
