"""Committed run fingerprints: small runs of every field family and kernel
against the values an earlier solver wrote.

Each config's fingerprint keeps the final states of its first HEAD samples
and the `lambda_min` of their rows, the mean and root mean square of every
numeric CSV column at each evaluation time, the summary's
`fraction_degenerate`, `aborted` and `oracle_check.checked`, and the whole
verdict column.  Values are compared at rtol 1e-10 plus atol 1e-12 times the
largest magnitude of their column (planar states cross zero), counts and
verdicts exactly: a solver that moves results by a few ulps passes, one that
moves them by 1e-6 fails.

Run this file as a script to rewrite the fixture:

    PYTHONPATH=src python tests/test_fingerprints.py
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest

import gaussrde.experiments
from gaussrde import load_config, run_experiment
from test_experiments import SWEEP_CONFIG, with_a_transport_overflow

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")
HEAD = 6
RTOL, ATOL = 1e-10, 1e-12


def config(model, fields, times, count=24, seed=2, extra=""):
    return (f"[model]\n{model}\n\n[fields]\n{fields}\n\n"
            f"[experiment]\ntimes = {times}\ncount = {count}\nseed = {seed}\n{extra}")


BROWNIAN = "kernel = brownian\nn = 17\nd = {d}"
FBM = "kernel = fbm\nhurst = {hurst}\nn = 33\nd = {d}"
# name: (config text, whether the transport-overflow sampler draws it)
CONFIGS = {
    "linear": (config(BROWNIAN.format(d=1),
                      "family = linear\ne = 1\ny0 = 1.0\nmatrices = 1.0", "1.0"), False),
    "linear-drift": (config(BROWNIAN.format(d=1),
                            "family = linear\ne = 1\ny0 = 1.0\nmatrices = 1.0\n"
                            "drift_matrix = 0.5\ndrift_offset = 0.1", "0.5 1.0"), False),
    "linear-drift-planar-fbm-0.35": (config(
        FBM.format(hurst=0.35, d=2),
        "family = linear\ne = 2\ny0 = 0.7 -0.4\nmatrices = 0.3 -0.2 0.1 0.4 ; 0 0.5 -0.5 0\n"
        "offsets = 0.2 0 ; 0 0.3\ndrift_matrix = -0.1 0.2 0 -0.3\ndrift_offset = 0.1 0.2",
        "0.5 1.0"), False),
    "rotation-fbm-0.4": (config(FBM.format(hurst=0.4, d=2),
                                "family = rotation\ne = 2\ny0 = 1.0 0.0\nomegas = 1.0 0.5",
                                "0.5 1.0"), False),
    "constant-fbm-0.75": (config(FBM.format(hurst=0.75, d=2),
                                 "family = constant\ne = 2\ny0 = 0.5 -1.0\n"
                                 "vectors = 1 0.2 ; -0.3 1", "1.0"), False),
    "polynomial-brownian": (config(BROWNIAN.format(d=2),
                                   "family = polynomial\ne = 2\ny0 = 0.3 -0.2\n"
                                   "coeffs = 1 1 = 1 ; 2 2 = 1 ; 1 2 1 = 0.4 ; "
                                   "2 1 2 2 = -0.3 ; 1 1 1 1 2 = 0.2\nradius = 3",
                                   "0.5 1.0"), False),
    # at its pin (t = 1, degenerate) and before it (t = 0.5)
    "bridge-at-pin": (config("kernel = bridge\npin = 1.0\nn = 17\nd = 1",
                             "family = linear\ne = 1\ny0 = 1.0\nmatrices = 0.4", "0.5 1.0",
                             extra="allow_degenerate = true"), False),
    # pinned after the horizon
    "bridge-past-horizon": (config("kernel = bridge\npin = 1.5\nn = 17\nd = 2",
                                   "family = rotation\ne = 2\ny0 = 0.0 1.0\n"
                                   "omegas = 0.8 -0.6", "1.0"), False),
    "transport-overflow": (SWEEP_CONFIG.split("[output]")[0], True),
}


def columns(csv_path):
    with open(csv_path) as fh:
        header, *lines = fh.read().splitlines()
    cells = list(zip(*(line.split(",") for line in lines)))
    return {name: np.array(column, dtype=float if name != "verdict" else str)
            for name, column in zip(header.split(","), cells)}


def fingerprint(name, out_dir, move_y0=None):
    """The fingerprint of config `name`'s run, from move_y0(y0) when given."""
    text, overflow = CONFIGS[name]
    path = os.path.join(out_dir, f"{name}.ini")
    with open(path, "w") as fh:
        fh.write(text)
    cfg = load_config(path)
    if move_y0 is not None:
        cfg = dataclasses.replace(cfg, y0=move_y0(cfg.y0))
    sample = gaussrde.experiments.sample_paths
    if overflow:
        gaussrde.experiments.sample_paths = with_a_transport_overflow(sample)
    try:
        run_experiment(cfg, out_dir=out_dir)
    finally:
        gaussrde.experiments.sample_paths = sample
    rows = columns(os.path.join(out_dir, "samples.csv"))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    head = rows["sample_index"] < HEAD
    last = head & (rows["t"] == rows["t"].max())
    out = {f"head_{key}": rows[key][last].tolist() for key in rows if key.startswith("y_")}
    out["head_lambda_min"] = rows["lambda_min"][head].tolist()
    times = np.unique(rows["t"])
    for key, column in rows.items():
        if key not in ("sample_index", "t", "verdict"):
            at = [column[rows["t"] == t] for t in times]
            out[f"mean_{key}"] = [float(np.mean(c)) for c in at]
            out[f"rms_{key}"] = [float(np.sqrt(np.mean(c * c))) for c in at]
    out["fraction_degenerate"] = [summary["fraction_degenerate"]]
    out["counts"] = [summary["aborted"], summary["oracle_check"]["checked"]]
    out["verdict"] = rows["verdict"].tolist()
    return out


def differences(got, want):
    """The keys of fingerprint `got` that leave `want`'s tolerance."""
    bad = []
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if key in ("counts", "verdict") or g is None or w is None or len(g) != len(w):
            if g != w:
                bad.append(key)
            continue
        g, w = np.array(g, dtype=float), np.array(w, dtype=float)
        scale = np.max(np.abs(w), initial=0.0)
        if not np.all(np.abs(g - w) <= RTOL * np.abs(w) + ATOL * scale):
            bad.append(key)
    return bad


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_run_keeps_its_fingerprint(name, fixture, tmp_path):
    assert differences(fingerprint(name, str(tmp_path)), fixture[name]) == []


# the overflow config starts at y0 = 0, which scaling leaves in place
@pytest.mark.filterwarnings("ignore:.*semidefinite:UserWarning")
@pytest.mark.parametrize("name", [name for name, (_, overflow) in CONFIGS.items()
                                  if not overflow])
def test_the_fingerprints_see_y0_scaled_by_1e_6_but_not_by_one_ulp(name, fixture,
                                                                    tmp_path):
    scaled = fingerprint(name, str(tmp_path), lambda y0: y0 * (1 + 1e-6))
    assert differences(scaled, fixture[name])
    moved = fingerprint(name, str(tmp_path), lambda y0: np.nextafter(y0, np.inf))
    assert differences(moved, fixture[name]) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        prints = {name: fingerprint(name, tmp) for name in CONFIGS}
    with open(FIXTURE, "w") as fh:
        json.dump(prints, fh, indent=1, sort_keys=True)
        fh.write("\n")
