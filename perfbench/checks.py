"""Correctness checks on the artifacts of one `run_experiment` call.

A run is correct when its samples all finished, the Parseval and 2D-Young
covariance routes agree, the KDE integrates to one, the scalar workload
matches its lognormal law, and its sample values agree with the stored
reference for the same experiment seed.  The reference keeps a fingerprint
of the CSV, not the whole file: the final states and lambda_min of the first
HEAD samples, plus means and root mean squares over all rows.
"""

from __future__ import annotations

import json
import math
import os

from workloads import Workload

HEAD = 16
ORACLE_TOL = 1e-6      # acceptance criterion 07
KS_TOL = 0.05          # acceptance criterion 09
KDE_MASS_TOL = 1e-3    # acceptance criterion 09
REFERENCE_RTOL = 1e-8

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def read_csv_rows(path: str) -> list[tuple[int, float, list[float], float]]:
    """(sample_index, t, Y, lambda_min) for each CSV row."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        e = sum(1 for col in header if col.startswith("y_"))
        rows = []
        for line in fh:
            cols = line.rstrip("\n").split(",")
            rows.append((int(cols[0]), float(cols[1]),
                         [float(v) for v in cols[2:2 + e]], float(cols[2 + e])))
    return rows


def _mean(values):
    return math.fsum(values) / len(values)


def _rms(values):
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


def fingerprint(rows) -> dict:
    """Final states and lambda_min of the first HEAD samples, plus moments."""
    last_t = max(t for _, t, _, _ in rows)
    finals = [(k, y) for k, t, y, _ in rows if t == last_t]
    e = len(finals[0][1])
    lams = [lam for _, _, _, lam in rows]
    return {
        "rows": len(rows),
        "head_final_y": [y for k, y in finals if k < HEAD],
        "head_lambda_min": [lam for k, _, _, lam in rows if k < HEAD],
        "final_y_mean": [_mean([y[a] for _, y in finals]) for a in range(e)],
        "final_y_rms": [_rms([y[a] for _, y in finals]) for a in range(e)],
        "lambda_min_mean": _mean(lams),
        "lambda_min_rms": _rms(lams),
    }


def load_reference(workload: Workload) -> dict:
    with open(os.path.join(REFERENCE_DIR, workload.name + ".json")) as fh:
        return json.load(fh)


def _close(got, want, scale: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, scale) for g, w in zip(got, want)))
    return abs(got - want) <= REFERENCE_RTOL * max(abs(want), scale)


def _compare(got: dict, want: dict, full: bool) -> list[str]:
    """Compare fingerprints; moments and row counts only at the full count."""
    problems = []
    keys = ["head_final_y", "head_lambda_min"]
    if full:
        keys += ["final_y_mean", "final_y_rms", "lambda_min_mean",
                 "lambda_min_rms"]
        if got["rows"] != want["rows"]:
            problems.append(f"{got['rows']} CSV rows, reference has "
                            f"{want['rows']}")
    else:
        want = {key: want[key][:len(got[key])] if key in keys else want[key]
                for key in want}
    y_scale = max(abs(v) for v in want["final_y_rms"])
    for key in keys:
        scale = want["lambda_min_rms"] if "lambda" in key else y_scale
        if not _close(got[key], want[key], scale):
            problems.append(f"{key} differs from the reference "
                            f"(rtol {REFERENCE_RTOL:g})")
    return problems


def check_run(out_dir: str, workload: Workload, count: int,
              reference: dict) -> list[str]:
    """Problems found in the artifacts in out_dir; empty when correct.

    `reference` is the stored entry for the run's experiment seed.
    """
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    rows = read_csv_rows(os.path.join(out_dir, "samples.csv"))
    full = count == workload.count
    problems = []
    if summary["aborted"] != 0:
        problems.append(f"{summary['aborted']} samples aborted")
    residual = summary["oracle_check"]["max_rel_residual"]
    if residual is None or not residual <= ORACLE_TOL:
        problems.append(f"Parseval/2D residual {residual} > {ORACLE_TOL:g}")
    kde = summary["kde"]
    if kde is not None and not abs(kde["mass"] - 1.0) <= KDE_MASS_TOL:
        problems.append(f"KDE mass {kde['mass']} not within "
                        f"{KDE_MASS_TOL:g} of 1")
    if full and workload.reference != "none":
        ks = (summary["reference"] or {}).get("ks_distance")
        if ks is None or not ks < KS_TOL:
            problems.append(f"KS distance {ks} against {workload.reference} "
                            f">= {KS_TOL}")
        if kde is None:
            problems.append("no KDE at the full sample count")
    if full and summary["fraction_degenerate"] != reference["fraction_degenerate"]:
        problems.append(f"fraction_degenerate {summary['fraction_degenerate']}"
                        f", reference {reference['fraction_degenerate']}")
    problems += _compare(fingerprint(rows), reference, full)
    return problems
