"""Regenerate perfbench/reference/<workload>.json from the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For every experiment seed 0 .. REFERENCE_SEEDS-1 this runs the workload's
config once at its full sample count, requires the seed-independent checks
to pass, and stores the fingerprint of the CSV (see checks.py) together with
fraction_degenerate.  Only rerun it when a change is meant to alter the
pipeline's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import checks
from workloads import REFERENCE_SEEDS, WORKLOADS, config_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gaussrde import load_config, run_experiment  # noqa: E402


def reference_for(workload) -> dict:
    out_dir = os.path.join(ROOT, ".perfbench_out", "reference", workload.name)
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "config.ini")
    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        with open(config, "w") as fh:
            fh.write(config_text(workload, seed))
        run_experiment(load_config(config), out_dir=out_dir)
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        entry = dict(checks.fingerprint(checks.read_csv_rows(
                         os.path.join(out_dir, "samples.csv"))),
                     fraction_degenerate=summary["fraction_degenerate"])
        problems = checks.check_run(out_dir, workload, workload.count, entry)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {problems}")
        seeds[str(seed)] = entry
        print(f"{workload.name} seed {seed}: ok", flush=True)
    return {"workload": workload.name, "count": workload.count,
            "rtol": checks.REFERENCE_RTOL, "seeds": seeds}


def main(names: list[str]) -> None:
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = reference_for(WORKLOADS[name])
        with open(os.path.join(checks.REFERENCE_DIR, name + ".json"), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
