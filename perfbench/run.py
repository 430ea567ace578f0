"""Monte Carlo throughput benchmark of the gaussrde density pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's INI config is generated
from the seed and run by `perfbench/worker.py` in fresh single-threaded
processes.  With --trace 0 the run times `run_experiment` calls with tracing
off and reports the end-to-end metrics; with --trace 1 it runs one traced
pass and reports the per-layer metrics.  Either way the outputs are checked
(see checks.py).  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when a check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
from workloads import WORKLOADS, config_text, experiment_seed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(BENCH, "worker.py")
# Fresh processes that only import and load the config; with the timed
# worker's own set-up they give the setup_s median.
SETUP_PROBES = 6
# All worker processes of one run must end within this many seconds.
RUN_TIMEOUT_S = 170
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "sample_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_COUNTS = ("rde.steps", "fields.calls", "fields.calls_per_sample",
                    "malliavin.parseval_directions", "experiments.csv_bytes")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in PER_LAYER_COUNTS:
        return "count"
    return "fraction"


def _blas_name() -> str:
    import numpy
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(workload: str, seed: int, env: dict) -> dict:
    """Machine facts stored beside each result."""
    return {
        "workload": workload,
        "seed": seed,
        "experiment_seed": experiment_seed(seed),
        "loadavg_start": list(os.getloadavg()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": _blas_name(),
        "threads_env": {k: v for k, v in sorted(env.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def run_worker(mode: str, config: str, out_dir: str, seconds: float,
               env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, mode, config, out_dir, str(seconds)],
        capture_output=True, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_metrics(result: dict, setups: list[float], count: int) -> dict:
    """End-to-end metrics.  Throughput and CPU time are taken at the
    reference speed of worker.SpeedProbe, which steadies them on a host whose
    speed drifts; measured_metrics gives them at the speed the host ran."""
    return {
        "samples_per_s": statistics.median(count / w
                                           for w in result["ref_wall_s"]),
        "sample_cpu_ms": statistics.median(1000.0 * c / count
                                           for c in result["ref_cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measured_metrics(result: dict, count: int) -> dict:
    """Throughput and CPU time per sample as measured, not rescaled."""
    return {
        "measured_samples_per_s": statistics.median(count / w
                                                    for w in result["wall_s"]),
        "measured_sample_cpu_ms": statistics.median(1000.0 * c / count
                                                    for c in result["cpu_s"]),
        "speed": statistics.median(result["speed"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, default=None,
                        help="override the sample count (smoke tests only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gaussrde", "__init__.py")):
        print(f"no gaussrde package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = WORKLOADS[args.workload]
    count = args.count or workload.count
    reference = checks.load_reference(workload)["seeds"][
        str(experiment_seed(args.seed))]
    out_dir = os.path.join(OUT, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "config.ini")
    with open(config, "w") as fh:
        fh.write(config_text(workload, args.seed, count))
    env = dict(os.environ, **THREAD_ENV)
    record = run_record(workload.name, args.seed, env)

    if args.trace:
        result = run_worker("traced", config, out_dir, args.seconds, env,
                            deadline)
        problems = checks.check_run(os.path.join(out_dir, "untraced"),
                                    workload, count, reference)
        if not result["same_csv"]:
            problems.append("traced pass wrote different CSV bytes than "
                            "run_experiment: the trace measures another program")
        if not result["same_summary"]:
            problems.append("traced pass wrote a different summary.json than "
                            "run_experiment")
        metrics = result["layers"]
        units = {name: per_layer_unit(name) for name in metrics}
        attempted = 2 * count
    else:
        setups = [run_worker("setup", config, out_dir, 0, env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = run_worker("timed", config, out_dir, args.seconds, env,
                            deadline)
        setups.append(result["setup_s"])
        problems = checks.check_run(out_dir, workload, count, reference)
        if not result["same_artifacts"]:
            problems.append("repeated calls wrote different artifacts")
        metrics = timed_metrics(result, setups, count)
        units = END_TO_END_UNITS
        attempted = count * len(result["wall_s"])
        record.update(measured_metrics(result, count),
                      ref_wall_s=result["ref_wall_s"],
                      speed_per_call=result["speed"])

    failed = attempted if problems else sum(result["aborted"])
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    record.update(calls=len(result["wall_s"]), wall_s=result["wall_s"],
                  failed_fraction=failed / attempted)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "problems": problems, "metrics": metrics},
                  fh, indent=2)
        fh.write("\n")

    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{workload.name:22s} {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name:22s} {'measured_samples_per_s':34s} "
              f"{record['measured_samples_per_s']:14.6g} 1/s")
        print(f"{workload.name:22s} {'measured_sample_cpu_ms':34s} "
              f"{record['measured_sample_cpu_ms']:14.6g} ms")
    print(f"{workload.name:22s} {'failed_fraction':34s} "
          f"{failed / attempted:14.6g} fraction")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
