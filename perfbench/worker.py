"""One fresh benchmark process; prints a single JSON line on stdout.

    python3 perfbench/worker.py setup  CONFIG OUT_DIR SECONDS
    python3 perfbench/worker.py timed  CONFIG OUT_DIR SECONDS
    python3 perfbench/worker.py traced CONFIG OUT_DIR SECONDS

Every mode first times `import gaussrde` plus `load_config`, the set-up a
user pays in a fresh process.  `setup` stops there.  `timed` calls
`run_experiment` one call at a time for about SECONDS (at least once),
timing each call's wall and process CPU time with tracing off, and times the
speed probe (see SpeedProbe) during each call.
`traced` makes two untraced calls, the second timed, then one traced call
of the same config (see tracing.py), reports whether the traced call wrote
the same artifacts, and writes the spans to OUT_DIR/trace.json.  The
package is imported from the checkout's `src/`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _read(out_dir: str, name: str) -> bytes:
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def _artifact_bytes(out_dir: str) -> bytes:
    return _read(out_dir, "samples.csv") + _read(out_dir, "summary.json")


# The speed probe runs every PROBE_PERIOD_S of a timed call, about 2% of
# the call.  PROBE_REF_S is the reference speed: the probe's usual time on
# the 2-vCPU Xeon VM of README.md's baseline, so that numbers at the
# reference speed read close to the ones measured there.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 4.0e-4


class SpeedProbe:
    """Times a fixed kernel every PROBE_PERIOD_S while a call runs.

    A shared host runs this process at speeds that differ by up to half for
    seconds to minutes at a time, which moves whole runs.  A SIGALRM handler
    runs the kernel between two bytecodes of the call, in the same thread,
    so the probe times sample the speed the call itself ran at.  Work done
    is time multiplied by speed, and speed is 1 / probe time, so a call's
    time less the probe's, multiplied by PROBE_REF_S and by the mean of
    1 / probe time, is the time the call would take at the reference speed.
    A probe slowed by preemption barely moves that mean.
    """

    def __init__(self):
        # Imported here, after the set-up timing, which covers numpy's import.
        import numpy
        self._np = numpy
        self._a = numpy.array([[3.0, 0.5], [0.2, 2.0]])
        self._r = numpy.array([0.3, -0.7])
        self.wall: list[float] = []
        self.cpu: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _kernel(self) -> float:
        """Fixed work in the mix the pipeline does: interpreted arithmetic
        around small numpy calls.  It uses no gaussrde code, so a change to
        the package cannot change it."""
        np, a, r = self._np, self._a, self._r
        s = 0.0
        for k in range(40):
            m = a @ a + k
            s += float(np.linalg.norm(m @ r)) + 0.5 * k
        return s

    def _tick(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.process_time()
        self._kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    @contextmanager
    def running(self):
        """Probe until the block ends, at least once; time the block around
        this, so that every probe falls inside the timed span."""
        self.wall.clear()
        self.cpu.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.wall:
            self._tick()

    def at_reference(self, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) of the probed call at the reference speed."""
        return tuple((spent - sum(probes)) * PROBE_REF_S
                     * statistics.fmean(1.0 / p for p in probes)
                     for spent, probes in ((wall, self.wall), (cpu, self.cpu)))

    def speed(self) -> float:
        """Mean speed during the call, relative to the reference."""
        return PROBE_REF_S * statistics.fmean(1.0 / p for p in self.wall)


def _timed(gaussrde, cfg, out_dir: str, seconds: float) -> dict:
    walls, cpus, ref_walls, ref_cpus, speeds = [], [], [], [], []
    digests, aborted = [], []
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        with probe.running():
            report = gaussrde.run_experiment(cfg, out_dir=out_dir)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        ref_wall, ref_cpu = probe.at_reference(walls[-1], cpus[-1])
        ref_walls.append(ref_wall)
        ref_cpus.append(ref_cpu)
        speeds.append(probe.speed())
        aborted.append(report.aborted)
        digests.append(hashlib.sha256(_artifact_bytes(out_dir)).hexdigest())
        # Stop when another call as long as the last would end past SECONDS.
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return {"wall_s": walls, "cpu_s": cpus, "ref_wall_s": ref_walls,
            "ref_cpu_s": ref_cpus, "speed": speeds, "aborted": aborted,
            "same_artifacts": len(set(digests)) == 1}


def _traced(gaussrde, cfg, out_dir: str) -> dict:
    import tracing

    untraced_dir = os.path.join(out_dir, "untraced")
    traced_dir = os.path.join(out_dir, "traced")
    # The first call lets lazy set-up finish, so that trace.overhead
    # compares two warm calls.
    report = gaussrde.run_experiment(cfg, out_dir=untraced_dir)
    w0 = time.perf_counter()
    gaussrde.run_experiment(cfg, out_dir=untraced_dir)
    untraced_wall = time.perf_counter() - w0
    tracer = tracing.Tracer()
    tracing.traced_run(cfg, traced_dir, tracer)
    with open(os.path.join(out_dir, "trace.json"), "w") as fh:
        json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, fh)
        fh.write("\n")
    return {
        "wall_s": [untraced_wall],
        "aborted": [report.aborted],
        "same_csv": (_read(untraced_dir, "samples.csv")
                     == _read(traced_dir, "samples.csv")),
        "same_summary": (_read(untraced_dir, "summary.json")
                         == _read(traced_dir, "summary.json")),
        "layers": tracing.layer_metrics(tracer.spans, untraced_wall, cfg.count),
    }


def main(argv: list[str]) -> int:
    mode, config_path, out_dir, seconds = argv
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gaussrde
    cfg = gaussrde.load_config(config_path)
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(gaussrde.__file__)) != os.path.join(SRC, "gaussrde"):
        print(f"gaussrde was imported from {gaussrde.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "timed":
        result.update(_timed(gaussrde, cfg, out_dir, float(seconds)))
    elif mode == "traced":
        result.update(_traced(gaussrde, cfg, out_dir))
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
