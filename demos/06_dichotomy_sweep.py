"""Monte Carlo sweep of the density dichotomy.

Elliptic vector fields driven by a non-degenerate Gaussian process give
a Malliavin matrix of full rank in every sample, so the law of the
solution has a density.  Kill either hypothesis and the matrix
collapses: constant non-spanning fields lose rank everywhere, and a
bridge pinned at the horizon is degenerate exactly at the pin time.

The same sweep is available from the command line:

    gaussrde run --config config.ini --out results/
    gaussrde check --config config.ini
"""

import tempfile
import textwrap
import warnings
from pathlib import Path

from gaussrde import load_config, run_experiment

ELLIPTIC = """
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
count = 200
seed = 101
"""

workdir = Path(tempfile.mkdtemp())


def sweep(name, text):
    path = workdir / f"{name}.ini"
    path.write_text(textwrap.dedent(text))
    config = load_config(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        summary = run_experiment(config).summary
    quants = {k: "%.2e" % v for k, v in summary["lambda_min_quantiles"].items()}
    print(f"{name:<12} degenerate fraction {summary['fraction_degenerate']:.3f}   "
          f"lambda_min quantiles {quants}")
    return summary


print("elliptic rotation system, 200 samples, t in {0.5, 1.0}:")
for kernel in ("brownian", "fbm\nhurst = 0.4", "fbm\nhurst = 0.5",
               "fbm\nhurst = 0.75"):
    label = kernel.replace("\nhurst = ", "-")
    sweep(label, ELLIPTIC.format(kernel=kernel))

print("\nbroken hypotheses:")

# One constant field in a 2D state space: rank 1 forever.
sweep("flat-fields", """
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
count = 200
seed = 102
""")

# Bridge pinned at t=1: degenerate at the pin, fine at t=0.5, so the
# degenerate fraction over both query times is exactly one half.
sweep("bridge-pin", """
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
seed = 103
allow_degenerate = true
""")
