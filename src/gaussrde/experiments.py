"""Config-driven Monte Carlo experiments: sample, lift, solve, covariance,
verdicts, density estimation, and artifact emission.

A single INI-style config file describes the driver model, the vector
fields, the evaluation protocol and the output paths; `run_experiment`
takes chunks of samples through the whole pipeline, covariance by both
routes and verdicts included, deterministically (per-sample RNG streams are
keyed by (seed, sample_index), and no sample's values depend on its chunk)
and emits one CSV row per (sample, evaluation time) plus a JSON summary.
The KDE and Kolmogorov-Smirnov helpers quantify how the empirical law of
Y_t compares with a known reference when one exists.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .fields import (VectorFieldSystem, constant_fields, ellipticity_rank,
                     linear_fields, polynomial_fields, rotation_fields)
from .gaussian import (CovarianceModel, brownian_model, bridge_model,
                       cameron_martin_basis, cholesky_factors, fbm_model, kernel_eval,
                       nondegeneracy_check, PathSample, sample_paths, zero_model)
from .lift import lift_piecewise_linear
from .malliavin import (DEGENERACY_TAU, _integrand_values, malliavin_matrix_2d,
                        malliavin_matrix_parseval, route_residual, spectrum)
from .rde import NUMERICAL_ERRORS, FlowResult, log_operator_norm, solve_flow_jacobian, transport
from .young import TimeGrid, uniform_grid

log = logging.getLogger("gaussrde")

MIN_HURST = 1.0 / 3.0
# Most floats a chunk of samples holds while it is solved: its lift and its
# flow's Y, V and M, `sample_floats` per sample.  A run's samples go in equal
# chunks of at most CHUNK_FLOATS / sample_floats(config); outputs do not
# depend on it.  A chunk's solver steps, p-variation columns and covariance
# tails cost mostly fixed overhead, so fewer, larger chunks run faster.  At
# n = 65 this gives chunks of 500 scalar samples (d = e = 1) or 150 planar ones
# (d = e = 2), at most 1.6 MB of those arrays.  Sampling each chunk alone,
# forming the solver's increments one step block at a time, the binned 1-D KDE
# and the one-pass CSV writer pay for most of that memory: a scalar run's peak
# RSS stays within 1% of where chunks of 250 had it.
CHUNK_FLOATS = 196608
# Largest relative gap between the two covariance routes a run accepts, per
# sample and evaluation time (see malliavin.route_residual).
ROUTE_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class RunError(RuntimeError):
    """The Monte Carlo run itself failed: too many aborted samples, or a
    sample whose two covariance routes disagree."""


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: str
    horizon: float
    n: int
    d: int
    family: str
    e: int
    y0: np.ndarray
    times: tuple
    count: int
    seed: int
    allow_degenerate: bool
    threads: int
    reference: tuple | None
    csv_path: str | None
    json_path: str | None
    tau: float
    raw: dict = field(repr=False, default_factory=dict)


def _number(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ConfigError(f"numbers must be finite, got {text.strip()!r}")
    return value


def _floats(text: str) -> np.ndarray:
    return np.array([_number(tok) for tok in text.replace(",", " ").split()])


def _rows(text: str) -> np.ndarray:
    return np.array([_floats(part) for part in text.split(";") if part.strip()])


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    The format is INI: flat key = value entries grouped under one level of
    [section] headers.  See the repository README for the full grammar.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return _config_from_parser(parser)
    except (configparser.Error, KeyError, ValueError, IndexError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path!r}: {exc}") from exc


def time_indices(grid: TimeGrid, times) -> list[int]:
    """Grid indices of evaluation times, increasing grid points in (0, horizon]."""
    if not times or any(t <= 0 or t > grid.horizon * (1 + 1e-12) for t in times):
        raise ConfigError("evaluation times must lie in (0, horizon]")
    try:
        indices = [grid.index_of(t) for t in times]
    except ValueError as exc:
        raise ConfigError(f"evaluation times must be grid points: {exc}") from exc
    if len(set(indices)) < len(indices):
        raise ConfigError("evaluation times must be distinct grid points")
    if indices != sorted(indices):
        raise ConfigError("evaluation times must be increasing")
    return indices


# Every key the config grammar reads, by section, plus in [model] and [fields]
# the keys of the kernel or family named there; any other key is an error.
_GRAMMAR = {"model": "kernel horizon n d", "fields": "family e y0",
            "experiment": "times count seed allow_degenerate threads reference",
            "output": "csv json", "thresholds": "tau"}
_KIND_KEYS = {"model": ("kernel", {"brownian": "", "fbm": "hurst", "bridge": "pin", "zero": ""}),
              "fields": ("family", {"linear": "matrices offsets drift_matrix drift_offset",
                                    "rotation": "omegas shifts", "constant": "vectors",
                                    "polynomial": "coeffs radius"})}


def _config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    for section in parser.sections():
        if section not in _GRAMMAR:
            raise ConfigError(f"unknown section [{section}]")
        keys, where = _GRAMMAR[section].split(), f"[{section}]"
        if section in _KIND_KEYS:
            kind, own = _KIND_KEYS[section]
            name = parser[section].get(kind, "").strip().lower()
            if name not in own:
                raise ConfigError(f"unknown {kind} {name!r}")
            keys, where = keys + own[name].split(), f"{where} for {kind} {name!r}"
        unknown = sorted(set(parser[section]) - set(keys))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    for section in ("model", "fields"):
        if not parser.has_section(section):
            raise ConfigError(f"config needs a [{section}] section")
    model_sec, fields_sec = parser["model"], parser["fields"]
    exp_sec, out_sec, thr_sec = (parser[section] if parser.has_section(section) else {}
                                 for section in ("experiment", "output", "thresholds"))

    kernel = model_sec["kernel"].strip().lower()
    horizon = _number(model_sec.get("horizon", "1.0"))
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    n = int(model_sec.get("n", "64"))
    if n < 8:
        raise ConfigError(f"grid size n must be >= 8, got {n}")
    d = int(model_sec.get("d", "1"))
    if d < 1:
        raise ConfigError("driver dimension d must be >= 1")

    family = fields_sec["family"].strip().lower()
    e = int(fields_sec.get("e", "1"))
    if e < 1:
        raise ConfigError("state dimension e must be >= 1")
    y0 = _floats(fields_sec.get("y0", " ".join(["0"] * e)))
    if y0.size != e:
        raise ConfigError(f"y0 needs {e} components, got {y0.size}")

    times = tuple(_floats(exp_sec.get("times", str(horizon))).tolist())
    time_indices(uniform_grid(horizon, n), times)
    count = int(exp_sec.get("count", "1"))
    if count < 1:
        raise ConfigError("count must be >= 1")
    seed = int(exp_sec.get("seed", "0"))
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    # 1/0, true/false, yes/no or on/off; anything else is an error
    allow_degenerate = parser.getboolean("experiment", "allow_degenerate", fallback=False)
    threads = int(exp_sec.get("threads", "1"))
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    reference = _parse_reference(exp_sec.get("reference", "none"))
    if reference is not None and e != 1:
        raise ConfigError(f"a reference law needs a scalar state (e = 1), got e = {e}")

    tau = _number(thr_sec.get("tau", str(DEGENERACY_TAU)))
    if tau <= 0:
        raise ConfigError("tau must be positive")

    raw = {sec: dict(parser[sec]) for sec in parser.sections()}
    cfg = ExperimentConfig(
        kernel=kernel, horizon=horizon, n=n, d=d, family=family, e=e, y0=y0,
        times=times, count=count, seed=seed, allow_degenerate=allow_degenerate,
        threads=threads, reference=reference, csv_path=out_sec.get("csv"),
        json_path=out_sec.get("json"), tau=tau, raw=raw,
    )
    # the kernel's and the family's own keys are read there, so fail fast on them
    build_model(cfg)
    build_fields(cfg)
    return cfg


def _parse_reference(text: str) -> tuple | None:
    toks = text.replace(",", " ").split()
    if not toks or toks[0].lower() == "none":
        return None
    name = toks[0].lower()
    if name not in ("normal", "lognormal"):
        raise ConfigError(f"unknown reference distribution {name!r}")
    if len(toks) != 3:
        raise ConfigError(f"reference {name} needs two parameters (mu sigma)")
    mu, sigma = _number(toks[1]), _number(toks[2])
    if sigma <= 0:
        raise ConfigError("reference sigma must be positive")
    return (name, mu, sigma)


def build_model(config: ExperimentConfig) -> CovarianceModel:
    """Covariance model shared by all driver components; fbm's hurst and
    bridge's pin (the horizon if not given) are read from [model] here alone."""
    p = config.raw["model"]
    if config.kernel == "brownian":
        return brownian_model()
    if config.kernel == "fbm":
        if "hurst" not in p:
            raise ConfigError("fbm kernel needs a hurst key")
        hurst = _number(p["hurst"])
        if not 0 < hurst < 1:
            raise ConfigError(f"hurst must lie in (0, 1), got {hurst}")
        if hurst <= MIN_HURST:
            raise ConfigError(
                f"fbm with hurst = {hurst} is outside the supported regime: "
                f"the covariance has rho-variation index {1 / (2 * hurst):.3g} "
                f">= 3/2, which breaks the Cameron-Martin translation theory; "
                f"hurst must exceed 1/3"
            )
        return fbm_model(hurst)
    if config.kernel == "bridge":
        pin = _number(p["pin"]) if "pin" in p else config.horizon
        if pin < config.horizon:
            raise ConfigError(
                f"bridge pin {pin} lies before the horizon {config.horizon}: past "
                f"the pin min(s, t) - st/pin is a negative variance"
            )
        return bridge_model(pin)
    return zero_model()


def build_fields(config: ExperimentConfig) -> VectorFieldSystem:
    """Vector-field system named by the config's [fields] section and its keys."""
    p = config.raw["fields"]
    d, e = config.d, config.e
    if config.family == "rotation":
        if e != 2:
            raise ConfigError("rotation family is planar; set e = 2")
        omegas = _floats(p.get("omegas", " ".join(["1"] * d)))
        if omegas.size != d:
            raise ConfigError(f"omegas needs {d} entries, got {omegas.size}")
        shifts = _rows(p["shifts"]) if "shifts" in p else None
        return rotation_fields(omegas, shifts)
    if config.family == "constant":
        if "vectors" not in p:
            raise ConfigError("constant family needs a vectors key")
        c = _rows(p["vectors"])
        if c.shape != (d, e):
            raise ConfigError(f"vectors must give {d} rows of {e} entries")
        return constant_fields(c)
    if config.family == "linear":
        if "matrices" not in p:
            raise ConfigError("linear family needs a matrices key")
        rows = _rows(p["matrices"])
        if rows.shape != (d, e * e):
            raise ConfigError(
                f"matrices must give {d} rows of {e * e} entries (row-major)")
        A = rows.reshape(d, e, e)
        b = None
        if "offsets" in p:
            b = _rows(p["offsets"])
            if b.shape != (d, e):
                raise ConfigError(f"offsets must give {d} rows of {e} entries")
        drift = None
        if "drift_matrix" in p or "drift_offset" in p:
            A0 = (_floats(p["drift_matrix"]).reshape(e, e)
                  if "drift_matrix" in p else np.zeros((e, e)))
            b0 = _floats(p["drift_offset"]) if "drift_offset" in p else np.zeros(e)
            if b0.size != e:
                raise ConfigError(f"drift_offset needs {e} entries")
            drift = (A0, b0)
        return linear_fields(A, b, drift)
    # polynomial
    coeffs = [np.zeros((d,) + (e,) * (order + 1)) for order in range(4)]  # c0 .. c3
    if "coeffs" not in p:
        raise ConfigError("polynomial family needs a coeffs key")
    for term in p["coeffs"].replace("\n", ";").split(";"):
        term = term.strip()
        if not term:
            continue
        if "=" not in term:
            raise ConfigError(f"bad polynomial term {term!r} (need indices = value)")
        left, _, right = term.partition("=")
        idx = [int(tok) for tok in left.split()]
        value = _number(right)
        if not 2 <= len(idx) <= 5:
            raise ConfigError(
                f"polynomial term {term!r}: need field, output and 0-3 state "
                f"indices")
        fi, a = idx[0] - 1, idx[1] - 1
        states = [s - 1 for s in idx[2:]]
        if not (0 <= fi < d and 0 <= a < e and all(0 <= s < e for s in states)):
            raise ConfigError(f"polynomial term {term!r}: index out of range "
                              f"(indices are 1-based)")
        coeffs[len(states)][(fi, a, *states)] += value
    return polynomial_fields(*coeffs, radius=_number(p.get("radius", "5.0")))


def variation_index(model: CovarianceModel) -> float:
    """Roughness scale p in (2 rho, 3) used for driver p-variation records."""
    rho = model.rho
    return 2.0 * rho + min(0.5, 0.5 * (3.0 - 2.0 * rho))


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


def check_conditions(config: ExperimentConfig) -> dict:
    """Verify the standing hypotheses on a config before running it.

    Ellipticity: the driving fields span the state space at y0 (rank of
    [V_1(y0) ... V_d(y0)] equals e).  Gaussian non-degeneracy: at every
    evaluation time, no nonzero weighting of grid increments has zero
    variance.  The rho report gives the kernel's analytic roughness index
    rho (`build_model` has already refused a kernel outside the range the
    theory covers).
    """
    model = build_model(config)
    vf = build_fields(config)
    rank = ellipticity_rank(vf, config.y0)
    kernel = kernel_eval(model, uniform_grid(config.horizon, config.n))
    per_time = {t: nondegeneracy_check(kernel, t) for t in config.times}
    gaussian_nondeg = not any(rep["degenerate"] for rep in per_time.values())
    return {
        "ellipticity": bool(rank == config.e),
        "spanning_rank": int(rank),
        "gaussian_nondeg": bool(gaussian_nondeg),
        "per_time": per_time,
        "rho_report": {"analytic_rho": float(model.rho)},
    }


# ---------------------------------------------------------------------------
# Density estimation
# ---------------------------------------------------------------------------


def _columns(samples) -> np.ndarray:
    """Samples as (n, e) rows; a flat array holds n scalar samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return samples.T if samples.shape[0] == 1 else samples


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-coordinate Silverman rule h_j = sigma_j (4 / ((e+2) n))^(1/(e+4))."""
    samples = _columns(samples)
    n, e = samples.shape
    sig = np.std(samples, axis=0, ddof=1)
    h = sig * (4.0 / ((e + 2) * n)) ** (1.0 / (e + 4))
    floor = 1e-9 * np.maximum(1.0, np.abs(np.mean(samples, axis=0)))
    return np.maximum(h, floor)


def kde_density(samples: np.ndarray, query_grid) -> np.ndarray:
    """Gaussian-kernel density estimate with the Silverman bandwidth on a
    query grid.

    State dimension 1: `query_grid` is an array of points, the result has
    the same shape.  The estimate is evaluated binned (Silverman, Algorithm
    AS 176, 1982; Wand & Jones, Kernel Smoothing, 1995, ch. 3): the samples
    are spread by linear binning onto a uniform grid spanning them and the
    queries, at spacing at most h/64 (a power of two between 2^12 and 2^16
    points; coarser only past 2^16), the bin weights are smoothed by one
    zero-padded FFT convolution with the kernel, and the queries read that by
    linear interpolation.  Against the direct sum over samples it was off by
    at most 2.1e-5 of the estimate's peak on the scalar benchmark's runs and
    4.2e-5 on normal, lognormal, t(2) and Cauchy samples.  Dimension 2:
    `query_grid` is a pair of axis arrays and the result is the density on
    their product grid, summed directly.  Higher dimensions are rejected;
    report raw samples instead.
    """
    samples = _columns(samples)
    n, e = samples.shape
    if e > 2:
        raise ValueError(f"density estimation supports e <= 2, got e = {e}")
    if n < 100:
        raise ValueError(f"need at least 100 samples for a density, got {n}")
    h = silverman_bandwidth(samples)
    norm = math.prod([n, *h]) * (2 * math.pi) ** (e / 2)
    if e == 1:
        q = np.asarray(query_grid, dtype=float)
        return _binned_kde_sums(samples[:, 0], q, h[0]) / norm

    def kernel(q, j):
        """(queries, n) kernel matrix of one axis."""
        z = np.subtract(np.asarray(q, dtype=float)[:, None], samples[:, j])
        z /= h[j]
        np.square(z, out=z)
        z *= -0.5
        return np.exp(z, out=z)

    # the 2D density is the product of the two axes' kernel matrices
    return kernel(query_grid[0], 0) @ kernel(query_grid[1], 1).T / norm


def _binned_kde_sums(x: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """sum_i exp(-(q - x_i)^2 / 2h^2) at each query, from the linearly
    binned samples convolved with the kernel on a grid of spacing at most
    h/64; clipped at 0, where the transform's rounding would dip below."""
    from numpy import fft  # a few ms to import: only a run with a 1-D KDE pays it

    lo = min(x.min(), q.min())
    width = max(max(x.max(), q.max()) - lo, h)
    bins = 4096
    while bins < 65536 and width > (bins - 1) * h / 64:
        bins *= 2
    step = width / (bins - 1)
    # linear binning: a sample at t bins splits its unit weight between bins
    # floor(t) and floor(t) + 1, each taking 1 - its distance to it
    t = np.subtract(x, lo)
    t /= step
    np.clip(t, 0, bins - 1, out=t)
    left = np.minimum(t.astype(np.intp), bins - 2)
    t -= left
    weights = np.bincount(left + 1, weights=t, minlength=bins)
    np.subtract(1.0, t, out=t)
    weights += np.bincount(left, weights=t, minlength=bins)
    # the kernel at bin offsets out to 9 h, where it is below 3e-18 of its
    # peak, convolved zero-padded to the full length: nothing wraps around
    reach = min(bins - 1, math.ceil(9 * h / step))
    size = 1 << (bins + 2 * reach - 1).bit_length()
    z = np.arange(-reach, reach + 1) * (step / h)
    kernel = np.exp(-0.5 * z * z)
    smooth = fft.irfft(fft.rfft(weights, size) * fft.rfft(kernel, size), size)
    sums = np.interp(q, lo + step * np.arange(bins), smooth[reach:reach + bins])
    return np.maximum(sums, 0.0, out=sums)


def _default_query_grid(samples: np.ndarray, h: np.ndarray):
    """512 query points in 1D, 88 x 88 in 2D, reaching 5 bandwidths past the
    samples."""
    lo = samples.min(axis=0) - 5.0 * h
    hi = samples.max(axis=0) + 5.0 * h
    if samples.shape[1] == 1:
        return np.linspace(lo[0], hi[0], 512)
    return (np.linspace(lo[0], hi[0], 88), np.linspace(lo[1], hi[1], 88))


def _kde_mass(query_grid, values: np.ndarray) -> float:
    if isinstance(query_grid, tuple):
        inner = np.trapezoid(values, query_grid[1], axis=1)
        return float(np.trapezoid(inner, query_grid[0]))
    return float(np.trapezoid(values, query_grid))


def _normal_pdf(q, mu, sigma):
    """The N(mu, sigma^2) pdf at q."""
    z = (np.asarray(q, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))


def _lognormal_pdf(q, mu, sigma):
    """The normal pdf of log q over q; exactly 0 at q <= 0, where no log is
    taken."""
    q = np.asarray(q, dtype=float)
    pdf = np.zeros_like(q)
    positive = q > 0
    pdf[positive] = _normal_pdf(np.log(q[positive]), mu, sigma) / q[positive]
    return pdf


def _ks_normal(samples, mu, sigma) -> float:
    """Kolmogorov-Smirnov statistic of the samples against N(mu, sigma^2):
    the largest gap between the normal cdf and the empirical cdf, taken on
    both sides of each of its jumps.  The cdf is 0.5 erfc(-z / sqrt(2)), with
    z and the argument in numpy and one `math.erfc` per sample (numpy has no
    erf): the bits of the scalar formula."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    w = -((x - mu) / sigma) / math.sqrt(2)
    cdf = 0.5 * np.fromiter(map(math.erfc, w.tolist()), float, count=m)
    return float(max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m)))


def _reference_comparison(reference, samples1d, query_grid, kde_values):
    name, mu, sigma = reference
    if name == "lognormal":
        if np.any(samples1d <= 0):
            raise RunError("lognormal reference requires positive samples")
        transformed = np.log(samples1d)
        pdf = _lognormal_pdf(query_grid, mu, sigma)
    else:
        transformed = samples1d
        pdf = _normal_pdf(query_grid, mu, sigma)
    ks = _ks_normal(transformed, mu, sigma)
    sup = float(np.max(np.abs(kde_values - pdf)))
    return ks, sup


@dataclass
class DensityReport:
    """Outcome of one Monte Carlo run: `summary` is summary.json's payload,
    `samples` the states of the rows at the last evaluation time, and
    `query_grid` and `kde_values` their density estimate (None without one)."""

    summary: dict
    samples: np.ndarray
    query_grid: object = None
    kde_values: np.ndarray | None = None

    @property
    def aborted(self) -> int:
        return self.summary["aborted"]


# ---------------------------------------------------------------------------
# The run itself
# ---------------------------------------------------------------------------


def evaluate_flows(flows, vf, kernel, basis, it, tau):
    """Covariance by both routes at one evaluation time (grid index `it`) for
    one solved sample or a stack: the 2D-route matrix, its spectrum (judged
    against its own magnitude / e) and the row: named per-row values, the
    CSV's columns in order (Y_t, lambda_min, det, verdict, pvar_driver, log
    |J_t|), then the route residual.  One `transport` (which raises
    ExplosionError if it is not finite) gives J_t and the derivative both
    routes pair."""
    t = flows.grid.points[it]
    P = transport(flows, it)
    Z = _integrand_values(flows, vf, it, P)
    mat = malliavin_matrix_2d(flows, vf, kernel, t, Z=Z)
    spec = spectrum(mat, tau=tau, scale=mat.magnitude / vf.e)
    check = malliavin_matrix_parseval(flows, vf, basis, t, Z=Z)
    # copies of Y_t, so that a record does not keep its chunk's flow alive
    return mat, spec, {
        **{f"y_{a + 1}": flows.Y[..., it, a].copy() for a in range(vf.e)},
        **{name: getattr(spec, name) for name in ("lambda_min", "det", "verdict")},
        "pvar_driver": flows.pvar, "log_norm_J": log_operator_norm(P[..., 0, :, :]),
        "residual": route_residual(mat.sigma, check.sigma,
                                   np.maximum(mat.magnitude, check.magnitude))}


def summarise_rows(record, rows) -> dict:
    """Summary of the record's `rows` (a mask or an index) in summary.json's
    keys: the degenerate fraction, lambda_min's quantiles and `oracle_check`,
    the samples checked and the worst residual."""
    lam = record["lambda_min"][rows]
    return {"fraction_degenerate": float(np.mean(record["verdict"][rows] == "degenerate")),
            "lambda_min_quantiles": {f"q{q:02d}": float(np.quantile(lam, q / 100))
                                     for q in (5, 50, 95)},
            "oracle_check": {"checked": np.unique(record["sample_index"][rows]).size,
                             "max_rel_residual": float(record["residual"][rows].max())}}


def check_routes(residuals, samples, times) -> None:
    """Raise RunError if the two covariance routes of some (sample, time) row
    differ by more than ROUTE_TOL (a residual from `evaluate_flows` per row)."""
    residuals = np.atleast_1d(residuals)
    if not residuals.max(initial=0.0) <= ROUTE_TOL:
        worst = int(np.argmax(residuals))
        raise RunError(f"covariance routes disagree on sample {samples[worst]} at "
                       f"t = {times[worst]:g}: relative residual "
                       f"{residuals[worst]:.3e} > {ROUTE_TOL:g}")


def by_rows(fn, stack, take, rows, limit=math.inf):
    """fn(stack), for a stack whose positions carry the labels `rows`.  If
    that fails numerically, halving finds the failing positions (fn on
    take(stack, positions) for each half of a failing set, lower half first,
    down to single ones) and fn runs once more on the others.  Returns fn's
    output on the rows that passed (on take(stack, []) if none did), their
    labels and {label: the error fn raises on that row alone}.  Once more
    than `limit` rows have failed the search stops, and the output is None:
    the lowest limit + 1 failing rows are then the ones returned."""
    try:
        return fn(stack), rows, {}
    except NUMERICAL_ERRORS as exc:
        sets, failed = [(list(range(len(rows))), exc)], {}
    while sets and len(failed) <= limit:  # positions still to search, with fn's error
        part, error = sets.pop()
        if error is None:
            try:
                fn(take(stack, part))
                continue
            except NUMERICAL_ERRORS as exc:
                error = exc
        if len(part) > 1:
            sets += [(part[len(part) // 2:], None), (part[:len(part) // 2], None)]
        else:
            failed[part[0]] = error
    kept = [k for k in range(len(rows)) if k not in failed]
    out = fn(take(stack, kept)) if len(failed) <= limit else None
    return out, [rows[k] for k in kept], {rows[k]: error for k, error in failed.items()}


def sample_floats(config: ExperimentConfig) -> int:
    """Floats one sample holds in a chunk: its lift, level 1 and level 2 (d +
    d^2 per grid point), and its flow's Y, V and M (e + d e + e^2)."""
    d, e = config.d, config.e
    return config.n * (d + d * d + e + d * e + e * e)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> DensityReport:
    """Run the sampled-path pipeline described by the config.

    The kernel is sampled once; the gate, the Cholesky factor, the
    Cameron-Martin basis and the 2D route all read that sample.  Unless the
    config allows a degenerate scenario, the driver model must pass the
    Gaussian non-degeneracy probe at every evaluation time before any path is
    drawn.  Samples go through the whole pipeline in equal chunks of at most
    CHUNK_FLOATS / sample_floats(config): sample, lift, solve, p-variation,
    then one covariance tail (`evaluate_flows`) per evaluation time; no value
    depends on the chunking.  A numerical failure (explosion, an eigenvalue
    solve that does not converge, floating-point errors) drops the rows it
    happens in: a solver failure all rows of its sample, a tail failure at t
    only the (sample, t) row; `by_rows` finds them, in sample positions in the
    chunk (each time's search takes the solve's kept ones).  `aborted` counts
    the samples that lost a row, each logged once with its first error; the
    chunk that takes it past 1% of the count fails the run (its search for
    failing samples stops at the first one past 1%), as does a row whose two
    routes differ by more than ROUTE_TOL (see `route_residual`).  Any other
    exception propagates.  The report's `summary` is summary.json's payload,
    built here alone.  The artifacts go where `artifact_paths`, called before
    the gate, puts them; each is written at the end, its directory made then.
    """
    csv_path, json_path = artifact_paths(config, out_dir)
    model = build_model(config)
    vf = build_fields(config)
    grid = uniform_grid(config.horizon, config.n)
    indices = time_indices(grid, config.times)
    kernel = kernel_eval(model, grid)

    if not config.allow_degenerate:
        for t in config.times:
            if nondegeneracy_check(kernel, t)["degenerate"]:
                raise ConfigError(
                    f"driver model {model.name!r} is degenerate on [0, {t}]; "
                    f"set allow_degenerate = true to study this on purpose"
                )

    pvar_p = variation_index(model)
    models = [model] * config.d
    factors = cholesky_factors([kernel]) * config.d
    basis = cameron_martin_basis(kernel)

    chunks, failures = [], []
    # equal chunks, so no small tail chunk pays a whole step loop
    cap = max(1, CHUNK_FLOATS // sample_floats(config))
    size = math.ceil(config.count / math.ceil(config.count / cap))
    for lo in range(0, config.count, size):
        paths = sample_paths(models, grid, min(size, config.count - lo), config.seed,
                             first=lo, factors=factors).values
        # the search for failing samples stops where the run would fail anyway
        flows, solved, errors = by_rows(
            lambda v: solve_flow_jacobian(lift_piecewise_linear(PathSample(grid, v)), vf,
                                          config.y0, pvar_index=pvar_p),
            paths, lambda v, rows: v[rows], range(len(paths)),
            limit=0.01 * config.count - len(failures))
        for it in indices if flows is not None else ():
            (_, _, row), kept, failed = by_rows(
                lambda f: evaluate_flows(f, vf, kernel, basis, it, config.tau),
                flows, FlowResult.sample, solved)
            for i, error in failed.items():
                errors.setdefault(i, error)  # each sample's first error
            kept = lo + np.array(kept, dtype=int)  # the samples that passed at t
            chunks.append({"sample_index": kept, "t": np.full(kept.size, grid.points[it]), **row})
        for i in sorted(errors):
            log.warning("sample %d aborted: %s", lo + i, errors[i])
            failures.append((lo + i, f"{type(errors[i]).__name__}: {errors[i]}"))
        if len(failures) > 0.01 * config.count:
            raise RunError(
                f"more than 1% of the {config.count} samples aborted; first "
                f"failure: sample {failures[0][0]}: {failures[0][1]}")
        del flows, paths  # the next chunk is sampled without this one's arrays alive

    # the samples outermost again (at least one kept every row, or the run failed)
    order = np.argsort(np.concatenate([c["sample_index"] for c in chunks]), kind="stable")
    record = {name: np.concatenate([c[name] for c in chunks])[order] for name in chunks[0]}
    check_routes(record["residual"], record["sample_index"], record["t"])
    last = record["t"] == grid.points[indices[-1]]
    final_Y = np.column_stack([record[f"y_{a + 1}"][last] for a in range(config.e)])
    query = values = kde = reference = None
    if config.e <= 2 and final_Y.shape[0] >= 100:
        h = silverman_bandwidth(final_Y)
        query = _default_query_grid(final_Y, h)
        values = kde_density(final_Y, query)
        kde = {"bandwidth": h.tolist(), "mass": _kde_mass(query, values)}
        if config.reference is not None:
            ks, sup = _reference_comparison(config.reference, final_Y[:, 0], query, values)
            reference = {"name": config.reference[0], "ks_distance": ks, "sup_distance": sup}
    summary = {"version": __version__, "config_hash": config_hash(config),
               "seed": config.seed, "config": config.raw, "count": config.count,
               "aborted": len(failures), **summarise_rows(record, slice(None)),
               "kde": kde, "reference": reference}
    del record["residual"]  # the route check's input, not a CSV column
    if csv_path:
        write_rows_csv(csv_path, list(record), list(record.values()))
    if json_path:
        write_json(json_path, summary)
    return DensityReport(summary, final_Y, query, values)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def artifact_paths(config: ExperimentConfig, out_dir: str | None = None) -> tuple:
    """The (CSV, JSON) paths a run writes, falsy for one it does not: the
    config's, or their basenames (samples.csv and summary.json if it names
    none) inside `out_dir`.  ConfigError if the two are one file, or if one
    names a directory (an existing one, or a path that ends in a separator)."""
    paths = (config.csv_path, config.json_path)
    if out_dir is not None:
        paths = tuple(os.path.join(out_dir, os.path.basename(path or default))
                      for path, default in zip(paths, ("samples.csv", "summary.json")))
    if all(paths) and os.path.abspath(paths[0]) == os.path.abspath(paths[1]):
        raise ConfigError(f"[output] csv and json resolve to one file, {paths[0]!r}")
    for name, path in zip(("csv", "json"), paths):
        if path and (not os.path.basename(path) or os.path.isdir(path)):
            raise ConfigError(f"[output] {name} names a directory, {path!r}")
    return paths


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.raw, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_rows_csv(path: str, names, columns) -> None:
    """CSV table: a header line of `names`, then one line per row of the
    equal-length column arrays `columns`, numbers printed with %.17g (so that
    reruns are byte-identical) and strings as they are.  The whole body is
    one `%` on a template of its rows, with no string per cell."""
    row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in columns) + "\n"
    cells = itertools.chain.from_iterable(zip(*(c.tolist() for c in columns)))
    body = (row * len(columns[0])) % tuple(cells)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n" + body)


def write_json(path: str, payload) -> None:
    """JSON file: sorted keys, indent 2 and one trailing newline, so that
    reruns are byte-identical."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
