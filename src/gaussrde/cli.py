"""Command-line front end.

Subcommands mirror the pipeline stages so intermediate artifacts can be
produced and inspected standalone: sample, lift, solve, malliavin, density,
check, run.  Exit codes: 0 success, 2 configuration or condition-check
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (ConfigError, RunError, build_fields, build_model,
                          check_conditions, check_routes, evaluate_flows,
                          load_config, run_experiment, time_indices,
                          variation_index, write_json, write_rows_csv)
from .gaussian import cameron_martin_basis, kernel_eval, sample_paths
from .lift import lift_piecewise_linear
from .rde import ExplosionError, solve_flow_jacobian
from .young import uniform_grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussrde",
        description="Gaussian rough-path experiments: sampling, lifting, "
                    "solving, covariance diagnostics, densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_out=False, indexed=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        if needs_out:
            p.add_argument("--out", required=True, help="output file")
        if indexed:
            p.add_argument("--index", type=int, default=0,
                           help="sample index (default 0)")
        return p

    run_p = sub.add_parser("run", help="full Monte Carlo pipeline with artifacts")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", help="directory for output artifacts")

    add("check", "verify ellipticity / Gaussian non-degeneracy, report the "
                 "roughness index")
    add("sample", "write one sampled driver path as CSV", needs_out=True,
        indexed=True)
    add("lift", "write the step-2 lift of one sampled path as CSV",
        needs_out=True, indexed=True)
    add("solve", "write the solution path for one sample as CSV",
        needs_out=True, indexed=True)
    mal_p = add("malliavin", "print covariance spectrum for one sample",
                indexed=True)
    mal_p.add_argument("--time", type=float, help="evaluation time "
                       "(default: last configured time)")
    mal_p.add_argument("--out", help="optional JSON output file")
    den_p = add("density", "run the pipeline and export the density estimate")
    den_p.add_argument("--out", help="CSV file for the density table")
    return parser


def _prepare(args):
    config = load_config(args.config)
    model = build_model(config)
    vf = build_fields(config)
    grid = uniform_grid(config.horizon, config.n)
    return config, model, vf, grid


def _single_path(config, model, grid, index):
    if index < 0:
        raise ConfigError("--index must be >= 0")
    return sample_paths([model] * config.d, grid, 1, config.seed, first=index).path(0)


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(count)]


def _print_reference(summary) -> None:
    if summary["reference"] is not None:
        print(f"KS distance to {summary['reference']['name']} reference: "
              f"{summary['reference']['ks_distance']:.4f}")


def _cmd_run(args) -> int:
    summary = run_experiment(load_config(args.config), out_dir=args.out).summary
    oracle = summary["oracle_check"]
    print(f"samples: {summary['count']}  aborted: {summary['aborted']}")
    print(f"fraction degenerate: {summary['fraction_degenerate']:.4f}")
    if oracle["checked"]:
        print(f"route cross-check on {oracle['checked']} samples: "
              f"max relative residual {oracle['max_rel_residual']:.3e}")
    if summary["kde"] is not None:
        print(f"kde mass: {summary['kde']['mass']:.6f}")
    _print_reference(summary)
    return 0


def _cmd_check(args) -> int:
    config = load_config(args.config)
    result = check_conditions(config)
    print(f"ellipticity: {result['ellipticity']} "
          f"(rank {result['spanning_rank']} of {config.e})")
    print(f"gaussian non-degeneracy: {result['gaussian_nondeg']}")
    print(f"rho: analytic {result['rho_report']['analytic_rho']:.4g}")
    ok = result["ellipticity"] and result["gaussian_nondeg"]
    if ok or config.allow_degenerate:
        return 0
    print("condition check failed", file=sys.stderr)
    return 2


def _cmd_sample(args) -> int:
    config, model, _, grid = _prepare(args)
    path = _single_path(config, model, grid, args.index)
    write_rows_csv(args.out, ["t"] + _names("x", config.d),
                   [grid.points, *path.values.T])
    print(f"wrote driver sample {args.index} to {args.out}")
    return 0


def _cmd_lift(args) -> int:
    config, model, _, grid = _prepare(args)
    X = lift_piecewise_linear(_single_path(config, model, grid, args.index))
    d = config.d
    write_rows_csv(args.out, ["t"] + _names("a", d)
                   + [name for i in range(d) for name in _names(f"b_{i + 1}", d)],
                   [grid.points, *X.level1.T, *X.level2.reshape(grid.n, d * d).T])
    print(f"wrote lift of sample {args.index} to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    config, model, vf, grid = _prepare(args)
    path = _single_path(config, model, grid, args.index)
    flow = solve_flow_jacobian(lift_piecewise_linear(path), vf, config.y0,
                               pvar_index=variation_index(model))
    write_rows_csv(args.out, ["t"] + _names("y", config.e), [grid.points, *flow.Y.T])
    print(f"wrote solution of sample {args.index} to {args.out} "
          f"(driver p-variation {flow.pvar:.4f})")
    return 0


def _cmd_malliavin(args) -> int:
    config, model, vf, grid = _prepare(args)
    t = args.time if args.time is not None else config.times[-1]
    path = _single_path(config, model, grid, args.index)
    flow = solve_flow_jacobian(lift_piecewise_linear(path), vf, config.y0)
    mat, spec, row = evaluate_flows(
        flow, vf, kernel_eval(model, grid), cameron_martin_basis(model, grid),
        time_indices(grid, [t])[0], config.tau)
    check_routes(row["residual"], [args.index], [t])
    print(f"sigma at t = {t} (2d-young route):")
    for line in mat.sigma:
        print("  " + "  ".join(f"{v: .6e}" for v in line))
    print(f"eigenvalues: {np.array2string(spec.eigenvalues, precision=6)}")
    print(f"lambda_min: {row['lambda_min']:.6e}  det: {row['det']:.6e}")
    print(f"verdict: {row['verdict']} (tau = {spec.tau:g})")
    print(f"route cross-check residual: {row['residual']:.3e}")
    if args.out:
        write_json(args.out, {
            "t": float(t),
            "sigma": mat.sigma.tolist(),
            "eigenvalues": spec.eigenvalues.tolist(),
            **{name: row[name] for name in ("lambda_min", "det", "verdict")},
            "tau": spec.tau,
            "route_residual": row["residual"],
        })
        print(f"wrote spectrum report to {args.out}")
    return 0


def _cmd_density(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    if report.kde_values is None:
        print("no density estimate available (state dimension > 2 or too few "
              "samples); reporting raw samples")
        if args.out:
            write_rows_csv(args.out, _names("y", report.samples.shape[1]),
                           report.samples.T)
            print(f"wrote raw samples to {args.out}")
        return 0
    kde = report.summary["kde"]
    print(f"density at t = {config.times[-1]}: bandwidth "
          f"{np.array2string(np.array(kde['bandwidth']), precision=4)}, "
          f"mass {kde['mass']:.6f}")
    _print_reference(report.summary)
    if args.out:
        # one row per query point, the first axis outermost
        axes = report.query_grid
        axes = axes if isinstance(axes, tuple) else (axes,)
        points = [q.ravel() for q in np.meshgrid(*axes, indexing="ij")]
        write_rows_csv(args.out, _names("y", len(axes)) + ["density"],
                       points + [report.kde_values.ravel()])
        print(f"wrote density table to {args.out}")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "check": _cmd_check,
    "sample": _cmd_sample,
    "lift": _cmd_lift,
    "solve": _cmd_solve,
    "malliavin": _cmd_malliavin,
    "density": _cmd_density,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RunError, ExplosionError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
