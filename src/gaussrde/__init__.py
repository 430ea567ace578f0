"""Rough-path and Malliavin-calculus numerics for Gaussian-driven differential equations.

The package lifts sampled Gaussian processes to step-2 geometric rough paths,
solves the associated rough differential equations together with their Jacobian
flows, and computes the Malliavin covariance matrix of the solution by two
independent routes (a 2D Young integral against the covariance kernel, and a
Parseval sum over a grid Cameron-Martin basis).  On top of that it provides
Monte Carlo experiments that probe when the solution law admits a density.
"""

__version__ = "0.1.0"

from .young import (
    TimeGrid,
    uniform_grid,
    GridFunction1D,
    GridFunction2D,
    young_integral_1d,
    young_integral_2d,
    p_variation,
    p_variation_with_partition,
    rho_variation_2d,
    RhoVariationResult,
)
from .gaussian import (
    CovarianceModel,
    CameronMartinBasis,
    KernelSample,
    PathSample,
    brownian_model,
    fbm_model,
    bridge_model,
    zero_model,
    kernel_eval,
    sample_paths,
    cholesky_factors,
    cameron_martin_basis,
    cm_element_from_coeffs,
    nondegeneracy_check,
    cm_embedding_check,
)
from .lift import (
    RoughPath,
    lift_piecewise_linear,
    translate,
)
from .fields import (
    VectorFieldSystem,
    linear_fields,
    constant_fields,
    rotation_fields,
    polynomial_fields,
    ellipticity_rank,
)
from .rde import (
    FlowResult,
    ExplosionError,
    solve_ode_reference,
    solve_flow_jacobian,
    transport,
)
from .malliavin import (
    MalliavinMatrix,
    SpectrumResult,
    malliavin_matrix_2d,
    malliavin_matrix_bm_reduction,
    malliavin_matrix_parseval,
    directional_derivative,
    spectrum,
)
from .experiments import (
    ExperimentConfig,
    ConfigError,
    RunError,
    DensityReport,
    load_config,
    run_experiment,
    kde_density,
    check_conditions,
)

__all__ = [
    "__version__",
    # young
    "TimeGrid", "uniform_grid", "GridFunction1D", "GridFunction2D",
    "young_integral_1d", "young_integral_2d", "p_variation",
    "p_variation_with_partition", "rho_variation_2d", "RhoVariationResult",
    # gaussian
    "CovarianceModel", "CameronMartinBasis", "KernelSample", "PathSample",
    "brownian_model", "fbm_model", "bridge_model", "zero_model", "kernel_eval",
    "sample_paths", "cholesky_factors", "cameron_martin_basis",
    "cm_element_from_coeffs",
    "nondegeneracy_check", "cm_embedding_check",
    # lift
    "RoughPath", "lift_piecewise_linear", "translate",
    # fields
    "VectorFieldSystem", "linear_fields", "constant_fields", "rotation_fields",
    "polynomial_fields", "ellipticity_rank",
    # rde
    "FlowResult", "ExplosionError", "solve_ode_reference",
    "solve_flow_jacobian", "transport",
    # malliavin
    "MalliavinMatrix", "SpectrumResult", "malliavin_matrix_2d",
    "malliavin_matrix_bm_reduction", "malliavin_matrix_parseval",
    "directional_derivative", "spectrum",
    # experiments
    "ExperimentConfig", "ConfigError", "RunError", "DensityReport",
    "load_config", "run_experiment", "kde_density", "check_conditions",
]
