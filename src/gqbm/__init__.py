"""Exact non-Markovian dynamics of a damped bosonic mode whose bath coupling
mixes particle exchange with pair production.

The pair-production fraction alpha interpolates between a number-conserving
(rotating-wave) model at alpha = 0 and position-position coupling at
alpha = 1.  The package computes the retarded propagator and fluctuation
matrix of the reduced Gaussian dynamics, the time-local master-equation
coefficients, short-time jolt estimates, and cross-validates everything
against an exact finite-bath reference.
"""

from .coeffs import (
    CoefficientSeries,
    HpzCoefficients,
    JoltEstimate,
    KLambdaSeries,
    coeff_integral_crosscheck,
    compute_k_lambda,
    compute_me_coeffs,
    hpz_reduce,
    jolt_estimate,
)
from .errors import (
    GqbmError,
    InstabilityError,
    NumericalQualityError,
    ValidationError,
)
from .greens import (
    GreensSolution,
    InitialCorrelations,
    TimeGrid,
    correlated_correction,
    solve_u,
    solve_v_fdt,
    solve_v_volterra,
)
from .moments import (
    GaussianMoments,
    QuadratureCovariances,
    SecondMomentSeries,
    evolve_covariances,
    evolve_hpz_covariances,
    evolve_means,
    to_quadratures,
)
from .oracle import (
    BogoliubovPropagator,
    LinearDynamics,
    ThermalTotalState,
    build_dynamics,
    exact_moments,
    propagate,
    reduced_moments,
    thermal_moments,
    thermal_total_state,
)
from .spectral import (
    BathDiscretization,
    Kernel,
    SpectralModel,
    build_kernels,
    default_omega_s,
    discretize_bath,
    eval_spectral_density,
    kernels_from_bath,
    n_bar,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectral
    "SpectralModel", "Kernel", "BathDiscretization", "build_kernels",
    "default_omega_s", "discretize_bath", "eval_spectral_density",
    "kernels_from_bath", "n_bar",
    # greens
    "TimeGrid", "GreensSolution", "InitialCorrelations", "solve_u",
    "solve_v_fdt", "solve_v_volterra", "correlated_correction",
    # coefficients
    "KLambdaSeries", "CoefficientSeries", "HpzCoefficients", "JoltEstimate",
    "compute_k_lambda", "compute_me_coeffs", "hpz_reduce", "jolt_estimate",
    "coeff_integral_crosscheck",
    # moments
    "GaussianMoments", "QuadratureCovariances", "SecondMomentSeries",
    "evolve_means", "evolve_covariances", "evolve_hpz_covariances",
    "to_quadratures",
    # oracle
    "LinearDynamics", "BogoliubovPropagator", "ThermalTotalState",
    "build_dynamics", "propagate", "reduced_moments", "exact_moments",
    "thermal_moments", "thermal_total_state",
    # errors
    "GqbmError", "ValidationError", "InstabilityError",
    "NumericalQualityError",
]
