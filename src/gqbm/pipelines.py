"""Solve-and-compare pipelines: each chain of the package written once.

coefficient_run (U, V and the master-equation coefficients), jolt_study,
oracle_comparison and quench_comparison (the correlated-initial-state
check) each return a PipelineResult.  Calls go through the defining
modules (greens.solve_u, oracle.propagate, ...), so each step names its
layer.  Inputs are validated before the first solve, and an oracle run past
the finite-bath recurrence horizon is rejected before anything propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import coeffs, greens, moments, oracle, spectral
from .errors import ValidationError


@dataclass
class PipelineResult:
    """Named arrays and the library objects holding them (kernel, sol, me,
    ...), scalar summaries, and the schemes that ran, in order (quadrature,
    u_solver, v_solver, v_crosscheck, oracle)."""

    outputs: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)


def _u_and_v(kernel, omega_s: float, grid, stages: list) -> PipelineResult:
    sol = greens.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = greens.solve_v_fdt(kernel, sol.u, grid)
    return PipelineResult({"kernel": kernel, "sol": sol}, {"omega_s": omega_s},
                          stages + ["u_solver", "v_solver"])


def coefficient_run(model: spectral.SpectralModel, omega_s: float,
                    grid: greens.TimeGrid, *, coefficients: bool = True,
                    crosscheck: bool = False) -> PipelineResult:
    """U, V and the master-equation coefficients of the continuum model.

    outputs holds kernel, sol (U and V), me and, at alpha = 1, hpz (the
    quadrature form).  coefficients=False stops after U and V.  crosscheck
    adds the Volterra route to V and, with the coefficients, the integral
    route to the diffusion matrix, each as a max deviation; its memory
    budget is checked before anything is solved.
    """
    if crosscheck:
        greens.require_volterra_budget(grid.n_steps)
    res = _u_and_v(spectral.build_kernels(model), omega_s, grid, ["quadrature"])
    kernel, sol = res.outputs["kernel"], res.outputs["sol"]
    if coefficients:
        me = coeffs.compute_me_coeffs(coeffs.compute_k_lambda(sol, kernel))
        res.outputs["me"] = me
        res.summaries.update(gamma_final=float(me.gamma[-1]),
                             structure_residual=me.structure_residual)
        if model.alpha == 1.0:
            res.outputs["hpz"] = coeffs.hpz_reduce(me, omega_s)
    if crosscheck:
        v_diag, sol.v_two_time = greens.solve_v_volterra(kernel, sol,
                                                         return_two_time=True)
        res.stages.append("v_crosscheck")
        if coefficients:
            res.summaries["coeff_integral_max_deviation"] = (
                coeffs.coeff_integral_crosscheck(kernel, sol)["max_deviation"])
        res.summaries["v_route_max_deviation"] = float(
            np.max(np.abs(v_diag - sol.v_equal_time)))
    return res


def jolt_study(model: spectral.SpectralModel, omega_s: float,
               grid: greens.TimeGrid) -> PipelineResult:
    """The gamma and gamma_tilde transients against their jolt estimates.

    outputs["estimate"] is the JoltEstimate; the summaries are each peak
    |coefficient| and the estimate's largest deviation as a fraction of it.
    """
    res = coefficient_run(model, omega_s, grid)
    me = res.outputs["me"]
    est = res.outputs["estimate"] = coeffs.jolt_estimate(res.outputs["kernel"],
                                                         res.outputs["sol"])
    res.summaries = {}
    for name, exact, approx in (("gamma", me.gamma, est.gamma_est),
                                ("gamma_tilde", me.gamma_tilde,
                                 est.gamma_tilde_est)):
        peak = float(np.max(np.abs(exact)))
        dev = float(np.max(np.abs(approx - exact)))
        res.summaries[f"peak_{name}"] = peak
        res.summaries[f"est_dev_{name}_frac"] = dev / peak if peak > 0 else 0.0
    return res


def _oracle_dynamics(bath, omega_s: float, grid):
    dyn = oracle.build_dynamics(bath, omega_s)
    horizon = dyn.recurrence_horizon
    if grid.t_end > horizon:
        raise ValidationError(
            f"t_end = {grid.t_end:g} exceeds the finite-bath recurrence "
            f"horizon {horizon:g}; increase oracle_modes")
    return dyn, horizon


def oracle_comparison(model: spectral.SpectralModel,
                      bath: spectral.BathDiscretization, omega_s: float,
                      grid: greens.TimeGrid) -> PipelineResult:
    """U and V of the continuum model against the exact finite bath.

    bath discretises model and starts in its own product state with the
    system in vacuum, so the exact V is N(t) - U N(0) U^dag.  outputs holds
    the worst entry at each time, u_deviation and v_deviation.
    """
    dyn, horizon = _oracle_dynamics(bath, omega_s, grid)
    prop = oracle.propagate(dyn, grid)
    res = _u_and_v(spectral.build_kernels(model), omega_s, grid,
                  ["oracle", "quadrature"])
    sol = res.outputs["sol"]
    u_dev = np.max(np.abs(sol.u - prop.u_series), axis=(1, 2))
    vac = moments.GaussianMoments()
    orc = oracle.reduced_moments(prop, bath, vac)
    v_oracle = orc.n_matrix() - greens.second_moments(prop.u_series,
                                                      vac.n_matrix())
    v_dev = np.max(np.abs(sol.v_equal_time - v_oracle), axis=(1, 2))
    res.outputs.update(prop=prop, oracle=orc, u_deviation=u_dev,
                       v_deviation=v_dev)
    res.summaries.update(recurrence_horizon=horizon,
                         max_u_deviation=float(np.max(u_dev)),
                         max_v_deviation=float(np.max(v_dev)))
    return res


def quench_comparison(bath: spectral.BathDiscretization, omega_s: float,
                      omega_s0: float, grid: greens.TimeGrid) -> PipelineResult:
    """Frequency quench omega_s0 -> omega_s from a correlated initial state.

    The total system starts in the thermal state, at the bath temperature,
    of the coupled Hamiltonian with system frequency omega_s0.  The kernel
    route runs on the exact kernels of the same bath with that state's
    occupations and adds the correction from its system-bath correlations;
    outputs["n_me"] is its N(t), outputs["oracle"] the exact moments.
    """
    dyn, horizon = _oracle_dynamics(bath, omega_s, grid)
    state = oracle.thermal_total_state(dyn, bath.temperature, omega_s0)
    prop = oracle.propagate(dyn, grid)
    kbath = replace(bath, occupations=state.bath_occupations)
    res = _u_and_v(spectral.kernels_from_bath(kbath), omega_s, grid, ["oracle"])
    u, v = res.outputs["sol"].u, res.outputs["sol"].v_equal_time
    dv = greens.correlated_correction(kbath, state.correlations, u, grid)
    n_me = greens.second_moments(u, state.system.n_matrix(), v) + dv
    orc = oracle.exact_moments(prop, state.product_table)
    res.outputs.update(state=state, prop=prop, correction=dv, n_me=n_me,
                       oracle=orc)
    res.summaries.update(
        recurrence_horizon=horizon,
        max_moment_deviation=float(np.max(np.abs(n_me - orc.n_matrix()))),
        correction_magnitude=float(np.max(np.abs(dv))),
        **{k: float(state.metadata[k])
           for k in ("symplectic_residual", "min_normal_frequency")})
    return res
