"""Command-line interface: reproducible runs with CSV + manifest output.

Subcommands
-----------
kernels         sample the dissipation/fluctuation kernels on the run grid
greens          retarded propagator U and equal-time fluctuation matrix V
coeffs          master-equation coefficients (plus quadrature form at alpha=1)
evolve          Gaussian moment evolution for a configured initial state
jolt-sweep      coefficient transients and short-time estimates over alphas
oracle-compare  U and V against the exact finite-bath reference
reproduce-fig2  the documented five-alpha transient study at the standard
                parameter set (gamma0 = 3e-4, T = 0.01, cutoff units)

Configuration precedence: defaults < config file (INI) < environment
variables (prefix GQBM_, e.g. GQBM_ALPHA=0.5) < command-line flags.
Identical configuration and build produce byte-identical CSV bodies; the
manifest additionally records wall time and scheme identifiers.

Exit codes: 0 success, 2 validation/config error (a non-finite or
out-of-domain value is rejected before any solve), 3 instability or
singular propagator, 4 numerical-quality failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import (
    CONDITION_MAX,
    coeff_integral_crosscheck,
    compute_k_lambda,
    compute_me_coeffs,
    hpz_reduce,
    jolt_estimate,
)
from .errors import (
    ContractViolationError,
    InstabilityError,
    NumericalQualityError,
    QuadratureConvergenceError,
    SingularityError,
    ValidationError,
)
from .greens import (
    INSTABILITY_MAX_ABS,
    TimeGrid,
    correlated_correction,
    require_finite_frequency,
    require_volterra_budget,
    second_moments,
    solve_u,
    solve_v_fdt,
    solve_v_volterra,
)
from .moments import (
    COMMUTATOR_DRIFT_TOL,
    GaussianMoments,
    evolve_covariances,
    evolve_means,
    to_quadratures,
)
from .oracle import build_dynamics, exact_moments, propagate, reduced_moments, thermal_total_state
from .spectral import (
    QUADRATURE_RTOL,
    SpectralModel,
    build_kernels,
    default_omega_s,
    discretize_bath,
    kernels_from_bath,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_QUALITY = 4

ENV_PREFIX = "GQBM_"
FIG2_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class RunConfig:
    """Resolved run configuration (flat; see _CONFIG_SCHEMA for file keys)."""

    gamma0: float = 3e-4
    cutoff: float = 1.0
    alpha: float = 1.0
    temperature: float = 0.01
    omega_s: float | None = None      # None -> zero-renormalized default
    t_end: float = 10.0
    n_steps: int = 2000
    mass: float = 1.0
    init_mean_re: float = 0.0
    init_mean_im: float = 0.0
    init_delta_n: float = 0.0
    init_delta_s_re: float = 0.0
    init_delta_s_im: float = 0.0
    oracle_modes: int = 2000
    oracle_omega_max: float = 20.0
    oracle_scheme: str = "gauss"
    quench_omega_s0: float | None = None
    alpha_list: str = "0,0.25,0.5,0.75,1"
    workers: int = 0                  # capped at #alphas and cpu count; 0 -> that cap
    crosscheck: bool = False
    out_dir: str = "gqbm-out"


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"cannot parse boolean from {text!r}")


def _parse_optional_float(text: str) -> float | None:
    if text.strip().lower() in ("", "none", "default"):
        return None
    return float(text)


# field name -> (config section, file key, parser)
_CONFIG_SCHEMA = {
    "gamma0": ("model", "gamma0", float),
    "cutoff": ("model", "cutoff", float),
    "alpha": ("model", "alpha", float),
    "temperature": ("model", "temperature", float),
    "omega_s": ("model", "omega_s", _parse_optional_float),
    "t_end": ("grid", "t_end", float),
    "n_steps": ("grid", "n_steps", int),
    "mass": ("init", "mass", float),
    "init_mean_re": ("init", "mean_re", float),
    "init_mean_im": ("init", "mean_im", float),
    "init_delta_n": ("init", "delta_n", float),
    "init_delta_s_re": ("init", "delta_s_re", float),
    "init_delta_s_im": ("init", "delta_s_im", float),
    "oracle_modes": ("oracle", "n_modes", int),
    "oracle_omega_max": ("oracle", "omega_max", float),
    "oracle_scheme": ("oracle", "scheme", str),
    "quench_omega_s0": ("oracle", "quench_omega_s0", _parse_optional_float),
    "alpha_list": ("run", "alpha_list", str),
    "workers": ("run", "workers", int),
    "crosscheck": ("run", "crosscheck", _parse_bool),
    "out_dir": ("run", "out_dir", str),
}


def load_config(path: str | None = None, env: dict | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Build and validate a RunConfig from file, environment and overrides."""
    cfg = _read_config(path, env, overrides)
    _validate_config(cfg)
    return cfg


def _read_config(path: str | None, env: dict | None,
                 overrides: dict | None) -> RunConfig:
    values: dict = {}

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValidationError(f"config file not found: {path}")
        by_location = {(sec, key): (name, conv)
                       for name, (sec, key, conv) in _CONFIG_SCHEMA.items()}
        for sec in parser.sections():
            for key, raw in parser.items(sec):
                loc = (sec, key)
                if loc not in by_location:
                    raise ValidationError(
                        f"unknown config entry [{sec}] {key} in {path}")
                name, conv = by_location[loc]
                try:
                    values[name] = conv(raw)
                except ValueError as exc:
                    raise ValidationError(
                        f"bad value for [{sec}] {key}: {raw!r}") from exc

    env = os.environ if env is None else env
    known_env = {ENV_PREFIX + name.upper(): name for name in _CONFIG_SCHEMA}
    for var, raw in env.items():
        if not var.startswith(ENV_PREFIX):
            continue
        if var not in known_env:
            raise ValidationError(f"unknown environment override {var}")
        name = known_env[var]
        conv = _CONFIG_SCHEMA[name][2]
        try:
            values[name] = conv(raw)
        except ValueError as exc:
            raise ValidationError(f"bad value for {var}: {raw!r}") from exc

    if overrides:
        for name, val in overrides.items():
            if val is not None:
                values[name] = val

    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc


def _validate_config(cfg: RunConfig):
    """CLI-only keys, then the model, grid and crosscheck memory, checked first."""
    if not cfg.workers >= 0:
        raise ValidationError(f"workers must be >= 0, got {cfg.workers}")
    _sweep_alphas(cfg)
    _setup(cfg)
    if cfg.crosscheck:
        require_volterra_budget(cfg.n_steps)


def _sweep_alphas(cfg: RunConfig) -> list[float]:
    """Distinct alpha_list entries in ascending order, checked by SpectralModel."""
    alphas = set()
    for part in cfg.alpha_list.split(","):
        try:
            alphas.add(SpectralModel(alpha=float(part)).alpha)
        except ValueError as exc:
            raise ValidationError(
                f"bad alpha_list entry {part!r}: {exc}") from exc
    return sorted(alphas)


@dataclass
class ResultBundle:
    """Paths and scalar summaries of one pipeline run."""

    pipeline: str
    out_dir: Path
    csv_paths: dict = field(default_factory=dict)
    manifest_path: Path | None = None
    summaries: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray]):
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ContractViolationError("CSV columns have mismatched lengths")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        cols = [np.asarray(c, dtype=float) for c in columns]
        for row in zip(*cols):
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")


def _resolved_items(cfg: RunConfig) -> list[tuple[str, str]]:
    out = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        out.append((f.name, "" if val is None else str(val)))
    return out


def _write_manifest(path: Path, cfg: RunConfig, pipeline: str,
                    schemes: dict, summaries: dict, wall_time: float):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("[run]\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"pipeline = {pipeline}\n")
        fh.write(f"wall_time_s = {wall_time:.3f}\n\n")
        fh.write("[config]\n")
        for name, val in _resolved_items(cfg):
            fh.write(f"{name} = {val}\n")
        fh.write("\n[schemes]\n")
        for key in sorted(schemes):
            fh.write(f"{key} = {schemes[key]}\n")
        fh.write("\n[tolerances]\n")
        for key, val in _TOLERANCES.items():
            fh.write(f"{key} = {val!r}\n")
        if summaries:
            fh.write("\n[summary]\n")
            for key in sorted(summaries):
                fh.write(f"{key} = {summaries[key]}\n")


_BASE_SCHEMES = {
    "u_solver": "pc2(ab2-predictor, trapezoid corrector, midpoint start)",
    "v_solver": "product-trapezoid double quadrature by FFT causal convolution",
    "v_crosscheck": "volterra pc2 marching over fixed-t columns",
    "quadrature": "composite-gauss-legendre with self-refinement check",
    "oracle": "rk4 fixed-substep, fused block_diag(G, G^T) march on the "
              "sparse CSR generator; thermal state by Colpa's Cholesky route",
}

_TOLERANCES = {
    "instability_max_abs": INSTABILITY_MAX_ABS,
    "condition_max": CONDITION_MAX,
    "commutator_drift": COMMUTATOR_DRIFT_TOL,
    "quadrature_self_check_rtol": QUADRATURE_RTOL,
}


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------


def _setup(cfg: RunConfig):
    model = SpectralModel(family="ohmic", gamma0=cfg.gamma0, cutoff=cfg.cutoff,
                          alpha=cfg.alpha, temperature=cfg.temperature)
    omega_s = cfg.omega_s if cfg.omega_s is not None else default_omega_s(model)
    require_finite_frequency("omega_s", omega_s)
    grid = TimeGrid(t_end=cfg.t_end, n_steps=cfg.n_steps,
                    max_frequency=max(abs(omega_s), cfg.cutoff))
    return model, omega_s, grid


def _matrix_columns(label: str, tab: np.ndarray):
    names, cols = [], []
    for i in range(2):
        for j in range(2):
            names += [f"re_{label}{i + 1}{j + 1}", f"im_{label}{i + 1}{j + 1}"]
            cols += [tab[:, i, j].real, tab[:, i, j].imag]
    return names, cols


def _run_kernels(cfg: RunConfig, out: Path) -> ResultBundle:
    model, omega_s, grid = _setup(cfg)
    kernel = build_kernels(model)
    g_names, g_cols = _matrix_columns("g", kernel.g(grid.times))
    gt_names, gt_cols = _matrix_columns("gt", kernel.gtilde(grid.times))
    path = out / "kernels.csv"
    _write_csv(path, ["t"] + g_names + gt_names, [grid.times] + g_cols + gt_cols)
    return ResultBundle(pipeline="kernels", out_dir=out,
                        csv_paths={"kernels": path},
                        summaries={"omega_s": omega_s})


def _greens_run(cfg: RunConfig):
    model, omega_s, grid = _setup(cfg)
    kernel = build_kernels(model)
    sol = solve_u(kernel, omega_s, grid)
    sol.v_equal_time = solve_v_fdt(kernel, sol.u, grid)
    return model, omega_s, grid, kernel, sol


def _run_greens(cfg: RunConfig, out: Path) -> ResultBundle:
    model, omega_s, grid, kernel, sol = _greens_run(cfg)
    summaries = {"omega_s": omega_s}
    u_names, u_cols = _matrix_columns("u", sol.u)
    v_names, v_cols = _matrix_columns("v", sol.v_equal_time)
    paths = {}
    paths["u"] = out / "u.csv"
    _write_csv(paths["u"], ["t"] + u_names, [grid.times] + u_cols)
    paths["v"] = out / "v.csv"
    _write_csv(paths["v"], ["t"] + v_names, [grid.times] + v_cols)
    if cfg.crosscheck:
        v_diag = solve_v_volterra(kernel, sol)
        summaries["v_route_max_deviation"] = float(
            np.max(np.abs(v_diag - sol.v_equal_time)))
    return ResultBundle(pipeline="greens", out_dir=out, csv_paths=paths,
                        summaries=summaries)


def _coeff_series(cfg: RunConfig):
    model, omega_s, grid, kernel, sol = _greens_run(cfg)
    kl = compute_k_lambda(sol, kernel)
    me = compute_me_coeffs(kl)
    return model, omega_s, grid, kernel, sol, kl, me


def _write_coeffs_csv(path: Path, me) -> None:
    _write_csv(path,
               ["t", "gamma", "gamma_tilde", "re_gamma_bar", "im_gamma_bar",
                "omega_s_prime", "re_omega_bar_prime", "im_omega_bar_prime"],
               [me.times, me.gamma, me.gamma_tilde, me.gamma_bar.real,
                me.gamma_bar.imag, me.omega_s_prime,
                me.omega_bar_prime.real, me.omega_bar_prime.imag])


def _run_coeffs(cfg: RunConfig, out: Path) -> ResultBundle:
    model, omega_s, grid, kernel, sol, kl, me = _coeff_series(cfg)
    paths = {"coeffs": out / "coeffs.csv"}
    _write_coeffs_csv(paths["coeffs"], me)
    summaries = {"omega_s": omega_s,
                 "gamma_final": float(me.gamma[-1]),
                 "structure_residual": me.structure_residual}
    if cfg.alpha == 1.0:
        hpz = hpz_reduce(me, omega_s)
        paths["hpz"] = out / "hpz.csv"
        _write_csv(paths["hpz"],
                   ["t", "delta_omega_sq", "gamma_damping", "gamma_h",
                    "gamma_f", "omega_p_sq", "residual_freq",
                    "residual_damping", "residual_diffusion"],
                   [hpz.times, hpz.delta_omega_sq, hpz.gamma_damping,
                    hpz.gamma_h, hpz.gamma_f, hpz.omega_p_sq,
                    hpz.residual_freq, hpz.residual_damping,
                    hpz.residual_diffusion])
    if cfg.crosscheck:
        v_diag, v_two = solve_v_volterra(kernel, sol, return_two_time=True)
        sol.v_two_time = v_two
        check = coeff_integral_crosscheck(kernel, sol)
        summaries["coeff_integral_max_deviation"] = check["max_deviation"]
        summaries["v_route_max_deviation"] = float(
            np.max(np.abs(v_diag - sol.v_equal_time)))
    return ResultBundle(pipeline="coeffs", out_dir=out, csv_paths=paths,
                        summaries=summaries)


def _run_evolve(cfg: RunConfig, out: Path) -> ResultBundle:
    _, omega_s, _ = _setup(cfg)
    init = GaussianMoments(
        mean_a=cfg.init_mean_re + 1j * cfg.init_mean_im,
        delta_n=cfg.init_delta_n,
        delta_s=cfg.init_delta_s_re + 1j * cfg.init_delta_s_im)
    init.require_physical()
    to_quadratures(init, cfg.mass, omega_s)  # the t = 0 row, before the solve
    model, omega_s, grid, kernel, sol, kl, me = _coeff_series(cfg)
    mean = evolve_means(me, init, grid)
    second = evolve_covariances(me, init, grid)
    quads = to_quadratures(second, cfg.mass, omega_s)
    path = out / "moments.csv"
    _write_csv(path,
               ["t", "re_mean_a", "im_mean_a", "delta_n", "re_delta_s",
                "im_delta_s", "var_x", "var_p", "cov_xp"],
               [grid.times, mean.real, mean.imag, second.delta_n,
                second.delta_s.real, second.delta_s.imag,
                quads.var_x, quads.var_p, quads.cov_xp])
    return ResultBundle(pipeline="evolve", out_dir=out,
                        csv_paths={"moments": path},
                        summaries={"omega_s": omega_s,
                                   "final_delta_n": float(second.delta_n[-1]),
                                   "max_commutator_drift":
                                       second.max_commutator_drift})


def _alpha_tag(alpha: float) -> str:
    return f"{alpha:.2f}".replace(".", "p")


def _sweep_one(args) -> tuple[float, dict]:
    cfg_dict, alpha, out_dir = args
    cfg = replace(RunConfig(**cfg_dict), alpha=alpha)
    sub = Path(out_dir) / f"alpha_{_alpha_tag(alpha)}"
    sub.mkdir(parents=True, exist_ok=True)
    model, omega_s, grid, kernel, sol, kl, me = _coeff_series(cfg)
    _write_coeffs_csv(sub / "coeffs.csv", me)
    est = jolt_estimate(kernel, sol)
    _write_csv(sub / "estimates.csv",
               ["t", "gamma_est", "gamma_tilde_est"],
               [est.times, est.gamma_est, est.gamma_tilde_est])
    peak_g = float(np.max(np.abs(me.gamma)))
    peak_gt = float(np.max(np.abs(me.gamma_tilde)))
    dev_g = float(np.max(np.abs(est.gamma_est - me.gamma)))
    dev_gt = float(np.max(np.abs(est.gamma_tilde_est - me.gamma_tilde)))
    return alpha, {
        "peak_gamma": peak_g,
        "peak_gamma_tilde": peak_gt,
        "est_dev_gamma_frac": dev_g / peak_g if peak_g > 0 else 0.0,
        "est_dev_gamma_tilde_frac": dev_gt / peak_gt if peak_gt > 0 else 0.0,
    }


def _run_sweep(cfg: RunConfig, out: Path, alphas, pipeline: str) -> ResultBundle:
    cfg_dict = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    jobs = [(cfg_dict, a, str(out)) for a in alphas]
    workers = min(cfg.workers or len(alphas), len(alphas), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]

    results.sort(key=lambda r: r[0])
    names = ["alpha", "peak_gamma", "peak_gamma_tilde",
             "est_dev_gamma_frac", "est_dev_gamma_tilde_frac"]
    cols = [np.array([r[0] for r in results])]
    cols += [np.array([r[1][k] for r in results]) for k in names[1:]]
    path = out / "sweep.csv"
    _write_csv(path, names, cols)
    summaries = {f"alpha_{_alpha_tag(a)}_{k}": v
                 for a, d in results for k, v in d.items()}
    return ResultBundle(pipeline=pipeline, out_dir=out,
                        csv_paths={"sweep": path}, summaries=summaries)


def _run_oracle_compare(cfg: RunConfig, out: Path) -> ResultBundle:
    model, omega_s, grid = _setup(cfg)
    bath = discretize_bath(model, cfg.oracle_modes, cfg.oracle_omega_max,
                           scheme=cfg.oracle_scheme)
    dyn = build_dynamics(bath, omega_s)
    horizon = dyn.recurrence_horizon
    if grid.t_end > horizon:
        raise ValidationError(
            f"t_end = {grid.t_end:g} exceeds the finite-bath recurrence "
            f"horizon {horizon:g}; increase oracle_modes")

    summaries = {"omega_s": omega_s, "recurrence_horizon": horizon}

    if cfg.quench_omega_s0 is not None:
        # correlated initial state: thermal state of the pre-quench Hamiltonian
        state = thermal_total_state(dyn, cfg.temperature, cfg.quench_omega_s0)
        prop = propagate(dyn, grid)
        kbath = replace(bath, occupations=state.bath_occupations)
        kernel = kernels_from_bath(kbath)
        sol = solve_u(kernel, omega_s, grid)
        sol.v_equal_time = solve_v_fdt(kernel, sol.u, grid)
        dv = correlated_correction(kbath, state.correlations, sol.u, grid)
        n_me = second_moments(sol.u, state.system.n_matrix(),
                              sol.v_equal_time) + dv
        orc = exact_moments(prop, state.product_table)
        n_or = orc.n_matrix()
        summaries["max_moment_deviation"] = float(np.max(np.abs(n_me - n_or)))
        summaries["correction_magnitude"] = float(np.max(np.abs(dv)))
        for name in ("symplectic_residual", "min_normal_frequency"):
            summaries[name] = float(state.metadata[name])
        key, path = "quench_compare", out / "quench_compare.csv"
        _write_csv(path,
                   ["t", "delta_n_me", "delta_n_oracle", "re_delta_s_me",
                    "re_delta_s_oracle", "im_delta_s_me", "im_delta_s_oracle"],
                   [grid.times, n_me[:, 0, 0].real, orc.delta_n,
                    n_me[:, 0, 1].real, orc.delta_s.real,
                    n_me[:, 0, 1].imag, orc.delta_s.imag])
    else:
        prop = propagate(dyn, grid)
        kernel = build_kernels(model)
        sol = solve_u(kernel, omega_s, grid)
        sol.v_equal_time = solve_v_fdt(kernel, sol.u, grid)
        u_dev = np.max(np.abs(sol.u - prop.u_series), axis=(1, 2))

        vac = GaussianMoments()
        orc = reduced_moments(prop, bath, vac)
        v_oracle = orc.n_matrix() - second_moments(prop.u_series,
                                                   vac.n_matrix())
        v_dev = np.max(np.abs(sol.v_equal_time - v_oracle), axis=(1, 2))

        summaries["max_u_deviation"] = float(np.max(u_dev))
        summaries["max_v_deviation"] = float(np.max(v_dev))
        key, path = "compare", out / "oracle_compare.csv"
        _write_csv(path, ["t", "u_deviation", "v_deviation"],
                   [grid.times, u_dev, v_dev])
    return ResultBundle(pipeline="oracle-compare", out_dir=out,
                        csv_paths={key: path}, summaries=summaries)


def run(cfg: RunConfig, pipeline: str) -> ResultBundle:
    """Execute one pipeline; writes CSVs and a manifest under cfg.out_dir."""
    t0 = time.monotonic()
    if pipeline == "reproduce-fig2":
        cfg = replace(cfg, gamma0=3e-4, temperature=0.01, cutoff=1.0,
                      omega_s=None,
                      alpha_list=",".join(str(a) for a in FIG2_ALPHAS))
    _validate_config(cfg)  # the configuration that runs, after any pinning
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if pipeline == "kernels":
        bundle = _run_kernels(cfg, out)
    elif pipeline == "greens":
        bundle = _run_greens(cfg, out)
    elif pipeline == "coeffs":
        bundle = _run_coeffs(cfg, out)
    elif pipeline == "evolve":
        bundle = _run_evolve(cfg, out)
    elif pipeline in ("jolt-sweep", "reproduce-fig2"):
        bundle = _run_sweep(cfg, out, _sweep_alphas(cfg), pipeline)
    elif pipeline == "oracle-compare":
        bundle = _run_oracle_compare(cfg, out)
    else:
        raise ValidationError(f"unknown pipeline {pipeline!r}")

    manifest = out / "manifest.txt"
    _write_manifest(manifest, cfg, pipeline, _BASE_SCHEMES, bundle.summaries,
                    time.monotonic() - t0)
    bundle.manifest_path = manifest
    return bundle


def reproduce_fig2(cfg: RunConfig | None = None) -> ResultBundle:
    """Five-alpha transient study at the documented parameter set.

    run() pins gamma0 = 3e-4 and T = 0.01 (cutoff units); grid settings are
    taken from cfg so reduced-resolution smoke runs remain possible.
    """
    return run(cfg if cfg is not None else RunConfig(), "reproduce-fig2")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--gamma0", type=float)
    parser.add_argument("--cutoff", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--omega-s", dest="omega_s", type=float)
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--steps", dest="n_steps", type=int)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--crosscheck", action="store_const", const=True,
                        default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqbm",
        description="Non-Markovian dissipation and fluctuation dynamics of "
                    "a damped mode with pair-production bath couplings")
    sub = parser.add_subparsers(dest="pipeline", required=True)

    for name in ("kernels", "greens", "coeffs"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("evolve")
    _add_common(p)
    p.add_argument("--init-mean-re", dest="init_mean_re", type=float)
    p.add_argument("--init-mean-im", dest="init_mean_im", type=float)
    p.add_argument("--init-delta-n", dest="init_delta_n", type=float)
    p.add_argument("--init-delta-s-re", dest="init_delta_s_re", type=float)
    p.add_argument("--init-delta-s-im", dest="init_delta_s_im", type=float)

    p = sub.add_parser("jolt-sweep")
    _add_common(p)
    p.add_argument("--alpha-list", dest="alpha_list")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("oracle-compare")
    _add_common(p)
    p.add_argument("--oracle-modes", dest="oracle_modes", type=int)
    p.add_argument("--oracle-omega-max", dest="oracle_omega_max", type=float)
    p.add_argument("--oracle-scheme", dest="oracle_scheme")
    p.add_argument("--quench-from", dest="quench_omega_s0", type=float)

    p = sub.add_parser("reproduce-fig2")
    _add_common(p)
    p.add_argument("--workers", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    ns = vars(args)
    pipeline = ns.pop("pipeline")
    config_path = ns.pop("config", None)
    try:
        bundle = run(_read_config(config_path, None, ns), pipeline)
    except (ValidationError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InstabilityError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (NumericalQualityError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    print(f"{pipeline}: wrote {len(bundle.csv_paths)} CSV file(s) and "
          f"manifest to {bundle.out_dir}")
    for key in sorted(bundle.summaries):
        print(f"  {key} = {bundle.summaries[key]}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
