"""Command-line interface: the shell around gqbm.pipelines.

This module parses arguments, resolves the configuration, writes CSVs and
the manifest and maps errors to exit codes; every solve and comparison runs
in the library (gqbm.pipelines), so a library call reproduces a CLI run.

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
from .coeffs import CONDITION_MAX
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
    require_finite_frequency,
)
from .moments import (
    COMMUTATOR_DRIFT_TOL,
    GaussianMoments,
    evolve_covariances,
    evolve_means,
    to_quadratures,
)
from .pipelines import (
    PipelineResult,
    coefficient_run,
    jolt_study,
    oracle_comparison,
    quench_comparison,
)
from .spectral import (
    QUADRATURE_RTOL,
    SpectralModel,
    build_kernels,
    default_omega_s,
    discretize_bath,
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
    texts = []   # (field name, text, where it was set), file before environment
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ValidationError(f"config file not found: {path}")
        by_location = {(sec, key): name
                       for name, (sec, key, _) in _CONFIG_SCHEMA.items()}
        for sec in parser.sections():
            for key, raw in parser.items(sec):
                if (sec, key) not in by_location:
                    raise ValidationError(
                        f"unknown config entry [{sec}] {key} in {path}")
                texts.append((by_location[sec, key], raw, f"[{sec}] {key}"))

    known_env = {ENV_PREFIX + name.upper(): name for name in _CONFIG_SCHEMA}
    for var, raw in (os.environ if env is None else env).items():
        if var.startswith(ENV_PREFIX):
            if var not in known_env:
                raise ValidationError(f"unknown environment override {var}")
            texts.append((known_env[var], raw, var))

    values = {}
    for name, raw, where in texts:
        try:
            values[name] = _CONFIG_SCHEMA[name][2](raw)
        except ValueError as exc:
            raise ValidationError(f"bad value for {where}: {raw!r}") from exc
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})

    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc


def _validate_config(cfg: RunConfig):
    """CLI-only keys, then the model and grid; returns _setup."""
    if not cfg.workers >= 0:
        raise ValidationError(f"workers must be >= 0, got {cfg.workers}")
    _sweep_alphas(cfg)
    return _setup(cfg)


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
    """Output directory, CSV paths, manifest and summaries of one CLI run."""

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


def _write_manifest(path: Path, cfg: RunConfig, pipeline: str,
                    schemes: dict, summaries: dict, wall_time: float):
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read_dict({
        "run": {"version": __version__, "pipeline": pipeline,
                "wall_time_s": f"{wall_time:.3f}"},
        "config": {f.name: "" if getattr(cfg, f.name) is None
                   else str(getattr(cfg, f.name)) for f in fields(cfg)},
        "schemes": dict(sorted(schemes.items())),
        "tolerances": {key: repr(val) for key, val in _TOLERANCES.items()},
        "summary": dict(sorted(summaries.items())),
    })
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        manifest.write(fh)


# scheme of each stage a pipeline can run; the manifest names those that ran
_SCHEMES = {
    "u_solver": "pc2(ab2-predictor, trapezoid corrector, midpoint start)",
    "v_solver": "product-trapezoid double quadrature by FFT causal convolution",
    "v_crosscheck": "volterra pc2 marching over fixed-t columns",
    "quadrature": "composite-gauss-legendre with self-refinement check",
    "oracle": "rk4 fixed-substep, row march (S^T columns under G^T) on the "
              "sparse CSR generator; thermal state by Colpa's Cholesky route",
}

_TOLERANCES = {
    "instability_max_abs": INSTABILITY_MAX_ABS,
    "condition_max": CONDITION_MAX,
    "commutator_drift": COMMUTATOR_DRIFT_TOL,
    "quadrature_self_check_rtol": QUADRATURE_RTOL,
}


# ---------------------------------------------------------------------------
# pipelines: each runs a library pipeline and lays out its CSV tables
# ---------------------------------------------------------------------------


def _setup(cfg: RunConfig):
    model = SpectralModel(family="ohmic", gamma0=cfg.gamma0, cutoff=cfg.cutoff,
                          alpha=cfg.alpha, temperature=cfg.temperature)
    omega_s = cfg.omega_s if cfg.omega_s is not None else default_omega_s(model)
    require_finite_frequency("omega_s", omega_s)
    grid = TimeGrid(t_end=cfg.t_end, n_steps=cfg.n_steps,
                    max_frequency=max(abs(omega_s), cfg.cutoff))
    return model, omega_s, grid


def _matrix_table(times: np.ndarray, *labelled):
    """Columns t, then re/im of each entry of each (label, (n, 2, 2) table)."""
    names, cols = ["t"], [times]
    for label, tab in labelled:
        for i in range(2):
            for j in range(2):
                names += [f"re_{label}{i + 1}{j + 1}", f"im_{label}{i + 1}{j + 1}"]
                cols += [tab[:, i, j].real, tab[:, i, j].imag]
    return names, cols


def _run_kernels(cfg: RunConfig, model, omega_s: float, grid: TimeGrid):
    kernel = build_kernels(model)
    return (PipelineResult(summaries={"omega_s": omega_s}, stages=["quadrature"]),
            {"kernels": _matrix_table(grid.times, ("g", kernel.g(grid.times)),
                                      ("gt", kernel.gtilde(grid.times)))})


def _run_greens(cfg: RunConfig, model, omega_s: float, grid: TimeGrid):
    res = coefficient_run(model, omega_s, grid, coefficients=False,
                          crosscheck=cfg.crosscheck)
    sol = res.outputs["sol"]
    return res, {key: _matrix_table(grid.times, (key, tab))
                 for key, tab in (("u", sol.u), ("v", sol.v_equal_time))}


def _coeffs_table(me):
    return (["t", "gamma", "gamma_tilde", "re_gamma_bar", "im_gamma_bar",
             "omega_s_prime", "re_omega_bar_prime", "im_omega_bar_prime"],
            [me.times, me.gamma, me.gamma_tilde, me.gamma_bar.real,
             me.gamma_bar.imag, me.omega_s_prime,
             me.omega_bar_prime.real, me.omega_bar_prime.imag])


def _run_coeffs(cfg: RunConfig, model, omega_s: float, grid: TimeGrid):
    res = coefficient_run(model, omega_s, grid, crosscheck=cfg.crosscheck)
    tables = {"coeffs": _coeffs_table(res.outputs["me"])}
    if "hpz" in res.outputs:   # columns: t, then the HpzCoefficients fields
        names = [f.name for f in fields(res.outputs["hpz"])]
        tables["hpz"] = (["t"] + names[1:],
                         [getattr(res.outputs["hpz"], n) for n in names])
    return res, tables


def _run_evolve(cfg: RunConfig, model, omega_s: float, grid: TimeGrid):
    init = GaussianMoments(
        mean_a=cfg.init_mean_re + 1j * cfg.init_mean_im,
        delta_n=cfg.init_delta_n,
        delta_s=cfg.init_delta_s_re + 1j * cfg.init_delta_s_im)
    init.require_physical()
    to_quadratures(init, cfg.mass, omega_s)  # the t = 0 row, before the solve
    res = coefficient_run(model, omega_s, grid)
    mean = evolve_means(res.outputs["me"], init, grid)
    second = evolve_covariances(res.outputs["me"], init, grid)
    quads = to_quadratures(second, cfg.mass, omega_s)
    res.summaries = {"omega_s": omega_s,
                     "final_delta_n": float(second.delta_n[-1]),
                     "max_commutator_drift": second.max_commutator_drift}
    return res, {"moments": (
        ["t", "re_mean_a", "im_mean_a", "delta_n", "re_delta_s",
         "im_delta_s", "var_x", "var_p", "cov_xp"],
        [grid.times, mean.real, mean.imag, second.delta_n,
         second.delta_s.real, second.delta_s.imag,
         quads.var_x, quads.var_p, quads.cov_xp])}


def _alpha_tag(alpha: float) -> str:
    return f"{alpha:.2f}".replace(".", "p")


def _sweep_one(args) -> tuple[float, PipelineResult]:
    cfg_dict, alpha, out_dir = args
    cfg = replace(RunConfig(**cfg_dict), alpha=alpha)
    sub = Path(out_dir) / f"alpha_{_alpha_tag(alpha)}"
    sub.mkdir(parents=True, exist_ok=True)
    res = jolt_study(*_setup(cfg))
    est = res.outputs["estimate"]
    _write_csv(sub / "coeffs.csv", *_coeffs_table(res.outputs["me"]))
    _write_csv(sub / "estimates.csv",
               ["t", "gamma_est", "gamma_tilde_est"],
               [est.times, est.gamma_est, est.gamma_tilde_est])
    return alpha, replace(res, outputs={})   # the arrays stay in the worker


def _run_sweep(cfg: RunConfig, *_):
    alphas = _sweep_alphas(cfg)
    cfg_dict = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    jobs = [(cfg_dict, a, cfg.out_dir) for a in alphas]
    workers = min(cfg.workers or len(alphas), len(alphas), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]

    results.sort(key=lambda r: r[0])
    names = ["alpha", "peak_gamma", "peak_gamma_tilde",
             "est_dev_gamma_frac", "est_dev_gamma_tilde_frac"]
    cols = [np.array([a for a, _ in results])]
    cols += [np.array([r.summaries[k] for _, r in results]) for k in names[1:]]
    summaries = {f"alpha_{_alpha_tag(a)}_{k}": v
                 for a, r in results for k, v in r.summaries.items()}
    return (PipelineResult(summaries=summaries, stages=results[0][1].stages),
            {"sweep": (names, cols)})


def _run_oracle_compare(cfg: RunConfig, model, omega_s: float,
                        grid: TimeGrid):
    bath = discretize_bath(model, cfg.oracle_modes, cfg.oracle_omega_max,
                           scheme=cfg.oracle_scheme)
    if cfg.quench_omega_s0 is None:
        res = oracle_comparison(model, bath, omega_s, grid)
        return res, {"oracle_compare": (
            ["t", "u_deviation", "v_deviation"],
            [grid.times, res.outputs["u_deviation"], res.outputs["v_deviation"]])}
    res = quench_comparison(bath, omega_s, cfg.quench_omega_s0, grid)
    n_me, orc = res.outputs["n_me"], res.outputs["oracle"]
    return res, {"quench_compare": (
        ["t", "delta_n_me", "delta_n_oracle", "re_delta_s_me",
         "re_delta_s_oracle", "im_delta_s_me", "im_delta_s_oracle"],
        [grid.times, n_me[:, 0, 0].real, orc.delta_n, n_me[:, 0, 1].real,
         orc.delta_s.real, n_me[:, 0, 1].imag, orc.delta_s.imag])}


# subcommand -> run(cfg, model, omega_s, grid) -> (result, {CSV: (names, columns)})
_PIPELINES = {
    "kernels": _run_kernels,
    "greens": _run_greens,
    "coeffs": _run_coeffs,
    "evolve": _run_evolve,
    "jolt-sweep": _run_sweep,
    "oracle-compare": _run_oracle_compare,
    "reproduce-fig2": _run_sweep,
}


def run(cfg: RunConfig, pipeline: str) -> ResultBundle:
    """Execute one pipeline; writes CSVs and a manifest under cfg.out_dir.

    reproduce-fig2 pins the documented model (gamma0 = 3e-4, T = 0.01) and
    takes its grid from cfg, so reduced-resolution smoke runs stay possible.
    """
    t0 = time.monotonic()
    if pipeline not in _PIPELINES:
        raise ValidationError(f"unknown pipeline {pipeline!r}")
    if pipeline == "reproduce-fig2":
        cfg = replace(cfg, gamma0=3e-4, temperature=0.01, cutoff=1.0,
                      omega_s=None,
                      alpha_list=",".join(str(a) for a in FIG2_ALPHAS))
    setup = _validate_config(cfg)  # the configuration that runs, after pinning
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    res, tables = _PIPELINES[pipeline](cfg, *setup)
    bundle = ResultBundle(out_dir=out, summaries=res.summaries,
                          manifest_path=out / "manifest.txt")
    for name, (names, columns) in tables.items():
        bundle.csv_paths[name] = out / f"{name}.csv"
        _write_csv(bundle.csv_paths[name], names, columns)
    _write_manifest(bundle.manifest_path, cfg, pipeline,
                    {k: _SCHEMES[k] for k in res.stages}, res.summaries,
                    time.monotonic() - t0)
    return bundle


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# RunConfig fields each subcommand takes as flags besides --config and --out;
# a flag is the field name with dashes unless _FLAG_NAMES says otherwise
_COMMON_FLAGS = ("gamma0", "cutoff", "alpha", "temperature", "omega_s", "t_end",
                 "n_steps", "mass")
_EXTRA_FLAGS = {
    "greens": ("crosscheck",),
    "coeffs": ("crosscheck",),
    "evolve": ("init_mean_re", "init_mean_im", "init_delta_n",
               "init_delta_s_re", "init_delta_s_im"),
    "jolt-sweep": ("alpha_list", "workers"),
    "oracle-compare": ("oracle_modes", "oracle_omega_max", "oracle_scheme",
                       "quench_omega_s0"),
    "reproduce-fig2": ("workers",),
}
_FLAG_NAMES = {"n_steps": "--steps", "quench_omega_s0": "--quench-from"}
_FLAG_TYPES = {"float": float, "float | None": float, "int": int, "str": str}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqbm",
        description="Non-Markovian dissipation and fluctuation dynamics of "
                    "a damped mode with pair-production bath couplings")
    sub = parser.add_subparsers(dest="pipeline", required=True)
    types = {f.name: f.type for f in fields(RunConfig)}
    for pipeline in _PIPELINES:
        p = sub.add_parser(pipeline)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        for name in _COMMON_FLAGS + _EXTRA_FLAGS.get(pipeline, ()):
            flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
            if types[name] == "bool":
                p.add_argument(flag, dest=name, action="store_const",
                               const=True, default=None)
            else:
                p.add_argument(flag, dest=name, type=_FLAG_TYPES[types[name]])
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
