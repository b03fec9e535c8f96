"""Command-line interface: the shell around gqbm.pipelines.

This module parses arguments, resolves the configuration, writes CSVs and
the manifest and maps errors to exit codes.  greens, coeffs, jolt-sweep,
reproduce-fig2 and oracle-compare each run one gqbm.pipelines function, so
a library call reproduces their runs.  Two subcommands do work here:
kernels samples the tables of spectral.build_kernels, and evolve runs
coefficient_run and then the moment ODEs (evolve_means, evolve_covariances,
to_quadratures) in _run_evolve.

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
variables (prefix GQBM_, e.g. GQBM_ALPHA=0.5) < command-line flags.  File
and environment take every RunConfig key; a subcommand's flags are the keys
it reads, so reproduce-fig2, which pins its model, takes none of the model's.
A run checks, and records in the manifest, only the keys it reads.
Identical configuration and build produce byte-identical CSV bodies; the
manifest additionally records wall time and scheme identifiers.

Exit codes: 0 success, else the exit_code of the gqbm.errors class raised,
one class per code: 2 ValidationError, bad input, configuration or misuse (a
non-finite or out-of-domain value is rejected before any solve);
3 InstabilityError, a runaway or singular propagator or a non-positive
Hamiltonian; 4 NumericalQualityError, a tripped quality monitor.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import CONDITION_MAX
from .errors import (
    GqbmError,
    InstabilityError,
    NumericalQualityError,
    ValidationError,
    require,
    require_count,
)
from .greens import INSTABILITY_MAX_ABS, TimeGrid
from .moments import (
    COMMUTATOR_DRIFT_TOL,
    CONJUGACY_TOL,
    MOMENT_MARCH_SCHEME,
    UNCERTAINTY_TOL,
    GaussianMoments,
    evolve_covariances,
    evolve_means,
    to_quadratures,
)
from .oracle import CHEBYSHEV_TAIL_TOL, SYMPLECTIC_RESIDUAL_TOL
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
EXIT_VALIDATION = ValidationError.exit_code
EXIT_INSTABILITY = InstabilityError.exit_code
EXIT_QUALITY = NumericalQualityError.exit_code

ENV_PREFIX = "GQBM_"
FIG2_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# reproduce-fig2 runs the documented study at these keys, whatever the file,
# environment or flags say
_FIG2_PINS = {"gamma0": 3e-4, "temperature": 0.01, "cutoff": 1.0,
              "omega_s": None,
              "alpha_list": ",".join(str(a) for a in FIG2_ALPHAS)}


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


_parse_optional_float.__name__ = "float"  # argparse: "invalid float value: 'x'"


# RunConfig field annotation -> parser of a file key's, variable's or flag's text
_PARSERS = {"float": float, "float | None": _parse_optional_float, "int": int,
            "str": str, "bool": _parse_bool}


def _at(section: str, default, key: str | None = None):
    """A RunConfig field at `key` (default: its name) of the file's [section]."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class RunConfig:
    """Resolved run configuration, one field per key: [section] key, GQBM_<FIELD>."""

    gamma0: float = _at("model", 3e-4)
    cutoff: float = _at("model", 1.0)
    alpha: float = _at("model", 1.0)
    temperature: float = _at("model", 0.01)
    omega_s: float | None = _at("model", None)  # None -> zero-renormalized default
    t_end: float = _at("grid", 10.0)
    n_steps: int = _at("grid", 2000)
    mass: float = _at("init", 1.0)
    init_mean_re: float = _at("init", 0.0, "mean_re")
    init_mean_im: float = _at("init", 0.0, "mean_im")
    init_delta_n: float = _at("init", 0.0, "delta_n")
    init_delta_s_re: float = _at("init", 0.0, "delta_s_re")
    init_delta_s_im: float = _at("init", 0.0, "delta_s_im")
    oracle_modes: int = _at("oracle", 2000, "n_modes")
    oracle_omega_max: float = _at("oracle", 20.0, "omega_max")
    oracle_scheme: str = _at("oracle", "gauss", "scheme")
    quench_omega_s0: float | None = _at("oracle", None)
    alpha_list: str = _at("run", "0,0.25,0.5,0.75,1")
    workers: int = _at("run", 0)  # capped at #alphas and cpu count; 0 -> that cap
    crosscheck: bool = _at("run", False)
    out_dir: str = _at("run", "gqbm-out")


def load_config(path: str | None = None, env: dict | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Build and validate a RunConfig from file, environment and overrides."""
    cfg = _read_config(path, env, overrides)
    _validate_config(cfg)
    return cfg


def _read_config(path: str | None, env: dict | None,
                 overrides: dict | None) -> RunConfig:
    texts = []   # (field, text, where it was set), file before environment
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ValidationError(f"config file not found: {path}")
        by_location = {(f.metadata["section"], f.metadata["key"] or f.name): f
                       for f in fields(RunConfig)}
        for sec in parser.sections():
            for key, raw in parser.items(sec):
                if (sec, key) not in by_location:
                    raise ValidationError(
                        f"unknown config entry [{sec}] {key} in {path}")
                texts.append((by_location[sec, key], raw, f"[{sec}] {key}"))

    by_var = {ENV_PREFIX + f.name.upper(): f for f in fields(RunConfig)}
    for var, raw in (os.environ if env is None else env).items():
        if var.startswith(ENV_PREFIX):
            if var not in by_var:
                raise ValidationError(f"unknown environment override {var}")
            texts.append((by_var[var], raw, var))

    values = {}
    for f, raw, where in texts:
        try:
            values[f.name] = _PARSERS[f.type](raw)
        except ValueError as exc:
            raise ValidationError(f"bad value for {where}: {raw!r}") from exc
    values.update(overrides or {})

    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc


def _validate_config(cfg: RunConfig, reads: set | None = None) -> list:
    """Checks the keys in reads (default: every key) before any solve.

    Returns _setup at each alpha that runs: cfg.alpha if read, then each
    alpha_list entry if read.
    """
    if reads is None:
        reads = {f.name for f in fields(RunConfig)}
    if "workers" in reads:
        require_count("workers", cfg.workers, 0)
    alphas = [cfg.alpha] if "alpha" in reads else []
    if "alpha_list" in reads:
        alphas += _sweep_alphas(cfg)
    return [_setup(replace(cfg, alpha=a)) for a in alphas]


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


# rows per formatted chunk of a CSV body: bounds the tuple and the string one
# % builds (one % over a 10^5 x 12 table held 80 MB of them)
_CSV_CHUNK_ROWS = 1024


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray]):
    """A header line, then one row of "%.16e" fields per index: the bytes of
    np.savetxt(fmt="%.16e", delimiter=",", comments="").  savetxt formats
    and writes each row on its own; here one % over the row format repeated
    formats a chunk of _CSV_CHUNK_ROWS rows, and one write writes it."""
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValidationError("CSV columns have mismatched lengths")
    table = np.column_stack(columns).astype(float, copy=False)
    row = ",".join(["%.16e"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk = table[lo:lo + _CSV_CHUNK_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_manifest(path: Path, cfg: RunConfig, reads: set, pipeline: str,
                    schemes: dict, summaries: dict, wall_time: float):
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read_dict({
        "run": {"version": __version__, "pipeline": pipeline,
                "wall_time_s": f"{wall_time:.3f}"},
        "config": {f.name: "" if getattr(cfg, f.name) is None
                   else str(getattr(cfg, f.name))
                   for f in fields(cfg) if f.name in reads},
        "schemes": dict(sorted(schemes.items())),
        "tolerances": {key: repr(val) for key, val in _TOLERANCES.items()},
        "summary": dict(sorted(summaries.items())),
    })
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        manifest.write(fh)


_TOLERANCES = {
    "instability_max_abs": INSTABILITY_MAX_ABS,
    "condition_max": CONDITION_MAX,
    "commutator_drift": COMMUTATOR_DRIFT_TOL,
    "conjugacy": CONJUGACY_TOL,
    "uncertainty": UNCERTAINTY_TOL,
    "symplectic_residual": SYMPLECTIC_RESIDUAL_TOL,
    "chebyshev_tail": CHEBYSHEV_TAIL_TOL,
    "quadrature_rtol": QUADRATURE_RTOL,
}


# ---------------------------------------------------------------------------
# subcommands: each runs its chain and lays out its CSV tables
# ---------------------------------------------------------------------------


def _setup(cfg: RunConfig):
    model = SpectralModel(family="ohmic", gamma0=cfg.gamma0, cutoff=cfg.cutoff,
                          alpha=cfg.alpha, temperature=cfg.temperature)
    omega_s = cfg.omega_s if cfg.omega_s is not None else default_omega_s(model)
    require("omega_s", omega_s)
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
    stages = {"transforms": kernel.metadata["transforms"]}
    return (PipelineResult(summaries={"omega_s": omega_s}, stages=stages),
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
    res.stages["moments"] = MOMENT_MARCH_SCHEME
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


def _sweep_one(job) -> tuple[float, PipelineResult, dict]:
    cfg, alpha = job
    tag = f"alpha_{_alpha_tag(alpha)}"
    sub = Path(cfg.out_dir) / tag
    sub.mkdir(parents=True, exist_ok=True)
    res = jolt_study(*_setup(replace(cfg, alpha=alpha)))
    est = res.outputs["estimate"]
    coeffs, estimates = sub / "coeffs.csv", sub / "estimates.csv"
    _write_csv(coeffs, *_coeffs_table(res.outputs["me"]))
    _write_csv(estimates, ["t", "gamma_est", "gamma_tilde_est"],
               [est.times, est.gamma_est, est.gamma_tilde_est])
    # the arrays stay in the worker; run() lists the paths in its bundle
    return (alpha, replace(res, outputs={}),
            {f"{tag}/coeffs": coeffs, f"{tag}/estimates": estimates})


def _run_sweep(cfg: RunConfig, *_):
    alphas = _sweep_alphas(cfg)
    jobs = [(cfg, a) for a in alphas]
    workers = min(cfg.workers or len(alphas), len(alphas), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that a run without a pool skips its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]

    results.sort(key=lambda r: r[0])
    written = {k: p for *_, paths in results for k, p in paths.items()}
    results = [(a, r) for a, r, _ in results]
    names = ["alpha", "peak_gamma", "peak_gamma_tilde",
             "est_dev_gamma_frac", "est_dev_gamma_tilde_frac"]
    cols = [np.array([a for a, _ in results])]
    cols += [np.array([r.summaries[k] for _, r in results]) for k in names[1:]]
    summaries = {f"alpha_{_alpha_tag(a)}_{k}": v
                 for a, r in results for k, v in r.summaries.items()}
    return (PipelineResult(summaries=summaries, stages=results[0][1].stages),
            {**written, "sweep": (names, cols)})


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


_MODEL = ("gamma0", "cutoff", "alpha", "temperature", "omega_s")
_GRID = ("t_end", "n_steps")
# subcommand -> (run(cfg, model, omega_s, grid) -> (result, {CSV: (names,
# columns), or the path a sweep job wrote it to}), every RunConfig field it
# reads, each taken as a flag).  A sweep replaces alpha per job, and
# reproduce-fig2 pins the whole model in run().  run() checks and records
# only these keys, the pinned ones and out_dir.
_SUBCOMMANDS = {
    "kernels": (_run_kernels, _MODEL + _GRID),
    "greens": (_run_greens, _MODEL + _GRID + ("crosscheck",)),
    "coeffs": (_run_coeffs, _MODEL + _GRID + ("crosscheck",)),
    "evolve": (_run_evolve, _MODEL + _GRID + (
        "mass", "init_mean_re", "init_mean_im", "init_delta_n",
        "init_delta_s_re", "init_delta_s_im")),
    "jolt-sweep": (_run_sweep, ("gamma0", "cutoff", "temperature", "omega_s")
                   + _GRID + ("alpha_list", "workers")),
    "oracle-compare": (_run_oracle_compare, _MODEL + _GRID + (
        "oracle_modes", "oracle_omega_max", "oracle_scheme", "quench_omega_s0")),
    "reproduce-fig2": (_run_sweep, _GRID + ("workers",)),
}


def run(cfg: RunConfig, pipeline: str) -> ResultBundle:
    """Execute one pipeline; writes CSVs and a manifest under cfg.out_dir.

    reproduce-fig2 pins the documented model (gamma0 = 3e-4, T = 0.01) and
    takes its grid from cfg, so reduced-resolution smoke runs stay possible.
    crosscheck, from whatever source, is rejected by the pipelines without
    a --crosscheck flag, before the output directory is made.  Only the
    keys the pipeline reads are checked and written to the manifest's
    [config]; a sweep reads each alpha_list entry instead of alpha.
    """
    t0 = time.monotonic()
    if pipeline not in _SUBCOMMANDS:
        raise ValidationError(f"unknown pipeline {pipeline!r}")
    readers = [p for p, (_, names) in _SUBCOMMANDS.items()
               if "crosscheck" in names]
    if cfg.crosscheck and pipeline not in readers:
        raise ValidationError(f"crosscheck is read by {' and '.join(readers)} "
                              f"only, not by {pipeline}")
    runner, keys = _SUBCOMMANDS[pipeline]
    pins = _FIG2_PINS if pipeline == "reproduce-fig2" else {}
    cfg = replace(cfg, **pins)
    reads = {"out_dir", *keys, *pins}
    setups = _validate_config(cfg, reads)  # what runs, after pinning
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    res, tables = runner(cfg, *setups[0])
    bundle = ResultBundle(out_dir=out, summaries=res.summaries,
                          manifest_path=out / "manifest.txt")
    for name, table in tables.items():
        if isinstance(table, Path):           # written by a sweep job
            bundle.csv_paths[name] = table
            continue
        bundle.csv_paths[name] = out / f"{name}.csv"
        _write_csv(bundle.csv_paths[name], *table)
    _write_manifest(bundle.manifest_path, cfg, reads, pipeline, res.stages,
                    res.summaries, time.monotonic() - t0)
    return bundle


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# a flag is the field name with dashes unless _FLAG_NAMES says otherwise
_FLAG_NAMES = {"n_steps": "--steps", "quench_omega_s0": "--quench-from"}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The gqbm parser with every subcommand, or with the subcommand `only`
    alone; the usage line names all of them either way."""
    parser = argparse.ArgumentParser(
        prog="gqbm",
        description="Non-Markovian dissipation and fluctuation dynamics of "
                    "a damped mode with pair-production bath couplings")
    # with one subparser built, the metavar keeps all of them in the usage
    # line; with all built it stays unset, as argparse's errors about a
    # missing or unknown subcommand name the argument "pipeline" without it
    every = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="pipeline", required=True, metavar=every)
    types = {f.name: f.type for f in fields(RunConfig)}
    for pipeline, (_, names) in _SUBCOMMANDS.items():
        if only not in (None, pipeline):
            continue
        # an absent flag leaves no entry, so `--omega-s none` can override;
        # no prefix matching, or jolt-sweep would read --alpha as --alpha-list
        p = sub.add_parser(pipeline, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        for name in names:
            flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
            if types[name] == "bool":
                p.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=name, type=_PARSERS[types[name]])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line parses only its own subcommand's flags, so only that
    # subparser is built; anything else meets the full parser and its errors
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _build_parser(only).parse_args(argv)
    ns = vars(args)
    pipeline = ns.pop("pipeline")
    config_path = ns.pop("config", None)
    try:
        bundle = run(_read_config(config_path, None, ns), pipeline)
    except GqbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"{pipeline}: wrote {len(bundle.csv_paths)} CSV file(s) and "
          f"manifest to {bundle.out_dir}")
    for key in sorted(bundle.summaries):
        print(f"  {key} = {bundle.summaries[key]}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
