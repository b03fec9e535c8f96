"""CLI: configuration precedence, CSV contracts, exit codes, pipelines."""

import argparse
import concurrent.futures
import configparser
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gqbm
import gqbm.cli as cli
import gqbm.pipelines as pipelines
from gqbm.errors import NumericalQualityError, ValidationError

from conftest import SCHEMES, runaway_bath

# every numeric CSV cell: 17 significant digits, scientific notation
CELL_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _read_csv(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _manifest_value(path: Path, section: str, key: str) -> str:
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif "=" in line and current == section:
            k, v = line.split("=", 1)
            if k.strip() == key:
                return v.strip()
    raise KeyError(f"{section}/{key} not in {path}")


def _recorded(path: Path, key: str) -> bool:
    """Whether the manifest's [config] records key."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return key in parser["config"]


# ---- configuration loading ---------------------------------------------------


def test_config_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\ngamma0 = 1e-3\nalpha = 0.25\n")
    cfg = cli.load_config(str(ini), env={})
    assert cfg.gamma0 == 1e-3 and cfg.alpha == 0.25
    cfg = cli.load_config(str(ini), env={"GQBM_GAMMA0": "2e-3"})
    assert cfg.gamma0 == 2e-3 and cfg.alpha == 0.25
    cfg = cli.load_config(str(ini), env={"GQBM_GAMMA0": "2e-3"},
                          overrides={"gamma0": 3e-3})
    assert cfg.gamma0 == 3e-3


def test_config_unknown_file_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nfrobnicate = 1\n")
    with pytest.raises(ValidationError, match="unknown config entry"):
        cli.load_config(str(ini), env={})


def test_config_unknown_env_var():
    with pytest.raises(ValidationError, match="unknown environment override"):
        cli.load_config(env={"GQBM_FROBNICATE": "1"})
    with pytest.raises(ValidationError, match="bogus"):
        cli.load_config(env={}, overrides={"bogus": 1})


def test_config_bad_values(tmp_path):
    with pytest.raises(ValidationError, match="bad value"):
        cli.load_config(env={"GQBM_GAMMA0": "not-a-number"})
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nn_steps = 3.5\n")
    with pytest.raises(ValidationError, match="bad value"):
        cli.load_config(str(ini), env={})


def test_config_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        cli.load_config("/nonexistent/run.ini", env={})


def test_unknown_pipeline_is_rejected_before_any_output(tmp_path):
    cfg = cli.load_config(env={}, overrides={"out_dir": str(tmp_path / "x")})
    with pytest.raises(ValidationError, match="unknown pipeline"):
        cli.run(cfg, "bogus")
    assert not (tmp_path / "x").exists()


def test_config_bounds():
    with pytest.raises(ValidationError, match="alpha"):
        cli.load_config(env={}, overrides={"alpha": 1.5})
    with pytest.raises(ValidationError, match="workers"):
        cli.load_config(env={}, overrides={"workers": -1})
    with pytest.raises(ValidationError, match="alpha_list"):
        cli.load_config(env={}, overrides={"alpha_list": "0.2,2.0"})
    with pytest.raises(ValidationError, match="n_steps"):
        cli.load_config(env={}, overrides={"n_steps": 4})


# every configuration key: its config file location and GQBM_ variable
LOCATIONS = {
    "gamma0": ("model", "gamma0"), "cutoff": ("model", "cutoff"),
    "alpha": ("model", "alpha"), "temperature": ("model", "temperature"),
    "omega_s": ("model", "omega_s"), "t_end": ("grid", "t_end"),
    "n_steps": ("grid", "n_steps"), "mass": ("init", "mass"),
    "init_mean_re": ("init", "mean_re"), "init_mean_im": ("init", "mean_im"),
    "init_delta_n": ("init", "delta_n"),
    "init_delta_s_re": ("init", "delta_s_re"),
    "init_delta_s_im": ("init", "delta_s_im"),
    "oracle_modes": ("oracle", "n_modes"),
    "oracle_omega_max": ("oracle", "omega_max"),
    "oracle_scheme": ("oracle", "scheme"),
    "quench_omega_s0": ("oracle", "quench_omega_s0"),
    "alpha_list": ("run", "alpha_list"), "workers": ("run", "workers"),
    "crosscheck": ("run", "crosscheck"), "out_dir": ("run", "out_dir"),
}
# a text for each field annotation, and the value it parses to
SAMPLES = {"float": ("0.375", 0.375), "float | None": ("0.5", 0.5),
           "int": ("7", 7), "str": ("x7", "x7"), "bool": ("yes", True)}


def test_every_key_has_one_location():
    assert set(LOCATIONS) == {f.name for f in fields(cli.RunConfig)}


@pytest.mark.parametrize("f", fields(cli.RunConfig), ids=lambda f: f.name)
def test_every_key_round_trips_from_file_and_environment(f, tmp_path):
    text, value = SAMPLES[f.type]
    want = replace(cli.RunConfig(), **{f.name: value})
    assert want != cli.RunConfig()
    section, key = LOCATIONS[f.name]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    assert cli._read_config(str(ini), {}, None) == want
    env = {f"GQBM_{f.name.upper()}": text}
    assert cli._read_config(None, env, None) == want


def _subparsers_of(parser) -> dict:
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _subparsers() -> dict:
    return _subparsers_of(cli._build_parser())


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    parsers = _subparsers()
    assert set(parsers) == set(cli._SUBCOMMANDS)
    for pipeline, (_, names) in cli._SUBCOMMANDS.items():
        dests = {a.dest for a in parsers[pipeline]._actions} - {"help"}
        assert dests == set(names) | {"config", "out_dir"}, pipeline


def test_a_flag_parses_its_text_as_file_and_environment_do(tmp_path):
    types = {f.name: f.type for f in fields(cli.RunConfig)}
    for pipeline, sub in _subparsers().items():
        for action in sub._actions:
            if action.dest not in types or action.nargs == 0:
                continue
            text, value = SAMPLES[types[action.dest]]
            ns = sub.parse_args([action.option_strings[0], text])
            assert getattr(ns, action.dest) == value, (pipeline, action.dest)
    # "none" means the default from every source, so a flag can undo a file
    ns = _subparsers()["coeffs"].parse_args(["--omega-s", "none"])
    assert vars(ns) == {"omega_s": None}
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nomega_s = 0.3\n")
    assert cli._read_config(str(ini), {}, vars(ns)).omega_s is None
    assert cli._read_config(str(ini), {"GQBM_OMEGA_S": "none"},
                            None).omega_s is None


def _parse_error(parse, argv, capsys) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr().err


def test_main_builds_only_the_named_subcommand(monkeypatch, tmp_path,
                                              capsys):
    full = cli._build_parser
    built = []

    def recording(only=None):
        parser = full(only)
        built.append(list(_subparsers_of(parser)))
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording)
    monkeypatch.setattr(os, "environ", {})
    assert cli.main(["kernels", "--t-end", "2", "--steps", "40",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert built == [["kernels"]]
    # an unrecognized flag, an unknown and a missing subcommand read as
    # they do on the parser with every subcommand
    for argv in (["coeffs", "--mass", "1"], ["coef"], []):
        got = _parse_error(cli.main, argv, capsys)
        assert got == _parse_error(full().parse_args, argv, capsys), argv
    assert built[1:] == [["coeffs"], list(cli._SUBCOMMANDS),
                         list(cli._SUBCOMMANDS)]


def test_a_bad_flag_value_names_the_type_it_wants(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--omega-s", "abc"])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "argument --omega-s: invalid float value: 'abc'" in (
        capsys.readouterr().err)


# the model flags of subcommands that pin or replace the model are gone
REMOVED_FLAGS = (
    [(p, "--mass") for p in ("kernels", "greens", "coeffs", "jolt-sweep",
                             "oracle-compare", "reproduce-fig2")]
    + [(p, "--alpha") for p in ("jolt-sweep", "reproduce-fig2")]
    + [("reproduce-fig2", flag) for flag in ("--gamma0", "--cutoff",
                                             "--temperature", "--omega-s")])


@pytest.mark.parametrize("pipeline, flag", REMOVED_FLAGS,
                         ids=[" ".join(c) for c in REMOVED_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_rejected(pipeline, flag,
                                                         tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([pipeline, flag, "0.05", "--out", str(tmp_path / "x")])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _readme_commands() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("gqbm ")]


def test_every_readme_command_parses():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_optional_float_and_bool_parsers():
    assert cli._parse_optional_float("default") is None
    assert cli._parse_optional_float(" 0.25 ") == 0.25
    assert cli._parse_bool("Yes") is True
    assert cli._parse_bool("off") is False
    with pytest.raises(ValidationError):
        cli._parse_bool("maybe")


def _savetxt_csv(path, names, columns):
    """The writer as it was: np.savetxt, which formats and writes row by row."""
    np.savetxt(path, np.column_stack(columns).astype(float), fmt="%.16e",
               delimiter=",", header=",".join(names), comments="",
               encoding="ascii")


CSV_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
                np.nan, 1.0, -2.5e-7, np.pi]


# a single column, a table within one chunk, one of exactly one chunk, and
# one longer than two chunks
@pytest.mark.parametrize("rows, cols", [
    (len(CSV_SPECIALS), 1), (len(CSV_SPECIALS), 5),
    (cli._CSV_CHUNK_ROWS, 2), (2 * cli._CSV_CHUNK_ROWS + 7, 8)])
def test_write_csv_is_savetxt_byte_for_byte(rows, cols, tmp_path):
    rng = np.random.default_rng(rows + cols)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
        -320, 307, size=(rows, cols))
    for j in range(cols):                 # each column holds every special
        table[(np.arange(len(CSV_SPECIALS)) + j) % rows, j] = CSV_SPECIALS
    names = [f"c{j}" for j in range(cols)]
    columns = list(table.T)
    _savetxt_csv(tmp_path / "ref.csv", names, columns)
    cli._write_csv(tmp_path / "new.csv", names, columns)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValidationError, match="mismatched lengths"):
        cli._write_csv(tmp_path / "x.csv", ["a", "b"],
                       [np.zeros(3), np.zeros(4)])


# ---- coeffs pipeline ----------------------------------------------------------


def _run_cli(args, monkeypatch=None, env=None):
    if monkeypatch is not None:
        monkeypatch.setattr(os, "environ", env or {})
    return cli.main(args)


def test_coeffs_csv_schema(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["coeffs", "--out", str(out), "--alpha", "0.5",
                     "--t-end", "2", "--steps", "200"], monkeypatch)
    assert code == cli.EXIT_OK
    header, rows = _read_csv(out / "coeffs.csv")
    assert header == ["t", "gamma", "gamma_tilde", "re_gamma_bar",
                      "im_gamma_bar", "omega_s_prime", "re_omega_bar_prime",
                      "im_omega_bar_prime"]
    assert len(rows) == 201
    for row in rows[:5] + rows[-5:]:
        assert all(CELL_RE.match(cell) for cell in row)
    assert not (out / "hpz.csv").exists()
    assert _manifest_value(out / "manifest.txt", "config", "alpha") == "0.5"
    assert _manifest_value(out / "manifest.txt", "run", "pipeline") == "coeffs"


def test_manifest_u_solver_is_the_solver_metadata(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["coeffs", "--out", str(out), "--t-end", "2",
                     "--steps", "200"], monkeypatch)
    assert code == cli.EXIT_OK
    model = gqbm.SpectralModel(family="ohmic", gamma0=3e-4, cutoff=1.0,
                               alpha=0.5, temperature=0.01)
    sol = gqbm.solve_u(gqbm.build_kernels(model), 0.01,
                       gqbm.TimeGrid(t_end=2.0, n_steps=200))
    assert _manifest_value(out / "manifest.txt", "schemes", "u_solver") == (
        sol.metadata["u_solver"])


def test_manifest_oracle_is_the_propagator_metadata(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--t-end", "1", "--steps", "40", "--oracle-modes", "40",
                     "--oracle-omega-max", "12"], monkeypatch)
    assert code == cli.EXIT_OK
    model = gqbm.SpectralModel(family="ohmic", gamma0=3e-4, cutoff=1.0,
                               alpha=0.5, temperature=0.01)
    bath = gqbm.discretize_bath(model, 40, 12.0)
    prop = gqbm.propagate(
        gqbm.build_dynamics(bath, gqbm.default_omega_s(model)),
        gqbm.TimeGrid(t_end=1.0, n_steps=40))
    manifest = out / "manifest.txt"
    assert _manifest_value(manifest, "schemes", "oracle") == (
        prop.metadata["scheme"])
    assert float(_manifest_value(manifest, "tolerances", "chebyshev_tail")) == (
        gqbm.oracle.CHEBYSHEV_TAIL_TOL)


def test_evolve_writes_the_library_moments(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["evolve", "--out", str(out), "--alpha", "0.5",
                     "--init-mean-re", "2", "--init-delta-n", "0.1",
                     "--init-delta-s-re", "0.3", "--t-end", "2",
                     "--steps", "200"], monkeypatch)
    assert code == cli.EXIT_OK
    model = gqbm.SpectralModel(family="ohmic", gamma0=3e-4, cutoff=1.0,
                               alpha=0.5, temperature=0.01)
    omega_s = gqbm.default_omega_s(model)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=200)
    me = pipelines.coefficient_run(model, omega_s, grid).outputs["me"]
    init = gqbm.GaussianMoments(mean_a=2.0 + 0.0j, delta_n=0.1, delta_s=0.3)
    mean = gqbm.evolve_means(me, init, grid)
    second = gqbm.evolve_covariances(me, init, grid)
    quads = gqbm.to_quadratures(second, 1.0, omega_s)
    columns = [grid.times, mean.real, mean.imag, second.delta_n,
               second.delta_s.real, second.delta_s.imag, quads.var_x,
               quads.var_p, quads.cov_xp]

    header, rows = _read_csv(out / "moments.csv")
    assert header == ["t", "re_mean_a", "im_mean_a", "delta_n", "re_delta_s",
                      "im_delta_s", "var_x", "var_p", "cov_xp"]
    assert rows == [[f"{x:.16e}" for x in row] for row in zip(*columns)]
    assert _manifest_value(out / "manifest.txt", "summary",
                           "max_commutator_drift") == (
        str(second.max_commutator_drift))


def test_coeffs_writes_quadrature_form_at_full_pairing(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["coeffs", "--out", str(out), "--alpha", "1",
                     "--t-end", "2", "--steps", "200"], monkeypatch)
    assert code == cli.EXIT_OK
    header, rows = _read_csv(out / "hpz.csv")
    assert header[:5] == ["t", "delta_omega_sq", "gamma_damping", "gamma_h",
                          "gamma_f"]
    assert len(rows) == 201


def _manifest_keys(path: Path, section: str) -> set:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return set(parser[section])


def test_manifest_states_the_tolerances_and_schemes_that_ran(tmp_path,
                                                              monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["kernels", "--out", str(out), "--t-end", "2",
                     "--steps", "200"], monkeypatch)
    assert code == cli.EXIT_OK
    manifest = out / "manifest.txt"
    constants = {
        "instability_max_abs": gqbm.greens.INSTABILITY_MAX_ABS,
        "condition_max": gqbm.coeffs.CONDITION_MAX,
        "commutator_drift": gqbm.moments.COMMUTATOR_DRIFT_TOL,
        "conjugacy": gqbm.moments.CONJUGACY_TOL,
        "uncertainty": gqbm.moments.UNCERTAINTY_TOL,
        "symplectic_residual": gqbm.oracle.SYMPLECTIC_RESIDUAL_TOL,
        "quadrature_rtol": gqbm.spectral.QUADRATURE_RTOL,
    }
    for key, value in constants.items():
        assert float(_manifest_value(manifest, "tolerances", key)) == value
    # kernels runs no oracle march and no Volterra crosscheck
    schemes = _manifest_keys(manifest, "schemes")
    assert "oracle" not in schemes and "v_crosscheck" not in schemes

    oracle = tmp_path / "oracle"
    code = _run_cli(["oracle-compare", "--out", str(oracle), "--alpha", "0.5",
                     "--t-end", "1", "--steps", "40", "--oracle-modes", "40",
                     "--oracle-omega-max", "12"], monkeypatch)
    assert code == cli.EXIT_OK
    manifest = oracle / "manifest.txt"
    assert _manifest_keys(manifest, "schemes") == {
        "oracle", "transforms", "u_solver", "v_solver"}
    assert "row march (S^T columns under G^T) on the arrowhead generator" in (
        _manifest_value(manifest, "schemes", "oracle"))
    assert "FFT causal convolution" in _manifest_value(manifest, "schemes",
                                                       "v_solver")


_SMALL_ORACLE = ["--t-end", "1", "--steps", "40", "--oracle-modes", "40",
                 "--oracle-omega-max", "12"]
_SMALL_GRID = ["--t-end", "2", "--steps", "200"]


# (subcommand and flags, the [schemes] keys of the stages that ran)
@pytest.mark.parametrize("argv, keys", [
    (["kernels"] + _SMALL_GRID, {"transforms"}),
    (["greens"] + _SMALL_GRID, {"transforms", "u_solver", "v_solver"}),
    (["greens", "--crosscheck"] + _SMALL_GRID,
     {"transforms", "u_solver", "v_solver", "v_crosscheck"}),
    (["coeffs"] + _SMALL_GRID, {"transforms", "u_solver", "v_solver"}),
    (["evolve"] + _SMALL_GRID,
     {"transforms", "u_solver", "v_solver", "moments"}),
    (["jolt-sweep", "--workers", "1"] + _SMALL_GRID,
     {"transforms", "u_solver", "v_solver"}),
    # ohmic at T = 0: still the closed form, with gtilde_v zero
    (["coeffs", "--temperature", "0", "--t-end", "2", "--steps", "200"],
     {"transforms", "u_solver", "v_solver"}),
    (["oracle-compare", "--alpha", "0.5"] + _SMALL_ORACLE,
     {"oracle", "transforms", "u_solver", "v_solver"}),
    # the discrete-bath kernels are exact mode sums and name no transforms
    (["oracle-compare", "--alpha", "0.5", "--omega-s", "0.3",
      "--quench-from", "0.6"] + _SMALL_ORACLE,
     {"thermal_state", "oracle", "u_solver", "v_solver"}),
], ids=["kernels", "greens", "greens-crosscheck", "coeffs", "evolve",
        "jolt-sweep", "coeffs-zero-temperature", "oracle-compare",
        "oracle-compare-quench"])
def test_manifest_names_exactly_the_schemes_that_ran(argv, keys, tmp_path,
                                                      monkeypatch):
    out = tmp_path / "run"
    assert _run_cli(argv + ["--out", str(out)], monkeypatch) == cli.EXIT_OK
    manifest = out / "manifest.txt"
    assert _manifest_keys(manifest, "schemes") == keys
    for key in keys:
        assert _manifest_value(manifest, "schemes", key) == SCHEMES[key]


@pytest.mark.parametrize("argv, orders", [
    (["reproduce-fig2", "--workers", "1"] + _SMALL_GRID, []),
    (["evolve"] + _SMALL_GRID, []),
    (["oracle-compare", "--alpha", "0.5"] + _SMALL_ORACLE, [40]),
], ids=["reproduce-fig2", "evolve", "oracle-compare"])
def test_only_the_gauss_bath_builds_a_gauss_legendre_rule(argv, orders,
                                                          tmp_path,
                                                          monkeypatch):
    # the CLI is ohmic-only, and ohmic kernels are closed form at every T;
    # oracle-compare's 40-mode gauss bath takes the rule's nodes
    built = []
    real_rule = gqbm.spectral._gauss_legendre

    def recording_rule(order):
        built.append(order)
        return real_rule(order)

    monkeypatch.setattr(gqbm.spectral, "_gauss_legendre", recording_rule)
    out = tmp_path / "run"
    assert _run_cli(argv + ["--out", str(out)], monkeypatch) == cli.EXIT_OK
    assert built == orders


def test_crosscheck_from_the_environment_runs_on_greens(tmp_path, monkeypatch):
    out = tmp_path / "run"
    code = _run_cli(["greens", "--out", str(out), "--t-end", "2",
                     "--steps", "200"], monkeypatch, {"GQBM_CROSSCHECK": "1"})
    assert code == cli.EXIT_OK
    assert "v_crosscheck" in _manifest_keys(out / "manifest.txt", "schemes")


def _fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter that imports this gqbm."""
    src = str(Path(gqbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip().splitlines()[-1]


_LOADED_SCIPY = ("sorted(m for m in sys.modules "
                 "if m.partition('.')[0] == 'scipy')")


def test_import_loads_no_scipy():
    # the scipy base layer costs more than numpy, paid at every start
    code = f"import sys, gqbm, gqbm.cli; print({_LOADED_SCIPY})"
    assert _fresh_interpreter(code) == "[]"


def test_import_leaves_the_process_pool_unloaded():
    # only a sweep with more than one worker imports it
    code = ("import sys, gqbm, gqbm.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    assert _fresh_interpreter(code) == "False"


def test_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rule runs its own recurrence, not leggauss
    code = ("import sys, gqbm, gqbm.cli; "
            "print('numpy.polynomial' in sys.modules)")
    assert _fresh_interpreter(code) == "False"


def test_quench_oracle_run_loads_no_scipy_or_numpy_ma(tmp_path):
    # nothing is deferred to a lazy import inside the run: the oracle, the
    # thermal state, the gauss bath and the kernel route all stay on
    # numpy's core
    argv = (["oracle-compare", "--alpha", "0.5", "--omega-s", "0.3",
             "--quench-from", "0.6", "--out", str(tmp_path / "run")]
            + _SMALL_ORACLE)
    code = (f"import sys, gqbm.cli; code = gqbm.cli.main({argv!r}); "
            f"print(code, {_LOADED_SCIPY}, 'numpy.ma' in sys.modules, "
            f"'numpy.polynomial' in sys.modules)")
    assert _fresh_interpreter(code) == f"{cli.EXIT_OK} [] False False"


def test_byte_identical_reruns(tmp_path, monkeypatch):
    args = ["coeffs", "--alpha", "0.5", "--t-end", "2", "--steps", "200"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(args + ["--out", str(out1)], monkeypatch) == cli.EXIT_OK
    assert _run_cli(args + ["--out", str(out2)], monkeypatch) == cli.EXIT_OK
    assert (out1 / "coeffs.csv").read_bytes() == (out2 / "coeffs.csv").read_bytes()


def test_env_override_and_flag_precedence(tmp_path, monkeypatch):
    out = tmp_path / "env"
    code = _run_cli(["coeffs", "--out", str(out), "--t-end", "2",
                     "--steps", "200"], monkeypatch, {"GQBM_ALPHA": "0.25"})
    assert code == cli.EXIT_OK
    assert _manifest_value(out / "manifest.txt", "config", "alpha") == "0.25"

    out2 = tmp_path / "flag"
    code = _run_cli(["coeffs", "--out", str(out2), "--alpha", "0.75",
                     "--t-end", "2", "--steps", "200"],
                    monkeypatch, {"GQBM_ALPHA": "0.25"})
    assert code == cli.EXIT_OK
    assert _manifest_value(out2 / "manifest.txt", "config", "alpha") == "0.75"


def test_unknown_env_var_exits_validation(tmp_path, monkeypatch, capsys):
    code = _run_cli(["coeffs", "--out", str(tmp_path / "x")],
                    monkeypatch, {"GQBM_BOGUS": "1"})
    assert code == cli.EXIT_VALIDATION
    assert "unknown environment override" in capsys.readouterr().err


def test_unknown_config_key_exits_validation(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nwymsical = 3\n")
    code = _run_cli(["coeffs", "--config", str(ini),
                     "--out", str(tmp_path / "x")], monkeypatch)
    assert code == cli.EXIT_VALIDATION
    assert "unknown config entry" in capsys.readouterr().err


def test_quality_failure_exits_4(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalQualityError("synthetic quality failure")

    monkeypatch.setattr(pipelines.greens, "solve_v_fdt", boom)
    monkeypatch.setattr(os, "environ", {})
    code = cli.main(["coeffs", "--out", str(tmp_path / "x"),
                     "--t-end", "2", "--steps", "200"])
    assert code == cli.EXIT_QUALITY


@pytest.mark.parametrize("name, exit_code", [
    ("ValidationError", 2), ("InstabilityError", 3),
    ("NumericalQualityError", 4),
])
def test_each_error_class_exits_with_its_code(name, exit_code, tmp_path,
                                              monkeypatch, capsys):
    error = getattr(gqbm.errors, name)

    def boom(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "run", boom)
    code = _run_cli(["kernels", "--out", str(tmp_path / "x")], monkeypatch)
    assert code == error.exit_code == exit_code
    assert capsys.readouterr().err == "error: synthetic failure\n"


# ---- sweep pipelines ----------------------------------------------------------


def test_jolt_sweep_parallel(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    code = _run_cli(["jolt-sweep", "--out", str(out), "--alpha-list", "0,0.5",
                     "--workers", "2", "--t-end", "2", "--steps", "200"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["alpha", "peak_gamma", "peak_gamma_tilde",
                      "est_dev_gamma_frac", "est_dev_gamma_tilde_frac"]
    assert [float(r[0]) for r in rows] == [0.0, 0.5]
    for tag in ("alpha_0p00", "alpha_0p50"):
        assert (out / tag / "coeffs.csv").exists()
        assert (out / tag / "estimates.csv").exists()
    # without pairing only the small thermal diffusion remains; the
    # pair-production transient at alpha = 0.5 dwarfs it
    assert float(rows[0][2]) < 0.01 * float(rows[1][2])


def test_sweep_workers_capped_at_cpu_count(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records max_workers and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = _run_cli(["jolt-sweep", "--out", str(tmp_path / "sweep"),
                     "--alpha-list", "0,0.25,0.5,1", "--workers", "64",
                     "--t-end", "2", "--steps", "40"], monkeypatch)
    assert code == cli.EXIT_OK
    assert sizes == [2]


def test_reproduce_fig2_smoke(tmp_path, monkeypatch, capsys):
    out = tmp_path / "fig2"
    bundles = []
    run = cli.run
    monkeypatch.setattr(cli, "run",
                        lambda *args: bundles.append(run(*args)) or bundles[0])
    code = _run_cli(["reproduce-fig2", "--out", str(out), "--t-end", "2",
                     "--steps", "400", "--workers", "2"], monkeypatch)
    assert code == cli.EXIT_OK
    # sweep.csv and each alpha's coeffs.csv and estimates.csv, all counted
    paths = set(bundles[0].csv_paths.values())
    assert len(paths) == 11 and all(p.exists() for p in paths)
    assert "wrote 11 CSV file(s)" in capsys.readouterr().out
    header, rows = _read_csv(out / "sweep.csv")
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for a in ("0p00", "0p25", "0p50", "0p75", "1p00"):
        assert (out / f"alpha_{a}" / "coeffs.csv").exists()
    manifest = out / "manifest.txt"
    # the documented parameter set is pinned even if flags try to drift it
    assert _manifest_value(manifest, "config", "gamma0") == "0.0003"
    assert _manifest_value(manifest, "config", "temperature") == "0.01"
    # short-time estimates track the exact transients on the sweep
    dev = float(_manifest_value(manifest, "summary",
                                "alpha_0p25_est_dev_gamma_frac"))
    assert 0.0 <= dev < 0.2


def test_fig2_pins_model_even_from_config(tmp_path, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\ngamma0 = 0.05\n")
    out = tmp_path / "fig2b"
    code = _run_cli(["reproduce-fig2", "--config", str(ini), "--out", str(out),
                     "--t-end", "2", "--steps", "200", "--workers", "1"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    assert _manifest_value(out / "manifest.txt", "config", "gamma0") == "0.0003"


@pytest.mark.parametrize("argv, env, key", [
    (["kernels", "--t-end", "2", "--steps", "200"], {"GQBM_WORKERS": "-1"},
     "workers"),
    (["coeffs", "--alpha", "0.5", "--t-end", "2", "--steps", "200"],
     {"GQBM_ALPHA_LIST": "0,9"}, "alpha_list"),
], ids=["kernels-workers", "coeffs-alpha-list"])
def test_a_key_the_subcommand_does_not_read_is_neither_checked_nor_recorded(
        argv, env, key, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert _run_cli(argv + ["--out", str(out)], monkeypatch, env) == cli.EXIT_OK
    assert not _recorded(out / "manifest.txt", key)
    # the sweeps read both keys
    code = _run_cli(["jolt-sweep", "--out", str(tmp_path / "sweep"), "--t-end",
                     "2", "--steps", "200"], monkeypatch, env)
    assert code == cli.EXIT_VALIDATION
    code = _run_cli(["reproduce-fig2", "--out", str(tmp_path / "fig2"),
                     "--t-end", "2", "--steps", "200"], monkeypatch,
                    {"GQBM_WORKERS": "-1"})
    assert code == cli.EXIT_VALIDATION


def test_jolt_sweep_neither_checks_nor_records_alpha(tmp_path, monkeypatch):
    argv = ["jolt-sweep", "--alpha-list", "0,1", "--workers", "1",
            "--t-end", "2", "--steps", "200"]
    outs = {}
    for alpha in (None, "7", "0.3"):
        out = outs[alpha] = tmp_path / f"alpha-{alpha}"
        env = {} if alpha is None else {"GQBM_ALPHA": alpha}
        assert _run_cli(argv + ["--out", str(out)], monkeypatch,
                        env) == cli.EXIT_OK
        assert not _recorded(out / "manifest.txt", "alpha")
        assert _manifest_value(out / "manifest.txt", "config",
                               "alpha_list") == "0,1"
    names = ["sweep.csv"] + [f"alpha_{tag}/{csv}" for tag in ("0p00", "1p00")
                             for csv in ("coeffs.csv", "estimates.csv")]
    for alpha in ("7", "0.3"):
        for name in names:
            assert ((outs[alpha] / name).read_bytes()
                    == (outs[None] / name).read_bytes()), name


# ---- oracle pipelines ----------------------------------------------------------


def test_oracle_compare_summary(tmp_path, monkeypatch):
    out = tmp_path / "oracle"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--t-end", "2", "--steps", "200",
                     "--oracle-modes", "300", "--oracle-omega-max", "12"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    header, rows = _read_csv(out / "oracle_compare.csv")
    assert header == ["t", "u_deviation", "v_deviation"]
    manifest = out / "manifest.txt"
    assert float(_manifest_value(manifest, "summary", "max_u_deviation")) < 1e-4
    assert float(_manifest_value(manifest, "summary", "max_v_deviation")) < 1e-4
    assert float(_manifest_value(manifest, "summary",
                                 "recurrence_horizon")) > 2.0


def test_oracle_compare_horizon_guard(tmp_path, monkeypatch, capsys):
    code = _run_cli(["oracle-compare", "--out", str(tmp_path / "x"),
                     "--alpha", "0.5", "--t-end", "20", "--steps", "2000",
                     "--oracle-modes", "60", "--oracle-omega-max", "12",
                     "--oracle-scheme", "linear-midpoint"], monkeypatch)
    assert code == cli.EXIT_VALIDATION
    assert "recurrence" in capsys.readouterr().err


def test_quench_compare(tmp_path, monkeypatch):
    out = tmp_path / "quench"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--omega-s", "0.3", "--quench-from", "0.6",
                     "--t-end", "2", "--steps", "200",
                     "--oracle-modes", "300", "--oracle-omega-max", "12"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    header, _ = _read_csv(out / "quench_compare.csv")
    assert header == ["t", "delta_n_me", "delta_n_oracle", "re_delta_s_me",
                      "re_delta_s_oracle", "im_delta_s_me", "im_delta_s_oracle"]
    manifest = out / "manifest.txt"
    dev = float(_manifest_value(manifest, "summary", "max_moment_deviation"))
    corr = float(_manifest_value(manifest, "summary", "correction_magnitude"))
    assert dev < 1e-3
    assert corr > 0.0  # the correlated correction actually contributes


def test_quench_summary_reports_the_thermal_state_margins(tmp_path,
                                                        monkeypatch):
    out = tmp_path / "quench_tiny"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--omega-s", "0.3", "--quench-from", "0.6",
                     "--t-end", "1", "--steps", "40",
                     "--oracle-modes", "40", "--oracle-omega-max", "12"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    manifest = out / "manifest.txt"
    assert 0.0 <= float(_manifest_value(manifest, "summary",
                                        "symplectic_residual")) <= (
        gqbm.oracle.SYMPLECTIC_RESIDUAL_TOL)
    assert float(_manifest_value(manifest, "summary",
                                 "min_normal_frequency")) > 0.0


def test_oracle_past_the_memory_budget_exits_2(tmp_path, monkeypatch,
                                              capsys):
    # 400 modes on 10 000 000 steps: windows of 1.3 million steps, whose
    # Bessel and coefficient tables need 2.4 GiB, and 1.2 GiB of series
    code = _run_cli(["oracle-compare", "--out", str(tmp_path / "x"),
                     "--alpha", "0.5", "--t-end", "3", "--steps", "10000000",
                     "--oracle-modes", "400"], monkeypatch)
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "propagate at 10000000 steps" in err and "MEMORY_BUDGET_BYTES" in err


def test_quench_past_the_memory_budget_exits_2_before_its_thermal_state(
        tmp_path, monkeypatch, capsys):
    # the same over-budget march from a correlated start: propagate refuses
    # it before the thermal state's normal modes (a secular solve) are
    # computed
    def never(*args):
        raise AssertionError("the thermal state's normal modes were computed")

    monkeypatch.setattr(gqbm.oracle, "_quadrature_modes", never)
    out = tmp_path / "x"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--quench-from", "0.6", "--t-end", "3",
                     "--steps", "10000000", "--oracle-modes", "400"],
                    monkeypatch)
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "propagate at 10000000 steps" in err and "MEMORY_BUDGET_BYTES" in err
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("pipeline", ["coeffs", "greens", "evolve"])
def test_continuum_chain_past_the_memory_budget_exits_2(pipeline, tmp_path,
                                                       monkeypatch, capsys):
    # 2 000 steps against a 1 MiB budget: solve_u refuses before the
    # kernel's G table, the chain's first per-step table, is built
    def never(*args):
        raise AssertionError("the G table was built")

    monkeypatch.setattr(gqbm.spectral.Kernel, "g_table", never)
    monkeypatch.setattr(gqbm.errors, "MEMORY_BUDGET_BYTES", 1 << 20)
    out = tmp_path / "x"
    code = _run_cli([pipeline, "--out", str(out), "--steps", "2000"],
                    monkeypatch)
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "solve_u at n_steps = 2000" in err and "MEMORY_BUDGET_BYTES" in err
    assert list(out.glob("*.csv")) == []


def test_oracle_on_a_runaway_bath_exits_3_and_writes_no_csv(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # the march trips after the kernel route has run, and before any write
    bath = runaway_bath()
    monkeypatch.setattr(cli, "discretize_bath", lambda *args, **kw: bath)
    out = tmp_path / "x"
    code = _run_cli(["oracle-compare", "--out", str(out), "--alpha", "0.5",
                     "--t-end", "10", "--steps", "100"], monkeypatch)
    assert code == cli.EXIT_INSTABILITY
    assert "|S| reached" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_quench_from_unstable_hamiltonian_exits_3(tmp_path, monkeypatch,
                                                  capsys):
    code = _run_cli(["oracle-compare", "--out", str(tmp_path / "x"),
                     "--alpha", "1", "--gamma0", "0.5", "--omega-s", "0.01",
                     "--quench-from", "0.01", "--t-end", "2",
                     "--steps", "200", "--oracle-modes", "300",
                     "--oracle-omega-max", "12"], monkeypatch)
    assert code == cli.EXIT_INSTABILITY
    assert "positive definite" in capsys.readouterr().err
