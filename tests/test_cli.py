"""CLI: configuration precedence, CSV contracts, exit codes, pipelines."""

import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gqbm
import gqbm.cli as cli
import gqbm.pipelines as pipelines
from gqbm.errors import ContractViolationError, NumericalQualityError, ValidationError

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


def test_config_bounds():
    with pytest.raises(ValidationError, match="alpha"):
        cli.load_config(env={}, overrides={"alpha": 1.5})
    with pytest.raises(ValidationError, match="workers"):
        cli.load_config(env={}, overrides={"workers": -1})
    with pytest.raises(ValidationError, match="alpha_list"):
        cli.load_config(env={}, overrides={"alpha_list": "0.2,2.0"})
    with pytest.raises(ValidationError, match="n_steps"):
        cli.load_config(env={}, overrides={"n_steps": 4})


def test_optional_float_and_bool_parsers():
    assert cli._parse_optional_float("default") is None
    assert cli._parse_optional_float(" 0.25 ") == 0.25
    assert cli._parse_bool("Yes") is True
    assert cli._parse_bool("off") is False
    with pytest.raises(ValidationError):
        cli._parse_bool("maybe")


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ContractViolationError):
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
        "quadrature_self_check_rtol": gqbm.spectral.QUADRATURE_RTOL,
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
        "oracle", "quadrature", "u_solver", "v_solver"}
    assert "row march (S^T columns under G^T) on the sparse CSR generator" in (
        _manifest_value(manifest, "schemes", "oracle"))
    assert "FFT causal convolution" in _manifest_value(manifest, "schemes",
                                                       "v_solver")


def test_import_loads_no_scipy_integrate():
    # scipy.integrate also loads scipy.optimize, a cost paid at every start
    src = str(Path(gqbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, gqbm, gqbm.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = _run_cli(["jolt-sweep", "--out", str(tmp_path / "sweep"),
                     "--alpha-list", "0,0.25,0.5,1", "--workers", "64",
                     "--t-end", "2", "--steps", "40"], monkeypatch)
    assert code == cli.EXIT_OK
    assert sizes == [2]


def test_reproduce_fig2_smoke(tmp_path, monkeypatch):
    out = tmp_path / "fig2"
    code = _run_cli(["reproduce-fig2", "--out", str(out), "--t-end", "2",
                     "--steps", "400", "--workers", "2"], monkeypatch)
    assert code == cli.EXIT_OK
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
    out = tmp_path / "fig2b"
    code = _run_cli(["reproduce-fig2", "--out", str(out), "--gamma0", "0.05",
                     "--t-end", "2", "--steps", "200", "--workers", "1"],
                    monkeypatch)
    assert code == cli.EXIT_OK
    assert _manifest_value(out / "manifest.txt", "config", "gamma0") == "0.0003"


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
                                        "symplectic_residual")) <= 1e-8
    assert float(_manifest_value(manifest, "summary",
                                 "min_normal_frequency")) > 0.0


def test_quench_from_unstable_hamiltonian_exits_3(tmp_path, monkeypatch,
                                                  capsys):
    code = _run_cli(["oracle-compare", "--out", str(tmp_path / "x"),
                     "--alpha", "1", "--gamma0", "0.5", "--omega-s", "0.01",
                     "--quench-from", "0.01", "--t-end", "2",
                     "--steps", "200", "--oracle-modes", "300",
                     "--oracle-omega-max", "12"], monkeypatch)
    assert code == cli.EXIT_INSTABILITY
    assert "positive definite" in capsys.readouterr().err
