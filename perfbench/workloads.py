"""The four benchmark workloads: their inputs, pipelines and accuracy checks.

Each workload runs once per job, in a fresh child process (see job.py).
``run`` is the timed part and returns whatever the checks need; ``check``
runs after the clock has stopped and returns the accuracy components as
{tag: (deviation, tolerance)}.  A job fails when any deviation reaches its
tolerance.

Sizes are scaled down from the paper point (see README.md) so that one
benchmark run holds several jobs; ``tiny`` is the same pipeline at toy size
for the benchmark's own tests.
"""

from __future__ import annotations

import configparser
import csv
import json
from pathlib import Path

import numpy as np

# Paper point shared by the ohmic workloads (cutoff units).
GAMMA0 = 3e-4
TEMPERATURE = 0.01
CUTOFF = 1.0

SIZES = {
    "bench": {
        "fig2": {"t_end": 10.0, "n_steps": 600},
        "oracle": {"t_end": 3.0, "n_steps": 300, "modes": 400},
        "quench": {"t_end": 2.0, "n_steps": 200, "modes": 300},
        "tabulated": {"t_end": 10.0, "n_steps": 600, "nodes": 300},
    },
    "tiny": {
        "fig2": {"t_end": 2.0, "n_steps": 40},
        "oracle": {"t_end": 2.0, "n_steps": 40, "modes": 80},
        "quench": {"t_end": 2.0, "n_steps": 40, "modes": 60},
        "tabulated": {"t_end": 2.0, "n_steps": 40, "nodes": 40},
    },
}

# Tolerances of the accuracy gates (acceptance criteria of tests/).
U_ORACLE_TOL = 1e-4          # criterion 3
V_ORACLE_TOL = 1e-3          # criterion 3
QUENCH_TOL = 1e-3            # criterion 7
RECON_TOL = 1e-5             # criterion 4
JOLT_TOL = 0.05              # criterion 5d, normalised by the larger peak
REF_RTOL = 1e-9              # fig2 columns against the stored reference

FIG2_ALPHA_DIRS = ("alpha_0p00", "alpha_0p25", "alpha_0p50", "alpha_0p75",
                   "alpha_1p00")
FIG2_COLUMNS = ("gamma", "gamma_tilde", "re_gamma_bar", "im_gamma_bar",
                "omega_s_prime", "re_omega_bar_prime", "im_omega_bar_prime")
REFERENCE_STRIDE = {"bench": 20, "tiny": 2}

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "fig2_reference.json"


def _grid_args(size: dict) -> list[str]:
    return ["--t-end", repr(size["t_end"]), "--steps", str(size["n_steps"])]


def _paper_point() -> list[str]:
    return ["--gamma0", repr(GAMMA0), "--temperature", repr(TEMPERATURE),
            "--cutoff", repr(CUTOFF)]


def _run_cli(gqbm, argv: list[str]):
    code = gqbm.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gqbm {argv[0]} exited with code {code}")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], cols))


def write_csv(path: Path, columns: dict[str, np.ndarray]):
    """Same cell format as the gqbm CLI, so digests compare like its CSVs."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")


def read_summary(out: Path) -> dict[str, float]:
    parser = configparser.ConfigParser()
    parser.read(out / "manifest.txt")
    return {k: float(v) for k, v in parser.items("summary")}


# -- fig2 -------------------------------------------------------------------


def run_fig2(gqbm, size, seed, out):
    _run_cli(gqbm, ["reproduce-fig2", "--out", str(out), "--workers", "1"]
             + _grid_args(size))


def fig2_columns(out: Path) -> dict[str, dict[str, np.ndarray]]:
    return {d: read_csv(out / d / "coeffs.csv") for d in FIG2_ALPHA_DIRS}


def check_fig2(gqbm, size, seed, out, state, scale):
    """Stored seed-commit columns, and the criterion-5d transient margin."""
    ref = json.loads(REFERENCE_PATH.read_text())[scale]
    stride = ref["stride"]
    ref_dev, jolt_dev = 0.0, 0.0
    for alpha_dir, table in fig2_columns(out).items():
        stored = ref["columns"][alpha_dir]
        for name in FIG2_COLUMNS:
            want = np.asarray(stored[name])
            got = table[name][::stride]
            if got.shape != want.shape:
                ref_dev = np.inf
                continue
            peak_ref = max(float(np.max(np.abs(want))), 1e-300)
            ref_dev = max(ref_dev, float(np.max(np.abs(got - want))) / peak_ref)
        est = read_csv(out / alpha_dir / "estimates.csv")
        peak = max(float(np.max(np.abs(table["gamma"]))),
                   float(np.max(np.abs(table["gamma_tilde"]))))
        dev = max(float(np.max(np.abs(est["gamma_est"] - table["gamma"]))),
                  float(np.max(np.abs(est["gamma_tilde_est"]
                                      - table["gamma_tilde"]))))
        jolt_dev = max(jolt_dev, dev / peak)
    return {"acc.ref_dev": (ref_dev, REF_RTOL),
            "acc.jolt_dev": (jolt_dev, JOLT_TOL)}


# -- oracle and quench -------------------------------------------------------


def run_oracle(gqbm, size, seed, out):
    _run_cli(gqbm, ["oracle-compare", "--out", str(out), "--alpha", "0.5",
                    "--oracle-modes", str(size["modes"]),
                    "--oracle-omega-max", "20", "--oracle-scheme", "gauss"]
             + _paper_point() + _grid_args(size))


def check_oracle(gqbm, size, seed, out, state, scale):
    summary = read_summary(out)
    return {"acc.u_dev_oracle": (summary["max_u_deviation"], U_ORACLE_TOL),
            "acc.v_dev_oracle": (summary["max_v_deviation"], V_ORACLE_TOL)}


def run_quench(gqbm, size, seed, out):
    _run_cli(gqbm, ["oracle-compare", "--out", str(out), "--alpha", "0.5",
                    "--omega-s", "0.3", "--quench-from", "0.6",
                    "--oracle-modes", str(size["modes"]),
                    "--oracle-omega-max", "12", "--oracle-scheme", "gauss"]
             + _paper_point() + _grid_args(size))


def check_quench(gqbm, size, seed, out, state, scale):
    summary = read_summary(out)
    return {"acc.quench_n_dev": (summary["max_moment_deviation"], QUENCH_TOL)}


# -- tabulated ---------------------------------------------------------------


def tabulated_table(seed: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Ohmic profile sampled on [0, 20] at seed-jittered interior nodes."""
    rng = np.random.default_rng(seed)
    omega = np.linspace(0.0, 20.0, nodes)
    h = omega[1] - omega[0]
    omega[1:-1] += rng.uniform(-0.3 * h, 0.3 * h, nodes - 2)
    amp = np.sqrt(np.pi * GAMMA0 / (2.0 * CUTOFF))
    return omega, amp * omega * np.exp(-omega / CUTOFF)


def run_tabulated(gqbm, size, seed, out):
    """The README's library pipeline on a tabulated spectral density."""
    tab_omega, tab_j = tabulated_table(seed, size["nodes"])
    model = gqbm.SpectralModel(family="tabulated", gamma0=GAMMA0,
                               cutoff=CUTOFF, alpha=0.5,
                               temperature=TEMPERATURE,
                               tab_omega=tab_omega, tab_j=tab_j)
    omega_s = gqbm.default_omega_s(gqbm.SpectralModel(
        family="ohmic", gamma0=GAMMA0, cutoff=CUTOFF, alpha=0.5,
        temperature=TEMPERATURE))
    grid = gqbm.TimeGrid(t_end=size["t_end"], n_steps=size["n_steps"],
                         max_frequency=CUTOFF)
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    init = gqbm.GaussianMoments(mean_a=2.0 + 0.0j, delta_n=0.1, delta_s=0.3)
    mean = gqbm.evolve_means(me, init, grid)
    second = gqbm.evolve_covariances(me, init, grid)
    quads = [gqbm.to_quadratures(
        gqbm.GaussianMoments(delta_n=second.delta_n[m],
                             delta_s=second.delta_s[m]), 1.0, omega_s)
        for m in range(grid.n_steps + 1)]
    return {"grid": grid, "sol": sol, "me": me, "init": init, "mean": mean,
            "second": second, "quads": quads}


def check_tabulated(gqbm, size, seed, out, state, scale):
    """Criterion 4 on the ODE moments, plus the commutator drift monitor."""
    sol, init, second = state["sol"], state["init"], state["second"]
    n0 = np.array([[init.delta_n, init.delta_s],
                   [np.conj(init.delta_s), 1.0 + init.delta_n]])
    recon = (np.einsum("tab,bc,tdc->tad", sol.u, n0, np.conj(sol.u))
             + sol.v_equal_time)
    direct = (sol.u[:, 0, 0] * init.mean_a
              + sol.u[:, 0, 1] * np.conj(init.mean_a))
    recon_dev = max(float(np.max(np.abs(second.n_matrix() - recon))),
                    float(np.max(np.abs(state["mean"] - direct))))
    drift_tol = gqbm.moments.COMMUTATOR_DRIFT_TOL
    quads, mean = state["quads"], state["mean"]
    write_csv(out / "moments.csv", {
        "t": state["grid"].times, "re_mean_a": mean.real,
        "im_mean_a": mean.imag, "delta_n": second.delta_n,
        "re_delta_s": second.delta_s.real, "im_delta_s": second.delta_s.imag,
        "var_x": np.array([q.var_x for q in quads]),
        "var_p": np.array([q.var_p for q in quads]),
        "cov_xp": np.array([q.cov_xp for q in quads])})
    return {"acc.recon_dev": (recon_dev, RECON_TOL),
            "acc.commutator_drift": (second.max_commutator_drift, drift_tol),
            "acc.structure_residual": (state["me"].structure_residual, None)}


WORKLOADS = {
    "fig2": (run_fig2, check_fig2),
    "oracle": (run_oracle, check_oracle),
    "quench": (run_quench, check_quench),
    "tabulated": (run_tabulated, check_tabulated),
}
