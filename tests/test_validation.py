"""Bad input is rejected where the library first receives it, before any solve."""

import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqbm
import gqbm.cli as cli
import gqbm.pipelines as pipelines
from gqbm.errors import ValidationError

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

MODEL = gqbm.SpectralModel(temperature=0.01)
GRID = gqbm.TimeGrid(t_end=2.0, n_steps=20)
BATH = gqbm.discretize_bath(MODEL, 8, 12.0)
DYN = gqbm.build_dynamics(BATH, 0.5)
KERNELS = {"continuum": gqbm.build_kernels(MODEL),
           "bath": gqbm.kernels_from_bath(BATH)}


def _moments(**kw):
    return gqbm.GaussianMoments(**kw)


def _dynamics_with(name, x):
    value = x if name == "omega_s" else np.append(getattr(DYN, name)[:-1], x)
    return replace(DYN, **{name: value})


ENTRY_POINTS = {
    "SpectralModel.gamma0": lambda x: gqbm.SpectralModel(gamma0=x),
    "SpectralModel.cutoff": lambda x: gqbm.SpectralModel(cutoff=x),
    "SpectralModel.alpha": lambda x: gqbm.SpectralModel(alpha=x),
    "SpectralModel.temperature": lambda x: gqbm.SpectralModel(temperature=x),
    "SpectralModel.tab_omega": lambda x: gqbm.SpectralModel(
        family="tabulated", tab_omega=[0.0, x, 2.0], tab_j=[0.0, 1.0, 0.0]),
    "SpectralModel.tab_j": lambda x: gqbm.SpectralModel(
        family="tabulated", tab_omega=[0.0, 1.0, 2.0], tab_j=[0.0, x, 0.0]),
    "TimeGrid.t_end": lambda x: gqbm.TimeGrid(t_end=x, n_steps=8),
    "TimeGrid.n_steps": lambda x: gqbm.TimeGrid(t_end=1.0, n_steps=x),
    "TimeGrid.max_frequency": lambda x: gqbm.TimeGrid(
        t_end=1.0, n_steps=8, max_frequency=x),
    "GaussianMoments.mean_a.real": lambda x: _moments(mean_a=complex(x, 0.0)),
    "GaussianMoments.mean_a.imag": lambda x: _moments(mean_a=complex(0.0, x)),
    "GaussianMoments.delta_n": lambda x: _moments(delta_n=x),
    "GaussianMoments.delta_s.real": lambda x: _moments(delta_s=complex(x, 0.0)),
    "GaussianMoments.delta_s.imag": lambda x: _moments(delta_s=complex(0.0, x)),
    "to_quadratures.mass": lambda x: gqbm.to_quadratures(_moments(), mass=x),
    "to_quadratures.omega_s": lambda x: gqbm.to_quadratures(
        _moments(), omega_s=x),
    "quadratures_to_moments.mass": lambda x: gqbm.quadratures_to_moments(
        gqbm.QuadratureCovariances(0.5, 0.5, 0.0), mass=x),
    "quadratures_to_moments.omega_s": lambda x: gqbm.quadratures_to_moments(
        gqbm.QuadratureCovariances(0.5, 0.5, 0.0), omega_s=x),
    "quadratures_to_moments.var_x": lambda x: gqbm.quadratures_to_moments(
        gqbm.QuadratureCovariances(x, 0.5, 0.0)),
    "discretize_bath.omega_max": lambda x: gqbm.discretize_bath(MODEL, 8, x),
    "discretize_bath.n_modes": lambda x: gqbm.discretize_bath(MODEL, x, 12.0),
    "build_dynamics.omega_s": lambda x: gqbm.build_dynamics(BATH, x),
    "LinearDynamics.omega_s": lambda x: _dynamics_with("omega_s", x),
    "LinearDynamics.frequencies": lambda x: _dynamics_with("frequencies", x),
    "LinearDynamics.v_couplings": lambda x: _dynamics_with("v_couplings", x),
    "LinearDynamics.w_couplings": lambda x: _dynamics_with("w_couplings", x),
    "thermal_total_state.temperature": lambda x: gqbm.thermal_total_state(
        DYN, x, 0.5),
    "thermal_total_state.omega_s0": lambda x: gqbm.thermal_total_state(
        DYN, 0.01, x),
    "solve_u.omega_s": lambda x: gqbm.solve_u(KERNELS["continuum"], x, GRID),
}
for _label, _kernel in KERNELS.items():
    ENTRY_POINTS[f"Kernel.g.{_label}"] = (
        lambda x, k=_kernel: k.g(np.array([0.5, x])))
    ENTRY_POINTS[f"Kernel.gtilde.{_label}"] = (
        lambda x, k=_kernel: k.gtilde(np.array([x])))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(deadline=None)
@given(value=NON_FINITE)
def test_non_finite_input_is_a_validation_error(entry, value):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ["TimeGrid.n_steps", "discretize_bath.n_modes"])
def test_fractional_count_is_a_validation_error(entry):
    with pytest.raises(ValidationError, match="must be an integer"):
        ENTRY_POINTS[entry](100.5)


def test_numpy_integer_counts_are_accepted():
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=np.int64(100))
    assert grid.n_steps == 100 and type(grid.n_steps) is int
    assert grid.dt == 0.01
    assert gqbm.discretize_bath(MODEL, np.int32(8), 12.0).n_modes == 8


def test_nan_offset_into_the_thermal_quadrature_is_a_validation_error():
    kernel = gqbm.build_kernels(gqbm.SpectralModel(temperature=0.01))
    with pytest.raises(ValidationError, match="offsets must be finite"):
        kernel.gtilde(np.array([np.nan]))


def test_linear_dynamics_needs_one_length():
    with pytest.raises(ValidationError, match="one length"):
        gqbm.LinearDynamics(omega_s=0.5, frequencies=DYN.frequencies,
                            v_couplings=DYN.v_couplings[:-1],
                            w_couplings=DYN.w_couplings)


def test_volterra_tables_are_bounded_before_allocation():
    n = 6000
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=n)
    u = np.zeros((n + 1, 2, 2), dtype=complex)
    sol = gqbm.GreensSolution(grid=grid, omega_s=0.5, u=u, u_dot=u)
    with pytest.raises(ValidationError, match="n_steps = 6000"):
        gqbm.solve_v_volterra(KERNELS["continuum"], sol)
    need = 128 * (n + 1) ** 2
    assert need > gqbm.greens.VOLTERRA_TABLE_BUDGET_BYTES
    gqbm.greens.require_volterra_budget(2000)   # the paper grid fits


def test_recurrence_horizon_is_known_before_propagation():
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=20)
    assert gqbm.propagate(DYN, grid).recurrence_horizon == DYN.recurrence_horizon
    spacing = np.min(np.diff(np.sort(BATH.frequencies)))
    assert DYN.recurrence_horizon == (
        gqbm.oracle.RECURRENCE_GUARD * 2.0 * math.pi / spacing)
    single = gqbm.discretize_bath(MODEL, 1, 12.0)
    assert gqbm.build_dynamics(single, 0.5).recurrence_horizon == math.inf


def test_repeated_frequencies_keep_the_recurrence_guard():
    # degenerate modes are one bright mode plus dark modes: the spacing that
    # sets the revival is the one between distinct frequencies
    coupling = np.full(3, 0.1)
    dyn = gqbm.LinearDynamics(omega_s=0.5, frequencies=[1.0, 1.0, 1.5],
                              v_couplings=coupling, w_couplings=coupling)
    assert dyn.recurrence_horizon == pytest.approx(
        gqbm.oracle.RECURRENCE_GUARD * 2.0 * math.pi / 0.5)
    flat = gqbm.LinearDynamics(omega_s=0.5, frequencies=[1.0, 1.0, 1.0],
                               v_couplings=coupling, w_couplings=coupling)
    assert flat.recurrence_horizon == math.inf


def test_reduced_moments_rejects_an_unphysical_initial_state():
    # delta_n (delta_n + 1) - |delta_s|^2 = -0.25
    prop = gqbm.propagate(DYN, gqbm.TimeGrid(t_end=1.0, n_steps=20))
    with pytest.raises(ValidationError, match="uncertainty bound"):
        gqbm.reduced_moments(prop, BATH,
                             gqbm.GaussianMoments(delta_n=0.0, delta_s=0.5))


def test_second_moments_is_the_hand_built_reconstruction():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    v = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    init = gqbm.GaussianMoments(delta_n=0.3, delta_s=0.2 - 0.1j)
    n0 = np.array([[init.delta_n, init.delta_s],
                   [np.conj(init.delta_s), 1.0 + init.delta_n]])
    assert np.array_equal(init.n_matrix(), n0)
    by_hand = np.einsum("tab,bc,tdc->tad", u, n0, np.conj(u))
    assert np.array_equal(gqbm.greens.second_moments(u, init.n_matrix(), v),
                          by_hand + v)
    assert np.array_equal(gqbm.greens.second_moments(u, init.n_matrix()),
                          by_hand)


def test_to_quadratures_maps_a_series_elementwise():
    series = gqbm.SecondMomentSeries(
        times=np.arange(3.0), delta_n=np.array([0.0, 0.2, 1.5]),
        delta_s=np.array([0.0, 0.1 + 0.3j, -0.4j]), max_commutator_drift=0.0)
    quads = gqbm.to_quadratures(series, mass=1.7, omega_s=0.45)
    for m in range(3):
        row = gqbm.to_quadratures(
            gqbm.GaussianMoments(delta_n=series.delta_n[m],
                                 delta_s=series.delta_s[m]), 1.7, 0.45)
        assert (quads.var_x[m], quads.var_p[m], quads.cov_xp[m]) == (
            row.var_x, row.var_p, row.cov_xp)
    assert np.array_equal(series.n_matrix()[1], gqbm.GaussianMoments(
        delta_n=0.2, delta_s=0.1 + 0.3j).n_matrix())


# ---- the CLI rejects bad values before solve_u or propagate runs ----------
# The sentinels replace solve_u and propagate where gqbm.pipelines resolves
# them; a positive control shows that every solving pipeline reaches them.


FLOAT_KEYS = [f.name for f in fields(cli.RunConfig)
              if f.type in ("float", "float | None")]
QUANTITY = {"init_mean_re": "mean_a", "init_mean_im": "mean_a",
            "init_delta_n": "delta_n", "init_delta_s_re": "delta_s",
            "init_delta_s_im": "delta_s", "oracle_omega_max": "omega_max",
            "quench_omega_s0": "omega_s0"}
FLAG = {"quench_omega_s0": "--quench-from"}
GRID_ARGS = ["--t-end=2", "--steps=200"]
ORACLE_ARGS = ["--oracle-modes=60", "--oracle-omega-max=12"]


def _pipeline_args(key: str) -> list[str]:
    if key == "oracle_omega_max":
        return ["oracle-compare"] + GRID_ARGS + ORACLE_ARGS
    if key == "quench_omega_s0":
        return ["oracle-compare", "--omega-s=0.3"] + GRID_ARGS + ORACLE_ARGS
    return ["evolve"] + GRID_ARGS


CASES = [(_pipeline_args(key)
          + [f"{FLAG.get(key, '--' + key.replace('_', '-'))}={value}"],
          QUANTITY.get(key, key))
         for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")]
CASES += [
    (["evolve", "--mass=0"] + GRID_ARGS, "mass"),
    (["evolve", "--omega-s=-0.5"] + GRID_ARGS, "omega_s"),
    (["oracle-compare", "--t-end=20", "--steps=2000", "--oracle-modes=60",
      "--oracle-omega-max=12", "--oracle-scheme=linear-midpoint"],
     "recurrence"),
    (["jolt-sweep", "--alpha-list=0,nan"] + GRID_ARGS, "alpha_list"),
    (["reproduce-fig2", "--workers=-1"] + GRID_ARGS, "workers"),
    (["coeffs", "--crosscheck", "--steps=6000"], "n_steps"),
]


class _SolveReached(Exception):
    pass


def _sentinel(name):
    def reached(*args, **kwargs):
        raise _SolveReached(f"{name} ran before the input was rejected")
    return reached


def _install_sentinels(monkeypatch):
    monkeypatch.setattr(os, "environ", {})
    monkeypatch.setattr(pipelines.greens, "solve_u", _sentinel("solve_u"))
    monkeypatch.setattr(pipelines.oracle, "propagate", _sentinel("propagate"))


@pytest.mark.parametrize("argv, quantity", CASES,
                         ids=[" ".join(a) for a, _ in CASES])
def test_cli_rejects_bad_values_before_any_solve(argv, quantity, tmp_path,
                                                 monkeypatch, capsys):
    _install_sentinels(monkeypatch)
    code = cli.main(argv + ["--out", str(tmp_path / "x")])
    assert code == cli.EXIT_VALIDATION
    assert quantity in capsys.readouterr().err


VALID = [
    ["greens"] + GRID_ARGS,
    ["coeffs"] + GRID_ARGS,
    ["evolve"] + GRID_ARGS,
    ["jolt-sweep", "--workers=1"] + GRID_ARGS,
    ["reproduce-fig2", "--workers=1"] + GRID_ARGS,
    ["oracle-compare"] + GRID_ARGS + ORACLE_ARGS,
    ["oracle-compare", "--alpha=0.5", "--omega-s=0.3", "--quench-from=0.6"]
    + GRID_ARGS + ORACLE_ARGS,
]


@pytest.mark.parametrize("argv", VALID, ids=[" ".join(a) for a in VALID])
def test_a_valid_run_reaches_the_sentinels(argv, tmp_path, monkeypatch):
    _install_sentinels(monkeypatch)
    with pytest.raises(_SolveReached):
        cli.main(argv + ["--out", str(tmp_path / "x")])


def test_crosscheck_is_a_flag_of_greens_and_coeffs_only(monkeypatch, capsys):
    _install_sentinels(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--crosscheck"] + GRID_ARGS)
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "--crosscheck" in capsys.readouterr().err


def test_crosscheck_budget_is_checked_before_the_library_solves(monkeypatch):
    _install_sentinels(monkeypatch)
    grid = gqbm.TimeGrid(t_end=30.0, n_steps=6000)
    with pytest.raises(ValidationError, match="n_steps = 6000"):
        pipelines.coefficient_run(MODEL, 0.5, grid, crosscheck=True)
    with pytest.raises(_SolveReached):
        pipelines.coefficient_run(MODEL, 0.5, grid)


def test_fig2_validates_the_configuration_it_pins(tmp_path, monkeypatch):
    """An omega_s the pinned model replaces does not have to fit the grid."""
    monkeypatch.setattr(os, "environ", {})
    code = cli.main(["reproduce-fig2", "--omega-s=10", "--workers=1",
                     "--out", str(tmp_path / "x")] + GRID_ARGS)
    assert code == cli.EXIT_OK
