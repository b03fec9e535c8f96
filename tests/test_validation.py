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
from gqbm.errors import (
    MEMORY_BUDGET_BYTES,
    ValidationError,
    require,
    require_budget,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

MODEL = gqbm.SpectralModel(temperature=0.01)
GRID = gqbm.TimeGrid(t_end=2.0, n_steps=20)
BATH = gqbm.discretize_bath(MODEL, 8, 12.0)
DYN = gqbm.build_dynamics(BATH, 0.5)
PROP = gqbm.propagate(DYN, GRID)
KERNELS = {"continuum": gqbm.build_kernels(MODEL),
           "bath": gqbm.kernels_from_bath(BATH)}


def _moments(**kw):
    return gqbm.GaussianMoments(**kw)


def _table_with(x):
    table = np.zeros((PROP.dim, PROP.dim), dtype=complex)
    table[3, 1] = x
    return table


def _dynamics_with(name, x):
    value = x if name == "omega_s" else np.append(getattr(DYN, name)[:-1], x)
    return replace(DYN, **{name: value})


def _bath_with(name, x):
    return replace(BATH, **{name: np.append(getattr(BATH, name)[:-1], x)})


def _u_with(x):
    # an identity propagator with one bad entry at step 5
    u = np.tile(np.eye(2, dtype=complex), (GRID.n_steps + 1, 1, 1))
    u[5, 0, 1] = x
    return u


def _hpz_covariances_from(**init):
    zeros = np.zeros(GRID.n_steps + 1)
    hpz = gqbm.HpzCoefficients(
        times=GRID.times, delta_omega_sq=zeros, gamma_damping=zeros,
        gamma_h=zeros, gamma_f=zeros, omega_p_sq=zeros + 0.25,
        residual_freq=zeros, residual_damping=zeros, residual_diffusion=zeros)
    cov = dict(var_x=0.5, var_p=0.5, cov_xp=0.0) | init
    return gqbm.evolve_hpz_covariances(
        hpz, gqbm.QuadratureCovariances(**cov), GRID, omega_s=0.5)


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
    "n_bar.omega": lambda x: gqbm.n_bar(np.array([0.5, x]), 0.01),
    "n_bar.temperature": lambda x: gqbm.n_bar(np.array([0.5]), x),
    "eval_spectral_density.omega": lambda x: gqbm.eval_spectral_density(
        MODEL, np.array([0.5, x])),
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
    "solve_v_fdt.u": lambda x: gqbm.solve_v_fdt(KERNELS["continuum"],
                                                _u_with(x), GRID),
    "correlated_correction.u": lambda x: gqbm.correlated_correction(
        BATH, gqbm.InitialCorrelations(n_prime=np.zeros(8),
                                       s_prime=np.zeros(8)), _u_with(x), GRID),
    "exact_moments.product_table.real": lambda x: gqbm.exact_moments(
        PROP, _table_with(complex(x, 0.0))),
    "exact_moments.product_table.imag": lambda x: gqbm.exact_moments(
        PROP, _table_with(complex(0.0, x))),
    "InitialCorrelations.n_prime": lambda x: gqbm.InitialCorrelations(
        n_prime=[0.1, complex(x, 0.0)], s_prime=[0.0, 0.0]),
    "InitialCorrelations.s_prime": lambda x: gqbm.InitialCorrelations(
        n_prime=[0.1, 0.0], s_prime=[0.0, complex(0.0, x)]),
    "evolve_hpz_covariances.var_x": lambda x: _hpz_covariances_from(var_x=x),
    "evolve_hpz_covariances.var_p": lambda x: _hpz_covariances_from(var_p=x),
    "evolve_hpz_covariances.cov_xp": lambda x: _hpz_covariances_from(cov_xp=x),
}
for _name in ("frequencies", "weights", "v_couplings", "occupations"):
    ENTRY_POINTS[f"BathDiscretization.{_name}"] = (
        lambda x, name=_name: _bath_with(name, x))
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


def test_negative_temperature_into_n_bar_is_a_validation_error():
    with pytest.raises(ValidationError, match="temperature must be >= 0"):
        gqbm.n_bar(np.array([0.5]), -0.1)


def test_nan_offset_into_the_thermal_quadrature_is_a_validation_error():
    # a tabulated density's gtilde_v is its Bose sum, one _exp_sum per term;
    # the ohmic closed form is covered by
    # ENTRY_POINTS["Kernel.gtilde.continuum"]
    kernel = gqbm.build_kernels(gqbm.SpectralModel(
        family="tabulated", temperature=0.01, tab_omega=[0.0, 1.0, 2.0],
        tab_j=[0.0, 1.0, 0.0]))
    with pytest.raises(ValidationError, match="offsets must be finite"):
        kernel.gtilde(np.array([np.nan]))


SHAPE_CASES = {
    # entry: (the construction, what its message names)
    "LinearDynamics.v_couplings.short": (
        lambda: replace(DYN, v_couplings=DYN.v_couplings[:-1]),
        "must have one length, got frequencies 8, v_couplings 7, "
        "w_couplings 8"),
    "LinearDynamics.v_couplings.complex": (
        lambda: replace(DYN, v_couplings=DYN.v_couplings + 0j),
        "v_couplings must be a 1-d array of reals"),
    # one occupation for an 8-mode bath was broadcast to every mode
    "BathDiscretization.occupations.short": (
        lambda: replace(BATH, occupations=np.array([0.5])),
        "must have one length, got frequencies 8, weights 8, "
        "v_couplings 8, occupations 1"),
    "BathDiscretization.v_couplings.long": (
        lambda: replace(BATH, v_couplings=np.append(BATH.v_couplings, 0.1)),
        "v_couplings 9"),
    "BathDiscretization.weights.2-d": (
        lambda: replace(BATH, weights=BATH.weights[:, None]),
        r"weights must be a 1-d array of reals, got shape \(8, 1\)"),
    "BathDiscretization.frequencies.0-d": (
        lambda: replace(BATH, frequencies=np.float64(1.0)),
        r"frequencies must be a 1-d array of reals, got shape \(\)"),
}


@pytest.mark.parametrize("entry", sorted(SHAPE_CASES))
def test_arrays_of_the_wrong_shape_are_a_validation_error(entry):
    make, message = SHAPE_CASES[entry]
    with pytest.raises(ValidationError, match=message):
        make()


def test_volterra_tables_are_bounded_before_allocation():
    n = 6000
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=n)
    u = np.zeros((n + 1, 2, 2), dtype=complex)
    sol = gqbm.GreensSolution(grid=grid, omega_s=0.5, u=u, u_dot=u)
    with pytest.raises(ValidationError, match="n_steps = 6000"):
        gqbm.solve_v_volterra(KERNELS["continuum"], sol)
    need = 128 * (n + 1) ** 2
    assert need > gqbm.errors.MEMORY_BUDGET_BYTES
    gqbm.greens.require_volterra_budget(2000)   # the paper grid fits


# One NaN sample of the thermal kernel Gt at step 5 of a 40-step grid.
# Every V route reads Gt through Kernel.gtilde_signed_table, which rejects
# it, naming t = 0.25: no route may return NaN or report a runaway instead.
NAN_GRID = gqbm.TimeGrid(t_end=2.0, n_steps=40)


def _kernel_with_nan_gtilde():
    base = KERNELS["continuum"]
    bad_time = NAN_GRID.times[5]

    def gtilde_v(dt):
        return np.where(np.asarray(dt) == bad_time, np.nan, base.gtilde_v(dt))

    return gqbm.Kernel(g_v=base.g_v, gtilde_v=gtilde_v, alpha=base.alpha,
                       temperature=base.temperature, cutoff=base.cutoff)


def _v_route_on_nan_gtilde(route):
    kernel = _kernel_with_nan_gtilde()
    sol = gqbm.solve_u(kernel, 0.5, NAN_GRID)   # U reads G alone
    if route == "solve_v_fdt":
        return gqbm.solve_v_fdt(kernel, sol.u, NAN_GRID)
    if route == "compute_k_lambda":
        sol.v_equal_time = np.zeros_like(sol.u)
        return gqbm.compute_k_lambda(sol, kernel)
    return gqbm.solve_v_volterra(kernel, sol)


@pytest.mark.parametrize("route", ["solve_v_fdt", "compute_k_lambda",
                                   "solve_v_volterra"])
def test_a_nan_thermal_kernel_sample_is_a_validation_error(route):
    with pytest.raises(ValidationError,
                       match=r"\|Gt\| reached nan at t = 0\.25 "):
        _v_route_on_nan_gtilde(route)


REQUIRE_CASES = {
    # domain: (values inside, values outside); every domain implies finite,
    # and each array outside first leaves the domain at entry 1
    "finite": ([0.0, -1e300, 2 - 3j, np.float32(1.5), np.array([1.0, -2.0]),
              np.array([[1j, 0.0]])],
             [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
              complex(0.0, math.inf), np.float64(math.nan),
              np.array([0.0, math.nan, math.inf]),
              np.array([[1.0, complex(0.0, -math.inf)]])]),
    "> 0": ([1e-300, 2.0, 3, np.float32(0.5), np.array([0.5, 3.0])],
               [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                np.array([1.0, 0.0, -1.0]), np.array([1.0, math.nan])]),
    ">= 0": ([0.0, -0.0, 2.0, 0, np.array([0.0, 3.0])],
                  [-1e-300, -1, math.nan, math.inf, -math.inf,
                   np.array([1.0, -1.0]), np.array([[0.0, math.inf]])]),
    "in [0, 1]": ([0.0, 0.5, 1.0, 1, np.array([0.0, 1.0])],
           [-1e-300, 1.0 + 2**-52, math.nan, math.inf, -math.inf,
            np.array([0.5, 2.0, -1.0])]),
}


@pytest.mark.parametrize("domain", REQUIRE_CASES)
def test_require_accepts_its_domain_and_names_the_first_entry_outside(domain):
    inside, outside = REQUIRE_CASES[domain]
    for value in inside:
        assert require("q", value, domain) is value
    for value in outside:
        with pytest.raises(ValidationError) as exc:
            require("q", value, domain)
        message = str(exc.value)
        assert message.startswith(f"q must be {domain}")
        assert message.endswith(" at entry 1") == bool(np.ndim(value))


def test_require_budget_names_the_need_and_the_one_budget():
    require_budget("a store", MEMORY_BUDGET_BYTES, "vectors")   # fits exactly
    with pytest.raises(ValidationError) as exc:
        require_budget("a store at n = 9", 1.5 * 2**30, "vectors")
    assert str(exc.value) == ("a store at n = 9 needs 1.50 GiB of vectors, "
                              "above the 1.00 GiB budget (MEMORY_BUDGET_BYTES)")


@pytest.mark.parametrize("t_end, n_steps", [(3.0, 20000), (2.0, 49),
                                            (0.7, 311), (10.0, 2000)])
def test_grid_times_are_the_lattice(t_end, n_steps):
    # linspace missed k * dt by an ulp at (3, 20000) and (2, 49), which sent
    # every kernel transform on the grid to the direct O(n N) sum
    times = gqbm.TimeGrid(t_end=t_end, n_steps=n_steps).times
    assert times.size == n_steps + 1 and times[0] == 0.0
    assert np.array_equal(times, np.arange(n_steps + 1) * times[1])
    assert times[-1] == pytest.approx(t_end, rel=4 * np.finfo(float).eps)


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


def test_exact_moments_checks_its_table_before_reading_rows(monkeypatch):
    monkeypatch.setattr(gqbm.oracle, "_moments_from_rows",
                        _sentinel("_moments_from_rows"))
    with pytest.raises(ValidationError, match="product_table entries"):
        gqbm.exact_moments(PROP, _table_with(math.nan))
    # a shape mismatch is reported as such, NaN or not
    with pytest.raises(ValidationError, match="product table shape"):
        gqbm.exact_moments(PROP, np.full((4, 4), math.nan, dtype=complex))


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


def _hand_built_series():
    delta_n = np.array([0.0, 0.2, 1.5])
    return gqbm.SecondMomentSeries(
        times=np.arange(3.0), delta_n=delta_n,
        delta_s=np.array([0.0, 0.1 + 0.3j, -0.4j]), delta_h=1.0 + delta_n,
        max_commutator_drift=0.0)


@pytest.mark.parametrize("make_series", [
    pytest.param(_hand_built_series, id="hand-built"),
    pytest.param(lambda: gqbm.reduced_moments(
        PROP, BATH, gqbm.GaussianMoments(delta_n=0.3, delta_s=0.1 + 0.2j)),
        id="oracle"),
])
def test_to_quadratures_maps_a_series_elementwise(make_series):
    series = make_series()
    quads = gqbm.to_quadratures(series, mass=1.7, omega_s=0.45)
    for m in range(series.times.size):
        moments = gqbm.GaussianMoments(delta_n=series.delta_n[m],
                                       delta_s=series.delta_s[m])
        row = gqbm.to_quadratures(moments, 1.7, 0.45)
        assert (quads.var_x[m], quads.var_p[m], quads.cov_xp[m]) == (
            row.var_x, row.var_p, row.cov_xp)
        # the series' propagated delta_h takes the place of 1 + delta_n
        want = moments.n_matrix()
        want[1, 1] = series.delta_h[m]
        assert np.array_equal(series.n_matrix()[m], want)


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
    (["coeffs", "--temperature=1e200"] + GRID_ARGS, "temperature"),
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


@pytest.mark.parametrize("pipeline, source", [("evolve", "environment"),
                                              ("kernels", "config file")])
def test_crosscheck_is_rejected_where_none_runs(pipeline, source, tmp_path,
                                                monkeypatch, capsys):
    _install_sentinels(monkeypatch)
    argv = [pipeline, "--out", str(tmp_path / "x")] + GRID_ARGS
    if source == "environment":
        monkeypatch.setattr(os, "environ", {"GQBM_CROSSCHECK": "1"})
    else:
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ncrosscheck = true\n")
        argv += ["--config", str(ini)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "crosscheck" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_crosscheck_budget_is_checked_before_the_library_solves(monkeypatch):
    _install_sentinels(monkeypatch)
    grid = gqbm.TimeGrid(t_end=30.0, n_steps=6000)
    with pytest.raises(ValidationError, match="n_steps = 6000"):
        pipelines.coefficient_run(MODEL, 0.5, grid, crosscheck=True)
    with pytest.raises(_SolveReached):
        pipelines.coefficient_run(MODEL, 0.5, grid)


def test_fig2_validates_the_configuration_it_pins(tmp_path, monkeypatch):
    """An omega_s the pinned model replaces does not have to fit the grid."""
    monkeypatch.setattr(os, "environ", {"GQBM_OMEGA_S": "10"})
    code = cli.main(["reproduce-fig2", "--workers=1",
                     "--out", str(tmp_path / "x")] + GRID_ARGS)
    assert code == cli.EXIT_OK
