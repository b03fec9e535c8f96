"""Finite-bath oracle: generator structure, propagation, thermal states."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

import gqbm
from gqbm import moments, oracle
from gqbm.errors import (
    InstabilityError,
    NumericalQualityError,
    ValidationError,
)
from gqbm.spectral import n_bar

from conftest import (
    StoredPropagator,
    dense_generator,
    make_model,
    runaway_bath,
    stored_rows,
)


def _random_dynamics(n_modes=12, alpha_like=True, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 0.1, n_modes)
    w = rng.normal(0.0, 0.05, n_modes) if alpha_like else np.zeros(n_modes)
    return gqbm.LinearDynamics(
        omega_s=0.7, frequencies=rng.uniform(0.1, 2.0, n_modes),
        v_couplings=v, w_couplings=w)


# ---- generator structure ----------------------------------------------------


def test_generator_without_modes():
    dyn = gqbm.LinearDynamics(omega_s=0.4, frequencies=np.zeros(0),
                              v_couplings=np.zeros(0), w_couplings=np.zeros(0))
    assert dyn.dim == 2
    np.testing.assert_array_equal(
        dense_generator(dyn), np.diag([-0.4j, 0.4j]))


def test_generator_blocks_without_pairing():
    bath = gqbm.discretize_bath(make_model(0.0), 8, 20.0)
    g = dense_generator(gqbm.build_dynamics(bath, 0.3))
    # no pairing: a never couples to daggered bath operators and vice versa
    assert np.all(g[0, 3::2] == 0.0)
    assert np.all(g[1, 2::2] == 0.0)
    assert np.all(g[2::2, 1] == 0.0)
    assert np.all(g[3::2, 0] == 0.0)


def test_sigma_times_generator_is_anti_hermitian():
    dyn = _random_dynamics()
    m = np.diag(dyn.sigma().astype(complex)) @ dense_generator(dyn)
    assert np.max(np.abs(m + np.conj(m).T)) == 0.0


def _heisenberg_generator(dyn):
    """Dense generator written entry by entry from dA/dt = i [H, A] with
    H = w_s a^dag a + sum_k [w_k b_k^dag b_k + V_k (a^dag b_k + b_k^dag a)
                             + W_k (a^dag b_k^dag + b_k a)]."""
    g = np.zeros((dyn.dim, dyn.dim), dtype=complex)
    g[0, 0], g[1, 1] = -1j * dyn.omega_s, 1j * dyn.omega_s
    for k in range(dyn.n_modes):
        b, bd = 2 * k + 2, 2 * k + 3
        wk = dyn.frequencies[k]
        vk, pk = dyn.v_couplings[k], dyn.w_couplings[k]
        # da/dt = -i (w_s a + sum_k V_k b_k + W_k b_k^dag), and its adjoint
        g[0, b], g[0, bd] = -1j * vk, -1j * pk
        g[1, bd], g[1, b] = 1j * vk, 1j * pk
        # db_k/dt = -i (w_k b_k + V_k a + W_k a^dag), and its adjoint
        g[b, b], g[b, 0], g[b, 1] = -1j * wk, -1j * vk, -1j * pk
        g[bd, bd], g[bd, 1], g[bd, 0] = 1j * wk, 1j * vk, 1j * pk
    return g


def test_arrowhead_generator_matches_heisenberg_equations():
    dyn = _random_dynamics(n_modes=7, seed=11)
    ref = _heisenberg_generator(dyn)
    np.testing.assert_array_equal(dense_generator(dyn), ref)
    # H = i sigma G: its diagonal and system rows are the arrowhead
    h = 1j * dyn.sigma()[:, None] * ref
    diag, coupling = dyn.arrowhead()
    np.testing.assert_array_equal(diag, np.diag(h).real)
    np.testing.assert_array_equal(coupling, h[:2, 2:].real)
    # propagate's step 2 B x with B = G^T i/R against the dense product
    norm, twice_b = oracle._chebyshev_operator(dyn)
    assert norm == pytest.approx(np.max(np.sum(np.abs(ref), axis=1)),
                                 rel=1e-15)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(dyn.dim, 1)) + 1j * rng.normal(size=(dyn.dim, 1))
    out = np.empty_like(x)
    twice_b(x.view(float), out.view(float))
    np.testing.assert_allclose(0.5 * out, ref.T @ x * (1j / norm), rtol=0.0,
                               atol=1e-15)


def test_energy_form_is_conserved_by_the_flow():
    # H = A^dag M A with M = i Sigma G Hermitian; the exact flow must keep
    # S^dag M S = M and the metric S^dag Sigma S = Sigma
    dyn = _random_dynamics()
    g = dense_generator(dyn)
    sig = np.diag(dyn.sigma().astype(complex))
    m_h = 1j * sig @ g
    assert np.max(np.abs(m_h - np.conj(m_h).T)) == 0.0
    s = expm(g * 3.7)
    assert np.max(np.abs(np.conj(s).T @ m_h @ s - m_h)) < 1e-12
    assert np.max(np.abs(np.conj(s).T @ sig @ s - sig)) < 1e-12


def test_build_dynamics_rejects_nonfinite_frequency():
    bath = gqbm.discretize_bath(make_model(0.5), 8, 20.0)
    with pytest.raises(ValidationError):
        gqbm.build_dynamics(bath, math.inf)


# ---- propagation ------------------------------------------------------------


def test_zero_coupling_free_phases():
    bath = gqbm.discretize_bath(make_model(0.5, gamma0=0.0), 5, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.25)
    grid = gqbm.TimeGrid(t_end=4.0, n_steps=200, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    t = grid.times
    free = np.zeros((t.size, 2, 2), dtype=complex)
    free[:, 0, 0] = np.exp(-0.25j * t)
    free[:, 1, 1] = np.exp(0.25j * t)
    assert np.max(np.abs(prop.u_series - free)) < 1e-10


def test_march_matches_dense_exponential():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 250, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=100, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    s_full = expm(dense_generator(dyn) * grid.t_end)
    assert np.max(np.abs(stored_rows(prop)[-1] - s_full[:2, :])) < 1e-9


def test_march_preserves_symplectic_metric():
    model = make_model(1.0)
    bath = gqbm.discretize_bath(model, 500, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.0138)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=250, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    sig = dyn.sigma()
    sys_metric = np.diag([1.0, -1.0])
    worst = 0.0
    rows = stored_rows(prop)
    for m in (50, 125, 250):
        r = rows[m]
        worst = max(worst, float(np.max(np.abs(
            (r * sig) @ np.conj(r).T - sys_metric))))
    assert worst < 1e-8


def test_oracle_converges_to_kernel_route(omega_s):
    # two fully independent routes to U must approach each other as the
    # bath discretization refines (midpoint rule: second order in 1/N)
    model = make_model(0.5)
    kernel = gqbm.build_kernels(model)
    grid = gqbm.TimeGrid(t_end=5.0, n_steps=250, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    devs = []
    for n in (60, 120, 250, 500):
        bath = gqbm.discretize_bath(model, n, 20.0)
        prop = gqbm.propagate(gqbm.build_dynamics(bath, omega_s), grid)
        devs.append(float(np.max(np.abs(prop.u_series - sol.u))))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[0] / devs[1] > 3.0  # near the expected factor 4
    assert devs[-1] < 1e-5


def test_recurrence_horizon_scaling():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 5, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    grid = gqbm.TimeGrid(t_end=0.5, n_steps=10, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    assert prop.recurrence_horizon == pytest.approx(0.5 * 2.0 * math.pi / 4.0)
    with pytest.warns(RuntimeWarning, match="covers only"):
        single = gqbm.discretize_bath(model, 1, 2.0)
    prop1 = gqbm.propagate(gqbm.build_dynamics(single, 0.3), grid)
    assert prop1.recurrence_horizon == math.inf


def _unique_horizon(freqs):
    """The horizon read off np.unique, as LinearDynamics computed it before."""
    distinct = np.unique(freqs)
    if distinct.size < 2:
        return math.inf
    spacing = float(np.min(np.diff(distinct)))
    return oracle.RECURRENCE_GUARD * 2.0 * math.pi / max(spacing, 1e-300)


@pytest.mark.parametrize("freqs", [
    [0.7], [0.7, 0.7, 0.7], [1.1, 0.3, 2.0, 0.3, 1.1, 1.1],
    [-0.5, 0.0, -0.0, 0.5, 0.5 + 1e-12],
    np.random.default_rng(5).uniform(0.0, 20.0, 400)],
    ids=["single", "repeated", "repeated-and-distinct", "signed", "distinct"])
def test_recurrence_horizon_equals_the_unique_route(freqs):
    freqs = np.asarray(freqs, dtype=float)
    dyn = gqbm.LinearDynamics(omega_s=0.3, frequencies=freqs,
                              v_couplings=np.zeros(freqs.size),
                              w_couplings=np.zeros(freqs.size))
    assert dyn.recurrence_horizon == _unique_horizon(freqs)


def test_stiff_grid_rejected():
    dyn = gqbm.LinearDynamics(omega_s=0.3, frequencies=np.array([1e12]),
                              v_couplings=np.array([1e-3]),
                              w_couplings=np.array([0.0]))
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    with pytest.raises(ValidationError, match="stiff"):
        gqbm.propagate(dyn, grid)


def test_substeps_follow_the_fastest_frequency_of_either_sign():
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=20, max_frequency=1.0)
    for freq in (50.0, -50.0):
        dyn = gqbm.LinearDynamics(omega_s=0.3, frequencies=[freq],
                                  v_couplings=[0.01], w_couplings=[0.0])
        prop = gqbm.propagate(dyn, grid)
        exact = expm(dense_generator(dyn) * grid.t_end)[:2, :]
        assert np.max(np.abs(stored_rows(prop)[-1] - exact)) < 1e-9


def test_runaway_growth_raises():
    # pure pairing at zero frequency has eigenvalues +-|W|: exponential blowup
    dyn = gqbm.LinearDynamics(omega_s=0.0, frequencies=np.array([0.0]),
                              v_couplings=np.array([0.0]),
                              w_couplings=np.array([2.0]))
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=100, max_frequency=2.0)
    with pytest.raises(InstabilityError, match="step"):
        gqbm.propagate(dyn, grid).u_series


# ---- the Chebyshev march against expm ----------------------------------------

EXPM_RTOL = 1e-12


def _small_dynamics(case):
    rng = np.random.default_rng(11)
    freqs = rng.uniform(0.2, 2.0, 6)
    v = rng.normal(0.0, 0.2, 6)
    w = rng.normal(0.0, 0.05, 6)
    omega_s = 0.7
    if case == "negative-frequencies":
        freqs[::2] *= -1.0
    elif case == "pairing-dominated":
        freqs = rng.uniform(0.1, 0.5, 6)
        w = np.abs(v) + 0.2
    elif case == "marginal-default":
        omega_s = gqbm.default_omega_s(make_model(1.0))
    return gqbm.LinearDynamics(omega_s=omega_s, frequencies=freqs,
                               v_couplings=v, w_couplings=w)


def _assert_matches_expm(dyn, grid):
    prop = gqbm.propagate(dyn, grid)
    g = dense_generator(dyn)
    rows = stored_rows(prop)
    for m, t in enumerate(grid.times):
        exact = expm(g * t)[:2, :]
        dev = np.max(np.abs(rows[m] - exact))
        assert dev <= EXPM_RTOL * np.max(np.abs(exact)), (m, dev)
    return prop


@pytest.mark.parametrize("case", ["stable", "negative-frequencies",
                                  "pairing-dominated", "marginal-default"])
def test_chebyshev_march_matches_expm_at_small_n(case):
    dyn = _small_dynamics(case)
    growth = np.max(np.linalg.eigvals(dense_generator(dyn)).real)
    if case == "pairing-dominated":
        assert np.all(dyn.w_couplings > np.abs(dyn.v_couplings))
        assert growth > 0.3
    # several windows, and |S| stays below the instability bound
    grid = gqbm.TimeGrid(t_end=16.0, n_steps=200, max_frequency=1.0)
    prop = _assert_matches_expm(dyn, grid)
    assert prop.metadata["window"] <= grid.n_steps // 3


def test_chebyshev_windows_cover_every_step_count():
    dyn = _small_dynamics("stable")
    dt = 0.19
    norm = gqbm.propagate(dyn, gqbm.TimeGrid(t_end=8 * dt, n_steps=8)).metadata[
        "norm_bound"]
    window = int(oracle._WINDOW_PHASE / (norm * dt))
    # keep the float steps n dt / n away from a window boundary
    assert 0.05 < oracle._WINDOW_PHASE / (norm * dt) - window < 0.95
    # a TimeGrid has at least 8 steps, which is a single window here
    for n in (8, window - 1, window, window + 1, 2 * window + 3):
        prop = _assert_matches_expm(dyn, gqbm.TimeGrid(t_end=n * dt,
                                                       n_steps=n))
        assert prop.metadata["window"] == min(n, window)
    # one output step past the window phase: windows of one step
    dt = 1.5 * oracle._WINDOW_PHASE / norm
    prop = _assert_matches_expm(dyn, gqbm.TimeGrid(
        t_end=8 * dt, n_steps=8, max_frequency=0.25 / dt))
    assert prop.metadata["window"] == 1


def _weighted_jv(phase, k):
    return 2.0 * np.abs(jv(k, phase)) * (1.0 + math.sqrt(2.0)) ** k


def _jv_tail_degree(phase):
    """Least K whose weighted tail sum_{k>K} 2 |J_k| (1 + sqrt 2)^k on
    scipy's jv is at most the tolerance (phase <= 12: no J_k underflows)."""
    tail = np.cumsum(_weighted_jv(phase, np.arange(200))[::-1])[::-1]
    return int(np.argmax(tail <= oracle.CHEBYSHEV_TAIL_TOL)) - 1


def test_chebyshev_degree_bounds_the_jv_tail():
    for phase in np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 61)]):
        degree = oracle._chebyshev_degree(phase)
        k = np.arange(degree + 1, int(3.5 * phase) + 64)
        assert np.sum(_weighted_jv(phase, k)) <= oracle.CHEBYSHEV_TAIL_TOL, phase


def test_chebyshev_degree_is_the_least_for_its_bound():
    k = np.arange(400)
    for phase in (0.4, 8.0, 50.0):
        z = 0.5 * (1.0 + math.sqrt(2.0)) * phase
        terms = np.array([2.0 * math.exp(j * math.log(z) - math.lgamma(j + 1))
                          for j in k])
        degree = oracle._chebyshev_degree(phase)
        assert (np.sum(terms[degree + 1:]) <= oracle.CHEBYSHEV_TAIL_TOL
                < np.sum(terms[degree:]))
    assert oracle._chebyshev_degree(0.0) == 0
    # the bound's terms fall below the tolerance near k = 3.3 phase
    for phase in (300.0, 2e4):
        assert 3.0 * phase < oracle._chebyshev_degree(phase) < 3.5 * phase + 64


def test_chebyshev_degree_at_most_one_above_the_jv_tail():
    for phase in np.geomspace(1e-3, 12.0, 101):
        jv_degree = _jv_tail_degree(phase)
        assert jv_degree <= oracle._chebyshev_degree(phase) <= jv_degree + 1


@pytest.mark.parametrize("n_modes, omega_max, omega_s, t_end, n_steps, degree", [
    (400, 20.0, None, 3.0, 300, 44),   # the oracle benchmark
    (300, 12.0, 0.3, 2.0, 200, 48),    # the quench benchmark
], ids=["oracle", "quench"])
def test_chebyshev_degree_unchanged_at_the_benchmark_windows(
        n_modes, omega_max, omega_s, t_end, n_steps, degree):
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, n_modes, omega_max, scheme="gauss")
    omega_s = gqbm.default_omega_s(model) if omega_s is None else omega_s
    grid = gqbm.TimeGrid(t_end=t_end, n_steps=n_steps)
    meta = gqbm.propagate(gqbm.build_dynamics(bath, omega_s), grid).metadata
    phase = meta["norm_bound"] * meta["window"] * grid.dt
    assert meta["degree"] == degree
    # the bound's degree is at most one above the least degree of scipy's
    # jv tail: 43 at the oracle window's phase 6.40, 48 at the quench
    # window's 7.68
    assert _jv_tail_degree(phase) <= degree <= _jv_tail_degree(phase) + 1


def test_miller_bessel_matches_scipy_jv():
    for x in (0.0, 1e-3, 0.4, 8.0, 50.0, 150.0, 300.0):
        k_max = int(3.3 * x) + 64
        got = oracle._bessel_j(k_max, np.array([x]))[:, 0]
        np.testing.assert_allclose(got, jv(np.arange(k_max + 1), x),
                                   rtol=0.0, atol=1e-14)
    # a window's arguments at once, as propagate asks for them
    xs = np.linspace(0.0, 8.0, 41)
    np.testing.assert_allclose(oracle._bessel_j(60, xs),
                               jv(np.arange(61)[:, None], xs),
                               rtol=0.0, atol=1e-14)


def test_chebyshev_store_over_budget_rejected_before_allocation():
    # 400 modes up to 2.8e6: degree ~ 92 000, so T_0..T_K of dimension 802
    # would take about 1.1 GiB
    n_modes = 400
    dyn = gqbm.LinearDynamics(omega_s=0.3,
                              frequencies=np.linspace(1.0, 2.8e6, n_modes),
                              v_couplings=np.full(n_modes, 1e-3),
                              w_couplings=np.zeros(n_modes))
    grid = gqbm.TimeGrid(t_end=0.1, n_steps=10, max_frequency=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="GiB of Chebyshev vectors"):
            gqbm.propagate(dyn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _traced_peak(call, match):
    """The tracemalloc peak of call, which must raise a ValidationError
    whose message matches match."""
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_grid_over_budget_rejected_before_allocation():
    # 400 modes at dt = 0.1 on 10 000 000 steps: the march's store and
    # blocks are a few MB, but u_series and a reader's series would take
    # 1.2 GiB; a tenth of the steps passes
    bath = gqbm.discretize_bath(make_model(0.5), 400, 20.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, 0.3)
    gqbm.propagate(dyn, gqbm.TimeGrid(t_end=1e5, n_steps=1_000_000))
    grid = gqbm.TimeGrid(t_end=1e6, n_steps=10_000_000)
    peak = _traced_peak(lambda: gqbm.propagate(dyn, grid),
                        "propagate at 10000000 steps.* budget")
    assert peak < 16 * 2**20


def test_long_grid_plans_without_allocating_its_rows():
    # the oracle workload's 400 modes on 300 000 steps, whose rows would
    # take 7.7 GB: propagate plans the march, and the plan is O(dim)
    bath = gqbm.discretize_bath(make_model(0.5), 400, 20.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, 0.3)
    grid = gqbm.TimeGrid(t_end=3.0, n_steps=300_000, max_frequency=1.0)
    tracemalloc.start()
    try:
        prop = gqbm.propagate(dyn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert prop.metadata["window"] % oracle._MOMENT_BLOCK == 0


# growth of the tracemalloc peak of reduced_moments(propagate(...)) from n
# to 4 n steps, beyond the outputs it returns: 100.7 kB was measured at
# 400 modes, n = 300, against 122.4 kB of outputs (one step's rows are
# 25.7 kB, so rows held per step would add 23 MB)
READER_GROWTH_SLACK = 64 * 2**10


def test_reader_peak_grows_only_by_its_outputs():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 400, 20.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, gqbm.default_omega_s(model))
    vac = gqbm.GaussianMoments()

    def peak(n):
        # one dt, so one window and degree: only the step count grows
        grid = gqbm.TimeGrid(t_end=0.01 * n, n_steps=n)
        tracemalloc.start()
        try:
            prop = gqbm.propagate(dyn, grid)
            gqbm.reduced_moments(prop, bath, vac)
            return tracemalloc.get_traced_memory()[1], prop.metadata
        finally:
            tracemalloc.stop()

    n = 300
    small, meta = peak(n)
    large, meta4 = peak(4 * n)
    for key in ("degree", "window"):
        assert meta4[key] == meta[key]
    # u_series, and the SecondMomentSeries' times, delta_n, delta_s, delta_h
    outputs = 3 * n * (64 + 8 + 3 * 16)
    assert large - small <= outputs + READER_GROWTH_SLACK


def test_march_records_its_largest_entry():
    bath = gqbm.discretize_bath(make_model(1.0), 80, 20.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.0138),
                          gqbm.TimeGrid(t_end=10.0, n_steps=250,
                                        max_frequency=1.0))
    assert "max_abs_s" not in prop.metadata  # nothing has marched yet
    rows = stored_rows(prop)
    assert prop.metadata["max_abs_s"] == np.max(np.abs(rows))
    assert prop.metadata["max_abs_s"] > 1.0
    assert np.array_equal(prop.u_series, rows[:, :, :2])


def test_thermal_state_over_budget_rejected_before_allocation():
    # 20 000 modes: the pole gaps and transforms would take 21 GiB
    n_modes = 20_000
    dyn = gqbm.LinearDynamics(omega_s=0.6,
                              frequencies=np.linspace(1.0, 2.0, n_modes),
                              v_couplings=np.full(n_modes, 1e-3),
                              w_couplings=np.zeros(n_modes))
    peak = _traced_peak(lambda: gqbm.thermal_total_state(dyn, 0.01, 0.6),
                        "thermal_total_state at 20001 normal modes.* budget")
    assert peak < 16 * 2**20


def test_product_table_over_budget_rejected_before_allocation():
    # zero-stride transforms of 5 000 normal modes: the table would take
    # 1.5 GiB, its factors 0.6 GiB more
    nb = 5_000
    zeros = np.broadcast_to(0.0, (nb, nb))
    state = oracle.ThermalTotalState(
        system=gqbm.GaussianMoments(), correlations=None,
        bath_occupations=np.zeros(nb - 1), bath_squeezes=np.zeros(nb - 1),
        normal_frequencies=np.ones(nb), x_modes=zeros, y_modes=zeros,
        mode_occupations=np.zeros(nb))
    peak = _traced_peak(lambda: state.product_table,
                        "product table at 5000 normal modes.* budget")
    assert peak < 16 * 2**20
    assert "product_table" not in state.__dict__


# tracemalloc peak of thermal_total_state at 1 000 gauss modes, over
# 8 (N+1)^2 bytes: 5.01 when the read-out formed u and v whole beside X'
# and Y', 4.61 once it reads them a block of rows at a time and the
# secular solve's tables set the peak
THERMAL_STATE_PEAK = 4.8


def test_thermal_state_read_out_does_not_set_its_peak():
    bath = gqbm.discretize_bath(make_model(0.5, temperature=0.01), 1000,
                                12.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, 0.3)
    tracemalloc.start()
    try:
        gqbm.thermal_total_state(dyn, 0.01, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= THERMAL_STATE_PEAK * 8 * 1001 ** 2


# ---- reduced moments --------------------------------------------------------


def test_vacuum_is_stationary_without_pairing():
    model = make_model(0.0, temperature=0.0)
    bath = gqbm.discretize_bath(model, 200, 20.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.3),
                          gqbm.TimeGrid(t_end=5.0, n_steps=200,
                                        max_frequency=1.0))
    om = gqbm.reduced_moments(prop, bath, gqbm.GaussianMoments())
    assert np.max(np.abs(om.delta_n)) < 1e-10
    assert np.max(np.abs(om.delta_s)) < 1e-10


def test_pairing_excites_the_vacuum():
    model = make_model(1.0, temperature=0.0)
    bath = gqbm.discretize_bath(model, 200, 20.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.0138),
                          gqbm.TimeGrid(t_end=5.0, n_steps=200,
                                        max_frequency=1.0))
    om = gqbm.reduced_moments(prop, bath, gqbm.GaussianMoments())
    assert np.all(om.delta_n[1:] > 0.0)
    assert float(np.max(om.delta_n)) > 1e-6


def test_reduced_moments_dimension_mismatch():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 8, 20.0)
    other = gqbm.discretize_bath(model, 9, 20.0)
    grid = gqbm.TimeGrid(t_end=0.5, n_steps=8, max_frequency=1.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.3), grid)
    with pytest.raises(ValidationError, match="propagator dimension"):
        gqbm.reduced_moments(prop, other, gqbm.GaussianMoments())


def test_commutator_drift_guard():
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=8, max_frequency=1.0)
    junk = StoredPropagator(grid=grid, dim=4,
                            sys_rows=np.zeros((9, 2, 4), dtype=complex))
    with pytest.warns(RuntimeWarning, match="covers only"):
        bath = gqbm.discretize_bath(make_model(0.5), 1, 2.0)
    with pytest.raises(NumericalQualityError, match="commutator"):
        gqbm.reduced_moments(junk, bath, gqbm.GaussianMoments())


@pytest.mark.parametrize("first", [oracle._MOMENT_BLOCK - 1,
                                   oracle._MOMENT_BLOCK],
                         ids=["last-of-block", "first-of-next"])
def test_commutator_drift_guard_names_the_first_bad_time_across_a_block(
        first):
    # free rows (no coupling) keep [a, a^dag] = 1; scaling the rows of one
    # step by c moves delta_h - delta_n to c^2.  A worse break follows in
    # the next block, so the guard must name the first, not the worst
    n = 2 * oracle._MOMENT_BLOCK + 3
    grid = gqbm.TimeGrid(t_end=0.1 * n, n_steps=n, max_frequency=1.0)
    phase = np.exp(-0.3j * grid.times)
    rows = np.zeros((n + 1, 2, 4), dtype=complex)
    rows[:, 0, 0] = phase
    rows[:, 1, 1] = np.conj(phase)
    scale = np.ones(n + 1)
    scale[first] = 1.001
    scale[first + oracle._MOMENT_BLOCK] = 1.1
    rows *= scale[:, None, None]
    prop = StoredPropagator(grid=grid, dim=4, sys_rows=rows)
    with pytest.warns(RuntimeWarning, match="covers only"):
        bath = gqbm.discretize_bath(make_model(0.5), 1, 2.0)
    init = gqbm.GaussianMoments(delta_n=0.2)
    with pytest.raises(NumericalQualityError) as want:
        moments._require_commutator(scale ** 2 * 0.2, scale ** 2 * 1.2,
                                    grid.times)
    assert f"at t = {grid.times[first]:.6g} " in str(want.value)
    with pytest.raises(NumericalQualityError) as got:
        gqbm.reduced_moments(prop, bath, init)
    assert str(got.value) == str(want.value)


def test_exact_moments_table_shape_contract():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 4, 20.0)
    grid = gqbm.TimeGrid(t_end=0.5, n_steps=8, max_frequency=1.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.3), grid)
    with pytest.raises(ValidationError, match="product table shape"):
        gqbm.exact_moments(prop, np.zeros((4, 4), dtype=complex))
    other = gqbm.build_dynamics(gqbm.discretize_bath(model, 3, 20.0), 0.3)
    with pytest.raises(ValidationError, match="thermal state has"):
        gqbm.thermal_moments(prop, gqbm.thermal_total_state(other, 0.1, 0.3))


def test_thermal_moments_of_identity_transforms_are_reduced_moments():
    # x_modes = y_modes = 1 make u = 1 and v = 0: normal mode k is operator
    # pair k, so the state is the product of an unsqueezed system and the
    # bath, and both readers apply the one pair rule to the same rows
    bath = gqbm.discretize_bath(make_model(0.5, temperature=0.1), 24, 12.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.3),
                          gqbm.TimeGrid(t_end=2.0, n_steps=40,
                                        max_frequency=1.0))
    init = gqbm.GaussianMoments(delta_n=0.3)
    nb = bath.n_modes + 1
    state = oracle.ThermalTotalState(
        system=init, correlations=None, bath_occupations=bath.occupations,
        bath_squeezes=np.zeros(nb - 1), normal_frequencies=np.ones(nb),
        x_modes=np.eye(nb), y_modes=np.eye(nb),
        mode_occupations=np.concatenate([[init.delta_n], bath.occupations]))
    got = gqbm.thermal_moments(prop, state)
    want = gqbm.reduced_moments(prop, bath, init)
    # delta_n + delta_h bounds the sum of |terms| of each moment
    scale = np.max(want.delta_n + want.delta_h)
    for name in ("delta_n", "delta_s", "delta_h"):
        assert (np.max(np.abs(getattr(got, name) - getattr(want, name)))
                <= 1e-15 * scale), name


# ---- thermal state of the coupled Hamiltonian --------------------------------


def test_thermal_state_zero_coupling():
    bath = gqbm.discretize_bath(make_model(0.5, gamma0=0.0), 6, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.4)
    ts = gqbm.thermal_total_state(dyn, 0.2, 0.4)
    expected = float(n_bar(np.array([0.4]), 0.2)[0])
    assert ts.system.delta_n == pytest.approx(expected, rel=1e-10)
    assert abs(ts.system.delta_s) < 1e-12
    assert np.max(np.abs(ts.correlations.n_prime)) < 1e-12
    assert np.max(np.abs(ts.correlations.s_prime)) < 1e-12
    np.testing.assert_allclose(
        ts.normal_frequencies, np.sort(np.append(bath.frequencies, 0.4)),
        rtol=1e-12)


def test_ground_state_without_pairing_is_vacuum():
    # alpha = 0 conserves particle number, so the coupled ground state is
    # the bare vacuum no matter how strong the exchange coupling
    bath = gqbm.discretize_bath(make_model(0.0, gamma0=0.05), 48, 12.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    ts = gqbm.thermal_total_state(dyn, 0.0, 0.3)
    assert abs(ts.system.delta_n) < 1e-10
    assert abs(ts.system.delta_s) < 1e-10
    assert np.max(np.abs(ts.correlations.n_prime)) < 1e-8
    assert np.max(np.abs(ts.correlations.s_prime)) < 1e-8


def test_thermal_correlations_match_perturbation_theory():
    # first order in the couplings:
    #   <a+ b_k> = V_k (nbar(w_k) - nbar(w_s0)) / (w_k - w_s0)
    #   <a b_k>  = -W_k (1 + nbar(w_s0) + nbar(w_k)) / (w_s0 + w_k)
    temp, ws0 = 0.1, 0.3
    model = make_model(0.5, temperature=temp, gamma0=1e-4)
    bath = gqbm.discretize_bath(model, 72, 12.0)
    dyn = gqbm.build_dynamics(bath, ws0)
    ts = gqbm.thermal_total_state(dyn, temp, ws0)

    wk = bath.frequencies
    nb_k = n_bar(wk, temp)
    nb_s = float(n_bar(np.array([ws0]), temp)[0])
    n_exp = bath.v_couplings * (nb_k - nb_s) / (wk - ws0)
    s_exp = -bath.w_couplings * (1.0 + nb_s + nb_k) / (ws0 + wk)
    assert (np.max(np.abs(ts.correlations.n_prime - n_exp))
            < 0.1 * np.max(np.abs(n_exp)))
    assert (np.max(np.abs(ts.correlations.s_prime - s_exp))
            < 0.1 * np.max(np.abs(s_exp)))
    assert ts.system.delta_n == pytest.approx(nb_s, rel=0.1)


def test_thermal_state_against_fock_space_gibbs():
    """Single bath mode: diagonalize nothing, just exponentiate the full
    Hamiltonian in a truncated Fock basis and take traces."""
    d = 20
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    idm = np.eye(d)
    op_a = np.kron(a1, idm)
    op_b = np.kron(idm, a1)
    ws0, wb, vc, wc, temp = 1.0, 1.3, 0.25, 0.15, 0.3
    ham = (ws0 * op_a.conj().T @ op_a + wb * op_b.conj().T @ op_b
           + vc * (op_a.conj().T @ op_b + op_b.conj().T @ op_a)
           + wc * (op_a.conj().T @ op_b.conj().T + op_a @ op_b))
    rho = expm(-ham / temp)
    rho /= np.trace(rho).real

    def ev(x):
        return complex(np.trace(rho @ x))

    dyn = gqbm.LinearDynamics(omega_s=ws0, frequencies=np.array([wb]),
                              v_couplings=np.array([vc]),
                              w_couplings=np.array([wc]))
    ts = gqbm.thermal_total_state(dyn, temp, ws0)
    assert ts.system.delta_n == pytest.approx(
        ev(op_a.conj().T @ op_a).real, abs=1e-9)
    assert ts.system.delta_s == pytest.approx(ev(op_a @ op_a), abs=1e-9)
    assert ts.correlations.n_prime[0] == pytest.approx(
        ev(op_a.conj().T @ op_b), abs=1e-9)
    assert ts.correlations.s_prime[0] == pytest.approx(
        ev(op_a @ op_b), abs=1e-9)
    assert ts.bath_occupations[0] == pytest.approx(
        ev(op_b.conj().T @ op_b).real, abs=1e-9)


def test_thermal_state_product_table_closes_the_loop():
    # propagating the full product table must start exactly at the reduced
    # system moments the state reports
    model = make_model(0.5, temperature=0.1)
    bath = gqbm.discretize_bath(model, 36, 12.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    ts = gqbm.thermal_total_state(dyn, 0.1, 0.3)
    grid = gqbm.TimeGrid(t_end=0.5, n_steps=10, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    om = gqbm.exact_moments(prop, ts.product_table)
    assert om.delta_n[0] == pytest.approx(ts.system.delta_n, abs=1e-10)
    assert om.delta_s[0] == pytest.approx(ts.system.delta_s, abs=1e-10)
    # a thermal state of the generating Hamiltonian is stationary under it
    assert np.max(np.abs(om.delta_n - om.delta_n[0])) < 1e-8
    assert np.max(np.abs(om.delta_s - om.delta_s[0])) < 1e-8


def test_unstable_hamiltonian_has_no_thermal_state():
    model = make_model(1.0, gamma0=0.5)
    bath = gqbm.discretize_bath(model, 72, 12.0)
    dyn = gqbm.build_dynamics(bath, 0.01)
    with pytest.raises(InstabilityError, match="positive definite"):
        gqbm.thermal_total_state(dyn, 0.05, 0.01)


NOT_POSITIVE_DEFINITE = (
    "coupled Hamiltonian is not positive definite (its Cholesky "
    "factorisation fails); no thermal state exists at these couplings")


def _one_mode(frequency, v, w):
    return gqbm.LinearDynamics(omega_s=0.3, frequencies=np.array([frequency]),
                               v_couplings=np.array([v]),
                               w_couplings=np.array([w]))


# one mode at frequency 1 with V + W = 1 (or V - W = 1): the x (or p)
# block's pivot omega_s0 - (V +- W)^2 / omega is zero at omega_s0 = 1 and
# negative at 0.5, while the other block's stays omega_s0
@pytest.mark.parametrize("make, omega_s0", [
    (lambda: _one_mode(1.0, 0.5, 0.5), 1.0),
    (lambda: _one_mode(1.0, 0.5, 0.5), 0.5),
    (lambda: _one_mode(1.0, 0.5, -0.5), 1.0),
    (lambda: _one_mode(1.0, 0.5, -0.5), 0.5),
    (lambda: gqbm.build_dynamics(runaway_bath(), 0.3), 0.3),
    (lambda: _one_mode(-0.2, 0.01, 0.0), 0.3),
], ids=["x-pivot-zero", "x-pivot-negative", "p-pivot-zero",
        "p-pivot-negative", "zero-frequency-mode", "negative-frequency-mode"])
def test_indefinite_factor_raises_before_the_secular_solve(make, omega_s0,
                                                           monkeypatch):
    dyn = make()

    def no_solve(*args, **kwargs):
        raise AssertionError("the secular solve ran on an indefinite "
                             "Hamiltonian")

    for name in ("_secular_residues", "_secular_roots"):
        monkeypatch.setattr(oracle, name, no_solve)
    with pytest.raises(InstabilityError) as err:
        gqbm.thermal_total_state(dyn, 0.05, omega_s0)
    assert str(err.value) == NOT_POSITIVE_DEFINITE


def test_secular_root_past_the_sweep_cap_names_its_index_and_step(
        monkeypatch):
    bath = gqbm.discretize_bath(make_model(0.5), 40, 12.0, scheme="gauss")
    monkeypatch.setattr(oracle, "_SECULAR_SWEEPS", 2)
    with pytest.raises(NumericalQualityError,
                       match=r"secular root \d+ of 41 did not converge in 2 "
                             r"sweeps: its last step moved mu = \S+ by \S+"):
        gqbm.thermal_total_state(gqbm.build_dynamics(bath, 0.3), 0.01, 0.6)


# a positive-definite H that the secular solve does not take: one mode with
# |W| > |V|, whose residue is positive (both normal frequencies lie below the
# mode's), and two modes of one frequency whose V + W and V - W are not
# proportional
@pytest.mark.parametrize("frequencies, v, w, message", [
    ([1.3], [0.0], [0.2], "do not interlace the bath frequencies"),
    ([0.9, 0.9], [0.1, 0.1], [0.05, -0.05], r"modes \[0, 1\] share a "),
], ids=["pairing-above-exchange", "tied-non-proportional"])
def test_secular_solve_refuses_what_it_cannot_order(frequencies, v, w,
                                                     message):
    dyn = gqbm.LinearDynamics(omega_s=1.0, frequencies=np.array(frequencies),
                              v_couplings=np.array(v),
                              w_couplings=np.array(w))
    with pytest.raises(NumericalQualityError, match=message):
        gqbm.thermal_total_state(dyn, 0.1, 1.0)


def test_thermal_state_rejects_negative_temperature():
    bath = gqbm.discretize_bath(make_model(0.5), 4, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    with pytest.raises(ValidationError):
        gqbm.thermal_total_state(dyn, -0.1, 0.3)
