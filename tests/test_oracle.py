"""Finite-bath oracle: generator structure, propagation, thermal states."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import gqbm
from gqbm.errors import (
    ContractViolationError,
    InstabilityError,
    NumericalQualityError,
    ValidationError,
)
from gqbm.oracle import BogoliubovPropagator
from gqbm.spectral import n_bar

from conftest import make_model


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
        dyn.as_matrix(), np.diag([-0.4j, 0.4j]))


def test_generator_blocks_without_pairing():
    bath = gqbm.discretize_bath(make_model(0.0), 8, 20.0)
    g = gqbm.build_dynamics(bath, 0.3).as_matrix()
    # no pairing: a never couples to daggered bath operators and vice versa
    assert np.all(g[0, 3::2] == 0.0)
    assert np.all(g[1, 2::2] == 0.0)
    assert np.all(g[2::2, 1] == 0.0)
    assert np.all(g[3::2, 0] == 0.0)


def test_sigma_times_generator_is_anti_hermitian():
    dyn = _random_dynamics()
    m = np.diag(dyn.sigma().astype(complex)) @ dyn.as_matrix()
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


def test_sparse_generator_matches_heisenberg_equations():
    dyn = _random_dynamics(n_modes=7, seed=11)
    gen = dyn.generator()
    ref = _heisenberg_generator(dyn)
    assert gen.format == "csr"
    assert gen.nnz == 10 * dyn.n_modes + 2   # arrowhead: O(N) entries
    np.testing.assert_array_equal(gen.toarray(), ref)
    np.testing.assert_array_equal(gen.T.toarray(), ref.T)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(dyn.dim, 3)) + 1j * rng.normal(size=(dyn.dim, 3))
    np.testing.assert_allclose(gen @ x, ref @ x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(gen.T @ x, ref.T @ x, rtol=0.0, atol=1e-15)


def test_energy_form_is_conserved_by_the_flow():
    # H = A^dag M A with M = i Sigma G Hermitian; the exact flow must keep
    # S^dag M S = M and the metric S^dag Sigma S = Sigma
    dyn = _random_dynamics()
    g = dyn.as_matrix()
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
    s_full = expm(dyn.as_matrix() * grid.t_end)
    assert np.max(np.abs(prop.sys_rows[-1] - s_full[:2, :])) < 1e-9


def test_march_preserves_symplectic_metric():
    model = make_model(1.0)
    bath = gqbm.discretize_bath(model, 500, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.0138)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=250, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    sig = dyn.sigma()
    sys_metric = np.diag([1.0, -1.0])
    worst = 0.0
    for m in (50, 125, 250):
        r = prop.sys_rows[m]
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
        exact = expm(dyn.as_matrix() * grid.t_end)[:2, :]
        assert np.max(np.abs(prop.sys_rows[-1] - exact)) < 1e-9


def test_runaway_growth_raises():
    # pure pairing at zero frequency has eigenvalues +-|W|: exponential blowup
    dyn = gqbm.LinearDynamics(omega_s=0.0, frequencies=np.array([0.0]),
                              v_couplings=np.array([0.0]),
                              w_couplings=np.array([2.0]))
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=100, max_frequency=2.0)
    with pytest.raises(InstabilityError, match="step"):
        gqbm.propagate(dyn, grid)


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
    assert np.max(np.abs(om.mean_a)) == 0.0


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
    with pytest.raises(ContractViolationError):
        gqbm.reduced_moments(prop, other, gqbm.GaussianMoments())


def test_commutator_drift_guard():
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=8, max_frequency=1.0)
    junk = BogoliubovPropagator(
        grid=grid, dim=4,
        sys_rows=np.zeros((9, 2, 4), dtype=complex),
        recurrence_horizon=math.inf)
    with pytest.warns(RuntimeWarning, match="covers only"):
        bath = gqbm.discretize_bath(make_model(0.5), 1, 2.0)
    with pytest.raises(NumericalQualityError, match="commutator"):
        gqbm.reduced_moments(junk, bath, gqbm.GaussianMoments())


def test_exact_moments_table_shape_contract():
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 4, 20.0)
    grid = gqbm.TimeGrid(t_end=0.5, n_steps=8, max_frequency=1.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, 0.3), grid)
    with pytest.raises(ContractViolationError):
        gqbm.exact_moments(prop, np.zeros((4, 4), dtype=complex))


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


def test_thermal_state_rejects_negative_temperature():
    bath = gqbm.discretize_bath(make_model(0.5), 4, 20.0)
    dyn = gqbm.build_dynamics(bath, 0.3)
    with pytest.raises(ValidationError):
        gqbm.thermal_total_state(dyn, -0.1, 0.3)
