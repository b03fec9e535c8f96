"""Master-equation coefficients, quadrature reduction, jolt estimates."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

import gqbm
from gqbm.errors import ContractViolationError, SingularityError
from gqbm.greens import GreensSolution

from conftest import GAMMA0, coeffs_of, make_model

AMP = math.sqrt(GAMMA0 / (8.0 * math.pi))  # = |g_v(0)| at cutoff 1


# ---- K and Lambda -----------------------------------------------------------


def test_zero_coupling_k_lambda(omega_s):
    kernel = gqbm.build_kernels(make_model(1.0, gamma0=0.0))
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=400, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    kl = gqbm.compute_k_lambda(sol, kernel)
    assert np.max(np.abs(kl.k)) < 1e-14
    assert np.max(np.abs(kl.lam)) == 0.0
    me = gqbm.compute_me_coeffs(kl)
    assert np.max(np.abs(me.gamma)) < 1e-14
    assert np.max(np.abs(me.gamma_tilde)) == 0.0
    assert np.max(np.abs(me.omega_s_prime - omega_s)) < 1e-14
    assert np.max(np.abs(me.omega_bar_prime)) < 1e-14
    np.testing.assert_allclose(me.omega_r.real, omega_s, rtol=1e-10)


def test_memoryless_start(coeffs_alpha05, omega_s):
    me = coeffs_alpha05
    assert me.gamma[0] == 0.0
    assert me.gamma_tilde[0] == 0.0
    assert me.omega_s_prime[0] == omega_s
    assert me.omega_bar_prime[0] == 0.0
    assert me.gamma_bar[0] == 0.0


def test_requires_equal_time_v(pack_alpha05, grid10, omega_s):
    _, kernel, _ = pack_alpha05
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    with pytest.raises(ContractViolationError):
        gqbm.compute_k_lambda(sol, kernel)


def test_fd_derivative_check(pack_alpha05):
    _, kernel, sol = pack_alpha05
    kl = gqbm.compute_k_lambda(sol, kernel, fd_check=True)
    assert kl.fd_deviation is not None
    assert kl.fd_deviation < 1e-5


def test_singular_propagator_reported(pack_alpha05):
    _, kernel, _ = pack_alpha05
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    n = grid.n_steps + 1
    u = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    u[60] = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])  # rank-deficient
    sol = GreensSolution(grid=grid, omega_s=0.1, u=u, u_dot=np.zeros_like(u),
                         v_equal_time=np.zeros_like(u))
    with pytest.raises(SingularityError, match="t ="):
        gqbm.compute_k_lambda(sol, kernel)


def test_conjugation_structure_of_k(coeffs_alpha05):
    assert coeffs_alpha05.structure_residual < 1e-12


def test_commutator_preservation_identity(pack_alpha05, coeffs_alpha05):
    # the moment equation keeps [a, a+] = 1 only if D22 - D11 = gamma,
    # i.e. 2 Re (Lambda22 - Lambda11) = 2 Re K11
    _, kernel, sol = pack_alpha05
    kl = gqbm.compute_k_lambda(sol, kernel)
    lhs = 2.0 * (kl.lam[:, 1, 1].real - kl.lam[:, 0, 0].real)
    assert np.max(np.abs(lhs - coeffs_alpha05.gamma)) < 1e-8


def test_fano_pairing_coefficients_vanish(coeffs_alpha0):
    me = coeffs_alpha0
    assert np.all(me.omega_bar_prime == 0.0)
    assert np.all(me.gamma_bar == 0.0)
    np.testing.assert_allclose(me.omega_r.real, me.omega_s_prime, rtol=1e-12)
    assert not me.radicand_negative.any()


def test_gamma_independent_of_temperature(omega_s):
    gammas = []
    for temp in (0.0, 0.01, 0.1):
        kernel = gqbm.build_kernels(make_model(0.5, temperature=temp))
        grid = gqbm.TimeGrid(t_end=5.0, n_steps=1000, max_frequency=1.0)
        sol = gqbm.solve_u(kernel, omega_s, grid)
        sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
        me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
        gammas.append(me.gamma)
    assert np.max(np.abs(gammas[0] - gammas[1])) < 1e-10
    assert np.max(np.abs(gammas[0] - gammas[2])) < 1e-10


def test_omega_r_flagged_when_pairing_dominates():
    times = np.linspace(0.0, 1.0, 5)
    k = np.zeros((5, 2, 2), dtype=complex)
    k[:, 0, 1] = -2j * 1.0  # omega_bar' = 1 > omega_s' = 0.3
    kl = gqbm.KLambdaSeries(times=times, k=k, lam=np.zeros_like(k),
                            omega_s=0.3)
    me = gqbm.compute_me_coeffs(kl)
    assert me.radicand_negative.all()
    assert np.all(me.omega_r.imag != 0.0)


# ---- quadrature (position-coupling) reduction -------------------------------


def test_hpz_rejects_partial_pairing(coeffs_alpha05, omega_s):
    with pytest.raises(ContractViolationError):
        gqbm.hpz_reduce(coeffs_alpha05, omega_s)


def test_hpz_identities_hold(coeffs_alpha1, omega_s):
    hpz = gqbm.hpz_reduce(coeffs_alpha1, omega_s)
    scale = 1e-6 * max(omega_s, float(np.max(np.abs(coeffs_alpha1.gamma))))
    assert np.max(np.abs(hpz.residual_freq)) < scale
    assert np.max(np.abs(hpz.residual_damping)) < scale
    assert np.max(np.abs(hpz.residual_diffusion)) < scale


def test_hpz_damping_definition(coeffs_alpha1, omega_s):
    hpz = gqbm.hpz_reduce(coeffs_alpha1, omega_s)
    np.testing.assert_array_equal(hpz.gamma_damping, 0.5 * coeffs_alpha1.gamma)
    np.testing.assert_allclose(
        hpz.omega_p_sq,
        omega_s**2 + hpz.delta_omega_sq - hpz.gamma_damping**2, rtol=1e-12)


def test_hpz_zero_coupling(omega_s):
    kernel = gqbm.build_kernels(make_model(1.0, gamma0=0.0))
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=200, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    hpz = gqbm.hpz_reduce(me, omega_s)
    assert np.max(np.abs(hpz.delta_omega_sq)) < 1e-15
    assert np.max(np.abs(hpz.gamma_damping)) < 1e-15
    assert np.max(np.abs(hpz.gamma_h)) < 1e-17
    assert np.max(np.abs(hpz.gamma_f)) < 1e-17
    np.testing.assert_allclose(hpz.omega_p_sq, omega_s**2, rtol=1e-10)


# ---- jolt estimates ---------------------------------------------------------


def test_jolt_gamma_tilde_vanishes_without_pairing(pack_alpha0):
    _, kernel, sol = pack_alpha0
    est = gqbm.jolt_estimate(kernel, sol)
    assert np.all(est.gamma_tilde_est == 0.0)
    assert est.low_temperature


def test_jolt_warns_outside_low_temperature_regime(omega_s):
    kernel = gqbm.build_kernels(make_model(0.5, temperature=0.2))
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=200, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    with pytest.warns(RuntimeWarning, match="low-temperature"):
        est = gqbm.jolt_estimate(kernel, sol)
    assert not est.low_temperature


def test_jolt_requires_transform_metadata(pack_alpha05):
    _, _, sol = pack_alpha05
    bare = gqbm.Kernel(g=lambda dt: None, gtilde=lambda dt: None)
    with pytest.raises(ContractViolationError):
        gqbm.jolt_estimate(bare, sol)


def test_jolt_estimate_is_scipys_cumulative_trapezoid(pack_alpha05):
    # the numpy rule in jolt_estimate must reproduce scipy's bit for bit
    _, kernel, sol = pack_alpha05
    est = gqbm.jolt_estimate(kernel, sol)
    times = sol.grid.times
    gv = kernel.g_v(times)
    u11 = sol.u[:, 0, 0]
    alpha2 = kernel.alpha**2
    g_int = cumulative_trapezoid((np.conj(gv) - alpha2 * gv) * u11, times,
                                 initial=0.0)
    gt_int = cumulative_trapezoid(gv * u11, times, initial=0.0)
    assert np.array_equal(est.gamma_est, 2.0 * g_int.real)
    assert np.array_equal(est.gamma_tilde_est, 2.0 * alpha2 * gt_int.real)


def _phase_integrals(t: float, omega_s: float) -> tuple[complex, complex]:
    """Dense-Simpson int_0^t g_v(s) e^{-i omega_s s} ds and its conjugate-g
    partner, independent of the marching grid and of solve_u."""
    s = np.linspace(0.0, t, 20001)
    gv = AMP / (1.0 + 1j * s) ** 2
    ph = np.exp(-1j * omega_s * s)
    return (simpson(np.conj(gv) * ph, x=s), simpson(gv * ph, x=s))


@pytest.mark.parametrize("fixture_name,alpha", [
    ("pack_alpha0", 0.0), ("pack_alpha05", 0.5), ("pack_alpha1", 1.0)])
def test_jolt_estimate_closed_form_shape(request, fixture_name, alpha,
                                         omega_s):
    # at weak damping u11 ~ e^{-i omega_s t} on the jolt window, so the
    # estimates reduce to first-order-in-coupling phase integrals; the
    # residual is the coupling-induced drift of u11 off the free phase
    _, kernel, sol = request.getfixturevalue(fixture_name)
    est = gqbm.jolt_estimate(kernel, sol)
    dt = sol.grid.dt
    for t in (0.5, 1.0, 2.0, 3.0, 5.0):
        idx = int(round(t / dt))
        i_conj, i_plain = _phase_integrals(t, omega_s)
        g_ref = 2.0 * (i_conj - alpha**2 * i_plain).real
        gt_ref = 2.0 * alpha**2 * i_plain.real
        assert abs(est.gamma_est[idx] - g_ref) < 0.025 * AMP
        assert abs(est.gamma_tilde_est[idx] - gt_ref) < 0.025 * AMP


def test_jolt_peak_magnitude(pack_alpha05):
    # transient peak of the decay estimate sits near t = 1 at height
    # (1 - alpha^2) amp; the full-pairing cancellation removes it
    _, kernel, sol = pack_alpha05
    est = gqbm.jolt_estimate(kernel, sol)
    peak = float(np.max(est.gamma_est))
    t_peak = est.times[int(np.argmax(est.gamma_est))]
    assert peak == pytest.approx(0.75 * AMP, rel=0.02)
    assert 0.8 < t_peak < 1.25


# ---- integral crosscheck ----------------------------------------------------


def test_crosscheck_requires_two_time_table(pack_alpha05):
    _, kernel, sol = pack_alpha05
    with pytest.raises(ContractViolationError):
        gqbm.coeff_integral_crosscheck(kernel, sol)


def test_crosscheck_agreement(omega_s):
    model = make_model(0.5)
    kernel = gqbm.build_kernels(model)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=400, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    diag, table = gqbm.solve_v_volterra(kernel, sol, return_two_time=True)
    sol.v_equal_time = diag
    sol.v_two_time = table
    out = gqbm.coeff_integral_crosscheck(kernel, sol)
    assert out["max_deviation"] < 1e-6
    # both endpoints of the identity vanish at t = 0
    assert np.max(np.abs(out["d_integral"][0])) == 0.0
    assert np.max(np.abs(out["d_differential"][0])) == 0.0


# ---- oracle route: inhomogeneity reverse-engineered from exact moments ------


def test_diffusion_matrix_vs_finite_bath_oracle(omega_s):
    """Substitute exact oracle moments into the moment ODE and solve for the
    inhomogeneity; it must reproduce the (gamma_tilde, gamma_bar) matrix."""
    model = make_model(0.5)
    grid = gqbm.TimeGrid(t_end=2.5, n_steps=500, max_frequency=1.0)

    # oracle side: finite bath, vacuum system, exact propagation
    bath = gqbm.discretize_bath(model, 1200, 20.0)
    dyn = gqbm.build_dynamics(bath, omega_s)
    prop = gqbm.propagate(dyn, grid)
    assert prop.recurrence_horizon > grid.t_end
    om = gqbm.reduced_moments(prop, bath, gqbm.GaussianMoments())
    m_or = om.n_matrix()

    # master-equation side: coefficient series on the same grid
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))

    idx = 400  # t = 2.0
    dt = grid.dt
    m_dot = (m_or[idx + 1] - m_or[idx - 1]) / (2.0 * dt)
    a = np.array([[-1j * me.omega_s_prime[idx] - 0.5 * me.gamma[idx],
                   -1j * me.omega_bar_prime[idx]],
                  [1j * np.conj(me.omega_bar_prime[idx]),
                   1j * me.omega_s_prime[idx] - 0.5 * me.gamma[idx]]])
    d_est = m_dot - a @ m_or[idx] - m_or[idx] @ np.conj(a).T
    d_me = np.array([[me.gamma_tilde[idx], me.gamma_bar[idx]],
                     [np.conj(me.gamma_bar[idx]),
                      me.gamma[idx] + me.gamma_tilde[idx]]])
    # headroom ~160x over the measured 6e-8 deviation; the D scale is 3e-3
    assert np.max(np.abs(d_est - d_me)) < 1e-5
