"""Gaussian moment evolution: means, covariances, quadrature routes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

import gqbm
from gqbm import moments
from gqbm.coeffs import CoefficientSeries, HpzCoefficients
from gqbm.errors import ValidationError

from conftest import make_model
from test_convolutions import RTOL


# ---- quadrature maps ---------------------------------------------------------


def test_vacuum_quadratures():
    q = gqbm.to_quadratures(gqbm.GaussianMoments(), mass=2.0, omega_s=0.7)
    assert q.var_x == pytest.approx(1.0 / (2.0 * 2.0 * 0.7), rel=1e-14)
    assert q.var_p == pytest.approx(0.5 * 2.0 * 0.7, rel=1e-14)
    assert q.cov_xp == 0.0


def test_real_squeeze_trades_x_for_p():
    stretched = gqbm.to_quadratures(
        gqbm.GaussianMoments(delta_n=0.5, delta_s=0.5), omega_s=0.7)
    vac = gqbm.to_quadratures(gqbm.GaussianMoments(), omega_s=0.7)
    assert stretched.var_x > vac.var_x
    assert stretched.var_p < vac.var_p * (1.0 + 2.0 * 0.5)  # below thermal


def _quadratures_to_moments(cov, mass, omega_s):
    """Inverse of to_quadratures (mean left at zero)."""
    a = mass * omega_s * cov.var_x
    b = cov.var_p / (mass * omega_s)
    return gqbm.GaussianMoments(delta_n=0.5 * (a + b - 1.0),
                                delta_s=0.5 * (a - b) + 1j * cov.cov_xp)


def test_quadrature_round_trip():
    m = gqbm.GaussianMoments(delta_n=0.37, delta_s=0.21 - 0.13j)
    q = gqbm.to_quadratures(m, mass=1.7, omega_s=0.45)
    back = _quadratures_to_moments(q, mass=1.7, omega_s=0.45)
    assert back.delta_n == pytest.approx(m.delta_n, abs=1e-12)
    assert back.delta_s == pytest.approx(m.delta_s, abs=1e-12)


def test_quadrature_maps_reject_bad_scales():
    with pytest.raises(ValidationError):
        gqbm.to_quadratures(gqbm.GaussianMoments(), mass=0.0)
    with pytest.raises(ValidationError):
        gqbm.to_quadratures(gqbm.GaussianMoments(), omega_s=-1.0)


def test_moment_validation():
    with pytest.raises(ValidationError):
        gqbm.GaussianMoments(delta_n=-0.1)
    squeezed_too_hard = gqbm.GaussianMoments(delta_n=0.1, delta_s=1.0)
    assert squeezed_too_hard.heisenberg_defect() < 0.0
    with pytest.raises(ValidationError, match="uncertainty"):
        squeezed_too_hard.require_physical()


# ---- mean evolution ----------------------------------------------------------


def test_zero_coupling_mean_rotates_freely(omega_s):
    kernel = gqbm.build_kernels(make_model(0.5, gamma0=0.0))
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=400, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    m0 = 0.3 + 0.4j
    mean = gqbm.evolve_means(me, gqbm.GaussianMoments(mean_a=m0), grid)
    assert np.max(np.abs(mean - m0 * np.exp(-1j * omega_s * grid.times))) < 1e-10


def test_zero_mean_stays_zero(coeffs_alpha05, grid10):
    mean = gqbm.evolve_means(coeffs_alpha05, gqbm.GaussianMoments(), grid10)
    assert np.max(np.abs(mean)) == 0.0


def test_mean_equals_propagator_row(pack_alpha05, coeffs_alpha05, grid10):
    # <a>(t) = U11 <a>(0) + U12 <a*>(0) ties the ODE route back to the
    # Green function that generated the coefficients
    _, _, sol = pack_alpha05
    m0 = 0.3 + 0.4j
    mean = gqbm.evolve_means(coeffs_alpha05,
                             gqbm.GaussianMoments(mean_a=m0), grid10)
    direct = sol.u[:, 0, 0] * m0 + sol.u[:, 0, 1] * np.conj(m0)
    assert np.max(np.abs(mean - direct)) < 1e-8


def test_grid_mismatch_rejected(coeffs_alpha05):
    other = gqbm.TimeGrid(t_end=3.0, n_steps=300, max_frequency=1.0)
    with pytest.raises(ValidationError, match="different grid"):
        gqbm.evolve_means(coeffs_alpha05, gqbm.GaussianMoments(), other)
    with pytest.raises(ValidationError, match="different grid"):
        gqbm.evolve_covariances(coeffs_alpha05, gqbm.GaussianMoments(), other)


# ---- covariance evolution ----------------------------------------------------


def _free_coeffs(grid, omega):
    n = grid.n_steps + 1
    zero = np.zeros(n)
    return CoefficientSeries(
        times=grid.times, omega_s=omega,
        omega_s_prime=np.full(n, omega), omega_bar_prime=zero.astype(complex),
        gamma=zero, gamma_tilde=zero, gamma_bar=zero.astype(complex),
        omega_r=np.full(n, omega, dtype=complex),
        radicand_negative=np.zeros(n, dtype=bool))


def test_free_rotation_of_covariances():
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=2000, max_frequency=4.0)
    me = _free_coeffs(grid, 0.8)
    init = gqbm.GaussianMoments(delta_n=0.4, delta_s=0.3 + 0.1j)
    sm = gqbm.evolve_covariances(me, init, grid)
    assert np.max(np.abs(sm.delta_n - init.delta_n)) < 1e-6
    expected = init.delta_s * np.exp(-2j * 0.8 * grid.times)
    assert np.max(np.abs(sm.delta_s - expected)) < 1e-6


def _random_coefficients(times, seed=5):
    """A CoefficientSeries and an HpzCoefficients of small random drift
    on times, both near a free mode of frequency 0.6."""
    rng = np.random.default_rng(seed)
    n = times.size
    zeros = np.zeros(n)
    me = CoefficientSeries(
        times=times, omega_s=0.6,
        omega_s_prime=0.6 + 0.01 * rng.normal(size=n),
        omega_bar_prime=0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
        gamma=0.01 * rng.normal(size=n), gamma_tilde=0.01 * rng.normal(size=n),
        gamma_bar=0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
        omega_r=np.full(n, 0.6, dtype=complex),
        radicand_negative=np.zeros(n, dtype=bool))
    hpz = HpzCoefficients(
        times=times, delta_omega_sq=0.01 * rng.normal(size=n),
        gamma_damping=0.01 * rng.normal(size=n),
        gamma_h=0.01 * rng.normal(size=n), gamma_f=0.01 * rng.normal(size=n),
        omega_p_sq=np.full(n, 0.36), residual_freq=zeros,
        residual_damping=zeros, residual_diffusion=zeros)
    return me, hpz


def _mode_series(me):
    """The generator A and diffusion D of the mode-basis ODEs, written out."""
    n = me.times.size
    a = np.empty((n, 2, 2), dtype=complex)
    a[:, 0, 0] = -1j * me.omega_s_prime - 0.5 * me.gamma
    a[:, 0, 1] = -1j * me.omega_bar_prime
    a[:, 1, 0] = 1j * np.conj(me.omega_bar_prime)
    a[:, 1, 1] = 1j * me.omega_s_prime - 0.5 * me.gamma
    d = np.empty((n, 2, 2), dtype=complex)
    d[:, 0, 0] = me.gamma_tilde
    d[:, 0, 1] = me.gamma_bar
    d[:, 1, 0] = np.conj(me.gamma_bar)
    d[:, 1, 1] = me.gamma + me.gamma_tilde
    return a, d


def _quadrature_series(hpz, mass, omega_s):
    """F and D_q of the quadrature ODE, written out."""
    n = hpz.times.size
    f = np.zeros((n, 2, 2))
    f[:, 0, 1] = 1.0 / mass
    f[:, 1, 0] = -mass * (omega_s**2 + hpz.delta_omega_sq)
    f[:, 1, 1] = -2.0 * hpz.gamma_damping
    d = np.zeros((n, 2, 2))
    d[:, 0, 1] = d[:, 1, 0] = hpz.gamma_f
    d[:, 1, 1] = 2.0 * mass * hpz.gamma_h
    return f, d


def _loop_midpoint_march(rhs, series: tuple, y0: np.ndarray, dt: float) -> np.ndarray:
    """States of the linear ODE dy/dt = rhs(*coeffs(t), y) on the grid.

    series holds the coefficient arrays on the grid points; the explicit
    midpoint rule interpolates them linearly at half steps.  The march
    checks nothing: callers monitor the finished series, so a non-finite
    coefficient carries on as NaN to the end.
    """
    n = series[0].shape[0] - 1
    out = np.empty((n + 1,) + y0.shape, dtype=y0.dtype)
    out[0] = y = y0
    for m in range(n):
        now = [c[m] for c in series]
        mid = [0.5 * (c[m] + c[m + 1]) for c in series]
        half = y + 0.5 * dt * rhs(*now, y)
        y = y + dt * rhs(*mid, half)
        out[m + 1] = y
    return out


# the step loop's right-hand side of each march
RHS = {
    "evolve_means": lambda a, y: a @ y,
    "evolve_covariances": lambda a, d, nm: a @ nm + nm @ np.conj(a).T + d,
    "evolve_hpz_covariances": lambda f, d, cov: f @ cov + cov @ f.T + d,
}


def run_march(name, coeffs, init, grid, mass=1.0, omega_s=1.0):
    """The library's march name: init a GaussianMoments, or for the
    quadrature march a QuadratureCovariances."""
    if name == "evolve_hpz_covariances":
        return gqbm.evolve_hpz_covariances(coeffs, init, grid, mass, omega_s)
    return getattr(gqbm, name)(coeffs, init, grid)


def loop_states(name, coeffs, init, grid, mass=1.0, omega_s=1.0):
    """The step loop's states of march name, one flattened row per time."""
    if name == "evolve_hpz_covariances":
        series = _quadrature_series(coeffs, mass, omega_s)
        y0 = np.array([[init.var_x, init.cov_xp], [init.cov_xp, init.var_p]])
    elif name == "evolve_covariances":
        series, y0 = _mode_series(coeffs), init.n_matrix()
    else:
        series = _mode_series(coeffs)[:1]
        y0 = np.array([init.mean_a, np.conj(init.mean_a)], dtype=complex)
    ys = _loop_midpoint_march(RHS[name], series, y0, grid.dt)
    return ys.reshape(ys.shape[0], -1)


def recording_march(monkeypatch) -> list:
    """A list that receives the states of every library march run after
    this call, so they can be read even when the caller's monitor raises."""
    seen, march = [], moments._midpoint_march

    def record(*args):
        seen.append(march(*args))
        return seen[-1]

    monkeypatch.setattr(moments, "_midpoint_march", record)
    return seen


@dataclass
class _Lattice:
    """The grid lattice k dt of a TimeGrid, without its n_steps >= 8 rule."""

    n_steps: int
    dt: float = 0.01

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


SQUEEZED = gqbm.GaussianMoments(mean_a=0.7 - 0.4j, delta_n=0.4,
                                delta_s=0.3 + 0.1j)
BLOCK = moments._march_block(601)


@pytest.mark.parametrize("name", sorted(RHS))
@pytest.mark.parametrize("n", [1, 2, BLOCK**2 - 1, BLOCK**2, BLOCK**2 + 1, 601])
def test_blocked_march_matches_the_step_loop(name, n, monkeypatch):
    # whole and partial last blocks, one-step blocks, and a squeezed,
    # displaced start; every state to roundoff of the step loop
    grid = _Lattice(n)
    me, hpz = _random_coefficients(grid.times)
    coeffs, init = me, SQUEEZED
    if name == "evolve_hpz_covariances":
        coeffs, init = hpz, gqbm.to_quadratures(SQUEEZED, 1.3, 0.6)
    seen = recording_march(monkeypatch)
    run_march(name, coeffs, init, grid, 1.3, 0.6)
    ref = loop_states(name, coeffs, init, grid, 1.3, 0.6)
    assert np.max(np.abs(seen[0] - ref)) <= RTOL * np.max(np.abs(ref))


def test_covariances_follow_the_explicit_midpoint_rule():
    # the scheme written out step by step: coefficients at t_m and at the
    # linearly interpolated half step; the library's blocked composition
    # must match it to roundoff
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=40, max_frequency=1.0)
    me, _ = _random_coefficients(grid.times)
    init = gqbm.GaussianMoments(delta_n=0.4, delta_s=0.3 + 0.1j)
    sm = gqbm.evolve_covariances(me, init, grid)
    a, d = _mode_series(me)

    def rhs(am, dm, nm):
        return am @ nm + nm @ np.conj(am).T + dm

    nm = np.array([[0.4, 0.3 + 0.1j], [0.3 - 0.1j, 1.4]])
    states = [nm]
    for m in range(grid.n_steps):
        half = nm + 0.5 * grid.dt * rhs(a[m], d[m], nm)
        nm = nm + grid.dt * rhs(0.5 * (a[m] + a[m + 1]),
                                0.5 * (d[m] + d[m + 1]), half)
        states.append(nm)
    states = np.array(states)
    bound = RTOL * np.max(np.abs(states))
    assert np.max(np.abs(sm.delta_n - states[:, 0, 0].real)) <= bound
    assert np.max(np.abs(sm.delta_s - states[:, 0, 1])) <= bound


@pytest.mark.parametrize("name", sorted(RHS))
def test_march_tables_are_bounded_before_allocation(name, monkeypatch):
    def never(*args):
        raise AssertionError("a march table was built")

    grid = gqbm.TimeGrid(t_end=2.0, n_steps=40, max_frequency=1.0)
    me, hpz = _random_coefficients(grid.times)
    coeffs, init = me, SQUEEZED
    if name == "evolve_hpz_covariances":
        coeffs, init = hpz, gqbm.to_quadratures(SQUEEZED)
    for builder in ("_mean_generator", "_sylvester", "_midpoint_march"):
        monkeypatch.setattr(moments, builder, never)
    monkeypatch.setattr(gqbm.errors, "MEMORY_BUDGET_BYTES", 1 << 10)
    with pytest.raises(ValidationError, match="the moment march needs .* budget"):
        run_march(name, coeffs, init, grid)


def test_covariance_reconstruction_identity(pack_alpha05, coeffs_alpha05,
                                            grid10):
    # N(t) = U N(0) U^dag + V(t, t): the ODE route must land on the
    # Green-function reconstruction for any initial Gaussian state
    _, _, sol = pack_alpha05
    init = gqbm.GaussianMoments(delta_n=0.4, delta_s=0.3 + 0.2j)
    sm = gqbm.evolve_covariances(coeffs_alpha05, init, grid10)
    n0 = np.array([[init.delta_n, init.delta_s],
                   [np.conj(init.delta_s), 1.0 + init.delta_n]])
    recon = (np.einsum("tab,bc,tdc->tad", sol.u, n0, np.conj(sol.u))
             + sol.v_equal_time)
    assert np.max(np.abs(sm.n_matrix() - recon)) < 1e-7
    assert sm.max_commutator_drift < 1e-10


def test_vacuum_is_stationary_without_pairing_or_temperature(omega_s):
    kernel = gqbm.build_kernels(make_model(0.0, temperature=0.0))
    grid = gqbm.TimeGrid(t_end=5.0, n_steps=1000, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    sm = gqbm.evolve_covariances(me, gqbm.GaussianMoments(), grid)
    assert np.max(np.abs(sm.delta_n)) < 1e-9
    assert np.max(np.abs(sm.delta_s)) < 1e-9


def test_pairing_heats_the_vacuum(coeffs_alpha1, grid10):
    sm = gqbm.evolve_covariances(coeffs_alpha1, gqbm.GaussianMoments(),
                                 grid10)
    assert np.all(sm.delta_n[1:] > 0.0)
    assert float(np.max(np.abs(sm.delta_s))) > 0.0


# ---- quadrature route at alpha = 1 -------------------------------------------


def test_hpz_route_matches_mode_route(pack_alpha1, coeffs_alpha1, grid10,
                                      omega_s):
    hpz = gqbm.hpz_reduce(coeffs_alpha1, omega_s)
    init_q = gqbm.to_quadratures(gqbm.GaussianMoments(), omega_s=omega_s)
    out = gqbm.evolve_hpz_covariances(hpz, init_q, grid10, omega_s=omega_s)
    sm = gqbm.evolve_covariances(coeffs_alpha1, gqbm.GaussianMoments(),
                                 grid10)
    var_x = (1.0 + 2.0 * sm.delta_n + 2.0 * sm.delta_s.real) / (2.0 * omega_s)
    var_p = 0.5 * omega_s * (1.0 + 2.0 * sm.delta_n - 2.0 * sm.delta_s.real)
    cov_xp = sm.delta_s.imag
    assert np.max(np.abs(out.var_x - var_x)) * omega_s < 1e-9
    assert np.max(np.abs(out.var_p - var_p)) / omega_s < 1e-9
    assert np.max(np.abs(out.cov_xp - cov_xp)) < 1e-9


def test_momentum_jolt(pack_alpha1, coeffs_alpha1, grid10, omega_s):
    # switching on the coupling pumps momentum variance first: the early
    # rise integrates the momentum diffusion, var_p(t) - var_p(0)
    # ~ 2 M int Gamma_h, while var_x barely moves
    hpz = gqbm.hpz_reduce(coeffs_alpha1, omega_s)
    init_q = gqbm.to_quadratures(gqbm.GaussianMoments(), omega_s=omega_s)
    out = gqbm.evolve_hpz_covariances(hpz, init_q, grid10, omega_s=omega_s)
    i2 = int(round(2.0 / grid10.dt))
    rise = out.var_p[i2] - out.var_p[0]
    pumped = 2.0 * np.trapezoid(hpz.gamma_h[:i2 + 1], grid10.times[:i2 + 1])
    assert rise == pytest.approx(pumped, rel=0.1)
    rel_p = out.var_p[i2] / out.var_p[0] - 1.0
    rel_x = abs(out.var_x[i2] / out.var_x[0] - 1.0)
    assert rel_p > 20.0 * rel_x


def test_hpz_route_validates_grid_and_scales(coeffs_alpha1, grid10, omega_s):
    hpz = gqbm.hpz_reduce(coeffs_alpha1, omega_s)
    init_q = gqbm.to_quadratures(gqbm.GaussianMoments(), omega_s=omega_s)
    with pytest.raises(ValidationError):
        gqbm.evolve_hpz_covariances(hpz, init_q, grid10, mass=-1.0)
    other = gqbm.TimeGrid(t_end=3.0, n_steps=300, max_frequency=1.0)
    with pytest.raises(ValidationError):
        gqbm.evolve_hpz_covariances(hpz, init_q, other, omega_s=omega_s)


# ---- long-time thermalization (exchange-only coupling) ------------------------


def _steady_occupation_resolvent(gamma0, omega_s, temperature):
    """Exact stationary occupation from the retarded resolvent.

    dn(inf) = int dw/2pi J(w) nbar(w) |G^R(w)|^2 with the level shift
    Delta(w) = P int dx J(x) / (2 pi (w - x)).  Frequency-domain end to
    end: independent of every time-domain route in the package.
    """
    amp = math.sqrt(math.pi * gamma0 / 2.0)

    def j_v(w):
        return amp * w * math.exp(-w)

    def delta_shift(w):
        val, _ = quad(lambda x: j_v(x) / (2.0 * math.pi), 0.0, 40.0,
                      weight="cauchy", wvar=w)
        return -val

    def integrand(w):
        d = delta_shift(w)
        nb = 1.0 / math.expm1(w / temperature)
        return (j_v(w) * nb / ((w - omega_s - d) ** 2 + (0.5 * j_v(w)) ** 2)
                / (2.0 * math.pi))

    val, _ = quad(integrand, 1e-8, 40.0, limit=400, points=[omega_s])
    return val


def test_thermalization_against_resolvent_oracle():
    gamma0, omega, temp = 0.01, 0.3, 0.3
    kernel = gqbm.build_kernels(make_model(0.0, temperature=temp,
                                           gamma0=gamma0))
    grid = gqbm.TimeGrid(t_end=250.0, n_steps=2048, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    sm = gqbm.evolve_covariances(me, gqbm.GaussianMoments(), grid)

    late = float(np.mean(sm.delta_n[-(grid.n_steps // 8):]))
    exact = _steady_occupation_resolvent(gamma0, omega, temp)
    assert late == pytest.approx(exact, rel=0.02)
    # the steady state is the bath occupation at the shifted frequency,
    # not at the bare one
    shifted = 1.0 / math.expm1(me.omega_s_prime[-1] / temp)
    bare = 1.0 / math.expm1(omega / temp)
    assert late == pytest.approx(shifted, rel=0.05)
    assert abs(late - shifted) < abs(late - bare)
