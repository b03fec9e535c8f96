"""Retarded propagator, fluctuation matrix, and initial-correlation pieces."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import gqbm
from gqbm.errors import InstabilityError, ValidationError

from conftest import kernel_with, make_model

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# ---- grid -------------------------------------------------------------------


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        gqbm.TimeGrid(t_end=0.0, n_steps=100)
    with pytest.raises(ValidationError):
        gqbm.TimeGrid(t_end=1.0, n_steps=4)
    with pytest.raises(ValidationError):
        # dt = 0.1 does not resolve max_frequency = 10
        gqbm.TimeGrid(t_end=10.0, n_steps=100, max_frequency=10.0)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=100, max_frequency=1.0)
    assert grid.dt == pytest.approx(0.1)
    assert grid.times[0] == 0.0 and grid.times[-1] == 10.0


# ---- retarded propagator ----------------------------------------------------


def test_u_initial_conditions(pack_alpha05):
    _, _, sol = pack_alpha05
    np.testing.assert_array_equal(sol.u[0], np.eye(2))
    expected = -1j * sol.omega_s * np.diag([1.0, -1.0])
    np.testing.assert_array_equal(sol.u_dot[0], expected)


def test_zero_coupling_free_phases(omega_s):
    kernel = gqbm.build_kernels(make_model(1.0, gamma0=0.0))
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=2000, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    t = grid.times
    assert np.max(np.abs(sol.u[:, 0, 0] - np.exp(-1j * omega_s * t))) < 1e-10
    assert np.max(np.abs(sol.u[:, 1, 1] - np.exp(1j * omega_s * t))) < 1e-10
    assert np.all(sol.u[:, 0, 1] == 0.0)
    assert np.all(sol.u[:, 1, 0] == 0.0)


def test_u_conjugation_symmetry(pack_alpha05):
    # particle-hole structure: U = sigma_x U* sigma_x at every time
    _, _, sol = pack_alpha05
    ref = np.einsum("ab,tbc,cd->tad", SIGMA_X, np.conj(sol.u), SIGMA_X)
    assert np.max(np.abs(sol.u - ref)) < 1e-12


def test_fano_blocks_stay_zero(pack_alpha0):
    # no pair coupling: the a / a^dag sectors never mix, exactly
    _, _, sol = pack_alpha0
    assert np.all(sol.u[:, 0, 1] == 0.0)
    assert np.all(sol.u[:, 1, 0] == 0.0)
    assert np.all(sol.v_equal_time[:, 0, 1] == 0.0)
    assert np.all(sol.v_equal_time[:, 1, 0] == 0.0)


def _fano_pole(gamma0, omega_s, cutoff=1.0):
    """Resolvent pole of the exchange-only model on the second sheet.

    Solves z = omega_s + Sigma_II(z) by Newton, where Sigma_II is the
    analytic continuation of Sigma(z) = int J(x)/(2 pi (z - x)) dx across
    the spectral cut.  Entirely frequency-domain: independent of the
    time-domain marching it validates.
    """
    amp = math.sqrt(math.pi * gamma0 / (2.0 * cutoff))

    def sigma_ii(z):
        a, b = z.real, z.imag

        def dens(x):
            return amp * x * math.exp(-x / cutoff) / (2.0 * math.pi)

        re = quad(lambda x: dens(x) * (a - x) / ((a - x) ** 2 + b**2),
                  0.0, 40.0, limit=400)[0]
        im = quad(lambda x: -dens(x) * b / ((a - x) ** 2 + b**2),
                  0.0, 40.0, limit=400)[0]
        val = re + 1j * im
        if b < 0.0:
            # continue across the cut: subtract 2 pi i times the density
            val -= 1j * amp * z * np.exp(-z / cutoff)
        return val

    z = omega_s - 0.001j
    for _ in range(25):
        f = z - omega_s - sigma_ii(z)
        h = 1e-7
        fp = 1.0 - (sigma_ii(z + h) - sigma_ii(z - h)) / (2.0 * h)
        z = z - f / fp
    return z


def test_fano_amplitude_decay_matches_resolvent_pole():
    # time-domain fit vs the frequency-domain pole: two fully independent
    # routes to the exchange-only decay rate (Lamb shift included)
    gamma0, ws = 0.01, 0.3
    pole = _fano_pole(gamma0, ws)
    rate_oracle = -2.0 * pole.imag
    # sanity on the oracle itself: near the bare golden-rule value
    bare = math.sqrt(math.pi * gamma0 / 2.0) * ws * math.exp(-ws)
    assert 0.5 * bare < rate_oracle < 1.5 * bare

    kernel = gqbm.build_kernels(
        make_model(0.0, temperature=0.0, gamma0=gamma0))
    grid = gqbm.TimeGrid(t_end=240.0, n_steps=1600, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, ws, grid)
    mag = np.abs(sol.u[:, 0, 0])
    i1 = np.searchsorted(grid.times, 80.0)
    i2 = np.searchsorted(grid.times, 240.0) - 1
    rate_fit = -2.0 * (math.log(mag[i2]) - math.log(mag[i1])) / (
        grid.times[i2] - grid.times[i1])
    assert abs(rate_fit - rate_oracle) < 0.03 * rate_oracle
    # frequency: oscillation phase of u11 matches Re z* (Lamb-shifted)
    phase = -np.unwrap(np.angle(sol.u[i1:i2, 0, 0]))
    freq_fit = np.polyfit(grid.times[i1:i2], phase, 1)[0]
    assert abs(freq_fit - pole.real) < 0.02 * pole.real


def test_u_stays_bounded_at_full_pairing(pack_alpha1):
    # critical operating point: no exponential runaway on the jolt window
    _, _, sol = pack_alpha1
    assert np.max(np.abs(sol.u)) < 1.01


def test_instability_reported_with_step():
    # synthetic attractive memory kernel drives exponential growth
    def g(dt):
        dt = np.asarray(dt, dtype=float)
        out = np.zeros(dt.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = -60.0
        out[..., 1, 1] = 60.0
        return out

    def gtilde(dt):
        dt = np.asarray(dt, dtype=float)
        return np.zeros(dt.shape + (2, 2), dtype=complex)

    kernel = kernel_with(g, gtilde)
    grid = gqbm.TimeGrid(t_end=8.0, n_steps=800, max_frequency=1.0)
    with pytest.raises(InstabilityError, match="step"):
        gqbm.solve_u(kernel, 0.1, grid)


# ---- fluctuation matrix -----------------------------------------------------


def test_v_starts_at_zero(pack_alpha05):
    _, _, sol = pack_alpha05
    np.testing.assert_array_equal(sol.v_equal_time[0], np.zeros((2, 2)))


def test_v_structure_at_zero_temperature_fano(omega_s):
    # T = 0 and alpha = 0: nothing can populate the mode, so the occupation
    # and squeeze entries of V are exact zeros; the commutator entry only
    # compensates the decay of |u11|^2 (sum rule V22 = 1 - |u11|^2)
    kernel = gqbm.build_kernels(make_model(0.0, temperature=0.0))
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=400, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    v = gqbm.solve_v_fdt(kernel, sol.u, grid)
    assert np.max(np.abs(v[:, 0, 0])) == 0.0
    assert np.max(np.abs(v[:, 0, 1])) == 0.0
    assert np.max(np.abs(v[:, 1, 0])) == 0.0
    sum_rule = 1.0 - np.abs(sol.u[:, 0, 0]) ** 2
    assert np.max(np.abs(v[:, 1, 1].real - sum_rule)) < 1e-8


def test_v_hermitian_and_positive(pack_alpha05):
    _, _, sol = pack_alpha05
    v = sol.v_equal_time
    assert np.max(np.abs(v - np.conj(np.swapaxes(v, -1, -2)))) < 1e-10
    eigs = np.linalg.eigvalsh(v)
    assert eigs.min() > -1e-8


def test_v_shape_contract(pack_alpha05):
    _, kernel, sol = pack_alpha05
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    with pytest.raises(ValidationError, match="u has shape"):
        gqbm.solve_v_fdt(kernel, sol.u, grid)


class _TableBuilt(Exception):
    """Raised where a solver asks its kernel for its first table."""


def _table_built(*args):
    raise _TableBuilt


def _continuum_calls(grid):
    """solve_u and the two V route calls on grid, each by name."""
    kernel = gqbm.build_kernels(make_model(0.5))
    u = np.zeros((grid.n_steps + 1, 2, 2), dtype=complex)
    sol = gqbm.GreensSolution(grid=grid, omega_s=0.3, u=u, u_dot=u)
    return {"solve_u": lambda: gqbm.solve_u(kernel, 0.3, grid),
            "solve_v_fdt": lambda: gqbm.solve_v_fdt(kernel, u, grid),
            "v_first_derivative": lambda: gqbm.greens.v_first_derivative(
                kernel, sol)}


@pytest.mark.parametrize("name", ["solve_u", "solve_v_fdt",
                                  "v_first_derivative"])
def test_continuum_tables_are_bounded_before_allocation(name, monkeypatch):
    for table in ("g_table", "gtilde_signed_table"):
        monkeypatch.setattr(gqbm.spectral.Kernel, table, _table_built)
    call = _continuum_calls(gqbm.TimeGrid(t_end=2.0, n_steps=40))[name]
    monkeypatch.setattr(gqbm.errors, "MEMORY_BUDGET_BYTES", 1 << 10)
    with pytest.raises(ValidationError,
                       match=f"{name} at n_steps = 40 needs .* budget"):
        call()


def test_a_long_chain_fits_the_budget(monkeypatch):
    # 10^5 steps over t_end = 500 (the relaxation reach): every check
    # passes, and each call goes on to ask for its kernel table
    for table in ("g_table", "gtilde_signed_table"):
        monkeypatch.setattr(gqbm.spectral.Kernel, table, _table_built)
    grid = gqbm.TimeGrid(t_end=500.0, n_steps=100_000)
    for call in _continuum_calls(grid).values():
        with pytest.raises(_TableBuilt):
            call()


def test_volterra_route_agreement_and_order(omega_s):
    # two structurally different integrators for V(t, t) must converge to
    # each other at the marching scheme's order
    model = make_model(0.5)
    kernel = gqbm.build_kernels(model)
    devs = {}
    for n in (200, 400):
        grid = gqbm.TimeGrid(t_end=5.0, n_steps=n, max_frequency=1.0)
        sol = gqbm.solve_u(kernel, omega_s, grid)
        v_fdt = gqbm.solve_v_fdt(kernel, sol.u, grid)
        v_vol = gqbm.solve_v_volterra(kernel, sol)
        devs[n] = float(np.max(np.abs(v_fdt - v_vol)))
    assert devs[400] < 1e-5
    order = math.log2(devs[200] / devs[400])
    assert 1.7 <= order <= 2.3


def test_volterra_two_time_table(pack_alpha05):
    _, kernel, _ = pack_alpha05
    model = make_model(0.5)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=200, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, gqbm.default_omega_s(model), grid)
    diag, table = gqbm.solve_v_volterra(kernel, sol, return_two_time=True)
    np.testing.assert_array_equal(diag, np.einsum("iiab->iab", table))
    assert table.shape == (201, 201, 2, 2)
    assert np.all(table[:, 0] == 0.0)  # V(tau, 0) column never marched


# ---- initial correlations ---------------------------------------------------


def test_correlated_correction_zero_correlations(omega_s):
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 32, 20.0)
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    corr = gqbm.InitialCorrelations(n_prime=np.zeros(32, dtype=complex),
                                    s_prime=np.zeros(32, dtype=complex))
    dv = gqbm.correlated_correction(bath, corr, sol.u, grid)
    assert np.max(np.abs(dv)) == 0.0


def test_correlated_correction_starts_at_zero(omega_s):
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 16, 20.0)
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    rng = np.random.default_rng(7)
    corr = gqbm.InitialCorrelations(
        n_prime=rng.normal(size=16) * 1e-3 + 1j * rng.normal(size=16) * 1e-3,
        s_prime=rng.normal(size=16) * 1e-3 + 1j * rng.normal(size=16) * 1e-3)
    dv = gqbm.correlated_correction(bath, corr, sol.u, grid)
    np.testing.assert_array_equal(dv[0], np.zeros((2, 2)))
    # correction is Hermitian at every time by construction
    assert np.max(np.abs(dv - np.conj(np.swapaxes(dv, -1, -2)))) < 1e-15


def test_correlated_correction_mode_mismatch(omega_s):
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 16, 20.0)
    grid = gqbm.TimeGrid(t_end=1.0, n_steps=100, max_frequency=1.0)
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    corr = gqbm.InitialCorrelations(n_prime=np.zeros(8, dtype=complex),
                                    s_prime=np.zeros(8, dtype=complex))
    with pytest.raises(ValidationError,
                       match="correlations carry 8 modes, bath has 16"):
        gqbm.correlated_correction(bath, corr, sol.u, grid)
    corr = gqbm.InitialCorrelations(n_prime=np.zeros(16, dtype=complex),
                                    s_prime=np.zeros(16, dtype=complex))
    with pytest.raises(ValidationError, match="for this grid"):
        gqbm.correlated_correction(bath, corr, sol.u[:-1], grid)
    with pytest.raises(ValidationError, match="matching"):
        gqbm.InitialCorrelations(n_prime=np.zeros(16), s_prime=np.zeros(8))
