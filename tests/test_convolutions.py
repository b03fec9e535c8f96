"""The FFT convolutions behind V, dV/dtau and the correlated correction
against the strip loops they replaced.

The loops below are the earlier implementations, kept verbatim as the
reference.  The convolutions sum the same products in another order, so the
results may differ by roundoff: the tolerance is fixed from float64 at
1e-13 of the largest entry, and the exact zeros of the loop (no pairing, or
no thermal occupation) must stay exact zeros.
"""

from dataclasses import replace

import numpy as np
import pytest

import gqbm
from gqbm import greens
from gqbm.greens import _zmul

from conftest import TEMPERATURE, make_model

RTOL = 1e-13


def _loop_fdt_double_integral(inner, udag, zgtz, n, dt):
    out = np.empty((n + 1, 2, 2), dtype=complex)
    out[0] = 0.0

    # B[k] accumulates the inner integral for y = t_k; e_old caches the
    # integrand at the previous x endpoint to avoid recomputing it.
    e_old = np.einsum("ab,kbc->kac", inner[0], zgtz[n:2 * n + 1])
    b = np.zeros_like(e_old)
    for m in range(1, n + 1):
        e_new = np.einsum("ab,kbc->kac", inner[m], zgtz[n - m:2 * n + 1 - m])
        b += 0.5 * dt * (e_old + e_new)
        e_old = e_new

        acc = np.einsum("kab,kbc->ac", b[:m + 1], udag[:m + 1])
        acc -= 0.5 * (b[0] @ udag[0] + b[m] @ udag[m])
        out[m] = dt * acc
    return out


def _loop_correlated_convolution(u, ze, n, dt):
    out = np.zeros((n + 1, 2, 2), dtype=complex)
    for m in range(1, n + 1):
        conv = np.einsum("jab,jbc->ac", u[m::-1], ze[:m + 1])
        conv -= 0.5 * (u[m] @ ze[0] + u[0] @ ze[m])
        term1 = -1j * dt * conv @ np.conj(u[m]).T
        out[m] = term1 + np.conj(term1).T
    return out


def _loop_v_and_vdot(kernel, sol):
    """V and dV/dtau with the loop in place of the FFT evaluation."""
    grid = sol.grid
    n, dt = grid.n_steps, grid.dt
    zgtz = kernel.zgtz_signed_table(grid)
    udag = np.conj(np.swapaxes(sol.u, -1, -2))
    v = _loop_fdt_double_integral(sol.u, udag, zgtz, n, dt)
    vdot = _loop_fdt_double_integral(sol.u_dot, udag, zgtz, n, dt)
    integrand = np.einsum("kab,kbc->kac", zgtz[n:2 * n + 1], udag)
    vdot[1:] += np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]), axis=0)
    return v, vdot


def _fft_v_and_vdot(kernel, sol):
    v = gqbm.solve_v_fdt(kernel, sol.u, sol.grid)
    return v, greens.v_first_derivative(kernel, sol)


def _assert_matches_loop(fast, loop):
    assert np.max(np.abs(fast - loop)) <= RTOL * np.max(np.abs(loop))
    assert np.array_equal(fast[0], np.zeros((2, 2)))


def test_causal_matconv_is_the_direct_sum():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    b = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    direct = np.array([sum(a[m - j] @ b[j] for j in range(m + 1))
                       for m in range(7)])
    conv = greens._causal_matconv(a, b)
    assert np.max(np.abs(conv - direct)) <= RTOL * np.max(np.abs(direct))


def test_v_and_vdot_match_the_loop_at_paper_resolution(pack_alpha05):
    # the n = 2000 grid of the paper point
    _, kernel, sol = pack_alpha05
    for fast, loop in zip(_fft_v_and_vdot(kernel, sol),
                          _loop_v_and_vdot(kernel, sol)):
        _assert_matches_loop(fast, loop)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_v_and_vdot_match_the_loop_at_the_pairing_limits(alpha, omega_s):
    kernel = gqbm.build_kernels(make_model(alpha))
    grid = gqbm.TimeGrid(t_end=3.0, n_steps=600, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    fast_pair = _fft_v_and_vdot(kernel, sol)
    loop_pair = _loop_v_and_vdot(kernel, sol)
    for fast, loop in zip(fast_pair, loop_pair):
        _assert_matches_loop(fast, loop)
        if alpha == 0.0:
            # no pairing: the off-diagonals are exact zeros on both routes
            assert np.array_equal(fast == 0, loop == 0)
            assert np.all(fast[:, 0, 1] == 0.0)


def test_zero_temperature_fano_zeros_survive_the_fft(omega_s):
    kernel = gqbm.build_kernels(make_model(0.0, temperature=0.0))
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=400, max_frequency=1.0)
    sol = gqbm.solve_u(kernel, omega_s, grid)
    for fast, loop in zip(_fft_v_and_vdot(kernel, sol),
                          _loop_v_and_vdot(kernel, sol)):
        _assert_matches_loop(fast, loop)
        assert np.array_equal(fast == 0, loop == 0)


def test_correlated_correction_matches_the_loop_at_the_quench_point():
    # the quench benchmark point: omega_s = 0.3 quenched from 0.6
    omega, omega_s0 = 0.3, 0.6
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=200, max_frequency=1.0)
    bath = gqbm.discretize_bath(make_model(0.5), 300, 12.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, omega)
    state = gqbm.thermal_total_state(dyn, TEMPERATURE, omega_s0)
    kbath = replace(bath, occupations=state.bath_occupations)
    sol = gqbm.solve_u(gqbm.kernels_from_bath(kbath), omega, grid)

    fast = gqbm.correlated_correction(kbath, state.correlations, sol.u, grid)

    # E(s) exactly as correlated_correction builds it
    corr = state.correlations
    ph_m = np.exp(-1j * np.outer(grid.times, kbath.frequencies))
    ph_p = np.conj(ph_m)
    vk, wk = kbath.v_couplings, kbath.w_couplings
    np_k, sp_k = corr.n_prime, corr.s_prime
    e = np.empty((grid.n_steps + 1, 2, 2), dtype=complex)
    e[:, 0, 0] = ph_m @ (vk * np_k) + ph_p @ (wk * np.conj(sp_k))
    e[:, 0, 1] = ph_m @ (vk * sp_k) + ph_p @ (wk * np.conj(np_k))
    e[:, 1, 0] = ph_m @ (wk * np_k) + ph_p @ (vk * np.conj(sp_k))
    e[:, 1, 1] = ph_m @ (wk * sp_k) + ph_p @ (vk * np.conj(np_k))
    loop = _loop_correlated_convolution(sol.u, _zmul(e), grid.n_steps, grid.dt)

    assert np.max(np.abs(loop)) > 0.0
    _assert_matches_loop(fast, loop)
