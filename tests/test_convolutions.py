"""The FFT convolutions behind V, dV/dtau, the correlated correction and the
history of solve_u against the loops they replaced.

The loops below are the earlier implementations, kept verbatim as the
reference.  The convolutions sum the same products in another order, so the
results may differ by roundoff: the tolerance is fixed from float64 at
1e-13 of the largest entry, and the exact zeros of the loop (no pairing, or
no thermal occupation) must stay exact zeros.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import gqbm
from gqbm import greens
from gqbm.coeffs import _invert_2x2
from gqbm.errors import InstabilityError, require
from gqbm.greens import (
    GreensSolution,
    Z,
    _check_finite,
    _zmul,
)
from conftest import TEMPERATURE, kernel_with, make_model

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


def _outer_product_e(bath, corr, times):
    """E(s) of correlated_correction from dense (n + 1) x N phase matrices."""
    ph_m = np.exp(-1j * np.outer(times, bath.frequencies))
    ph_p = np.conj(ph_m)
    vk, wk = bath.v_couplings, bath.w_couplings
    np_k, sp_k = corr.n_prime, corr.s_prime
    e = np.empty((times.size, 2, 2), dtype=complex)
    e[:, 0, 0] = ph_m @ (vk * np_k) + ph_p @ (wk * np.conj(sp_k))
    e[:, 0, 1] = ph_m @ (vk * sp_k) + ph_p @ (wk * np.conj(np_k))
    e[:, 1, 0] = ph_m @ (wk * np_k) + ph_p @ (vk * np.conj(sp_k))
    e[:, 1, 1] = ph_m @ (wk * sp_k) + ph_p @ (vk * np.conj(np_k))
    return e


def _outer_product_correlated_correction(bath, corr, u, grid):
    """correlated_correction as it was, with E from _outer_product_e."""
    ze = _zmul(_outer_product_e(bath, corr, grid.times))
    conv = greens._causal_matconv(u, ze) - 0.5 * (u @ ze[0] + u[0] @ ze)
    term1 = -1j * grid.dt * conv @ np.conj(np.swapaxes(u, -1, -2))
    out = term1 + np.conj(np.swapaxes(term1, -1, -2))
    out[0] = 0.0
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


def _loop_solve_u(kernel, omega_s, grid):
    """March the retarded propagator U over the grid."""
    require("omega_s", omega_s)
    n = grid.n_steps
    dt = grid.dt
    times = grid.times

    zg = _zmul(kernel.g_table(grid))          # Z G(t_m) for m = 0..n
    eye = np.eye(2, dtype=complex)
    mws = -1j * omega_s * Z

    u = np.empty((n + 1, 2, 2), dtype=complex)
    udot = np.empty_like(u)
    u[0] = eye
    udot[0] = mws.copy()                      # memory integral vanishes at t = 0

    # midpoint bootstrap; the memory over [0, dt/2] uses the kernel at dt/2
    zg_half = _zmul(kernel.g(np.array([0.5 * dt])))[0]
    u_half = u[0] + 0.5 * dt * udot[0]
    mem_half = 0.25 * dt * (zg_half @ u[0] + zg[0] @ u_half)
    u[1] = u[0] + dt * (mws @ u_half - mem_half)
    mem1 = 0.5 * dt * (zg[1] @ u[0] + zg[0] @ u[1])
    udot[1] = mws @ u[1] - mem1
    _check_finite(u[1:2], 1, times[1:2], "U")

    half_zg0 = 0.5 * dt * zg[0]
    for m in range(2, n + 1):
        # history part of the trapezoid memory (everything except the new point)
        hist = np.einsum("jab,jbc->ac", zg[m - 1:0:-1], u[1:m])
        hist += 0.5 * zg[m] @ u[0]
        hist *= dt

        pred = u[m - 1] + dt * (1.5 * udot[m - 1] - 0.5 * udot[m - 2])
        f_pred = mws @ pred - (hist + half_zg0 @ pred)
        u[m] = u[m - 1] + 0.5 * dt * (udot[m - 1] + f_pred)
        udot[m] = mws @ u[m] - (hist + half_zg0 @ u[m])
        _check_finite(u[m:m + 1], m, times[m:m + 1], "U")

    return GreensSolution(
        grid=grid, omega_s=omega_s, u=u, u_dot=udot,
        metadata={"u_solver": "pc2(ab2+trapezoid, midpoint start)"},
    )


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


# 32 and 600 are their own fast lengths; 37, 67 and 101 pad to 40, 70 and 105
@pytest.mark.parametrize("size", [32, 37, 67, 101, 600])
@pytest.mark.parametrize("shift", [0, 1])
def test_middle_matconv_is_the_direct_sum_on_the_upper_outputs(size, shift):
    # the solve_u history: outputs m in [h, size) of the convolution with
    # b[:h], for h of either parity
    half = size // 2 + shift
    rng = np.random.default_rng(size + shift)
    a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    b = rng.normal(size=(half, 2, 2)) + 1j * rng.normal(size=(half, 2, 2))
    direct = np.array([np.einsum("jab,jbc->ac", a[m:m - half:-1], b)
                       for m in range(half, size)])
    spec_a = greens._spectrum(a, greens._next_fast_len(size))
    conv = greens._middle_matconv(spec_a, b, size)
    assert np.max(np.abs(conv - direct)) <= RTOL * np.max(np.abs(direct))


def test_fft_length_is_scipys_next_fast_len():
    lengths = range(1, 100_001)
    assert ([greens._next_fast_len(n) for n in lengths]
            == [scipy.fft.next_fast_len(n) for n in lengths])


@pytest.mark.parametrize("size", [7, 601, 2001])
def test_causal_matconv_is_the_scipy_fft_route_bit_for_bit(size):
    # numpy's FFT gives scipy's bits at scipy's length, so the CSVs of the V
    # route stay byte-identical
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    b = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    nfft = scipy.fft.next_fast_len(2 * size - 1)
    spec = np.einsum("fab,fbc->fac", scipy.fft.fft(a, nfft, axis=0),
                     scipy.fft.fft(b, nfft, axis=0))
    ref = scipy.fft.ifft(spec, axis=0)[:size]
    assert np.array_equal(greens._causal_matconv(a, b), ref)


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


def _quench_point():
    """(grid, bath, correlations, U) at the quench benchmark point:
    omega_s = 0.3 quenched from 0.6 on 300 gauss modes."""
    omega, omega_s0 = 0.3, 0.6
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=200, max_frequency=1.0)
    bath = gqbm.discretize_bath(make_model(0.5), 300, 12.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, omega)
    state = gqbm.thermal_total_state(dyn, TEMPERATURE, omega_s0)
    kbath = replace(bath, occupations=state.bath_occupations)
    sol = gqbm.solve_u(gqbm.kernels_from_bath(kbath), omega, grid)
    return grid, kbath, state.correlations, sol.u


def test_correlated_correction_matches_the_loop_at_the_quench_point():
    grid, kbath, corr, u = _quench_point()
    fast = gqbm.correlated_correction(kbath, corr, u, grid)

    e = _outer_product_e(kbath, corr, grid.times)
    loop = _loop_correlated_convolution(u, _zmul(e), grid.n_steps, grid.dt)

    assert np.max(np.abs(loop)) > 0.0
    _assert_matches_loop(fast, loop)


def test_correlated_correction_phase_sums_match_the_outer_products():
    grid, kbath, corr, u = _quench_point()
    fast = gqbm.correlated_correction(kbath, corr, u, grid)
    dense = _outer_product_correlated_correction(kbath, corr, u, grid)
    assert np.max(np.abs(dense)) > 0.0
    _assert_matches_loop(fast, dense)


def test_correlated_correction_temporaries_stay_within_the_bound(monkeypatch):
    # 2 001 times x 2 001 modes: the dense phase matrices held 4.004e6
    # elements each; the phase sums stay within _exp_sum's 4e6 bound
    sizes = []
    real_exp = np.exp

    def recording_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    grid = gqbm.TimeGrid(t_end=4.0, n_steps=2000, max_frequency=1.0)
    bath = gqbm.discretize_bath(make_model(0.5), 2001, 12.0, scheme="gauss")
    rng = np.random.default_rng(5)
    corr = greens.InitialCorrelations(
        n_prime=rng.normal(size=2001) + 1j * rng.normal(size=2001),
        s_prime=rng.normal(size=2001) + 1j * rng.normal(size=2001))
    u = np.tile(np.eye(2, dtype=complex), (grid.n_steps + 1, 1, 1))
    assert grid.times.size * bath.n_modes > 4e6
    monkeypatch.setattr(np, "exp", recording_exp)
    fast = gqbm.correlated_correction(bath, corr, u, grid)
    monkeypatch.undo()
    assert sizes and max(sizes) <= 4e6
    _assert_matches_loop(
        fast, _outer_product_correlated_correction(bath, corr, u, grid))


# ---- 2x2 stack products: elementwise against the matmul forms they replaced --

MUL2_RTOL = 1e-14


def _matmul_fdt_double_integral(inner, udag, zgtz, n, dt):
    """_fdt_double_integral with its products through np.matmul, as it was."""
    k_pos = zgtz[n:]                          # K_d, d = 0..n
    k_neg = zgtz[n::-1]                       # K_{-d}, d = 0..n
    xe = inner @ greens._causal_matconv(k_neg, udag)     # X_m E_m
    cy = greens._causal_matconv(inner, k_pos) @ udag     # C_m Y_m
    diag = inner @ zgtz[n] @ udag                 # X_m K_0 Y_m
    row0 = inner[0] @ (k_pos @ udag)              # X_0 K_m Y_m
    col0 = (inner @ k_neg) @ udag[0]              # X_m K_{-m} Y_0
    unweighted = np.cumsum(xe + cy - diag, axis=0)
    edges = np.cumsum(row0, axis=0) + np.cumsum(col0, axis=0) + xe + cy
    corners = diag[0] + row0 + col0 + diag
    out = dt * dt * (unweighted - 0.5 * edges + 0.25 * corners)
    out[0] = 0.0
    return out


def _matmul_chain(kernel, sol):
    """V, dV/dtau, K and Lambda as solve_v_fdt, v_first_derivative and
    compute_k_lambda computed them through np.matmul and einsum."""
    grid = sol.grid
    n, dt = grid.n_steps, grid.dt
    zgtz = kernel.zgtz_signed_table(grid)
    udag = np.conj(np.swapaxes(sol.u, -1, -2))
    v = _matmul_fdt_double_integral(sol.u, udag, zgtz, n, dt)
    vdot = _matmul_fdt_double_integral(sol.u_dot, udag, zgtz, n, dt)
    integrand = np.einsum("kab,kbc->kac", zgtz[n:2 * n + 1], udag)
    vdot[1:] += np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]), axis=0)
    uinv = _invert_2x2(sol.u, grid.times)
    a_ser = np.einsum("tab,tbc->tac", sol.u_dot, uinv)
    k = (-1j * sol.omega_s * Z)[None, :, :] - a_ser
    lam = vdot - np.einsum("tab,tbc->tac", a_ser, v)
    return {"v": v, "vdot": vdot, "k": k, "lam": lam}


def _assert_matches_matmul(fast, ref):
    assert np.max(np.abs(fast - ref)) <= MUL2_RTOL * np.max(np.abs(ref))
    # exact zeros (no pairing, the t = 0 rows) stay exact zeros
    assert np.array_equal(fast == 0, ref == 0)


def _stack(rng, *shape):
    return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))


def test_mul2_is_matmul_on_every_broadcast_form_it_is_used_with():
    rng = np.random.default_rng(11)
    n = 601
    a, b, zgtz = _stack(rng, n), _stack(rng, n), _stack(rng, 2 * n - 1)
    k_neg = zgtz[n - 1::-1]                   # the negative-stride K_{-d} view
    forms = {"stack @ stack": (a, b), "stack @ single": (a, b[0]),
             "single @ stack": (a[0], b), "view @ stack": (k_neg, b),
             "stack @ view": (a, k_neg)}
    for form, (x, y) in forms.items():
        ref = np.matmul(x, y)
        out = greens._mul2(x, y)
        assert out.shape == ref.shape, form
        assert np.max(np.abs(out - ref)) <= MUL2_RTOL * np.max(np.abs(ref)), form
        into = np.empty_like(ref)
        assert greens._mul2(x, y, into) is into
        assert np.array_equal(into, out), form


@pytest.mark.parametrize("pack", ["pack_alpha0", "pack_alpha05", "pack_alpha1"])
def test_v_route_and_k_lambda_match_the_matmul_forms(pack, request):
    # the n = 2000 grid of the paper point
    _, kernel, sol = request.getfixturevalue(pack)
    ref = _matmul_chain(kernel, sol)
    kl = gqbm.compute_k_lambda(sol, kernel)
    fast = {"v": gqbm.solve_v_fdt(kernel, sol.u, sol.grid),
            "vdot": greens.v_first_derivative(kernel, sol),
            "k": kl.k, "lam": kl.lam}
    for key in ref:
        _assert_matches_matmul(fast[key], ref[key])


def test_correlated_correction_matches_the_matmul_form(monkeypatch):
    # the matmul form is the library's own code with np.matmul for _mul2
    grid, kbath, corr, u = _quench_point()
    fast = gqbm.correlated_correction(kbath, corr, u, grid)
    monkeypatch.setattr(greens, "_mul2",
                        lambda a, b, out=None: np.matmul(a, b, out=out))
    ref = gqbm.correlated_correction(kbath, corr, u, grid)
    assert np.max(np.abs(ref)) > 0.0
    _assert_matches_matmul(fast, ref)


# ---- solve_u: divide-and-conquer history against the per-step sum -----------


def _assert_u_matches_loop(kernel, omega_s, grid, fast=None):
    if fast is None:
        fast = gqbm.solve_u(kernel, omega_s, grid)
    loop = _loop_solve_u(kernel, omega_s, grid)
    for a, b in ((fast.u, loop.u), (fast.u_dot, loop.u_dot)):
        assert np.max(np.abs(a - b)) <= RTOL * np.max(np.abs(b))
    return fast, loop


@pytest.mark.parametrize("pack", ["pack_alpha0", "pack_alpha05", "pack_alpha1"])
def test_solve_u_matches_the_loop_at_paper_resolution(pack, request):
    # the n = 2000 grid of the paper point, solved once by gqbm.solve_u
    _, kernel, sol = request.getfixturevalue(pack)
    fast, loop = _assert_u_matches_loop(kernel, sol.omega_s, sol.grid, sol)
    if pack == "pack_alpha0":
        # no pairing: the off-diagonals are exact zeros on both routes
        for a, b in ((fast.u, loop.u), (fast.u_dot, loop.u_dot)):
            assert np.array_equal(a == 0, b == 0)
            assert np.all(a[:, 0, 1] == 0.0)


def test_solve_u_zeros_at_zero_temperature_without_pairing(omega_s):
    kernel = gqbm.build_kernels(make_model(0.0, temperature=0.0))
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=2000, max_frequency=1.0)
    fast, loop = _assert_u_matches_loop(kernel, omega_s, grid)
    assert np.array_equal(fast.u == 0, loop.u == 0)
    assert np.array_equal(fast.u_dot == 0, loop.u_dot == 0)


def test_solve_u_matches_the_loop_on_the_quench_bath():
    # the quench benchmark point: 300 gauss modes, omega_s = 0.3
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=200, max_frequency=1.0)
    bath = gqbm.discretize_bath(make_model(0.5), 300, 12.0, scheme="gauss")
    _assert_u_matches_loop(gqbm.kernels_from_bath(bath), 0.3, grid)


@pytest.mark.parametrize("n_steps", [8, 9, 31, 32, 33, 64, 65, 97, 250, 601,
                                     1000])
def test_solve_u_matches_the_loop_across_block_boundaries(n_steps, omega_s):
    # the history sums blocks of up to 32 steps directly; these straddle them,
    # and 97, 250 and 1000 halve into map leaves of two lengths (24 and 25,
    # 31 and 32), each map built once and reused
    kernel = gqbm.build_kernels(make_model(0.5))
    grid = gqbm.TimeGrid(t_end=0.25 * n_steps, n_steps=n_steps,
                         max_frequency=1.0)
    _assert_u_matches_loop(kernel, omega_s, grid)


def test_solve_u_returns_separate_contiguous_arrays(pack_alpha05):
    # the march holds U and dU/dt in one stacked store; callers get neither
    # a strided view of it nor two views sharing its memory
    sol = pack_alpha05[2]
    assert sol.u.flags.c_contiguous and sol.u_dot.flags.c_contiguous
    assert not np.shares_memory(sol.u, sol.u_dot)


def _instability_message(solver, kernel, grid):
    with pytest.raises(InstabilityError) as err:
        solver(kernel, 0.1, grid)
    return str(err.value)


def _attractive_kernel(strength):
    # the synthetic attractive kernel of test_instability_reported_with_step
    def g(dt):
        dt = np.asarray(dt, dtype=float)
        out = np.zeros(dt.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = -strength
        out[..., 1, 1] = strength
        return out

    def gtilde(dt):
        return np.zeros(np.shape(dt) + (2, 2), dtype=complex)

    return kernel_with(g, gtilde)


def test_runaway_reported_at_the_same_step_on_both_routes():
    kernel = _attractive_kernel(60.0)
    grid = gqbm.TimeGrid(t_end=8.0, n_steps=800, max_frequency=1.0)
    fast = _instability_message(gqbm.solve_u, kernel, grid)
    assert fast == _instability_message(_loop_solve_u, kernel, grid)
    assert "at step" in fast


def test_leaf_run_past_its_bad_step_into_overflow_reports_that_step():
    # the first leaf overflows after step 1 trips; no RuntimeWarning may
    # escape before the guard reports step 1, as the step loop does
    kernel = _attractive_kernel(1e14)
    grid = gqbm.TimeGrid(t_end=8.0, n_steps=800, max_frequency=1.0)
    fast = _instability_message(gqbm.solve_u, kernel, grid)
    assert fast == _instability_message(_loop_solve_u, kernel, grid)
    assert "at step 1 " in fast


# G(t_0) enters the start step; G(t_1) only dU/dt at t_1, read by step 2.
# At n = 800 solve_u's first leaf blocks are steps 1-25, 26-50 and 51-75;
# the first is stepped from the midpoint start, the others each by one map.
@pytest.mark.parametrize("bad_step, trip_step",
                         [(0, 1), (1, 2), (2, 2), (25, 25), (26, 26),
                          (40, 40), (50, 50), (51, 51), (500, 500),
                          (800, 800)])
def test_nan_kernel_entry_trips_at_the_same_step_on_both_routes(bad_step,
                                                                trip_step):
    # one NaN entry of G(t_k): the FFTs must not carry it to steps before k
    base = gqbm.build_kernels(make_model(0.5))
    grid = gqbm.TimeGrid(t_end=8.0, n_steps=800, max_frequency=1.0)
    bad_time = grid.times[bad_step]

    def g(dt):
        out = base.g(dt)
        out[np.asarray(dt) == bad_time, 1, 0] = np.nan
        return out

    kernel = kernel_with(g, base.gtilde)
    fast = _instability_message(gqbm.solve_u, kernel, grid)
    assert fast == _instability_message(_loop_solve_u, kernel, grid)
    assert f"reached nan at step {trip_step} " in fast
