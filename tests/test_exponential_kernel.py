"""solve_u and solve_v_fdt against an exact continuum reference: an
exponential kernel.

A kernel g_v(t) = kappa e^{-mu t} closes the memory of U into a small linear
ODE.  With C1 = [[1, a], [a, a^2]] and C2 = -[[a^2, a], [a, 1]] the weights
that Kernel.g applies, G(t) = C1 g_v(t) + C2 conj(g_v(t)), and the memory
integrals Y1 = int_0^t kappa e^{-mu (t - s)} U(s) ds and
Y2 = int_0^t conj(kappa) e^{-conj(mu) (t - s)} U(s) ds obey
dY1/dt = kappa U - mu Y1 and dY2/dt = conj(kappa) U - conj(mu) Y2.  With
dU/dt = -i omega_s Z U - Z C1 Y1 - Z C2 Y2, the 6 x 2 state (U, Y1, Y2)
obeys one linear ODE, and one matrix exponential steps it over the grid.  The
reference uses no greens, coeffs or spectral code beyond the Kernel
constructor.  This is the pseudomode picture of a Lorentzian bath
(Garraway, PRA 55, 2290 (1997)), and it has no recurrence horizon.

V closes the same way.  With gtilde_v = nbar g_v, Kernel.gtilde applies
Gt(t) = D1 g_v(t) + D2 conj(g_v(t)) for t >= 0, D1 = nbar C1 and
D2 = (1 + nbar) [[a^2, a], [a, 1]] = -(1 + nbar) C2, and
Gt(-t) = Gt(t)^dag.  Differentiating the double integral at its two upper
limits gives

    dV/dt = U Z (conj(kappa) D1 Z Q2 + kappa D2 Z Q1) + h.c.,

with Q_j(t) = int_0^t e^{-mu_j (t - s)} U(s)^dag ds, so that
dQ_j/dt = U^dag - mu_j Q_j, mu_1 = mu and mu_2 = conj(mu).  The state
(U, Y1, Y2, Q1, Q2, V) is integrated by DOP853 at rtol 1e-13; its U agrees
with the matrix exponential to about 2e-13.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import gqbm

KAPPA, MU, NBAR, OMEGA_S = 0.02, 0.5 + 0.8j, 0.3, 0.3
T_END = 20.0
Z = np.diag([1.0, -1.0])

# max|U - U_ref| at t_end = 20 and n = 400, 800, 1 600 read 3.61e-5,
# 8.96e-6, 2.23e-6 (alpha 0), 1.53e-5, 3.83e-6, 9.56e-7 (alpha 0.5) and
# 6.06e-5, 1.52e-5, 3.80e-6 (alpha 1), orders 2.00-2.01; the bound at
# n = 800 is 1.5 times the deviation read there
U_BOUND_800 = {0.0: 1.4e-5, 0.5: 5.8e-6, 1.0: 2.3e-5}
ORDER_RANGE = (1.7, 2.3)
# max|V - V_ref| / max|V_ref| of solve_v_fdt at t_end = 20 and n = 400, 800,
# 1 600 read 8.27e-5, 2.12e-5, 5.37e-6 at alpha 0 (either nbar), 8.35e-5,
# 2.14e-5, 5.41e-6 (alpha 0.5) and 8.56e-5, 2.17e-5, 5.45e-6 (alpha 1) at
# nbar 0.3, and 8.09e-5, 2.08e-5, 5.25e-6 (alpha 0.5) and 7.67e-5, 1.94e-5,
# 4.86e-6 (alpha 1) at nbar 0, orders 1.96-1.99; the bound at n = 800 is 1.5
# times the deviation read there.  Keys are (alpha, nbar).
V_BOUND_800 = {(0.0, 0.0): 3.2e-5, (0.0, 0.3): 3.2e-5,
               (0.5, 0.0): 3.1e-5, (0.5, 0.3): 3.2e-5,
               (1.0, 0.0): 2.9e-5, (1.0, 0.3): 3.3e-5}


def exponential_kernel(alpha: float, nbar: float = NBAR) -> gqbm.Kernel:
    """g_v = kappa e^{-mu t} and gtilde_v = nbar g_v, a flat occupation."""
    return gqbm.Kernel(g_v=lambda t: KAPPA * np.exp(-MU * t),
                       gtilde_v=lambda t: nbar * KAPPA * np.exp(-MU * t),
                       alpha=alpha, temperature=0.0, cutoff=1.0)


def exact_u(alpha: float, grid: gqbm.TimeGrid, kappa=KAPPA) -> np.ndarray:
    """U on the grid, from the 6 x 6 generator of (U, Y1, Y2)."""
    c1 = np.array([[1.0, alpha], [alpha, alpha**2]])
    c2 = -np.array([[alpha**2, alpha], [alpha, 1.0]])
    eye, zero = np.eye(2), np.zeros((2, 2))
    gen = np.block([[-1j * OMEGA_S * Z, -Z @ c1, -Z @ c2],
                    [kappa * eye, -MU * eye, zero],
                    [np.conj(kappa) * eye, zero, -np.conj(MU) * eye]])
    step = expm(gen * grid.dt)
    state = np.vstack([eye, zero, zero]).astype(complex)
    u = np.empty((grid.n_steps + 1, 2, 2), dtype=complex)
    for k in range(grid.n_steps + 1):
        u[k] = state[:2]
        state = step @ state
    return u


def u_deviation(alpha: float, n_steps: int, t_end: float = T_END) -> float:
    grid = gqbm.TimeGrid(t_end=t_end, n_steps=n_steps)
    sol = gqbm.solve_u(exponential_kernel(alpha), OMEGA_S, grid)
    return float(np.max(np.abs(sol.u - exact_u(alpha, grid))))


@pytest.mark.parametrize("alpha", sorted(U_BOUND_800))
def test_u_converges_to_the_exponential_kernel_reference(alpha):
    coarse, fine = u_deviation(alpha, 400), u_deviation(alpha, 800)
    assert fine <= U_BOUND_800[alpha]
    order = np.log2(coarse / fine)
    assert ORDER_RANGE[0] <= order <= ORDER_RANGE[1]


# One long grid, which no oracle reaches: at t_end = 400 and alpha 0.5,
# max|U - U_ref| read 2.21e-5 and 5.21e-6 at n = 8 000 and 16 000, order
# 2.09; the bound at n = 16 000 is 1.5 times the deviation read there
LONG_T_END = 400.0
U_BOUND_LONG = 7.8e-6


def test_u_converges_to_the_exponential_kernel_reference_on_a_long_grid():
    coarse = u_deviation(0.5, 8_000, LONG_T_END)
    fine = u_deviation(0.5, 16_000, LONG_T_END)
    assert fine <= U_BOUND_LONG
    order = np.log2(coarse / fine)
    assert ORDER_RANGE[0] <= order <= ORDER_RANGE[1]


def test_the_reference_without_coupling_is_the_free_phase():
    grid = gqbm.TimeGrid(t_end=T_END, n_steps=400)
    free = np.exp(-1j * OMEGA_S * np.outer(grid.times, np.diag(Z)))
    u = exact_u(0.5, grid, kappa=0.0)
    assert np.max(np.abs(u - free[:, :, None] * np.eye(2))) <= 1e-13


def exact_v(alpha: float, nbar: float, times: np.ndarray) -> np.ndarray:
    """V(t, t) at times, from the ODE of (U, Y1, Y2, Q1, Q2, V)."""
    c1 = np.array([[1.0, alpha], [alpha, alpha**2]])
    c2 = -np.array([[alpha**2, alpha], [alpha, 1.0]])
    d1_z = np.conj(KAPPA) * nbar * c1 @ Z
    d2_z = KAPPA * (1.0 + nbar) * -c2 @ Z
    mws = -1j * OMEGA_S * Z

    def rhs(_, y):
        u, y1, y2, q1, q2, _ = y.reshape(6, 2, 2)
        udag = np.conj(u).T
        du = mws @ u - Z @ c1 @ y1 - Z @ c2 @ y2
        half = u @ Z @ (d1_z @ q2 + d2_z @ q1)
        return np.concatenate([
            du, KAPPA * u - MU * y1, np.conj(KAPPA) * u - np.conj(MU) * y2,
            udag - MU * q1, udag - np.conj(MU) * q2,
            half + np.conj(half).T]).ravel()

    y0 = np.zeros((6, 2, 2), dtype=complex)
    y0[0] = np.eye(2)
    sol = solve_ivp(rhs, (0.0, times[-1]), y0.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-16, t_eval=times)
    assert sol.success
    return sol.y.T.reshape(-1, 6, 2, 2)[:, 5]


@pytest.mark.parametrize("alpha, nbar", sorted(V_BOUND_800))
def test_v_converges_to_the_exponential_kernel_reference(alpha, nbar):
    kernel = exponential_kernel(alpha, nbar)
    fine = gqbm.TimeGrid(t_end=T_END, n_steps=800)
    v_ref = exact_v(alpha, nbar, fine.times)
    scale = np.max(np.abs(v_ref))
    dev = {}
    for n in (400, 800):
        grid = gqbm.TimeGrid(t_end=T_END, n_steps=n)
        u = gqbm.solve_u(kernel, OMEGA_S, grid).u
        v = gqbm.solve_v_fdt(kernel, u, grid)
        dev[n] = np.max(np.abs(v - v_ref[::800 // n])) / scale
    assert dev[800] <= V_BOUND_800[(alpha, nbar)]
    order = np.log2(dev[400] / dev[800])
    assert ORDER_RANGE[0] <= order <= ORDER_RANGE[1]
