"""Time-local master-equation coefficients from the Green functions.

With U and V in hand, the exact time-convolutionless generator follows from

    K(t)      = -i omega_s Z - dU/dt U^-1
    Lambda(t) = d/dtau V(tau, t)|_{tau=t} - dU/dt U^-1 V(t, t)

and the physical coefficients are read off entrywise:

    omega_s'      = omega_s + Im K11          (renormalized frequency)
    omega_bar_s'  = -(i/2) (K12 + conj(K21))  (pair-production frequency)
    gamma         = 2 Re K11                  (relaxation rate)
    gamma_tilde   = 2 Re Lambda11             (normal diffusion)
    gamma_bar     = Lambda12 + conj(Lambda21) (anomalous diffusion)
    omega_r       = sqrt(omega_s'^2 - |omega_bar_s'|^2), flagged when the
                    radicand goes negative.

gamma here is twice the half-width convention some conventions use: the
mean obeys d<a>/dt = (-i omega_s' - gamma/2)<a> - i omega_bar' <a*>.

For alpha = 1 the model reduces to the position-coupled oscillator and the
coefficients collapse onto the standard quadrature form (hpz_reduce); the
exact relations Re omega_bar' = omega_s' - omega_s, Im omega_bar' = gamma/2,
Re gamma_bar = -gamma/2 - gamma_tilde are returned as residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, SingularityError
from .greens import GreensSolution, v_first_derivative, _zmul
from .moments import _diffusion
from .spectral import Kernel, Z, _trapezoid_panels

# Condition-number bound for inverting the 2x2 propagator.
CONDITION_MAX = 1e12
# Low-temperature regime bound for the short-time coefficient estimates.
LOW_T_FRACTION = 0.1


@dataclass
class KLambdaSeries:
    """K(t) and Lambda(t) on the grid, plus optional derivative check."""

    times: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    omega_s: float
    alpha: float | None = None
    fd_deviation: float | None = None
    metadata: dict = field(default_factory=dict)


def _invert_2x2(u: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a (n, 2, 2) stack with a condition guard."""
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    fro2 = np.sum(np.abs(u) ** 2, axis=(1, 2))
    # ||U||_F ||U^-1||_F = ||U||_F^2 / |det| for 2x2 matrices
    cond = fro2 / np.maximum(np.abs(det), 1e-300)
    bad = np.nonzero(~(cond <= CONDITION_MAX))[0]
    if bad.size:
        raise SingularityError(
            f"propagator inversion ill conditioned (estimate "
            f"{cond[bad[0]]:.3e}) at t = {times[bad[0]]:.6g}")
    inv = np.empty_like(u)
    inv[:, 0, 0] = u[:, 1, 1]
    inv[:, 1, 1] = u[:, 0, 0]
    inv[:, 0, 1] = -u[:, 0, 1]
    inv[:, 1, 0] = -u[:, 1, 0]
    return inv / det[:, None, None]


def compute_k_lambda(sol: GreensSolution, kernel: Kernel,
                     fd_check: bool = False) -> KLambdaSeries:
    """Assemble K and Lambda from a Green-function solution.

    The first-argument derivative of V is evaluated analytically from the
    differentiated closed form, never by finite differences; fd_check
    additionally compares d/dt V(t, t) against a central difference of the
    equal-time series and records the worst deviation.
    """
    if sol.v_equal_time is None:
        raise ContractViolationError(
            "solution carries no equal-time V; run solve_v_fdt first")
    grid = sol.grid
    times = grid.times
    uinv = _invert_2x2(sol.u, times)
    a_ser = np.einsum("tab,tbc->tac", sol.u_dot, uinv)
    mws = -1j * sol.omega_s * Z
    k = mws[None, :, :] - a_ser

    vdot1 = v_first_derivative(kernel, sol)
    lam = vdot1 - np.einsum("tab,tbc->tac", a_ser, sol.v_equal_time)

    fd_dev = None
    if fd_check:
        v = sol.v_equal_time
        dt = grid.dt
        total = vdot1 + np.conj(np.swapaxes(vdot1, -1, -2))
        fd = (v[2:] - v[:-2]) / (2.0 * dt)
        fd_dev = float(np.max(np.abs(fd - total[1:-1])))

    return KLambdaSeries(
        times=times, k=k, lam=lam, omega_s=sol.omega_s,
        alpha=kernel.alpha, fd_deviation=fd_dev,
        metadata={"vdot_route": "analytic-differentiated-closed-form"},
    )


@dataclass
class CoefficientSeries:
    """Master-equation coefficients on the grid.

    omega_r is stored as a complex array; radicand_negative marks times
    where omega_s'^2 - |omega_bar'|^2 < 0 and omega_r is imaginary.
    """

    times: np.ndarray
    omega_s: float
    omega_s_prime: np.ndarray
    omega_bar_prime: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    gamma_bar: np.ndarray
    omega_r: np.ndarray
    radicand_negative: np.ndarray
    alpha: float | None = None
    structure_residual: float = 0.0


def compute_me_coeffs(kl: KLambdaSeries) -> CoefficientSeries:
    """Read the physical coefficients off K and Lambda."""
    k = kl.k
    lam = kl.lam

    omega_s_prime = kl.omega_s + k[:, 0, 0].imag
    omega_bar_prime = -0.5j * (k[:, 0, 1] + np.conj(k[:, 1, 0]))
    gamma = 2.0 * k[:, 0, 0].real
    gamma_tilde = 2.0 * lam[:, 0, 0].real
    gamma_bar = lam[:, 0, 1] + np.conj(lam[:, 1, 0])

    radicand = omega_s_prime**2 - np.abs(omega_bar_prime) ** 2
    omega_r = np.sqrt(radicand.astype(complex))

    # conjugation structure of U makes K22 = conj(K11), K21 = conj(K12)
    scale = max(float(np.max(np.abs(k))), 1e-300)
    resid = max(
        float(np.max(np.abs(k[:, 1, 1] - np.conj(k[:, 0, 0])))),
        float(np.max(np.abs(k[:, 1, 0] - np.conj(k[:, 0, 1])))),
    ) / scale

    return CoefficientSeries(
        times=kl.times, omega_s=kl.omega_s,
        omega_s_prime=omega_s_prime, omega_bar_prime=omega_bar_prime,
        gamma=gamma, gamma_tilde=gamma_tilde, gamma_bar=gamma_bar,
        omega_r=omega_r, radicand_negative=radicand < 0.0,
        alpha=kl.alpha, structure_residual=resid,
    )


@dataclass
class HpzCoefficients:
    """Quadrature-form coefficients of the alpha = 1 (position-coupled) limit.

    x-p form: d_omega^2 frequency shift, Gamma damping, Gamma_h momentum
    diffusion, Gamma_f cross (x-p) diffusion, omega_p^2 the shifted squared
    frequency omega_s^2 + d_omega^2 - Gamma^2.  The residual arrays measure
    how well the alpha = 1 identities hold in the input series.
    """

    times: np.ndarray
    delta_omega_sq: np.ndarray
    gamma_damping: np.ndarray
    gamma_h: np.ndarray
    gamma_f: np.ndarray
    omega_p_sq: np.ndarray
    residual_freq: np.ndarray
    residual_damping: np.ndarray
    residual_diffusion: np.ndarray


def hpz_reduce(coeffs: CoefficientSeries, omega_s: float) -> HpzCoefficients:
    """Collapse the mode-basis coefficients onto the quadrature form.

    Only meaningful at alpha = 1, where W = V makes the coupling a pure
    position coupling; other alpha values are rejected.

    Sign conventions: Gamma_h = -omega_s Re gamma_bar = omega_s (gamma/2 +
    gamma_tilde) and Gamma_f = +Im gamma_bar.  These are fixed by requiring
    that the quadrature covariance equation reproduce the mode-basis moment
    equation exactly (momentum diffusion must heat, d var_x/dt must equal
    2 cov_xp / M).
    """
    if coeffs.alpha is None or coeffs.alpha != 1.0:
        raise ContractViolationError(
            f"quadrature reduction requires alpha = 1, got {coeffs.alpha}")

    delta_omega_sq = 2.0 * omega_s * coeffs.omega_bar_prime.real
    gamma_damping = 0.5 * coeffs.gamma
    gamma_h = -omega_s * coeffs.gamma_bar.real
    gamma_f = coeffs.gamma_bar.imag
    omega_p_sq = omega_s**2 + delta_omega_sq - gamma_damping**2

    residual_freq = coeffs.omega_bar_prime.real - (coeffs.omega_s_prime - omega_s)
    residual_damping = coeffs.omega_bar_prime.imag - 0.5 * coeffs.gamma
    residual_diffusion = (coeffs.gamma_bar.real + 0.5 * coeffs.gamma
                          + coeffs.gamma_tilde)

    return HpzCoefficients(
        times=coeffs.times,
        delta_omega_sq=delta_omega_sq, gamma_damping=gamma_damping,
        gamma_h=gamma_h, gamma_f=gamma_f, omega_p_sq=omega_p_sq,
        residual_freq=residual_freq, residual_damping=residual_damping,
        residual_diffusion=residual_diffusion,
    )


@dataclass
class JoltEstimate:
    """Short-time coefficient estimates from the bare kernel transforms."""

    times: np.ndarray
    gamma_est: np.ndarray
    gamma_tilde_est: np.ndarray
    low_temperature: bool


def jolt_estimate(kernel: Kernel, sol: GreensSolution) -> JoltEstimate:
    """Initial-transient estimates of gamma and gamma_tilde.

    Valid in the low-temperature regime T << cutoff, where the thermal
    transforms are negligible against the vacuum pair-production ones:

        gamma_tilde(t) ~ 2 Re int_0^t g_w(s) U11(s) ds
        gamma(t)       ~ 2 Re int_0^t (conj(g_v)(s) - g_w(s)) U11(s) ds

    with g_w = alpha^2 g_v.  Issues a RuntimeWarning outside the regime.
    """
    if kernel.g_v is None or kernel.alpha is None:
        raise ContractViolationError(
            "kernel carries no scalar transform metadata; build it with "
            "build_kernels or kernels_from_bath")
    low_t = (kernel.temperature is not None and kernel.cutoff is not None
             and kernel.temperature <= LOW_T_FRACTION * kernel.cutoff)
    if not low_t:
        warnings.warn(
            "short-time estimates drop thermal transforms; outside the "
            "low-temperature regime (T <= 0.1 cutoff) they are unreliable",
            RuntimeWarning, stacklevel=2)

    times = sol.grid.times
    gv = kernel.g_v(times)
    u11 = sol.u[:, 0, 0]
    alpha2 = kernel.alpha**2

    def cumulative(y):
        return np.concatenate([[0.0], np.cumsum(_trapezoid_panels(y, times))])

    gt_int = cumulative(gv * u11)
    g_int = cumulative((np.conj(gv) - alpha2 * gv) * u11)
    return JoltEstimate(
        times=times,
        gamma_est=2.0 * g_int.real,
        gamma_tilde_est=2.0 * alpha2 * gt_int.real,
        low_temperature=low_t,
    )


def coeff_integral_crosscheck(kernel: Kernel, sol: GreensSolution) -> dict:
    """Independent integral route to the diffusion matrix.

    Evaluates

        D(t) = int_0^t [ Z Gt(t-s) Z U(t-s)^dag - Z G(t-s) V(s, t) ] ds
               + K(t) V(t, t) + h.c.

    which must agree with [[gamma_tilde, gamma_bar], [conj, gamma +
    gamma_tilde]] from the differential route.  Requires the two-time V
    table (solve_v_volterra with return_two_time=True).
    """
    if sol.v_two_time is None:
        raise ContractViolationError(
            "crosscheck needs the two-time V table; rerun solve_v_volterra "
            "with return_two_time=True")
    if sol.v_equal_time is None:
        raise ContractViolationError("solution carries no equal-time V")

    grid = sol.grid
    n = grid.n_steps
    dt = grid.dt
    zgtz = kernel.zgtz_signed_table(grid)
    zg = _zmul(kernel.g_table(grid))
    udag = np.conj(np.swapaxes(sol.u, -1, -2))

    kl = compute_k_lambda(sol, kernel)
    me = compute_me_coeffs(kl)
    d_ref = _diffusion(me)

    # boundary piece int_0^t ZGt(s)Z U(s)^dag ds, cumulative trapezoid
    integrand = np.einsum("kab,kbc->kac", zgtz[n:2 * n + 1], udag)
    w_cum = np.zeros_like(integrand)
    w_cum[1:] = np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]), axis=0)

    d_int = np.empty((n + 1, 2, 2), dtype=complex)
    for m in range(n + 1):
        acc = w_cum[m].copy()
        if m:
            # memory piece -int_0^t Z G(t-s) V(s, t) ds (V(0, t) = 0)
            vals = np.einsum("sab,sbc->ac", zg[m - 1::-1],
                             sol.v_two_time[1:m + 1, m])
            vals -= 0.5 * zg[0] @ sol.v_two_time[m, m]
            acc -= dt * vals
        half = acc + kl.k[m] @ sol.v_equal_time[m]
        d_int[m] = half + np.conj(half).T

    deviation = float(np.max(np.abs(d_int - d_ref)))
    return {"d_integral": d_int, "d_differential": d_ref,
            "max_deviation": deviation}
