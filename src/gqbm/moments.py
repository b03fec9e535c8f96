"""Gaussian state propagation under the time-local master equation.

For Gaussian states the full dynamics reduces to the mean <a> and the
centered second moments delta_n = <da^dag da>, delta_s = <da da>.  The
master-equation coefficients close these into linear ODEs:

    d<a>/dt = (-i omega_s' - gamma/2) <a> - i omega_bar' <a*>
    dN/dt   = A N + N A^dag + D,   N = [[delta_n, delta_s],
                                        [conj(delta_s), 1 + delta_n]]

with A the mean-equation generator and D = [[gamma_tilde, gamma_bar],
[conj(gamma_bar), gamma + gamma_tilde]].  Quadrature covariances follow
from the mode moments through x = (a + a^dag)/sqrt(2 M omega_s),
p = -i sqrt(M omega_s / 2) (a - a^dag).

Integration uses the explicit midpoint rule on the coefficient grid, with
coefficients linearly interpolated at half steps (consistent with the
second-order accuracy of the coefficient series itself).  Each ODE is
marched on the vector y (<a> and <a^dag>, or the row-major vec of N or of
the quadrature covariance), where one step is an affine increment of y.
The steps are composed in blocks, all blocks at once, so a march of n steps
takes about 2 sqrt(n) Python iterations, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalQualityError,
    ValidationError,
    guard,
    require,
    require_budget,
)

# Commutator drift bound for the second-moment integration.
COMMUTATOR_DRIFT_TOL = 1e-6
# Conjugacy bound for the mean-equation pair (<a>, <a^dag>).
CONJUGACY_TOL = 1e-8
# Uncertainty-bound violation that require_physical forgives as rounding.
UNCERTAINTY_TOL = 1e-12

MOMENT_MARCH_SCHEME = ("explicit midpoint, coefficients linearly interpolated "
                       "at half steps; steps composed as affine maps in "
                       "increment form, in blocks of isqrt(n) steps")
# The (steps, k, k) tables a march holds at once: its generator series, the
# half-step generators and the composed maps.
_MARCH_TABLES = 3


@dataclass
class GaussianMoments:
    """Mean and centered second moments of the open mode.

    All fields must be finite and delta_n nonnegative; a physical Gaussian
    state additionally satisfies delta_n (delta_n + 1) >= |delta_s|^2
    (checked by require_physical, which evolution entry points call).
    """

    mean_a: complex = 0.0 + 0.0j
    delta_n: float = 0.0
    delta_s: complex = 0.0 + 0.0j

    def __post_init__(self):
        require("delta_n", self.delta_n, ">= 0")
        require("mean_a", self.mean_a)
        require("delta_s", self.delta_s)

    @property
    def delta_h(self) -> float:
        """<da da^dag> = 1 + delta_n."""
        return 1.0 + self.delta_n

    def n_matrix(self) -> np.ndarray:
        """[[delta_n, delta_s], [conj(delta_s), delta_h]], stacked."""
        out = np.empty(np.shape(self.delta_n) + (2, 2), dtype=complex)
        out[..., 0, 0] = self.delta_n
        out[..., 0, 1] = self.delta_s
        out[..., 1, 0] = np.conj(self.delta_s)
        out[..., 1, 1] = self.delta_h
        return out

    def heisenberg_defect(self) -> float:
        """delta_n (delta_n + 1) - |delta_s|^2; negative means unphysical."""
        return self.delta_n * (self.delta_n + 1.0) - abs(self.delta_s) ** 2

    def require_physical(self):
        guard(-self.heisenberg_defect(), UNCERTAINTY_TOL, ValidationError,
              "violation of the uncertainty bound")


@dataclass
class QuadratureCovariances:
    """Symmetrized covariances of x and p, scalars or series on a grid."""

    var_x: float
    var_p: float
    cov_xp: float


def _require_scales(mass: float, omega_s: float):
    """The quadrature scales M and omega_s must be finite and > 0."""
    require("mass", mass, "> 0")
    require("omega_s", omega_s, "> 0")


def to_quadratures(moments, mass: float = 1.0,
                   omega_s: float = 1.0) -> QuadratureCovariances:
    """Map mode moments to quadrature covariances (vacuum: 1/(2 M w), M w/2, 0).

    moments is a GaussianMoments, or a SecondMomentSeries mapped elementwise.
    """
    _require_scales(mass, omega_s)
    dn = moments.delta_n
    ds = moments.delta_s
    var_x = (1.0 + 2.0 * dn + 2.0 * ds.real) / (2.0 * mass * omega_s)
    var_p = 0.5 * mass * omega_s * (1.0 + 2.0 * dn - 2.0 * ds.real)
    return QuadratureCovariances(var_x=var_x, var_p=var_p, cov_xp=ds.imag)


def _mean_generator(coeffs) -> np.ndarray:
    """Series of the 2x2 generator of (<a>, <a^dag>)."""
    n = coeffs.times.size
    a = np.empty((n, 2, 2), dtype=complex)
    a[:, 0, 0] = -1j * coeffs.omega_s_prime - 0.5 * coeffs.gamma
    a[:, 0, 1] = -1j * coeffs.omega_bar_prime
    a[:, 1, 0] = 1j * np.conj(coeffs.omega_bar_prime)
    a[:, 1, 1] = 1j * coeffs.omega_s_prime - 0.5 * coeffs.gamma
    return a


def _diffusion(coeffs) -> np.ndarray:
    n = coeffs.times.size
    d = np.empty((n, 2, 2), dtype=complex)
    d[:, 0, 0] = coeffs.gamma_tilde
    d[:, 0, 1] = coeffs.gamma_bar
    d[:, 1, 0] = np.conj(coeffs.gamma_bar)
    d[:, 1, 1] = coeffs.gamma + coeffs.gamma_tilde
    return d


def _sylvester(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Series of the 4x4 map vec N -> left N + N right^T on the row-major
    vec of a 2x2 N: left (x) I + I (x) right."""
    gen = np.zeros(left.shape[:1] + (2, 2, 2, 2),
                   dtype=np.result_type(left, right))
    for i in range(2):
        gen[:, :, i, :, i] += left
        gen[:, i, :, i, :] += right
    return gen.reshape(-1, 4, 4)


def _march_block(n_steps: int) -> int:
    """Steps per block of a march of n_steps: about as many as blocks."""
    return math.isqrt(n_steps)


def _midpoint_march(gen: np.ndarray, force: np.ndarray, y0: np.ndarray,
                    dt: float) -> np.ndarray:
    """States of the linear ODE dy/dt = L(t) y + d(t) on the grid.

    gen holds the k x k generators L and force the forcings d on the grid
    points; the explicit midpoint rule interpolates both linearly at half
    steps.  Step m is then the affine increment y -> y + E_m y + g_m with
    E_m = dt L_mid + dt^2/2 L_mid L_m and g_m = dt d_mid + dt^2/2 L_mid d_m.
    Within each block of b = isqrt(n) steps, the maps from the block's start
    to each of its states are composed in increment form, never folding in
    the identity: P <- P + E + E P and q <- q + g + E q, a step of every
    block at once.  One pass over the block starts then carries the state
    across the blocks, and one fill writes every state.  The march checks
    nothing: callers monitor the finished series, so a non-finite
    coefficient carries on as NaN from its step to the end, and no earlier
    state sees it.
    """
    n, k = gen.shape[0] - 1, y0.size
    b = _march_block(n)
    blocks = -(-n // b)
    dtype = np.result_type(gen, force, y0)
    # the steps padded to whole blocks with E = 0, g = 0; P and q of each
    # step overwrite its E and g, and states[1:] holds q until the fill
    maps = np.zeros((blocks * b, k, k), dtype=dtype)
    states = np.zeros((blocks * b + 1, k), dtype=dtype)
    e, g = maps[:n], states[1:n + 1]
    mid = gen[1:] + gen[:-1]
    mid *= 0.5
    np.matmul(mid, force[:-1, :, None], out=g[..., None])
    g *= 0.5 * dt
    g += 0.5 * (force[1:] + force[:-1])
    g *= dt
    np.matmul(mid, gen[:-1], out=e)
    e *= 0.5 * dt
    e += mid
    e *= dt
    del mid

    p = maps.reshape(blocks, b, k, k)
    q = states[1:].reshape(blocks, b, k)
    for r in range(1, b):
        step = p[:, r]
        q[:, r] += q[:, r - 1] + (step @ q[:, r - 1, :, None])[..., 0]
        p[:, r] += p[:, r - 1] + step @ p[:, r - 1]

    starts = np.empty((blocks, k), dtype=dtype)
    y = y0
    for j in range(blocks):
        starts[j] = y
        y = y + p[j, -1] @ y + q[j, -1]
    q += (p @ starts[:, None, :, None])[..., 0]
    q += starts[:, None, :]
    states[0] = y0
    return states[:n + 1]


def evolve_means(coeffs, init: GaussianMoments, grid) -> np.ndarray:
    """<a>(t) on the grid.  The pair (<a>, <a^dag>) is propagated, and the
    conjugate component is monitored, not trusted: the first time in the
    finished series that it leaves conj(<a>) by more than CONJUGACY_TOL
    (relative, floor 1) raises NumericalQualityError."""
    init.require_physical()
    _require_march(coeffs, grid, 2)
    y0 = np.array([init.mean_a, np.conj(init.mean_a)], dtype=complex)
    ys = _midpoint_march(_mean_generator(coeffs),
                         np.zeros((grid.n_steps + 1, 2)), y0, grid.dt)
    dev = np.abs(ys[:, 1] - np.conj(ys[:, 0]))
    guard(dev / np.maximum(1.0, np.abs(ys[:, 0])), CONJUGACY_TOL,
          NumericalQualityError, "mean conjugacy deviation (relative)",
          grid.times)
    return ys[:, 0]


@dataclass
class SecondMomentSeries:
    """delta_n(t), delta_s(t), the propagated delta_h(t) and the largest
    commutator drift, from evolve_covariances or an oracle reader alike."""

    times: np.ndarray
    delta_n: np.ndarray
    delta_s: np.ndarray
    delta_h: np.ndarray
    max_commutator_drift: float

    n_matrix = GaussianMoments.n_matrix


def _require_commutator(delta_n, delta_h, times) -> float:
    """The max commutator drift |delta_h - delta_n - 1| of a series, with
    delta_h = <da da^dag>; raises NumericalQualityError at the first time
    it passes COMMUTATOR_DRIFT_TOL or turns non-finite."""
    return guard(np.abs(delta_h - delta_n - 1.0), COMMUTATOR_DRIFT_TOL,
                 NumericalQualityError, "commutator drift", times)


def evolve_covariances(coeffs, init: GaussianMoments, grid) -> SecondMomentSeries:
    """Second moments under dN/dt = A N + N A^dag + D.

    The redundant <da da^dag> entry is propagated rather than pinned to
    1 + delta_n and kept as delta_h, so the commutator defect measures
    integration quality; drift beyond 1e-6 raises NumericalQualityError.
    No positivity clipping is applied anywhere.
    """
    init.require_physical()
    _require_march(coeffs, grid, 4)
    a = _mean_generator(coeffs)
    nms = _midpoint_march(_sylvester(a, np.conj(a)),
                          _diffusion(coeffs).reshape(-1, 4),
                          init.n_matrix().reshape(4), grid.dt).reshape(-1, 2, 2)
    drift = _require_commutator(nms[:, 0, 0], nms[:, 1, 1], grid.times)
    return SecondMomentSeries(
        times=grid.times, delta_n=nms[:, 0, 0].real, delta_s=nms[:, 0, 1],
        delta_h=nms[:, 1, 1].real, max_commutator_drift=drift)


def evolve_hpz_covariances(hpz, init: QuadratureCovariances, grid,
                           mass: float = 1.0,
                           omega_s: float = 1.0) -> QuadratureCovariances:
    """Quadrature covariances under the position-coupled (alpha = 1) form.

    d/dt Cov = F Cov + Cov F^T + D_q with
    F = [[0, 1/M], [-M (omega_s^2 + d_omega^2), -2 Gamma]],
    D_q = [[0, Gamma_f], [Gamma_f, 2 M Gamma_h]].
    Returns a QuadratureCovariances of series on the grid.  init must be
    finite; the finished series is monitored: the first time with a
    non-finite covariance raises NumericalQualityError.
    """
    _require_scales(mass, omega_s)
    _require_march(hpz, grid, 4)
    cov0 = require("init [[var_x, cov_xp], [cov_xp, var_p]]",
                   np.array([[init.var_x, init.cov_xp],
                             [init.cov_xp, init.var_p]], dtype=float))
    n = grid.n_steps

    f_ser = np.zeros((n + 1, 2, 2))
    f_ser[:, 0, 1] = 1.0 / mass
    f_ser[:, 1, 0] = -mass * (omega_s**2 + hpz.delta_omega_sq)
    f_ser[:, 1, 1] = -2.0 * hpz.gamma_damping
    d_ser = np.zeros((n + 1, 2, 2))
    d_ser[:, 0, 1] = hpz.gamma_f
    d_ser[:, 1, 0] = hpz.gamma_f
    d_ser[:, 1, 1] = 2.0 * mass * hpz.gamma_h

    covs = _midpoint_march(_sylvester(f_ser, f_ser), d_ser.reshape(-1, 4),
                           cov0.reshape(4), grid.dt).reshape(-1, 2, 2)
    guard(np.max(np.abs(covs), axis=(1, 2)), math.inf, NumericalQualityError,
          "largest quadrature covariance", grid.times)
    return QuadratureCovariances(var_x=covs[:, 0, 0], var_p=covs[:, 1, 1],
                                 cov_xp=0.5 * (covs[:, 0, 1] + covs[:, 1, 0]))


def _require_march(coeffs, grid, k: int):
    """The coefficient series must lie on grid, and the march's tables of
    k x k step maps must fit the memory budget, checked before allocation."""
    if coeffs.times.size != grid.n_steps + 1 or not np.isclose(
            coeffs.times[-1], grid.t_end):
        raise ValidationError(
            "coefficient series was computed on a different grid")
    rows = grid.n_steps + _march_block(grid.n_steps) + 1
    require_budget("the moment march", _MARCH_TABLES * rows * k * k * 16,
                   f"{k}x{k} complex step maps")
