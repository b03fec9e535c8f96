"""Spectral densities, memory kernels, and bath discretizations.

The system is a single bosonic mode coupled to a continuum of bath modes
through a particle-exchange channel with strength profile J_V(omega) and a
pair-production channel J_W(omega) = alpha^2 * J_V(omega), 0 <= alpha <= 1.
All dissipation and fluctuation kernels reduce to two scalar transforms of
the particle-exchange spectral density,

    g_v(dt)       = integral J_V(w) exp(-i w dt) dw / (2 pi)
    gtilde_v(dt)  = integral J_V(w) nbar(w) exp(-i w dt) dw / (2 pi)

with nbar the Bose occupation at the bath temperature.  The default family
is an ohmic profile with exponential cutoff,

    J_V(w) = sqrt(pi gamma0 / (2 cutoff)) * w * exp(-w / cutoff)

for which both transforms are closed forms at every temperature: g_v is
amp (1/cutoff + i dt)^-2 and gtilde_v, the Bose series summed term by term,
is amp T^2 zeta(2, 1 + T/cutoff + i T dt), with amp = sqrt(gamma0/(8 pi cutoff))
and zeta the Hurwitz zeta function.  A tabulated J_V is piecewise linear, so
its g_v is a closed form too, and its gtilde_v is the same Bose series: g_v
summed at the complex times dt - i k/T, each knot's terms past at most 256
closed by Euler-Maclaurin.  No transform runs a frequency quadrature.
Everything is expressed in units of the cutoff (hbar = k_B = 1).

2x2 kernel layout (basis a, a^dagger):

    G(dt)  = [[g_v - conj(g_w),  g_vw - conj(g_vw)], [same off-diag, -conj(G11)]]
    Gt(dt) = thermal kernel built from gtilde_* plus vacuum pair terms,

with g_w = alpha^2 g_v and g_vw = alpha g_v (likewise for gtilde), so one
assembly path serves every Kernel.

Both are stationary (depend on the time difference only): a bath carries
per-mode occupations, which may be non-thermal, and no anomalous pair
correlations.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    NumericalQualityError,
    ValidationError,
    guard,
    require,
    require_count,
    require_vectors,
)

# Particle-hole structure matrix used across modules.
Z = np.diag([1.0, -1.0]).astype(complex)

_FAMILIES = ("ohmic", "tabulated")
_CHANNELS = ("v", "w", "vw")

# Most a-priori roundoff a tabulated transform's knot sum may carry, relative
# to the transform at dt = 0.
QUADRATURE_RTOL = 1e-8
# Below |dt| w_M = _TAYLOR_PHASE the knot sum of _LinearTableTransform loses
# digits to cancellation, as (dt w_M)^-2; there g_v is its Taylor series,
# whose roundoff grows with its largest term instead, and whose first
# omitted term is below 4^40 / 40! < 1e-24 of g_v(0).
_TAYLOR_PHASE = 4.0
_TAYLOR_TERMS = 40
# A knot leaves the Bose sum of a tabulated gtilde_v once the bound on its
# remaining terms is below _BOSE_TAIL of all the terms' magnitudes at t = 0.
_BOSE_TAIL = 1e-18
# Most terms a Bose sum runs: a knot still live past them has w/T < 0.17,
# and its later terms are summed per offset by _fraction_tails, in chunks of
# at most _TAIL_ELEMENTS knot-offset pairs.
_BOSE_TERMS = 256
_TAIL_ELEMENTS = 250_000
# Euler-Maclaurin closes a knot's Bose sum from its term _EM_START on (or
# from the end of the Taylor branch's terms, if later), by a power series of
# _SERIES_TERMS terms, if w/T |_EM_START + i T t| <= _SERIES_RADIUS.
_EM_START = 13
_SERIES_RADIUS = 2.0
_SERIES_TERMS = 30
_EULER_GAMMA = 0.5772156649015329
# Kernel.metadata["transforms"] of a tabulated kernel.
TABULATED_TRANSFORM_SCHEME = (
    f"closed form g_v of the piecewise-linear table (Filon; Taylor below "
    f"|dt| w_M = {_TAYLOR_PHASE:g}), gtilde_v as its Bose sum over "
    f"g_v(dt - i k/T), knots dropped below {_BOSE_TAIL:g} of its scale, at "
    f"most {_BOSE_TERMS} terms, later ones by Euler-Maclaurin (power series "
    f"or continued fraction of E_s), the zero knot's by Hurwitz zeta(2, a)")
# Newton sweeps of _newton_half, which _gauss_legendre runs up to order
# _NEWTON_ORDER: at most three are needed there, and they stop once the
# estimated error left in a node is below tol.
_NEWTON_ORDER = 100
_NEWTON_SWEEPS = 8
_NEWTON_TOL = 1e-17
# Most elements an exponential-sum temporary holds (_exp_sum, and the
# factors the Bose sum builds once per call).
_EXP_ELEMENTS = 4_000_000


def n_bar(omega, temperature: float):
    """Bose occupation 1/(exp(omega/T) - 1), elementwise, with T=0 -> 0.

    omega must be finite and temperature finite and >= 0.  At T > 0,
    |omega/T| < 1e-12 gives the divergent occupation inf, and a negative
    omega gives -1 - n_bar(|omega|), which is -1 below omega/T = -700.
    """
    omega = require("occupation frequencies", np.asarray(omega, dtype=float))
    require("temperature", temperature, ">= 0")
    if temperature == 0.0:
        return np.zeros_like(omega)
    x = omega / temperature
    # |x| < 1e-12: divergent occupation; J*nbar stays finite
    out = np.full_like(omega, np.inf)
    mid = (np.abs(x) >= 1e-12) & (np.abs(x) <= 700.0)
    out[mid] = 1.0 / np.expm1(x[mid])
    out[x > 700.0] = 0.0  # underflows to exactly 0
    out[x < -700.0] = -1.0
    return out


def _trapezoid_panels(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid area of y over each interval of x; summed, the rule."""
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


@dataclass(frozen=True)
class SpectralModel:
    """Coupling profile of the bath.

    gamma0 sets the overall dissipation scale, cutoff the spectral width,
    alpha the pair-production to particle-exchange coupling ratio, and
    temperature the bath thermal occupation scale.  gamma0 = 0 is accepted
    as the exactly decoupled limit (J identically zero).
    """

    family: str = "ohmic"
    gamma0: float = 3e-4
    cutoff: float = 1.0
    alpha: float = 1.0
    temperature: float = 0.0
    tab_omega: np.ndarray | None = None
    tab_j: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown spectral family {self.family!r}")
        require("gamma0", self.gamma0, ">= 0")
        require("cutoff", self.cutoff, "> 0")
        require("alpha", self.alpha, "in [0, 1]")
        require("temperature", self.temperature, ">= 0")
        if self.family == "tabulated":
            if self.tab_omega is None or self.tab_j is None:
                raise ValidationError("tabulated family requires tab_omega and tab_j")
            om = require("tab_omega", np.asarray(self.tab_omega, dtype=float), ">= 0")
            jj = require("tab_j", np.asarray(self.tab_j, dtype=float), ">= 0")
            if om.ndim != 1 or om.shape != jj.shape or om.size < 2:
                raise ValidationError("tab_omega and tab_j must be matching 1-d arrays")
            if np.any(np.diff(om) <= 0.0):
                raise ValidationError("tab_omega must be increasing")
            object.__setattr__(self, "tab_omega", om)
            object.__setattr__(self, "tab_j", jj)


def default_omega_s(model: SpectralModel) -> float:
    """System frequency giving zero fully-renormalized frequency (ohmic)."""
    if model.family != "ohmic":
        raise ValidationError("default omega_s is defined for the ohmic family")
    return math.sqrt(2.0 * model.gamma0 * model.cutoff / math.pi)


def _j_v(model: SpectralModel, omega: np.ndarray) -> np.ndarray:
    if model.family == "ohmic":
        amp = math.sqrt(math.pi * model.gamma0 / (2.0 * model.cutoff))
        return amp * omega * np.exp(-omega / model.cutoff)
    return np.interp(omega, model.tab_omega, model.tab_j, left=0.0, right=0.0)


def eval_spectral_density(model: SpectralModel, omega, channel: str = "v") -> np.ndarray:
    """Spectral density of the requested coupling channel at omega >= 0.

    channel "v" is the particle-exchange profile, "w" the pair-production
    profile alpha^2 J_V, and "vw" the cross profile alpha J_V.
    """
    if channel not in _CHANNELS:
        raise ValidationError(f"channel must be one of {_CHANNELS}, got {channel!r}")
    omega = require("omega", np.asarray(omega, dtype=float), ">= 0")
    jv = _j_v(model, omega)
    if channel == "v":
        return jv
    if channel == "w":
        return model.alpha**2 * jv
    return model.alpha * jv


# ---------------------------------------------------------------------------
# oscillatory transforms and Gauss-Legendre nodes
# ---------------------------------------------------------------------------


def _offsets(dt) -> np.ndarray:
    """Time offsets as a float array; NaN or infinite offsets are rejected."""
    return require("kernel time offsets", np.asarray(dt, dtype=float))


def _lattice(dt: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(coarse, fine) with dt = (coarse[:, None] + fine).ravel()[:n] if
    dt is the 1-d lattice k h, k = 0..n-1 (a TimeGrid's times), else None;
    fine has ceil(sqrt(n)) entries."""
    n = dt.size
    if dt.ndim != 1 or n < 2 or not np.array_equal(dt, np.arange(n) * dt[1]):
        return None
    rows = math.isqrt(n - 1) + 1
    return np.arange(-(-n // rows)) * (rows * dt[1]), np.arange(rows) * dt[1]


def _lattice_factors(split: tuple[np.ndarray, np.ndarray], freqs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """e^{-i coarse w} (coarse x freqs) and e^{-i w fine} (freqs x fine),
    the two factors of the lattice GEMM of _exp_sum, split = _lattice(dt)."""
    coarse, fine = split
    return (np.exp(-1j * np.outer(coarse, freqs)),
            np.exp(-1j * np.outer(freqs, fine)))


def _exp_sum(weights: np.ndarray, freqs: np.ndarray, dt) -> np.ndarray:
    """sum_j weights[j] exp(-i freqs[j] dt), elementwise in dt.

    Lattice offsets dt = k h, k = 0..n-1 (a TimeGrid's times) are split as
    k = q B + r with B = ceil(sqrt(n)), so the sum is one GEMM,
    sum_j [w_j e^{-i w_j q B h}] [e^{-i w_j r h}], that costs
    (ceil(n / B) + B) N exponentials for N frequencies instead of n N.
    Other offsets take the direct n N route.  Either way no temporary holds
    more than _EXP_ELEMENTS elements: the lattice route chunks the
    frequency axis, the direct route the offsets.
    """
    dt = _offsets(dt)
    flat = dt.ravel()
    n = flat.size
    split = _lattice(dt)
    if split is not None:
        out = np.zeros((split[0].size, split[1].size), dtype=complex)
        step = max(1, _EXP_ELEMENTS // sum(map(np.size, split)))
        for j in range(0, freqs.size, step):
            left, right = _lattice_factors(split, freqs[j:j + step])
            out += (left * weights[j:j + step]) @ right
        return out.ravel()[:n]
    out = np.empty(flat.shape, dtype=complex)
    # chunk the outer product so memory stays bounded for long grids
    step = max(1, _EXP_ELEMENTS // max(freqs.size, 1))
    for k in range(0, flat.size, step):
        block = flat[k:k + step]
        out[k:k + step] = np.exp(-1j * np.outer(block, freqs)) @ weights
    return out.reshape(dt.shape)


# Bogaert's expansion in _bogaert_half, lowest power first: j_{0,k} and
# J_1(j_{0,k})^2 for k = 1..20 and 1..21; past them McMahon's series of
# (j_{0,k} - z) z in z^-2, z = pi (k - 1/4), and that of J_1(j_{0,k})^2 q
# in q^-2, q = k - 1/4; and the node's and the weight's corrections, one
# polynomial in theta^2 per power of s^2.
_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998, 58.90698392608094,
    62.048469190227166)
_J1_SQUARED = (
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822,
    0.05403757319811628, 0.04266142901724309, 0.0352421034909961,
    0.030021070103054673, 0.02614739149530809, 0.023159121824691393,
    0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
    0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
    0.012866181737615133, 0.012098051548626797, 0.011416471224491609,
    0.010807592791180204, 0.010260372926280762, 0.009765897139791051)
_MCMAHON = (
    0.125, -0.08072916666666667, 0.24602864583333334, -1.824438767206101,
    25.336414797343906, -567.6444121351834, 18690.476528232066,
    -849353.5802991488, 50922546.24022268)
_J1_SQUARED_TAIL = (
    0.20264236728467555, 0.0, -0.00030338042971129027, 0.0001989243642459693,
    -0.00022896990277211166, 0.0004337107191307463, -0.001236323497271754,
    0.0049610142326888314, -0.026683739370232377, 0.18539539820634562)
_NODE_SERIES = (
    (-0.0416666666666663, 0.004166666666651934, -0.00014880952371390914,
     2.7557316896206124e-06, -3.1314865463599204e-08, 2.4072468586433013e-10,
     -1.2905299627428051e-12),
    (0.008159722217729322, -0.002090222483878529, 0.00028211688605756045,
     -2.53300326008232e-05, 1.6196925945383627e-06, -7.530367713737693e-08,
     2.20639421781871e-09),
    (-0.004160121656202043, 0.0012865419854284513, -0.0002513952932839659,
     4.184981003295046e-05, -5.677978413568331e-06, 5.558453302237962e-07,
     -2.9705822537552623e-08))
_WEIGHT_SERIES = (
    (0.08333333333333333, -0.0305555555555553, 0.004365079365075981,
     -0.0003262786595944122, 1.4964459362502864e-05, -4.639686475532213e-07,
     1.037560669279168e-08, -1.752577007354238e-10, 2.3036572686037738e-12,
     -2.2090286104461664e-14),
    (-1 / 90, 0.002689594356947297, -0.00040729718561133575,
     4.659695306949684e-05, -3.818179186800454e-06, 2.1148388068594716e-07,
     -7.129128572336422e-09, 7.676435450698932e-11, 3.631174121526548e-12),
    (0.006569664899264848, -9.479693089585773e-05, -0.00010564605025407614,
     -4.228880592829212e-05, 2.0055932639645834e-05, -3.9793331651913525e-06,
     5.088983472886716e-07, -4.386471225202067e-08, 2.018267912567033e-09))


def _horner(coeffs, x):
    """sum_i coeffs[i] x^i, lowest power first, elementwise in x."""
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], ascending.

    Above order _NEWTON_ORDER the half of the nodes in [0, 1) comes from
    _bogaert_half, in O(n) work; up to it, where that expansion leaves more
    than roundoff, from _newton_half.  The rule is mirrored, so it is
    exactly symmetric, and an odd n has its middle node at exactly 0.
    """
    x, w = _bogaert_half(n) if n > _NEWTON_ORDER else _newton_half(n)
    half = n // 2
    return (np.concatenate((-x[:half], x[::-1])),
            np.concatenate((w[:half], w[::-1])))


def _bogaert_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of order n in [0, 1), descending, and their weights.

    Bogaert's iteration-free expansion (SIAM J. Sci. Comput. 36(3), 2014,
    A1008) in x = cos(theta), with no loop over the degree: theta_k and w_k
    are series in 1/(n + 1/2) about j_{0,k} / (n + 1/2), read off
    _J0_ZEROS, _J1_SQUARED or their asymptotic series.  The weights never
    form 1 - x^2, and past theta = pi/4 a node is sin(pi/2 - theta), with
    pi/2 - theta formed from pi ((n + 1)/2 - k) without cancellation.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    h = 1.0 / (n + 0.5)
    z = np.pi * (k - 0.25)
    shift = _horner(_MCMAHON, z**-2) / z       # j_{0,k} - z
    shift[:len(_J0_ZEROS)] = _J0_ZEROS - z[:len(_J0_ZEROS)]
    nu = z + shift
    j1_squared = _horner(_J1_SQUARED_TAIL, (k - 0.25)**-2) / (k - 0.25)
    j1_squared[:len(_J1_SQUARED)] = _J1_SQUARED
    theta = h * nu
    t2 = theta * theta
    nu_sin = nu / np.sin(theta)
    s = h * h * nu_sin
    corr = theta * s * _horner([_horner(c, t2) for c in _NODE_SERIES], s * s)
    phi = h * (np.pi * ((n + 1) / 2 - k) - shift - corr)
    theta = h * (nu + corr)
    x = np.where(theta < np.pi / 4, np.cos(theta), np.sin(phi))
    if n % 2:
        x[-1] = 0.0
    w = 2.0 * h / (j1_squared * nu_sin * _horner(
        [1.0] + [_horner(c, t2) for c in _WEIGHT_SERIES], s * s))
    return x, w


def _newton_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of order n in [0, 1), descending, and their weights.

    Newton's method on the three-term recurrence, after Hale & Townsend
    (SIAM J. Sci. Comput. 35(2), 2013): O(n^2) work and O(n) memory.  The
    nodes start from Tricomi's expansion; each sweep runs the recurrence
    for P_n and P_{n-1} at all of them and steps x -= P_n / P_n'.  The
    sweeps stop once the quadratic-convergence estimate |x dx^2 / (1 - x^2)|
    of the error left is below _NEWTON_TOL everywhere.  The weight is
    2 / ((1 - x^2) P_n'(x)^2), with P_n' carried from the last sweep's
    nodes to the final ones by one Taylor term.
    """
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta)**2) / (384.0 * n**4)) * np.cos(theta)
    for _ in range(_NEWTON_SWEEPS):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            xp = x * p
            p_prev, p = p, xp + (j - 1) / j * (xp - p_prev)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        dx = p / dp
        x_old, x = x, x - dx
        left = guard(np.abs(x * dx**2 / one_minus_x2), math.inf,
                     NumericalQualityError,
                     f"Gauss-Legendre Newton error of order {n}")
        if left < _NEWTON_TOL:
            break
    else:
        raise NumericalQualityError(
            f"Gauss-Legendre nodes of order {n} left an error of {left:.1e} "
            f"after {_NEWTON_SWEEPS} Newton sweeps, above {_NEWTON_TOL:.0e}")
    # P_n'(x) = P_n'(x_old) - dx P_n''(x_old), by Legendre's equation
    dp -= dx * (2.0 * x_old * dp - n * (n + 1) * p) / one_minus_x2
    if n % 2:
        x[-1] = 0.0
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)


class _LinearTableTransform:
    """g_v of a tabulated J_V, exact for its piecewise-linear interpolant.

    J_V is f_k at the knots w_0 < ... < w_M, linear with slope s_k on
    [w_k, w_k+1] and zero outside, so integrating by parts twice (Filon's
    method) gives g_v as one term table,

        2 pi g_v(t) = sum_j u_j e^{-i w_j t} (i/t)^o_j,

    held as freqs w_j, weights u_j (J_V / 2 pi) and order o_j: first the
    knots, o = 2 and u = s_k - s_k-1 (s_-1 = s_M = 0), then the nonzero
    end terms, o = 1 and u = f_M at w_M and -f_0 at w_0.  Each order is one
    _exp_sum, which keeps its lattice GEMM, and _BoseSumTransform reads the
    same table.  Where |t| w_M < _TAYLOR_PHASE, g_v is the series
    sum_n (-i t)^n mu_n / (2 pi n!) in the exact moments mu_n of J_V, taken
    in x = w / w_M so that no power overflows.
    """

    def __init__(self, omega: np.ndarray, j: np.ndarray):
        j = j / (2.0 * math.pi)
        ends = np.array([j[-1], -j[0]])
        live = ends != 0.0
        self.freqs = np.concatenate([omega, omega[[-1, 0]][live]])
        self.weights = np.concatenate([np.diff(np.diff(j) / np.diff(omega),
                                               prepend=0.0, append=0.0),
                                       ends[live]])
        self.order = np.repeat([2, 1], [omega.size, live.sum()])
        self.omega_max = omega[-1]
        # With L linear from f_a at a to f_b at b = a + h,
        # int_a^b x^n L dx = h (f_a G_n + f_b F_n) / ((n+1)(n+2)), where
        # F_n = sum_k (k+1) a^(n-k) b^k and G_n swaps a and b: sums of
        # nonnegative terms, so the moments carry no cancellation.  taylor[n]
        # is the x-moment over n!, hence the (n+2)! = (n+1)(n+2) n!.
        x = omega / omega[-1]
        a, b = x[:-1], x[1:]
        f = g = a_n = b_n = np.ones_like(a)
        taylor = np.empty(_TAYLOR_TERMS)
        for n in range(_TAYLOR_TERMS):
            if n:
                a_n, b_n = a_n * a, b_n * b
                f, g = a * f + (n + 1) * b_n, b * g + (n + 1) * a_n
            taylor[n] = (np.diff(x) @ (j[:-1] * g + j[1:] * f)
                         / math.factorial(n + 2))
        self.taylor = taylor * omega[-1]
        # the knot sum's rounding, eps sum |u| over the knots, is divided by
        # t^2 >= (_TAYLOR_PHASE / w_M)^2 and must stay within QUADRATURE_RTOL
        # of g_v(0) = taylor[0] = max |g_v|; J = 0 has nothing to lose
        if j.any():
            magnitude = np.sum(np.abs(self.weights[self.order == 2]))
            guard(np.finfo(float).eps * magnitude
                  * (omega[-1] / _TAYLOR_PHASE) ** 2 / self.taylor[0],
                  QUADRATURE_RTOL, NumericalQualityError,
                  "a-priori roundoff of the tabulated g_v's knot sum")

    def __call__(self, dt) -> np.ndarray:
        dt = _offsets(dt)
        ends, sums = (_exp_sum(self.weights[self.order == o],
                               self.freqs[self.order == o], dt).ravel()
                      for o in (1, 2))
        return self.assemble(dt.ravel(), sums, ends).reshape(dt.shape)

    def assemble(self, tau: np.ndarray, sums: np.ndarray, ends: np.ndarray,
                 taylor: bool = True) -> np.ndarray:
        """g_v at the real or complex times tau, given there the table's
        order-2 and order-1 sums (each possibly damped), as
        (ends + sums i/tau) i/tau; a caller that knows every
        |tau| w_M >= _TAYLOR_PHASE passes taylor=False."""
        if not taylor:
            inv = 1j / tau
            return (ends + sums * inv) * inv
        near = np.abs(tau) * self.omega_max < _TAYLOR_PHASE
        inv = 1j / np.where(near, 1.0, tau)
        out = (ends + sums * inv) * inv
        if near.any():
            x = -1j * self.omega_max * tau[near]
            series = np.zeros(x.shape, dtype=complex)
            for coeff in self.taylor[::-1]:
                series = series * x + coeff
            out[near] = series
        return out


def _dilog_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Li_2(e^-x) and Li_2(e^-x) - pi^2/6, Li_2(q) = sum_{k >= 1} q^k / k^2,
    elementwise for x >= 0.

    Below x = ln 2, Euler's reflection Li_2(q) = pi^2/6 - ln q ln(1 - q)
    - Li_2(1 - q) takes the series to 1 - q <= 1/2, where its 50 terms
    leave less than 2^-51 / 51^2 < 1e-18; there the difference from pi^2/6
    comes without the constant, so it keeps its digits as x -> 0, and above
    the sum itself keeps them as it vanishes.
    """
    one_minus_q = -np.expm1(-x)
    mirror = x < math.log(2.0)
    y = np.where(mirror, one_minus_q, np.exp(-x))
    series = np.zeros_like(y)
    for k in range(50, 0, -1):
        series = (series + 1.0 / k**2) * y
    reflected = x * np.log(np.where(x > 0.0, one_minus_q, 1.0)) - series
    return (np.where(mirror, reflected + math.pi**2 / 6.0, series),
            np.where(mirror, reflected, series - math.pi**2 / 6.0))


class _BoseSumTransform:
    """gtilde_v of a tabulated J_V at T > 0, as the Bose sum of its g_v.

    For w > 0, nbar(w) = sum_{k >= 1} e^{-k w/T}, so gtilde_v(t) is
    sum_k g_v(tau_k) at the complex times tau_k = t - i k/T, each from the
    term table of _LinearTableTransform with its weights u_j damped by
    e^{-k w_j/T}: one _exp_sum per order (which keeps its lattice GEMM),
    and |tau_k| w_M < _TAYLOR_PHASE takes the Taylor branch at complex
    tau_k.  In i/tau_k = -T / (k + a), a = i T t, term j of g_v(tau_k) is

        U_j e^{-r_j (k + a)} (k + a)^-o_j,  U_j = u_j (-T)^o_j, r_j = w_j/T,

    so at t = 0 its sum over k is U_j Li_o(q_j), q_j = e^{-r_j}, and its
    terms past any k are a sum that Euler-Maclaurin closes
    (_euler_maclaurin).  Term j is needed up to the last k at which the
    bound |U_j| q_j^k / (1 - q_j) on its terms from k on is at least
    _BOSE_TAIL of sum_j |U_j| Li_o(q_j); the knot at w = 0 (J = 0 there is
    required) is undamped and in every term, and past the loop it is
    U_0 zeta(2, loop + 1 + a) (_hurwitz_zeta2).

    Each call splits the terms by the largest |t| it is given (plan): with
    N the later of term 13 and the first past the Taylor branch, one whose
    r_j |N + a| <= _SERIES_RADIUS everywhere runs N - 1 terms and then the
    power series of that closed form, summed over all such terms of one
    order at once (_series_tails); one that needs more than _BOSE_TERMS
    terms runs _BOSE_TERMS and then the continued fraction of E_s per term
    and offset (_fraction_tails); the rest run their own number of terms.
    Ordered by that number, the terms of one order in each k are a prefix.
    """

    def __init__(self, g_v: _LinearTableTransform, temperature: float):
        self.g_v, self.temperature = g_v, temperature
        freqs, weights, order = g_v.freqs, g_v.weights, g_v.order
        rates = freqs / temperature
        scaled = weights * (-temperature) ** order
        mags, knot = np.abs(scaled), order == 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_rest = np.log(-np.expm1(-rates))  # ln(1 - q) = -Li_1(q)
            # each term's sum over k is largest at t = 0; the signed sums
            # give gtilde_v(0) = max |gtilde_v|, and their magnitudes the
            # a-priori roundoff.  The knot weights sum to 0, so
            # Li_2(q) - pi^2/6 serves as well as Li_2(q); of the two, the
            # sum with the smaller terms keeps more digits
            li2, shifted = _dilog_exp(rates)
            at_knot = (shifted if mags[knot] @ np.abs(shifted[knot])
                       < mags[knot] @ li2[knot] else li2)
            self.at_zero = float(scaled @ np.where(knot, at_knot, -log_rest))
            scale = mags @ np.where(knot, li2, -log_rest)
            guard(np.finfo(float).eps * scale / abs(self.at_zero) if scale
                  else 0.0, QUADRATURE_RTOL, NumericalQualityError,
                  "a-priori roundoff of the tabulated gtilde_v's Bose sum")
            # the last k of each term by the tail rule; the zero knot's
            # terms never shrink
            decaying = rates > 0.0
            last = np.where(decaying, np.floor((np.log(
                mags / (_BOSE_TAIL * (scale or 1.0))) - log_rest) / rates),
                math.inf)
        live = (last >= 1.0) & (weights != 0.0)
        self.rates, self.last, self.order = rates[live], last[live], order[live]
        self.freqs, self.weights = freqs[live], weights[live]
        self.scaled = scaled[live]
        self.zero_weight = 0.0 if decaying[0] else scaled[0]

    def plan(self, t_max: float) -> tuple[np.ndarray, np.ndarray, int]:
        """For offsets up to |t| = t_max: the number of loop terms of each
        live term of the table, which of them continue as the series, and
        its first term.  Every live term is in the loop while the Taylor
        branch can run, k w_M < _TAYLOR_PHASE T, up to _BOSE_TERMS."""
        near = _TAYLOR_PHASE * self.temperature / self.g_v.omega_max
        start = int(min(max(_EM_START, math.ceil(near)), _BOSE_TERMS + 1))
        terms = np.minimum(self.last, _BOSE_TERMS)
        radius = _SERIES_RADIUS / abs(complex(start, self.temperature
                                              * t_max))
        zero = self.rates == 0.0  # in every term, then zeta(2, a)
        series = (self.rates <= radius) & (self.last >= start) & ~zero
        terms[series] = start - 1
        terms[zero] = terms[~zero].max(initial=0.0)
        return terms, series, start

    def __call__(self, dt) -> np.ndarray:
        dt = _offsets(dt)
        t = dt.ravel()
        temp = self.temperature
        terms, series, start = self.plan(np.max(np.abs(t), initial=0.0))
        loop = int(terms.max(initial=0.0))
        out = self.zero_weight * _hurwitz_zeta2(loop + 1.0 + 1j * temp * t)
        fraction = (self.last > terms) & (self.rates > 0.0) & ~series
        for order in (2, 1):
            cols = self.order == order
            if (series & cols).any():
                out += _series_tails(start + 1j * temp * t,
                                     self.rates[series & cols],
                                     self.scaled[series & cols], order)
            if (fraction & cols).any():
                out += _fraction_tails(_BOSE_TERMS + 1.0 + 1j * temp * t,
                                       self.rates[fraction & cols],
                                       self.scaled[fraction & cols], order)
        # the loop: the terms of one order in each k are a prefix of these
        rank = np.argsort(-terms, kind="stable")
        knots, ends = (rank[self.order[rank] == o] for o in (2, 1))
        counts = [np.searchsorted(-terms[cols], -np.arange(1, loop + 1),
                                  "right") for cols in (knots, ends)]
        freqs, weights = self.freqs[knots], self.weights[knots]
        end_freqs, end_weights = self.freqs[ends], self.weights[ends]
        phases = np.exp(-1j * np.outer(end_freqs, t))
        # on a lattice, every term's knot sum is _exp_sum's GEMM over the
        # same two factors; they are built once if they fit its bound
        split = _lattice(dt)
        if split is not None and (sum(map(np.size, split)) * freqs.size
                                  > _EXP_ELEMENTS):
            split = None
        if split is not None:
            left, right = _lattice_factors(split, freqs)
        # |tau_k| >= k/T, so from k w_M >= _TAYLOR_PHASE T on no tau_k is near
        near = _TAYLOR_PHASE * temp / self.g_v.omega_max
        for k, (n, m) in enumerate(zip(*counts), 1):
            damped = weights[:n] * np.exp(-k / temp * freqs[:n])
            sums = (_exp_sum(damped, freqs[:n], t) if split is None else
                    ((left[:, :n] * damped) @ right[:n]).ravel()[:t.size])
            end = (end_weights[:m] * np.exp(-k / temp * end_freqs[:m])
                   ) @ phases[:m]
            out += self.g_v.assemble(t - 1j * k / temp, sums, end,
                                     taylor=k < near)
        return out.reshape(dt.shape)


def _euler_maclaurin(z: np.ndarray, moments: np.ndarray, s: int) -> np.ndarray:
    """F(z)/2 - sum_m B_2m/(2m)! F^(2m-1)(z) for F = sum_j W_j F_j,
    F_j(u) = e^{-r_j u} u^-s, given the moments[:, n] = sum_j W_j
    e^{-r_j z} (-r_j)^n, n < 16.

    F_j^(p)(z) = e^{-r_j z} sum_i C(p, i) (-r_j)^(p-i) (-1)^i (s)_i
    z^-(s+i), so the Bernoulli terms are a polynomial in 1/z whose
    coefficients are moments.
    """
    coeffs = moments @ _em_coefficients(s)
    inv = 1.0 / z
    acc = coeffs[:, -1]
    for i in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * inv + coeffs[:, i]
    return (0.5 * moments[:, 0] - acc) * inv**s


@functools.lru_cache(maxsize=2)
def _em_coefficients(s: int) -> np.ndarray:
    """[n, i]: the factor of moments[:, n] z^-(s+i) in the Bernoulli terms
    of _euler_maclaurin, (-1)^i (s)_i C(2m-1, i) B_2m/(2m)!, n + i = 2m - 1."""
    size = 2 * len(_BERNOULLI)
    out = np.zeros((size, size))
    for m, bern in enumerate(_BERNOULLI, 1):
        for i in range(2 * m):
            out[2 * m - 1 - i, i] = ((-1) ** i * math.prod(range(s, s + i))
                                     * math.comb(2 * m - 1, i) * bern
                                     / math.factorial(2 * m))
    return out


def _series_tails(z: np.ndarray, rates: np.ndarray, weights: np.ndarray,
                  s: int) -> np.ndarray:
    """sum_j weights_j sum_{k >= 0} e^{-r_j (z + k)} (z + k)^-s for each z,
    by Euler-Maclaurin, where every |r_j z| <= _SERIES_RADIUS and |z| >= 13.

    The integral of F_j from z is E_1(r z) for s = 1 and e^{-r z}/z -
    r E_1(r z) for s = 2, and E_1(w) = -gamma - ln w - sum_n (-w)^n /
    (n n!); with e^{-r z} as its power series too, every piece is a power
    of z times a moment sum_j weights_j r_j^n, so the cost is independent
    of the number of knots.
    """
    powers = np.arange(_SERIES_TERMS + 2 * len(_BERNOULLI) + 1)
    moment = weights @ rates[:, None] ** powers  # sum_j w_j r_j^n
    zq = np.empty((_SERIES_TERMS + 1, z.size), dtype=complex)  # (-z)^q / q!
    zq[0] = 1.0
    for q in range(1, _SERIES_TERMS + 1):
        zq[q] = zq[q - 1] * (-z / q)
    zq = zq.T
    m = np.arange(2 * len(_BERNOULLI))
    moments = zq @ (moment[m + np.arange(_SERIES_TERMS + 1)[:, None]] * (-1.0) ** m)
    # sum_j v_j E_1(r_j z) with v_j = w_j for s = 1 and -w_j r_j for s = 2
    sign = 1.0 if s == 1 else -1.0
    with np.errstate(divide="ignore"):
        logs = np.where(rates > 0.0, _EULER_GAMMA + np.log(rates), 0.0)
    v = sign * weights * rates ** (s - 1)
    out = -(v @ logs) - np.log(z) * (sign * moment[s - 1]) - zq[:, 1:] @ (
        sign * moment[s:_SERIES_TERMS + s] / np.arange(1, _SERIES_TERMS + 1))
    if s == 2:
        out += moments[:, 0] / z
    return out + _euler_maclaurin(z, moments, s)


def _fraction_tails(z: np.ndarray, rates: np.ndarray, weights: np.ndarray,
                    s: int) -> np.ndarray:
    """As _series_tails for any rates r_j <= 0.2 and Re z >= 13, one knot and
    offset at a time: the integral of F_j from z is e^{-r z} z^(1-s)
    e^{r z} E_s(r z), by _exp_en, in chunks of _TAIL_ELEMENTS."""
    out = np.empty(z.shape, dtype=complex)
    step = max(1, _TAIL_ELEMENTS // rates.size)
    powers = (-rates[:, None]) ** np.arange(2 * len(_BERNOULLI))
    for lo in range(0, z.size, step):
        part = z[lo:lo + step]
        w = np.outer(part, rates)
        damped = np.exp(-w) * weights
        out[lo:lo + step] = (np.sum(damped * _exp_en(w, s), axis=1)
                             * part ** (1 - s)
                             + _euler_maclaurin(part, damped @ powers, s))
    return out


def _exp_en(w: np.ndarray, s: int) -> np.ndarray:
    """e^w E_s(w), s = 1 or 2, elementwise for Re w >= 0, w != 0.

    Below |w| = 1, E_1 = -gamma - ln w - sum_{n >= 1} (-w)^n / (n n!)
    (20 terms leave below 1e-19) and E_2 = e^-w - w E_1.  From |w| = 1 on,
    the continued fraction e^w E_s(w) = 1/(w + s - 1 s/(w + s + 2 -
    2 (s + 1)/(w + s + 4 - ...))), evaluated upward from depth
    8 + 200 / 2^b on |w| in [2^b, 2^(b+1)), b < 5, and 14 beyond.  Against
    30-digit mpmath on rays of Re w >= 0 the fraction is within 4e-16
    relative, and the series within 2e-15, its worst just below |w| = 1 on
    the real axis, where E_1 cancels against ln w.
    """
    out = np.empty_like(w)
    size = np.abs(w)
    small = size < 1.0
    x = w[small]
    term, series = np.ones_like(x), np.zeros_like(x)
    for n in range(1, 21):
        term *= -x / n
        series -= term / n
    e1 = np.exp(x) * (series - _EULER_GAMMA - np.log(x))
    out[small] = e1 if s == 1 else 1.0 - x * e1
    for b in range(6):
        band = (size >= 2.0**b) & (size < (2.0**(b + 1) if b < 5 else math.inf))
        x = w[band]
        tail = np.zeros_like(x)
        for m in range(8 + (200 >> b), 0, -1):
            tail = m * (m + s - 1) / (x + (s + 2 * m) - tail)
        out[band] = 1.0 / (x + s - tail)
    return out


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------


@dataclass
class Kernel:
    """Stationary dissipation kernel G and fluctuation kernel Gt.

    A kernel is its two scalar particle-exchange transforms g_v and
    gtilde_v (callables of time offsets), the pairing ratio alpha, and the
    bath temperature and cutoff; g and gtilde assemble the (..., 2, 2)
    complex G and Gt from them.  metadata records the source and, for a
    continuum kernel, the route of both transforms under "transforms": closed
    form for the ohmic family at every temperature; for a tabulated one, a
    closed-form g_v and gtilde_v as its Bose sum.  Discrete-bath kernels are
    exact mode sums and name none.
    """

    g_v: Callable[[np.ndarray], np.ndarray]
    gtilde_v: Callable[[np.ndarray], np.ndarray]
    alpha: float
    temperature: float
    cutoff: float
    metadata: dict = field(default_factory=dict)
    _tables: dict = field(default_factory=dict, repr=False)

    def g(self, dt) -> np.ndarray:
        gv = self.g_v(dt)
        gw = self.alpha**2 * gv
        gvw = self.alpha * gv
        out = np.empty(np.shape(gv) + (2, 2), dtype=complex)
        out[..., 0, 0] = gv - np.conj(gw)
        out[..., 0, 1] = gvw - np.conj(gvw)
        out[..., 1, 0] = -np.conj(out[..., 0, 1])
        out[..., 1, 1] = -np.conj(out[..., 0, 0])
        return out

    def gtilde(self, dt) -> np.ndarray:
        gv, gtv = self.g_v(dt), self.gtilde_v(dt)
        gw, gvw = self.alpha**2 * gv, self.alpha * gv
        gtw, gtvw = self.alpha**2 * gtv, self.alpha * gtv
        out = np.empty(np.shape(gv) + (2, 2), dtype=complex)
        out[..., 0, 0] = gtv + np.conj(gw) + np.conj(gtw)
        out[..., 0, 1] = gtvw + np.conj(gvw) + np.conj(gtvw)
        # real couplings make the two off-diagonal entries coincide
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = gtw + np.conj(gv) + np.conj(gtv)
        return out

    def g_table(self, grid) -> np.ndarray:
        """G sampled on the grid times [0, t_end]; cached per grid shape.
        A non-finite sample is a ValidationError naming its first time."""
        return self._g_at(("g", grid.n_steps, grid.t_end), grid.times)

    def g_half_step(self, grid) -> np.ndarray:
        """G(dt/2), the midpoint start's one sample off the grid; cached
        and checked as in g_table."""
        key = ("g_half", grid.n_steps, grid.t_end)
        return self._g_at(key, np.array([0.5 * grid.dt]))[0]

    def _g_at(self, key, times: np.ndarray) -> np.ndarray:
        if key not in self._tables:
            table = self.g(times)
            guard(np.abs(table).max(axis=(1, 2)), math.inf, ValidationError,
                  "|G|", times)
            self._tables[key] = table
        return self._tables[key]

    def gtilde_signed_table(self, grid) -> np.ndarray:
        """Gt on signed offsets -t_end..t_end; index n + k holds offset k*dt.

        Only t >= 0 is evaluated: the negative half is the Hermitian mirror
        Gt(-t) = Gt(t)^dagger.  A non-finite sample is a ValidationError
        naming its first time, as in g_table.
        """
        key = ("gtilde_signed", grid.n_steps, grid.t_end)
        if key not in self._tables:
            half = self.gtilde(grid.times)
            guard(np.abs(half).max(axis=(1, 2)), math.inf, ValidationError,
                  "|Gt|", grid.times)
            mirror = np.conj(np.swapaxes(half[:0:-1], -1, -2))
            self._tables[key] = np.concatenate([mirror, half])
        return self._tables[key]

    def zgtz_signed_table(self, grid) -> np.ndarray:
        """Z Gt Z on the offsets of gtilde_signed_table (a fresh array)."""
        out = self.gtilde_signed_table(grid).copy()
        out[:, 0, 1] *= -1.0
        out[:, 1, 0] *= -1.0
        return out


# _hurwitz_zeta2 sums its first _ZETA_DIRECT terms directly.
_ZETA_DIRECT = 12
# Kernel.metadata["transforms"] of an ohmic kernel.
OHMIC_TRANSFORM_SCHEME = ("closed form: rational g_v, Hurwitz zeta(2, a) gtilde_v "
                          f"({_ZETA_DIRECT} direct terms + Euler-Maclaurin to B16)")
# Bernoulli numbers B2, B4, ..., B16 of the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)


def _hurwitz_zeta2(a: np.ndarray) -> np.ndarray:
    """zeta(2, a) = sum_{k >= 0} (a + k)^-2, elementwise, for complex Re a >= 1.

    The first _ZETA_DIRECT terms are summed directly; the tail from
    b = a + _ZETA_DIRECT is 1/b + 1/(2 b^2) + sum_j B_2j / b^(2j+1)
    (Euler-Maclaurin, DLMF 25.11), whose first omitted term is below 1e-19
    relative for |b| >= 13.  Past
    the integral 1/b that is the Bose tails' closure, _euler_maclaurin, for
    one term of weight 1 at rate 0, whose moments are [1, 0, 0, ...].
    """
    b = a + _ZETA_DIRECT
    out = 1.0 / b + _euler_maclaurin(b, np.eye(1, 2 * len(_BERNOULLI)), 2)
    for k in range(_ZETA_DIRECT - 1, -1, -1):  # smallest terms first
        out = out + 1.0 / (a + k) ** 2
    return out


def _zero_transform(dt) -> np.ndarray:
    """gtilde_v at T = 0, where the Bose occupation vanishes identically."""
    return np.zeros(_offsets(dt).shape, dtype=complex)


def build_kernels(model: SpectralModel) -> Kernel:
    """Continuum kernels of the model, one route per spectral family.

    The ohmic family takes both transforms in closed form at every
    temperature (module docstring; gtilde_v through _hurwitz_zeta2).  A
    tabulated family takes g_v in closed form from the table
    (_LinearTableTransform), and gtilde_v as the Bose sum of that g_v at the
    complex times dt - i k/T (_BoseSumTransform), whose terms past at most
    _BOSE_TERMS are closed by Euler-Maclaurin; both are checked for
    a-priori roundoff here.  At T = 0 gtilde_v is exactly zero; at T > 0 a
    table with J_V > 0 at omega = 0 is rejected, since J_V nbar ~
    J_V(0) T / omega there.
    metadata["transforms"] names the route.
    """
    cut, temp = model.cutoff, model.temperature
    if model.family == "ohmic":
        scheme = OHMIC_TRANSFORM_SCHEME
        amp = math.sqrt(model.gamma0 / (8.0 * math.pi * cut))
        try:
            thermal_amp = amp * temp**2
        except OverflowError:  # temp**2 past the float range
            thermal_amp = math.inf
        require(f"the thermal kernel amplitude sqrt(gamma0 / (8 pi cutoff)) "
                f"T^2 at temperature = {temp:g}", thermal_amp)

        def g_v(dt):
            return amp / (1.0 / cut + 1j * _offsets(dt)) ** 2

        def gtilde_v(dt):
            return thermal_amp * _hurwitz_zeta2(
                1.0 + temp / cut + 1j * temp * _offsets(dt))
    else:
        if temp > 0.0 and model.tab_omega[0] == 0.0 and model.tab_j[0] > 0.0:
            raise ValidationError(
                f"tab_j = {model.tab_j[0]:g} > 0 at omega = 0 makes the "
                f"thermal transform, the integral of J_V nbar, diverge at "
                f"T > 0")
        scheme = TABULATED_TRANSFORM_SCHEME
        g_v = _LinearTableTransform(model.tab_omega, model.tab_j)
    if temp == 0.0:
        gtilde_v = _zero_transform
    elif model.family == "tabulated":
        gtilde_v = _BoseSumTransform(g_v, temp)
    return Kernel(g_v, gtilde_v, model.alpha, temp, cut,
                  {"source": "continuum", "family": model.family,
                   "gamma0": model.gamma0, "transforms": scheme})


# ---------------------------------------------------------------------------
# finite bath discretizations
# ---------------------------------------------------------------------------

_SCHEMES = ("linear-midpoint", "gauss")
COVERAGE_MIN = 1.0 - 1e-4


@dataclass
class BathDiscretization:
    """Finite set of bath modes approximating the continuum couplings.

    2 pi sum_j v_couplings[j]^2 over a frequency bin approximates the
    integral of J_V over that bin.  The model has one pairing fraction
    alpha = W_k / V_k, so the pair-production couplings w_couplings are
    derived from v_couplings, never stored beside them.  Occupations may be
    replaced by any per-mode values (e.g. from a correlated total state);
    the modes carry no squeezes, so the bath's kernels stay stationary (a
    squeezed product state is read through exact_moments' table instead).
    Every array must be a finite 1-d array of reals, all of one length,
    checked at construction (so also on a dataclasses.replace copy).
    """

    frequencies: np.ndarray
    weights: np.ndarray
    v_couplings: np.ndarray
    occupations: np.ndarray
    scheme: str
    coverage_fraction: float
    alpha: float
    temperature: float
    cutoff: float

    def __post_init__(self):
        require_vectors(self, "frequencies", "weights", "v_couplings",
                        "occupations")

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    @property
    def w_couplings(self) -> np.ndarray:
        return self.alpha * self.v_couplings


def discretize_bath(model: SpectralModel, n_modes: int, omega_max: float,
                    scheme: str = "linear-midpoint") -> BathDiscretization:
    """Sample the continuum into n_modes discrete modes on [0, omega_max].

    "linear-midpoint" puts the modes at the bin midpoints with equal bin
    widths.  "gauss" puts them at the Gauss-Legendre nodes of order n_modes
    mapped onto [0, omega_max], in ascending frequency, with their weights
    as bin widths.  Above 100 modes those nodes come from Bogaert's
    iteration-free expansion (SIAM J. Sci. Comput. 36(3), 2014), in
    O(n_modes) work; up to 100, from Newton's method on the Legendre
    recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013).
    """
    if scheme not in _SCHEMES:
        raise ValidationError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    n_modes = require_count("n_modes", n_modes, 1)
    require("omega_max", omega_max, "> 0")

    if scheme == "linear-midpoint":
        h = omega_max / n_modes
        freqs = (np.arange(n_modes) + 0.5) * h
        weights = np.full(n_modes, h)
    else:
        x, w = _gauss_legendre(n_modes)
        freqs = 0.5 * omega_max * (x + 1.0)
        weights = 0.5 * omega_max * w

    jv = _j_v(model, freqs)
    v = np.sqrt(jv * weights / (2.0 * math.pi))

    if model.family == "ohmic":
        x = omega_max / model.cutoff
        covered = 1.0 - math.exp(-x) * (1.0 + x)  # fraction of int_0^inf J_V
    else:
        total = np.sum(_trapezoid_panels(model.tab_j, model.tab_omega))
        mask = model.tab_omega <= omega_max
        covered = (np.sum(_trapezoid_panels(model.tab_j[mask],
                                            model.tab_omega[mask])) / total
                   if total > 0.0 else 1.0)
    if covered < COVERAGE_MIN:
        warnings.warn(
            f"bath discretization covers only {covered:.6f} of the spectral "
            f"weight (omega_max = {omega_max:g}); increase omega_max",
            RuntimeWarning, stacklevel=2)

    return BathDiscretization(
        frequencies=freqs, weights=weights, v_couplings=v,
        occupations=n_bar(freqs, model.temperature),
        scheme=scheme, coverage_fraction=covered,
        alpha=model.alpha, temperature=model.temperature, cutoff=model.cutoff,
    )


def kernels_from_bath(bath: BathDiscretization) -> Kernel:
    """Exact kernels of a finite bath (discrete frequency sums).

    With W_k = alpha V_k every channel sum is a multiple of one of the two
    mode sums g_v = sum_k V_k^2 e^{-i w_k dt} and gtilde_v = sum_k V_k^2
    nbar_k e^{-i w_k dt}.  The bath carries no per-mode squeezes, so both
    kernels depend on the time difference alone.
    """
    v2 = bath.v_couplings**2
    v2_occ = v2 * bath.occupations
    freqs = bath.frequencies

    def g_v(dt):
        return _exp_sum(v2, freqs, dt)

    def gtilde_v(dt):
        return _exp_sum(v2_occ, freqs, dt)

    return Kernel(g_v, gtilde_v, bath.alpha, bath.temperature, bath.cutoff,
                  {"source": "discrete-bath", "n_modes": bath.n_modes,
                   "scheme": bath.scheme})
