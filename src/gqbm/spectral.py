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
its g_v is a closed form too; only its gtilde_v runs a frequency quadrature.
Everything is expressed in units of the cutoff (hbar = k_B = 1).

2x2 kernel layout (basis a, a^dagger):

    G(dt)  = [[g_v - conj(g_w),  g_vw - conj(g_vw)], [same off-diag, -conj(G11)]]
    Gt(dt) = thermal kernel built from gtilde_* plus vacuum pair terms,

with g_w = alpha^2 g_v and g_vw = alpha g_v (likewise for gtilde), so one
assembly path serves every Kernel.

Both are stationary (depend on the time difference only) as long as the bath
carries no anomalous pair correlations; per-mode occupations are allowed to
be non-thermal.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    QuadratureConvergenceError,
    ValidationError,
    guard,
    require,
    require_budget,
    require_count,
)

# Conjugation / particle-hole structure matrices used across modules.
Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

_FAMILIES = ("ohmic", "tabulated")
_CHANNELS = ("v", "w", "vw")

# Self-check tolerance of the frequency quadrature (relative, on probe offsets).
QUADRATURE_RTOL = 1e-8
# Below |dt| w_M = _TAYLOR_PHASE the knot sum of _LinearTableTransform loses
# digits to cancellation, as (dt w_M)^-2; there g_v is its Taylor series,
# whose roundoff grows with its largest term instead, and whose first
# omitted term is below 4^40 / 40! < 1e-24 of g_v(0).
_TAYLOR_PHASE = 4.0
_TAYLOR_TERMS = 40
# Kernel.metadata["transforms"] of a tabulated kernel.
TABULATED_TRANSFORM_SCHEME = (
    f"closed form g_v of the piecewise-linear table (Filon; Taylor below "
    f"|dt| w_M = {_TAYLOR_PHASE:g}), composite-gauss-legendre gtilde_v on "
    f"[0, min(w_M, 50 T)] with self-refinement check")
# Largest oscillation phase handled by a single Gauss-Legendre panel.
_MAX_PANEL_PHASE = 350.0
_BASE_PANEL_NODES = 24
_NODES_PER_PHASE = 0.55
# Newton sweeps of _gauss_legendre: at most three are needed up to order
# 2001, and they stop once the estimated error left in a node is below tol.
_NEWTON_SWEEPS = 8
_NEWTON_TOL = 1e-17


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
        raise ContractViolationError("default omega_s is defined for the ohmic family")
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
# frequency quadrature for the oscillatory transforms
# ---------------------------------------------------------------------------


def _panel_edges(omega_max: float, inner_scale: float,
                 knots: np.ndarray) -> list[float]:
    # Geometric refinement toward omega = 0 resolves the Bose factor, whose
    # structure lives on the temperature scale, without wasting nodes at the
    # cutoff scale.
    first = min(max(inner_scale, omega_max * 1e-8), omega_max)
    edges = [0.0, first]
    while edges[-1] < omega_max:
        edges.append(min(edges[-1] * 5.0, omega_max))
    # Tabulated profiles are only piecewise smooth; panels must break at the
    # table nodes or Gauss-Legendre loses its convergence order.
    interior = knots[(knots > 0.0) & (knots < omega_max)]
    return sorted(set(edges).union(float(k) for k in interior))


def _offsets(dt) -> np.ndarray:
    """Time offsets as a float array; NaN or infinite offsets are rejected."""
    return require("kernel time offsets", np.asarray(dt, dtype=float))


def _exp_sum(weights: np.ndarray, freqs: np.ndarray, dt) -> np.ndarray:
    """sum_j weights[j] exp(-i freqs[j] dt), elementwise in dt.

    Lattice offsets dt = k h, k = 0..n-1 (a TimeGrid's times) are split as
    k = q B + r with B = ceil(sqrt(n)), so the sum is one GEMM,
    sum_j [w_j e^{-i w_j q B h}] [e^{-i w_j r h}], that costs
    (ceil(n / B) + B) N exponentials for N frequencies instead of n N.
    Other offsets take the direct n N route.  Either way no temporary holds
    more than 4e6 elements: the lattice route chunks the frequency axis,
    the direct route the offsets.
    """
    dt = _offsets(dt)
    flat = dt.ravel()
    n = flat.size
    if dt.ndim == 1 and n > 1 and np.array_equal(flat, np.arange(n) * flat[1]):
        rows = math.isqrt(n - 1) + 1
        coarse = np.arange(-(-n // rows)) * (rows * flat[1])
        fine = np.arange(rows) * flat[1]
        out = np.zeros((coarse.size, rows), dtype=complex)
        step = max(1, int(4e6 // (coarse.size + rows)))
        for j in range(0, freqs.size, step):
            f = freqs[j:j + step]
            left = np.exp(-1j * np.outer(coarse, f)) * weights[j:j + step]
            out += left @ np.exp(-1j * np.outer(fine, f)).T
        return out.ravel()[:n]
    out = np.empty(flat.shape, dtype=complex)
    # chunk the outer product so memory stays bounded for long grids
    step = max(1, int(4e6 // max(freqs.size, 1)))
    for k in range(0, flat.size, step):
        block = flat[k:k + step]
        out[k:k + step] = np.exp(-1j * np.outer(block, freqs)) @ weights
    return out.reshape(dt.shape)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], ascending
    and read-only.

    Newton's method on the three-term recurrence, after Hale & Townsend
    (SIAM J. Sci. Comput. 35(2), 2013) without their asymptotic formulae:
    O(n^2) work and O(n) memory.  The half of the nodes in [0, 1) starts
    from Tricomi's expansion; each sweep runs the recurrence for P_n and
    P_{n-1} at all of them and steps x -= P_n / P_n'.  The sweeps stop once
    the quadratic-convergence estimate |x dx^2 / (1 - x^2)| of the error
    left is below _NEWTON_TOL everywhere.  The weight is
    2 / ((1 - x^2) P_n'(x)^2), with P_n' carried from the last sweep's
    nodes to the final ones by one Taylor term.  The rule is mirrored, so
    it is exactly symmetric, and an odd n has its middle node at exactly 0.
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
                     QuadratureConvergenceError,
                     f"Gauss-Legendre Newton error of order {n}")
        if left < _NEWTON_TOL:
            break
    else:
        raise QuadratureConvergenceError(
            f"Gauss-Legendre nodes of order {n} left an error of {left:.1e} "
            f"after {_NEWTON_SWEEPS} Newton sweeps, above {_NEWTON_TOL:.0e}")
    # P_n'(x) = P_n'(x_old) - dx P_n''(x_old), by Legendre's equation
    dp -= dx * (2.0 * x_old * dp - n * (n + 1) * p) / one_minus_x2
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    half = n // 2
    x = np.concatenate((-x[:half], x[::-1]))
    w = np.concatenate((w[:half], w[::-1]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The panel rules' nodes, cached by order.  A sub-panel's phase is at
    most _MAX_PANEL_PHASE, so an order never exceeds 2 (24 + floor(0.55 *
    350)) = 432: the cache holds at most 432 entries, under 1.5 MB."""
    return _gauss_legendre(order)


@functools.lru_cache(maxsize=8)
def _bath_leggauss(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The gauss bath's nodes, cached by mode count.  Bath sizes are not
    bounded by the panel phase; the rule takes about 15 ms at 2000 modes,
    and a run reuses a handful of sizes."""
    return _gauss_legendre(n_modes)


class _FourierRule:
    """Composite Gauss-Legendre rule for integrals of f(w) exp(-i w dt).

    Panel node counts scale with the largest oscillation phase the rule has
    to resolve, so accuracy is uniform over |dt| <= dt_max.
    """

    def __init__(self, weight_fn: Callable[[np.ndarray], np.ndarray],
                 omega_max: float, inner_scale: float, dt_max: float,
                 knots: np.ndarray, refine: int = 1):
        edges = np.array(_panel_edges(omega_max, inner_scale, knots))
        widths = np.diff(edges)
        n_subs = np.maximum(1, np.ceil(widths * dt_max / _MAX_PANEL_PHASE))
        # the sub-panel orders below sum to at most bound; building takes
        # about 80 bytes a node (74 measured with the thermal weight)
        bound = refine * float(np.sum(n_subs * _BASE_PANEL_NODES
                                      + _NODES_PER_PHASE * widths * dt_max))
        require_budget(f"a quadrature rule of up to {bound:.3e} nodes on "
                       f"omega <= {omega_max:g} for |dt| <= {dt_max:g}",
                       80.0 * bound, "nodes")
        nodes = []
        weights = []
        for lo, hi, n_sub in zip(edges[:-1], edges[1:], n_subs.astype(int)):
            sub = np.linspace(lo, hi, n_sub + 1)
            for a, b in zip(sub[:-1], sub[1:]):
                n_p = refine * (_BASE_PANEL_NODES
                                + int(_NODES_PER_PHASE * (b - a) * dt_max))
                x, w = _leggauss(n_p)
                nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
                weights.append(0.5 * (b - a) * w)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights) * weight_fn(self.nodes)
        self.n_nodes = self.nodes.size

    def transform(self, dt: np.ndarray) -> np.ndarray:
        return _exp_sum(self.weights, self.nodes, dt)


class _TransformFamily:
    """Caches _FourierRule instances per |dt| range and self-checks them."""

    def __init__(self, weight_fn, omega_max: float, inner_scale: float,
                 label: str, knots: np.ndarray):
        self.weight_fn = weight_fn
        self.omega_max = omega_max
        self.inner_scale = inner_scale
        self.label = label
        self.knots = knots
        self._rules: dict[float, _FourierRule] = {}

    def _rule_for(self, dt_max: float) -> _FourierRule:
        bucket = 2.0 ** math.ceil(math.log2(max(dt_max, 1e-3)))
        rule = self._rules.get(bucket)
        if rule is None:
            rule = _FourierRule(self.weight_fn, self.omega_max,
                                self.inner_scale, bucket, self.knots)
            self._self_check(rule, bucket)
            self._rules[bucket] = rule
        return rule

    def _self_check(self, rule: _FourierRule, bucket: float):
        fine = _FourierRule(self.weight_fn, self.omega_max,
                            self.inner_scale, bucket, self.knots, refine=2)
        probes = np.array([0.0, 0.25 * bucket, 0.5 * bucket, bucket])
        coarse = rule.transform(probes)
        ref = fine.transform(probes)
        scale = max(np.max(np.abs(ref)), 1e-300)
        guard(np.max(np.abs(coarse - ref)) / scale, QUADRATURE_RTOL,
              QuadratureConvergenceError,
              f"{self.label} transform's relative deviation from its "
              f"refinement ({rule.n_nodes} nodes, refined {fine.n_nodes}, on "
              f"omega <= {self.omega_max:g}, |dt| <= {bucket:g})")

    def __call__(self, dt) -> np.ndarray:
        dt = _offsets(dt)
        dt_max = float(np.max(np.abs(dt))) if dt.size else 0.0
        return self._rule_for(dt_max).transform(dt)


class _LinearTableTransform:
    """g_v of a tabulated J_V, exact for its piecewise-linear interpolant.

    J_V is f_k at the knots w_0 < ... < w_M, linear with slope s_k on
    [w_k, w_k+1] and zero outside, so integrating by parts twice (Filon's
    method) gives

        2 pi g_v(t) = (i/t) (f_M e^{-i w_M t} - f_0 e^{-i w_0 t})
                      + t^-2 sum_k (s_k-1 - s_k) e^{-i w_k t}

    with s_-1 = s_M = 0: one _exp_sum over the knots, which keeps its
    lattice GEMM.  Where |t| w_M < _TAYLOR_PHASE, g_v is the series
    sum_n (-i t)^n mu_n / (2 pi n!) in the exact moments mu_n of J_V, taken
    in x = w / w_M so that no power overflows.
    """

    def __init__(self, omega: np.ndarray, j: np.ndarray):
        j = j / (2.0 * math.pi)
        self.knots = omega
        self.knot_weights = -np.diff(np.diff(j) / np.diff(omega),
                                     prepend=0.0, append=0.0)
        self.f_first, self.f_last = j[0], j[-1]
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
        # the knot sum's rounding, eps sum |knot_weights|, is divided by
        # t^2 >= (_TAYLOR_PHASE / w_M)^2 and must stay within QUADRATURE_RTOL
        # of g_v(0) = taylor[0] = max |g_v|; J = 0 has nothing to lose
        if j.any():
            guard(np.finfo(float).eps * np.sum(np.abs(self.knot_weights))
                  * (omega[-1] / _TAYLOR_PHASE) ** 2 / self.taylor[0],
                  QUADRATURE_RTOL, QuadratureConvergenceError,
                  "a-priori roundoff of the tabulated g_v's knot sum")

    def __call__(self, dt) -> np.ndarray:
        dt = _offsets(dt)
        top = self.knots[-1]
        out = _exp_sum(self.knot_weights, self.knots, dt).ravel()
        t = dt.ravel()
        far = np.abs(t) * top >= _TAYLOR_PHASE
        inv = 1.0 / t[far]
        ends = (self.f_last * np.exp(-1j * top * t[far])
                - self.f_first * np.exp(-1j * self.knots[0] * t[far]))
        out[far] = (1j * ends + out[far] * inv) * inv
        tau = -1j * top * t[~far]
        near = np.zeros(tau.shape, dtype=complex)
        for coeff in self.taylor[::-1]:
            near = near * tau + coeff
        out[~far] = near
        return out.reshape(dt.shape)


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
    closed-form g_v and a quadrature gtilde_v.  Discrete-bath kernels are
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
        """G sampled on the grid times [0, t_end]; cached per grid shape."""
        key = ("g", grid.n_steps, grid.t_end)
        if key not in self._tables:
            self._tables[key] = self.g(grid.times)
        return self._tables[key]

    def gtilde_signed_table(self, grid) -> np.ndarray:
        """Gt on signed offsets -t_end..t_end; index n + k holds offset k*dt.

        Only t >= 0 is evaluated: the negative half is the Hermitian mirror
        Gt(-t) = Gt(t)^dagger.
        """
        key = ("gtilde_signed", grid.n_steps, grid.t_end)
        if key not in self._tables:
            half = self.gtilde(grid.times)
            mirror = np.conj(np.swapaxes(half[:0:-1], -1, -2))
            self._tables[key] = np.concatenate([mirror, half])
        return self._tables[key]

    def zgtz_signed_table(self, grid) -> np.ndarray:
        """Z Gt Z on the offsets of gtilde_signed_table (a fresh array)."""
        out = self.gtilde_signed_table(grid).copy()
        out[:, 0, 1] *= -1.0
        out[:, 1, 0] *= -1.0
        return out


# Kernel.metadata["transforms"] of an ohmic kernel.
OHMIC_TRANSFORM_SCHEME = ("closed form: rational g_v, Hurwitz zeta(2, a) gtilde_v "
                          "(12 direct terms + Euler-Maclaurin to B16)")
# Bernoulli numbers B2, B4, ..., B16 of the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)


def _hurwitz_zeta2(a: np.ndarray, direct: int = 12) -> np.ndarray:
    """zeta(2, a) = sum_{k >= 0} (a + k)^-2, elementwise, for complex Re a >= 1.

    The first terms are summed directly; the tail from b = a + direct is
    1/b + 1/(2 b^2) + sum_j B_2j / b^(2j+1) (Euler-Maclaurin, DLMF 25.11),
    whose first omitted term is below 1e-19 relative for |b| >= 13.
    """
    b = a + direct
    w = 1.0 / b**2
    series = 0.0
    for bern in reversed(_BERNOULLI):
        series = (series + bern) * w
    out = (1.0 + series) / b + 0.5 * w
    for k in range(direct - 1, -1, -1):  # smallest terms first
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
    (_LinearTableTransform) and gtilde_v by a composite Gauss-Legendre rule
    on [0, min(last node, 50 T)]: J_V vanishes past the last node and
    nbar < 1e-21 past 50 T.  That rule breaks at the table nodes, its panels
    are geometrically refined toward omega = 0 to resolve the Bose factor,
    and it is validated against its own refinement before first use.  At
    T = 0 gtilde_v is exactly zero; at T > 0 a table with J_V > 0 at
    omega = 0 is rejected, since J_V nbar ~ J_V(0) T / omega there.
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
        # J_V * nbar stays finite at the origin: its omega -> 0 limit is
        # slope(J_V) * T, evaluated here once from a probe near zero.
        eps = 1e-8 * cut
        origin_limit = float(_j_v(model, np.array([eps]))[0] / eps
                             * temp / (2.0 * math.pi))

        def _w_thermal(om):
            with np.errstate(invalid="ignore", over="ignore"):
                val = _j_v(model, om) * n_bar(om, temp) / (2.0 * math.pi)
            return np.where(np.isfinite(val), val, origin_limit)

        gtilde_v = _TransformFamily(
            _w_thermal, min(float(model.tab_omega[-1]), 50.0 * temp),
            min(temp, cut) * 0.5, "thermal", model.tab_omega)
    if temp == 0.0:
        gtilde_v = _zero_transform
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
    squeezes must stay zero for the stationary kernel machinery to apply.
    Every array must be finite, checked at construction (so also on a
    dataclasses.replace copy).
    """

    frequencies: np.ndarray
    weights: np.ndarray
    v_couplings: np.ndarray
    occupations: np.ndarray
    squeezes: np.ndarray
    scheme: str
    coverage_fraction: float
    alpha: float
    temperature: float
    cutoff: float

    def __post_init__(self):
        for name in ("frequencies", "weights", "v_couplings", "occupations",
                     "squeezes"):
            require(name, getattr(self, name))

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
    as bin widths.  Those nodes come from Newton's method on the Legendre
    recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013), in
    O(n_modes^2) work, and are cached by mode count.
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
        x, w = _bath_leggauss(n_modes)
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
        squeezes=np.zeros(n_modes, dtype=complex),
        scheme=scheme, coverage_fraction=covered,
        alpha=model.alpha, temperature=model.temperature, cutoff=model.cutoff,
    )


def kernels_from_bath(bath: BathDiscretization) -> Kernel:
    """Exact kernels of a finite bath (discrete frequency sums).

    With W_k = alpha V_k every channel sum is a multiple of one of the two
    mode sums g_v = sum_k V_k^2 e^{-i w_k dt} and gtilde_v = sum_k V_k^2
    nbar_k e^{-i w_k dt}.  Anomalous per-mode correlations would make the
    fluctuation kernel depend on both time arguments, which the stationary
    Kernel interface cannot represent, so nonzero squeezes are rejected.
    """
    if np.any(np.abs(bath.squeezes) > 0.0):
        raise ContractViolationError(
            "kernels_from_bath requires zero per-mode squeezes "
            "(non-stationary fluctuation kernels are not representable)")

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
