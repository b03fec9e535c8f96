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

for which g_v has the closed form sqrt(gamma0/(8 pi cutoff)) (i dt + 1/cutoff)^-2.
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

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    QuadratureConvergenceError,
    ValidationError,
)

# Conjugation / particle-hole structure matrices used across modules.
Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

_FAMILIES = ("ohmic", "tabulated")
_CHANNELS = ("v", "w", "vw")

# Self-check tolerance of the frequency quadrature (relative, on probe offsets).
QUADRATURE_RTOL = 1e-8
# Largest oscillation phase handled by a single Gauss-Legendre panel.
_MAX_PANEL_PHASE = 350.0
_BASE_PANEL_NODES = 24
_NODES_PER_PHASE = 0.55


def n_bar(omega, temperature: float):
    """Bose occupation 1/(exp(omega/T) - 1), elementwise, with T=0 -> 0."""
    omega = np.asarray(omega, dtype=float)
    if temperature == 0.0:
        return np.zeros_like(omega)
    x = omega / temperature
    out = np.zeros_like(omega)  # x > 700 underflows to exactly 0
    mid = (x >= 1e-12) & (x <= 700.0)
    out[mid] = 1.0 / np.expm1(x[mid])
    out[x < 1e-12] = np.inf  # divergent occupation; J*nbar stays finite
    return out


def _trapezoid_panels(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid area of y over each interval of x; summed, the rule."""
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


def require_count(name: str, value, minimum: int) -> int:
    """value as an int: an integer (Python or numpy) of at least minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {count}")
    return count


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
        if not (self.gamma0 >= 0.0 and math.isfinite(self.gamma0)):
            raise ValidationError(f"gamma0 must be >= 0, got {self.gamma0}")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValidationError(f"cutoff must be > 0, got {self.cutoff}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (self.temperature >= 0.0 and math.isfinite(self.temperature)):
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if self.family == "tabulated":
            if self.tab_omega is None or self.tab_j is None:
                raise ValidationError("tabulated family requires tab_omega and tab_j")
            om = np.asarray(self.tab_omega, dtype=float)
            jj = np.asarray(self.tab_j, dtype=float)
            if om.ndim != 1 or om.shape != jj.shape or om.size < 2:
                raise ValidationError("tab_omega and tab_j must be matching 1-d arrays")
            if not (np.all(np.isfinite(om)) and np.all(np.isfinite(jj))):
                raise ValidationError("tab_omega and tab_j must be finite")
            if om[0] < 0.0 or np.any(np.diff(om) <= 0.0):
                raise ValidationError("tab_omega must be increasing and nonnegative")
            if np.any(jj < 0.0):
                raise ValidationError("tab_j must be nonnegative")
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
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValidationError("spectral densities are defined for omega >= 0 only")
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
                 knots: np.ndarray | None = None) -> list[float]:
    # Geometric refinement toward omega = 0 resolves the Bose factor, whose
    # structure lives on the temperature scale, without wasting nodes at the
    # cutoff scale.
    first = min(max(inner_scale, omega_max * 1e-8), omega_max)
    edges = [0.0, first]
    while edges[-1] < omega_max:
        edges.append(min(edges[-1] * 5.0, omega_max))
    if knots is not None:
        # Tabulated profiles are only piecewise smooth; panels must break at
        # the table nodes or Gauss-Legendre loses its convergence order.
        interior = knots[(knots > 0.0) & (knots < omega_max)]
        edges = sorted(set(edges).union(float(k) for k in interior))
    return edges


def _offsets(dt) -> np.ndarray:
    """Time offsets as a float array; NaN or infinite offsets are rejected."""
    dt = np.asarray(dt, dtype=float)
    if not np.all(np.isfinite(dt)):
        raise ValidationError("kernel time offsets must be finite")
    return dt


def _exp_sum(weights: np.ndarray, freqs: np.ndarray, dt) -> np.ndarray:
    """sum_j weights[j] exp(-i freqs[j] dt), elementwise in dt."""
    dt = _offsets(dt)
    flat = dt.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # chunk the outer product so memory stays bounded for long grids
    step = max(1, int(4e6 // max(freqs.size, 1)))
    for k in range(0, flat.size, step):
        block = flat[k:k + step]
        out[k:k + step] = np.exp(-1j * np.outer(block, freqs)) @ weights
    return out.reshape(dt.shape)


class _FourierRule:
    """Composite Gauss-Legendre rule for integrals of f(w) exp(-i w dt).

    Panel node counts scale with the largest oscillation phase the rule has
    to resolve, so accuracy is uniform over |dt| <= dt_max.
    """

    def __init__(self, weight_fn: Callable[[np.ndarray], np.ndarray],
                 omega_max: float, inner_scale: float, dt_max: float,
                 refine: int = 1, knots: np.ndarray | None = None):
        nodes = []
        weights = []
        edges = _panel_edges(omega_max, inner_scale, knots)
        for lo, hi in zip(edges[:-1], edges[1:]):
            width = hi - lo
            phase = width * dt_max
            n_sub = max(1, int(math.ceil(phase / _MAX_PANEL_PHASE)))
            sub = np.linspace(lo, hi, n_sub + 1)
            for a, b in zip(sub[:-1], sub[1:]):
                n_p = refine * (_BASE_PANEL_NODES
                                + int(_NODES_PER_PHASE * (b - a) * dt_max))
                x, w = np.polynomial.legendre.leggauss(n_p)
                nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
                weights.append(0.5 * (b - a) * w)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights) * weight_fn(self.nodes)
        self.n_nodes = self.nodes.size
        self.dt_max = dt_max

    def transform(self, dt: np.ndarray) -> np.ndarray:
        return _exp_sum(self.weights, self.nodes, dt)


class _TransformFamily:
    """Caches _FourierRule instances per |dt| range and self-checks them."""

    def __init__(self, weight_fn, omega_max: float, inner_scale: float,
                 label: str, knots: np.ndarray | None = None):
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
                                self.inner_scale, bucket, knots=self.knots)
            self._self_check(rule, bucket)
            self._rules[bucket] = rule
        return rule

    def _self_check(self, rule: _FourierRule, bucket: float):
        fine = _FourierRule(self.weight_fn, self.omega_max,
                            self.inner_scale, bucket, refine=2,
                            knots=self.knots)
        probes = np.array([0.0, 0.25 * bucket, 0.5 * bucket, bucket])
        coarse = rule.transform(probes)
        ref = fine.transform(probes)
        scale = max(np.max(np.abs(ref)), 1e-300)
        rel = np.max(np.abs(coarse - ref)) / scale
        if not (rel <= QUADRATURE_RTOL):
            raise QuadratureConvergenceError(
                f"{self.label} transform failed self-refinement: rel dev "
                f"{rel:.3e} > {QUADRATURE_RTOL:.1e} with {rule.n_nodes} nodes "
                f"(refined {fine.n_nodes}) on omega <= {self.omega_max:g}, "
                f"|dt| <= {bucket:g}")

    def __call__(self, dt) -> np.ndarray:
        dt = _offsets(dt)
        dt_max = float(np.max(np.abs(dt))) if dt.size else 0.0
        return self._rule_for(dt_max).transform(dt)


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------


def _assemble_g(gv, alpha: float) -> np.ndarray:
    gw = alpha**2 * gv
    gvw = alpha * gv
    out = np.empty(np.shape(gv) + (2, 2), dtype=complex)
    out[..., 0, 0] = gv - np.conj(gw)
    out[..., 0, 1] = gvw - np.conj(gvw)
    out[..., 1, 0] = -np.conj(out[..., 0, 1])
    out[..., 1, 1] = -np.conj(out[..., 0, 0])
    return out


def _assemble_gtilde(gv, gtv, alpha: float) -> np.ndarray:
    gw, gvw = alpha**2 * gv, alpha * gv
    gtw, gtvw = alpha**2 * gtv, alpha * gtv
    out = np.empty(np.shape(gv) + (2, 2), dtype=complex)
    out[..., 0, 0] = gtv + np.conj(gw) + np.conj(gtw)
    out[..., 0, 1] = gtvw + np.conj(gvw) + np.conj(gtvw)
    # real couplings make the two off-diagonal entries coincide
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] = gtw + np.conj(gv) + np.conj(gtv)
    return out


@dataclass
class Kernel:
    """Stationary dissipation kernel G and fluctuation kernel Gt.

    g / gtilde map an array of time offsets to (..., 2, 2) complex arrays.
    g_v / gtilde_v expose the scalar particle-exchange transforms that the
    short-time coefficient estimates need.  Metadata fields are None for
    synthetic kernels assembled outside build_kernels and kernels_from_bath.
    """

    g: Callable[[np.ndarray], np.ndarray]
    gtilde: Callable[[np.ndarray], np.ndarray]
    g_v: Callable[[np.ndarray], np.ndarray] | None = None
    gtilde_v: Callable[[np.ndarray], np.ndarray] | None = None
    alpha: float | None = None
    temperature: float | None = None
    cutoff: float | None = None
    metadata: dict = field(default_factory=dict)
    _tables: dict = field(default_factory=dict, repr=False)

    def g_table(self, grid) -> np.ndarray:
        """G sampled on the grid times [0, t_end]; cached per grid shape."""
        key = ("g", grid.n_steps, grid.t_end)
        if key not in self._tables:
            self._tables[key] = self.g(grid.times)
        return self._tables[key]

    def gtilde_signed_table(self, grid) -> np.ndarray:
        """Gt on signed offsets -t_end..t_end; index n + k holds offset k*dt."""
        key = ("gtilde_signed", grid.n_steps, grid.t_end)
        if key not in self._tables:
            t = grid.times
            offsets = np.concatenate([-t[::-1], t[1:]])
            self._tables[key] = self.gtilde(offsets)
        return self._tables[key]

    def zgtz_signed_table(self, grid) -> np.ndarray:
        """Z Gt Z on the offsets of gtilde_signed_table (a fresh array)."""
        out = self.gtilde_signed_table(grid).copy()
        out[:, 0, 1] *= -1.0
        out[:, 1, 0] *= -1.0
        return out


def _kernel(g_v, gtilde_v, alpha: float, **info) -> Kernel:
    """Kernel whose 2x2 G and Gt are assembled from g_v, gtilde_v and alpha."""

    def g(dt):
        return _assemble_g(g_v(dt), alpha)

    def gtilde(dt):
        return _assemble_gtilde(g_v(dt), gtilde_v(dt), alpha)

    return Kernel(g=g, gtilde=gtilde, g_v=g_v, gtilde_v=gtilde_v,
                  alpha=alpha, **info)


def _g_v_function(model: SpectralModel):
    """Particle-exchange transform g_v as a callable of time offsets."""
    cut = model.cutoff
    if model.family == "ohmic":
        amp = math.sqrt(model.gamma0 / (8.0 * math.pi * cut))

        def g_v(dt):
            return amp / (1.0 / cut + 1j * _offsets(dt)) ** 2

        return g_v

    omega_max_v = float(model.tab_omega[-1])

    def _w_plain(om):
        return _j_v(model, om) / (2.0 * math.pi)

    return _TransformFamily(_w_plain, omega_max_v, cut, "spectral",
                            knots=model.tab_omega)


def eval_g_v(model: SpectralModel, dt) -> np.ndarray:
    """Evaluate g_v(dt) = int J_V(w) exp(-i w dt) dw / (2 pi) elementwise."""
    return _g_v_function(model)(dt)


def build_kernels(model: SpectralModel) -> Kernel:
    """Continuum kernels of the model, with closed-form transforms where known.

    The thermal transform gtilde_v is evaluated by a composite Gauss-Legendre
    rule on [0, omega_max] with omega_max = max(20 cutoff, 50 T); panels are
    geometrically refined toward omega = 0 to resolve the Bose factor, and
    every rule is validated against its own refinement before first use.
    """
    cut = model.cutoff
    temp = model.temperature

    g_v = _g_v_function(model)

    if temp > 0.0:
        omega_max_t = max(20.0 * cut, 50.0 * temp)
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
            _w_thermal, omega_max_t, min(temp, cut) * 0.5, "thermal",
            knots=model.tab_omega if model.family == "tabulated" else None)
    else:
        def gtilde_v(dt):
            return np.zeros(_offsets(dt).shape, dtype=complex)

    return _kernel(
        g_v, gtilde_v, model.alpha, temperature=temp, cutoff=cut,
        metadata={"source": "continuum", "family": model.family,
                  "gamma0": model.gamma0,
                  "quadrature": "composite-gauss-legendre"},
    )


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

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    @property
    def w_couplings(self) -> np.ndarray:
        return self.alpha * self.v_couplings


def discretize_bath(model: SpectralModel, n_modes: int, omega_max: float,
                    scheme: str = "linear-midpoint") -> BathDiscretization:
    """Sample the continuum into n_modes discrete modes on [0, omega_max]."""
    if scheme not in _SCHEMES:
        raise ValidationError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    n_modes = require_count("n_modes", n_modes, 1)
    if not (omega_max > 0.0 and math.isfinite(omega_max)):
        raise ValidationError(f"omega_max must be finite and > 0, got {omega_max}")

    if scheme == "linear-midpoint":
        h = omega_max / n_modes
        freqs = (np.arange(n_modes) + 0.5) * h
        weights = np.full(n_modes, h)
    else:
        x, w = np.polynomial.legendre.leggauss(n_modes)
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

    return _kernel(
        g_v, gtilde_v, bath.alpha, temperature=bath.temperature,
        cutoff=bath.cutoff,
        metadata={"source": "discrete-bath", "n_modes": bath.n_modes,
                  "scheme": bath.scheme},
    )
