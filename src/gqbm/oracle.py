"""Exact finite-bath reference dynamics (the validation oracle).

A bath truncated to N discrete modes makes the total Hamiltonian a finite
quadratic form, so the Heisenberg equations close on the operator vector

    A = (a, a^dag, b_1, b_1^dag, ..., b_N, b_N^dag),   dA/dt = generator A,

and every reduced quantity of the open mode follows from the Bogoliubov
propagator S(t) = exp(generator * t) without any master-equation input.
This module never touches the kernel machinery; agreement between the two
routes is therefore a genuine cross-validation.

The generator is -i sigma H with H the real symmetric coupling table and
sigma the commutation metric.  H is an arrowhead matrix (a diagonal plus the
two system rows and columns) and is held once, as the diagonal and system
rows that LinearDynamics.arrowhead() builds from the frequencies and
couplings; the march acts on them in O(N) per step.  Every reduced
quantity reads only the system rows S[:2, :], and a^dag(t) = a(t)^dag
makes the a^dag row the a row conjugated, with each (b_k, b_k^dag) pair
swapped.  So the march computes the a row alone, as the a column of S^T
under G^T; the system columns S[:, :2] are not computed.  G is constant,
so the march is a Chebyshev expansion of exp(G^T t) (Tal-Ezer & Kosloff,
J. Chem. Phys. 81 (1984) 3967) over windows of output steps, its degree
fixed in advance by a bound that holds for any H.  A finite bath
revives: LinearDynamics reports a recurrence horizon ~ 2 pi / min mode
spacing before anything is propagated.  propagate() only plans the
march; the a rows are streamed, never stored: BogoliubovPropagator.blocks()
marches them and yields a block of output steps at a time, and
reduced_moments(), exact_moments() and thermal_moments() apply the initial
state to each block as it arrives (the pair rule _pair_moments on the a
row, a dense product table on the a and rebuilt a^dag rows, or two real
GEMMs with the normal-mode transforms, then the pair rule).  Each reader
runs its own march; u_series, the 2x2 system block, is kept from the
first march to reach the end, and marches on first access if none has.

thermal_total_state() prepares the correlated initial state of a quench,
the Gibbs state of the coupled Hamiltonian.  The couplings are real, so
the same arrowhead splits into an x block and a p block of size N + 1 in
the quadratures; their Cholesky factors are O(N), and the secular
equation of the factors' product gives the normal modes in O(N^2).  The
state is those real transforms and the normal-mode occupations; its dense
product table, in the interleaved operator ordering, is a view of them,
built only when asked for.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InstabilityError,
    NumericalQualityError,
    ValidationError,
    guard,
    require,
    require_budget,
    require_vectors,
)
from .greens import INSTABILITY_MAX_ABS, InitialCorrelations, TimeGrid, _check_finite
from .moments import GaussianMoments, SecondMomentSeries, _require_commutator
from .spectral import BathDiscretization, n_bar

RECURRENCE_GUARD = 0.5
# thermal_total_state: the O(N) Cholesky factors of the x and p blocks of
# H, then the roots of their product's secular equation (the normal
# frequencies) and its closed-form singular vectors (both transforms)
THERMAL_STATE_SCHEME = "quadrature-cholesky-secular"
# Bound on max|X^T Y - 1| of the thermal state's Bogoliubov transform.
SYMPLECTIC_RESIDUAL_TOL = 1e-8
# Bound on the truncated tail of propagate's Chebyshev expansion, relative
# (max norm) to the block that starts each window.
CHEBYSHEV_TAIL_TOL = 1e-15
PROPAGATE_SCHEME = ("windowed chebyshev expansion of exp(G^T t), row march "
                    "(S^T columns under G^T) on the arrowhead generator")
# A window spans at most this phase R t of the scaled generator (rad).
_WINDOW_PHASE = 8.0
# ||T_k(B)||_inf <= (1 + sqrt 2)^k whenever ||B||_inf <= 1.
_CHEBYSHEV_GROWTH = 1.0 + math.sqrt(2.0)
# A degree past this means a grid too stiff for its generator.
_MAX_DEGREE = 100_000
# A secular root is taken once a Newton step moves its shift mu from the
# pole by at most this fraction of mu.
_SECULAR_RTOL = 1e-13
# A secular root still moving after this many sweeps trips
# NumericalQualityError.
_SECULAR_SWEEPS = 64
# Entries of each (roots x poles) table of the secular solve at a time.
_SECULAR_CHUNK = 1 << 18
# Miller's recurrence keeps its unnormalised values below this magnitude.
_MILLER_RESCALE = 1e250
# The march yields its rows in blocks of at most this many output steps.
_MOMENT_BLOCK = 32


@dataclass
class LinearDynamics:
    """Heisenberg generator of the total (system + N modes) quadratic model.

    Operator ordering: index 0 = a, 1 = a^dag, 2k+2 = b_k, 2k+3 = b_k^dag.
    """

    omega_s: float
    frequencies: np.ndarray
    v_couplings: np.ndarray
    w_couplings: np.ndarray

    def __post_init__(self):
        require("omega_s", self.omega_s)
        require_vectors(self, "frequencies", "v_couplings", "w_couplings")

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes + 2

    @property
    def recurrence_horizon(self) -> float:
        """RECURRENCE_GUARD 2 pi over the smallest gap between distinct
        frequencies (inf for a single frequency).  On Gauss nodes that gap
        is at a band edge, so this is the latest revival, not the earliest."""
        # modes sharing a frequency act as one bright mode plus dark modes
        gaps = np.diff(np.sort(self.frequencies))
        gaps = gaps[gaps > 0.0]
        if gaps.size == 0:
            return math.inf
        spacing = float(np.min(gaps))
        return RECURRENCE_GUARD * 2.0 * math.pi / max(spacing, 1e-300)

    def arrowhead(self) -> tuple[np.ndarray, np.ndarray]:
        """H as (diag, coupling): its diagonal, and coupling[s, j] =
        H[s, j + 2] = H[j + 2, s] for the system rows s = 0, 1."""
        diag = np.concatenate([[self.omega_s, self.omega_s],
                               np.repeat(self.frequencies, 2)])
        # a-b_k and a^dag-b_k^dag carry V_k, a-b_k^dag and a^dag-b_k W_k
        coupling = np.empty((2, self.dim - 2))
        coupling[0, 0::2] = coupling[1, 1::2] = self.v_couplings
        coupling[0, 1::2] = coupling[1, 0::2] = self.w_couplings
        return diag, coupling

    def sigma(self) -> np.ndarray:
        """Commutation metric diag(+1, -1, ...) in the interleaved ordering."""
        s = np.ones(self.dim)
        s[1::2] = -1.0
        return s


def build_dynamics(bath: BathDiscretization, omega_s: float) -> LinearDynamics:
    return LinearDynamics(omega_s=float(omega_s), frequencies=bath.frequencies,
                          v_couplings=bath.v_couplings,
                          w_couplings=bath.w_couplings)


@dataclass
class BogoliubovPropagator:
    """The march of the a row S(t_m)[0, :] of S(t) = exp(generator t) on
    a grid (what the evolved a is made of), planned.

    The a^dag row is the a row conjugated, with each (b_k, b_k^dag) pair
    swapped (a^dag(t) = a(t)^dag), so the a row carries the system rows
    S[:2, :].  The rows are streamed, never stored: blocks() marches them
    and yields them a block of output steps at a time, and each reader
    runs its own march.  u_series, the 2x2 system block, is kept from the
    first march to reach the end, and marches on first access if none
    has.  The columns S[:, :2] are not computed.  recurrence_horizon is
    LinearDynamics.recurrence_horizon of the model.  twice_b applies 2 B
    on the arrowhead (_chebyshev_operator).  metadata holds the scheme,
    the Chebyshev degree, the window in output steps and the norm bound R
    of the generator, and, once a march has reached the end, max_abs_s,
    the largest |S| entry its instability guard passed.
    """

    grid: TimeGrid
    dim: int
    recurrence_horizon: float
    twice_b: Callable[[np.ndarray, np.ndarray], None] = field(repr=False)
    metadata: dict = field(default_factory=dict)
    _u_series: np.ndarray | None = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def u_series(self) -> np.ndarray:
        """U(t_m) = S(t_m)[:2, :2], (n + 1, 2, 2)."""
        if self._u_series is None:
            for _ in self.blocks():
                pass
        return self._u_series

    def blocks(self) -> Iterator[np.ndarray]:
        """March the a row: contiguous (k, dim) blocks of S(t_m)[0, :] for
        steps 0, 1, ..., n in order, k <= _MOMENT_BLOCK.

        Step 0, the identity's row, comes alone; then each window's steps,
        in blocks of _MOMENT_BLOCK (a window longer than one block is a
        whole number of them), each one GEMM of its coefficient rows
        against the window's T_0..T_K store of the a column of S^T.  The
        window's coefficient table is built at the start of each march.
        The instability guard checks each block before it is yielded; the
        a^dag row's entries are the a row's, conjugated and permuted, so
        the guard sees every |S| entry of the system rows.
        """
        n, dt, dim = self.grid.n_steps, self.grid.dt, self.dim
        meta = self.metadata
        degree, window, norm = meta["degree"], meta["window"], meta["norm_bound"]
        k = np.arange(degree + 1)
        coef = (np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4]
                * _bessel_j(degree, norm * dt * np.arange(1, window + 1)).T)
        # T_k(B) x for the a column x of S^T, and its real (dim, 2) views
        store = np.empty((degree + 1, dim), dtype=complex)
        real = store.view(float).reshape(degree + 1, dim, 2)
        u_series = np.empty((n + 1, 2, 2), dtype=complex)
        store[0] = np.eye(1, dim)
        u_series[0, 0] = store[0, :2]
        worst = 1.0  # |S(0)| = |I|
        yield store[:1].copy()
        for m0 in range(0, n, window):
            if degree > 0:
                self.twice_b(real[0], real[1])
                real[1] *= 0.5
            for j in range(2, degree + 1):
                self.twice_b(real[j - 1], real[j])
                real[j] -= real[j - 2]
            steps = min(window, n - m0)
            for lo in range(0, steps, _MOMENT_BLOCK):
                hi = min(lo + _MOMENT_BLOCK, steps)
                rows = coef[lo:hi] @ store
                worst = max(worst, _check_finite(
                    rows, m0 + lo + 1, dt * np.arange(m0 + lo + 1, m0 + hi + 1),
                    "S"))
                u_series[m0 + lo + 1:m0 + hi + 1, 0] = rows[:, :2]
                yield rows
            store[0] = rows[-1]
        # a^dag(t) = a(t)^dag: U = [[r_0, r_1], [conj r_1, conj r_0]]
        u_series[:, 1] = np.conj(u_series[:, 0, ::-1])
        meta["max_abs_s"] = worst
        self._u_series = u_series


def _miller_top(k_max: int, x_max: float) -> int:
    """The order _bessel_j starts its recurrence from, for orders up to
    k_max at arguments up to x_max."""
    return (max(k_max, math.ceil(x_max)) + 20
            + math.ceil(8.0 * x_max ** (1 / 3)))


def _bessel_j(k_max: int, x: np.ndarray) -> np.ndarray:
    """J_k(x) for k = 0..k_max (rows) at each x >= 0 of a 1-d x (columns).

    Miller's backward recurrence J_(k-1) = (2k/x) J_k - J_(k+1), started from
    0 and 1 at orders top + 1 and top, normalised by J_0 + 2 sum_j J_2j = 1.
    The start leaves a relative error of about (J_top / J_k)^2 in each J_k;
    top = max(k_max, x) + 20 + 8 x^(1/3) puts J_top 1e-8 or more below every
    J_k asked for.  Each column is scaled down before a step could take it
    past _MILLER_RESCALE, so an order whose J_k underflows comes out as zero
    or subnormal.
    """
    x = np.asarray(x, dtype=float)
    x_max = float(np.max(x, initial=0.0))
    top = _miller_top(k_max, x_max)
    two_over_x = 2.0 / np.where(x > 0.0, x, 1.0)  # x = 0 is set below
    growth = float(np.max(two_over_x, initial=0.0))
    j = np.zeros((top + 2, x.size))  # unnormalised J_0..J_(top+1)
    j[top] = 1.0
    bound = 1.0  # >= |J_k| and |J_(k+1)| in every column
    for k in range(top, 0, -1):
        factor = k * growth + 1.0  # |J_(k-1)| <= factor max(|J_k|, |J_(k+1)|)
        if bound * factor > _MILLER_RESCALE:
            peak = np.max(np.abs(j[k:k + 2]), axis=0)
            j[k:] /= np.where(peak > 0.0, peak, 1.0)
            bound = 1.0
        below = j[k - 1]
        np.multiply(two_over_x, j[k], out=below)
        below *= k
        below -= j[k + 1]
        bound *= factor
    out = j[:k_max + 1] / (j[0] + 2.0 * j[2::2].sum(axis=0))
    out[:, x == 0.0] = np.eye(k_max + 1, 1)
    return out


def _chebyshev_degree(phase: float) -> int:
    """Smallest K with sum_{k>K} 2 z^k / k! <= tol, z = (1 + sqrt 2) phase / 2.

    |J_k(phase)| <= (phase / 2)^k / k!, so the sum bounds the weighted tail
    sum_{k>K} 2 |J_k(phase)| (1 + sqrt 2)^k; it is summed in log space.
    """
    # the terms fall like (e z / k)^k, so those past e z + 64 are below 1e-27
    k_end = 0.5 * math.e * _CHEBYSHEV_GROWTH * phase + 64.0
    if not k_end <= _MAX_DEGREE:
        raise ValidationError(
            f"grid is too stiff for the Chebyshev propagator: one output "
            f"step spans a phase R dt = {phase:.3e} rad, which needs a "
            f"degree near {k_end:.3e} (cap {_MAX_DEGREE})")
    k = np.arange(1, int(k_end) + 2)
    with np.errstate(divide="ignore"):  # phase 0: every term is zero
        log_terms = (math.log(2.0) + k * np.log(0.5 * _CHEBYSHEV_GROWTH * phase)
                     - np.cumsum(np.log(k)))
    log_tail = np.logaddexp.accumulate(log_terms[::-1])[::-1]  # k, k+1, ...
    return int(np.argmax(log_tail <= math.log(CHEBYSHEV_TAIL_TOL)))


def _chebyshev_operator(dyn: LinearDynamics):
    """(R, twice_b) for B = G^T i/R = H sigma/R with R = ||G^T||_inf.

    R is the max absolute row sum of H.  B is real, so twice_b(p, out)
    writes out = 2 B p for the real views (dim, 2) of two complex columns,
    in O(dim) on the arrowhead: the diagonal, then the system rows'
    couplings into the bath rows and the bath rows' into the system rows.
    """
    diag, coupling = dyn.arrowhead()
    sigma = dyn.sigma()
    abs_c = np.abs(coupling)
    norm = float(np.max(np.abs(diag) + np.concatenate(
        [abs_c.sum(axis=1), abs_c.sum(axis=0)])))
    scale = 2.0 / norm if norm > 0.0 else 0.0
    diag2 = np.repeat(scale * sigma * diag, 2).reshape(dyn.dim, 2)
    to_bath = (scale * sigma[:2, None] * coupling).T.copy()   # (dim - 2, 2)
    to_sys = scale * coupling * sigma[2:]                     # (2, dim - 2)

    def twice_b(p: np.ndarray, out: np.ndarray) -> None:
        np.multiply(diag2, p, out=out)
        out[2:] += to_bath @ p[:2]
        out[:2] += to_sys @ p[2:]

    return norm, twice_b


def propagate(dyn: LinearDynamics, grid: TimeGrid) -> BogoliubovPropagator:
    """Plan the march of the a row of S (the a column of S^T under G^T) by
    Chebyshev; BogoliubovPropagator.blocks() runs it.

    With R = ||G^T||_inf, the max absolute row sum of H, B = G^T i/R has
    ||B||_inf <= 1 and exp(G^T t) = sum_k (2 - delta_k0) (-i)^k J_k(R t)
    T_k(B).  A window covers W output steps: all n if R n dt <= 8 rad, else
    the most with R W dt <= 8, at least one, rounded down to a whole number
    of _MOMENT_BLOCK blocks once longer than one.  Its start column x gives
    T_k(B) x by the three-term recurrence (K products with the arrowhead),
    and the coefficient table, shared by every window of the uniform grid,
    gives its W a rows.  K is the least degree whose bound
    (_chebyshev_degree) on the tail sum_{k>K} 2 |J_k(R W dt)| (1 + sqrt 2)^k
    is at most CHEBYSHEV_TAIL_TOL, so W and K depend on (H, dt) alone.  A
    NaN or infinite entry of H is rejected here, and the memory the march
    and a reader need is checked before anything is allocated.
    """
    n = grid.n_steps
    dt = grid.dt
    dim = dyn.dim

    norm, twice_b = _chebyshev_operator(dyn)
    if not math.isfinite(norm):
        # a NaN or inf entry of H: the step-1 guard reports it, as a march would
        guard(norm, INSTABILITY_MAX_ABS, InstabilityError, "|S|", dt, 1)
    if norm * dt * n <= _WINDOW_PHASE:
        window = n
    else:
        window = max(1, int(_WINDOW_PHASE / (norm * dt)))
        if window > _MOMENT_BLOCK:
            window -= window % _MOMENT_BLOCK
    phase = norm * window * dt
    degree = _chebyshev_degree(phase)
    # the T_0..T_K store; a block of a rows, the one before it, the guard's
    # |.| and a reader's products (the process peak rose by 38-151 x
    # 32 dim bytes beyond the other terms at 600 to 3 000 modes, the most
    # for exact_moments' complex GEMM); the Bessel
    # recurrence, its normalised rows and the complex coefficient table of
    # one window; and the series, u_series and a reader's delta_s,
    # delta_n and delta_h
    require_budget(
        f"propagate at {n} steps, degree {degree} and dimension {dim}",
        16 * dim * (degree + 1) + 160 * dim * _MOMENT_BLOCK
        + 8 * window * (_miller_top(degree, phase) + 2 + 3 * (degree + 1))
        + 128 * (n + 1),
        "Chebyshev vectors, propagator blocks, coefficient tables and series")

    return BogoliubovPropagator(
        grid=grid, dim=dim, recurrence_horizon=dyn.recurrence_horizon,
        twice_b=twice_b,
        metadata={"scheme": PROPAGATE_SCHEME, "degree": degree,
                  "window": window, "norm_bound": norm},
    )


def _moments_from_rows(prop: BogoliubovPropagator, rule) -> SecondMomentSeries:
    """Moments <A_i A_j> of the system pair, drift-checked.

    Reads the a rows as prop.blocks() marches them: rule maps a (k, dim)
    block of them to its (delta_s, delta_n, delta_h), each of length k.
    Each call marches anew, and only the block in hand and the one being
    marched are alive, so the transient is O(_MOMENT_BLOCK dim), whatever n.
    """
    n_times = prop.grid.n_steps + 1
    delta_s = np.empty(n_times, dtype=complex)
    delta_n = np.empty(n_times, dtype=complex)
    delta_h = np.empty(n_times, dtype=complex)
    lo = 0
    for block in prop.blocks():
        steps = slice(lo, lo + block.shape[0])
        delta_s[steps], delta_n[steps], delta_h[steps] = rule(block)
        lo = steps.stop
    times = prop.grid.times
    drift = _require_commutator(delta_n.real, delta_h.real, times)
    return SecondMomentSeries(times=times, delta_n=delta_n.real,
                              delta_s=delta_s, delta_h=delta_h.real,
                              max_commutator_drift=drift)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag if np.iscomplexobj(z) else z * z


def _pair_moments(alpha: np.ndarray, beta: np.ndarray, occ: np.ndarray):
    """(<A A>, <A^dag A>, <A A^dag>) of A = sum_k alpha_k c_k + beta_k c_k^dag
    over the last axis, for independent c_k with <c^dag c> = occ, <c c> = 0:
    sum alpha beta (1 + 2 occ), sum |alpha|^2 occ + |beta|^2 (1 + occ) and
    sum |alpha|^2 (1 + occ) + |beta|^2 occ."""
    one_occ = 1.0 + occ
    ann = (alpha * beta) @ (1.0 + 2.0 * occ)
    abs2 = _abs2(alpha)  # one |.|^2 table alive at a time
    dag, dag_t = abs2 @ occ, abs2 @ one_occ
    del abs2
    abs2 = _abs2(beta)
    return ann, dag + abs2 @ one_occ, dag_t + abs2 @ occ


def reduced_moments(prop: BogoliubovPropagator, bath: BathDiscretization,
                    init: GaussianMoments) -> SecondMomentSeries:
    """Open-mode moments for a product initial state (system x thermal-like bath).

    The bath enters through its per-mode occupations only: it carries no
    squeezes, and cross correlations with the system are zero by
    assumption (use exact_moments with a full initial table otherwise).
    With A and B the a row's entries on each pair (x, x^dag),
    a(t) = sum A x + B x^dag, and the pairs read by _pair_moments with
    occupations (delta_n(0), bath.occupations); the system pair's squeeze
    s = delta_s(0) adds A_0^2 s + B_0^2 s* to delta_s and 2 Re(A_0 B_0* s)
    to delta_n and delta_h.  The mean is U <a>(0), that is
    prop.u_series[:, 0, :] @ (<a>(0), <a>(0)*).
    """
    init.require_physical()
    if 2 * bath.n_modes + 2 != prop.dim:
        raise ValidationError(
            f"bath has {bath.n_modes} modes, propagator dimension {prop.dim}")

    occ = np.concatenate([[init.delta_n], bath.occupations])
    sqz = complex(init.delta_s)

    def rule(block: np.ndarray):
        a, a_dag = block[:, 0], block[:, 1]
        ann, dag, dag_t = _pair_moments(block[:, 0::2], block[:, 1::2], occ)
        cross = 2.0 * (a * np.conj(a_dag) * sqz).real
        return (a * a * sqz + ann + a_dag * a_dag * sqz.conjugate(),
                dag + cross, dag_t + cross)

    return _moments_from_rows(prop, rule)


def exact_moments(prop: BogoliubovPropagator,
                  product_table: np.ndarray) -> SecondMomentSeries:
    """Open-mode moments for an arbitrary Gaussian initial total state.

    product_table[p, q] = <A_p A_q>(0) in the interleaved operator ordering
    (means assumed zero, as for any thermal total state); its entries must
    be finite.  Each block of a rows r gets its a^dag rows r' (a^dag(t) =
    a(t)^dag: each entry the conjugate of its pair partner's), then one
    GEMM gives M0 r and M0 r', and <A_i A_j> = r_i . M0 r_j.
    """
    if product_table.shape != (prop.dim, prop.dim):
        raise ValidationError(
            f"product table shape {product_table.shape} does not match "
            f"dimension {prop.dim}")
    require("product_table entries", product_table)
    partner = np.arange(prop.dim) ^ 1

    def rule(block: np.ndarray):
        k = block.shape[0]
        rows = np.concatenate([block, np.conj(block[:, partner])])
        m0_rows = rows @ product_table.T
        return (np.einsum("kd,kd->k", block, m0_rows[:k]),
                np.einsum("kd,kd->k", rows[k:], m0_rows[:k]),
                np.einsum("kd,kd->k", block, m0_rows[k:]))

    return _moments_from_rows(prop, rule)


def thermal_moments(prop: BogoliubovPropagator,
                    state: ThermalTotalState) -> SecondMomentSeries:
    """Open-mode moments from a thermal total state, read through its
    normal-mode transforms; exact_moments(prop, state.product_table) reads
    the same moments through the dense table.

    With u = (X' + Y')/2 and v = (X' - Y')/2 (state.x_modes, state.y_modes)
    a_j = sum_k u_jk c_k + v_jk c_k^dag, so the a row r, in the interleaved
    ordering, makes a(t) = sum_k alpha_k c_k + beta_k c_k^dag with
    alpha = (P + Q)/2 and beta = (P - Q)/2 for P = (r_even + r_odd) X' and
    Q = (r_even - r_odd) Y'.  Each is one real GEMM on the real view of a
    block of a rows: 4 (N+1)^2 real multiply-adds a step for the two,
    against 32 (N+1)^2 for the complex table on both rows.  _pair_moments
    of (alpha, beta) gives delta_s, delta_n and delta_h.
    """
    occ = state.mode_occupations
    if 2 * occ.size != prop.dim:
        raise ValidationError(
            f"thermal state has {occ.size - 1} bath modes, propagator "
            f"dimension {prop.dim}")
    x_t, y_t = state.x_modes.T, state.y_modes.T

    def rule(block: np.ndarray):
        # the block's a rows as columns, so that each real GEMM acts on
        # their real and imaginary parts; one buffer holds the sum, the
        # difference and then 2 beta, and P becomes 2 alpha in place, so at
        # most three (N+1) x k arrays are alive
        even, odd = block[:, 0::2].T, block[:, 1::2].T
        beta = np.empty((occ.size, block.shape[0]), dtype=complex)
        alpha = (x_t @ np.add(even, odd, out=beta).view(float)).view(complex)
        q = (y_t @ np.subtract(even, odd, out=beta).view(float)).view(complex)
        np.subtract(alpha, q, out=beta)
        alpha += q
        del q
        # alpha and beta are taken twice above
        return [0.25 * m for m in _pair_moments(alpha.T, beta.T, occ)]

    return _moments_from_rows(prop, rule)


@dataclass
class ThermalTotalState:
    """Gaussian thermal state of the coupled system + bath Hamiltonian.

    The state is its normal-mode transforms x_modes = X Omega^-1/2 and
    y_modes = Y Omega^-1/2 (_quadrature_modes: built from the closed-form
    singular vectors of a secular solve, real, rows in the operator
    ordering, a column per normal mode) and mode_occupations = nbar of
    each column.  With u = (x_modes + y_modes)/2, v = (x_modes - y_modes)/2
    the annihilators are a = u c + v c^dag over the normal-mode ones c, so
    each row of u and v is read by _pair_moments.  thermal_moments reads
    the evolved moments through the transforms.  The reduced system
    moments, the system-bath cross correlations and the per-mode bath
    occupations/squeezes are read off them once; normal_frequencies ascend.
    product_table, the dense <A_p A_q> in the interleaved ordering, is a
    view of the transforms, assembled on first use.  metadata holds the
    scheme, its symplectic residual and the lowest normal-mode frequency.
    The residual is max|Omega^-1/2 X^T Y Omega^-1/2 - I| for the quadrature
    transforms X, Y: how far the normal coordinates are from canonical
    pairs, and so how far the secular solve's vectors are from orthogonal.
    """

    system: GaussianMoments
    correlations: InitialCorrelations
    bath_occupations: np.ndarray
    bath_squeezes: np.ndarray
    normal_frequencies: np.ndarray
    x_modes: np.ndarray
    y_modes: np.ndarray
    mode_occupations: np.ndarray
    metadata: dict = field(default_factory=dict)

    @functools.cached_property
    def product_table(self) -> np.ndarray:
        """<A_p A_q>(0) in the interleaved operator ordering, for
        exact_moments; (2N+2)^2 complex, built once."""
        nb = self.mode_occupations.size
        # the table, and the factors alive while it is filled
        require_budget(f"the product table at {nb} normal modes",
                       88 * nb * nb, "table and factors")
        x_mat, y_mat = self.x_modes, self.y_modes
        # each factor is freed once read: the table below sets the peak memory
        uv = 0.5 * np.hstack([x_mat + y_mat, x_mat - y_mat])  # [u, v]
        occ_nm = self.mode_occupations
        gram = uv * np.sqrt(np.concatenate([occ_nm, 1.0 + occ_nm]))
        dag_ann = gram @ gram.T
        del gram
        ann_ann = (uv * np.concatenate([1.0 + occ_nm, occ_nm])) @ np.roll(
            uv, nb, axis=1).T  # [u, v] diag(1 + nbar, nbar) [v, u]^T
        del uv
        table = np.empty((2 * nb, 2 * nb), dtype=complex)
        table[0::2, 0::2] = ann_ann
        table[0::2, 1::2] = dag_ann.T + np.eye(nb)
        table[1::2, 0::2] = dag_ann
        table[1::2, 1::2] = ann_ann.T
        return table


def _row_chunks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Row slices of an (n_rows, n_cols) table, _SECULAR_CHUNK entries each."""
    step = max(1, _SECULAR_CHUNK // n_cols)
    return (slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step))


def _pole_gaps(d: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """d_i^2 - d_k^2 = (d_i - d_k)(d_i + d_k), one row per pole k."""
    gaps = np.subtract(d, d[poles, None])
    gaps *= d + d[poles, None]
    return gaps


def _secular_residues(d, p, q, gaps):
    """Residue r_k of f(lam) = (1 - B)^2 - lam A C at each pole d_k^2, with
    A, C, B the sums of q_i^2, p_i^2, d_i p_i q_i over lam - d_i^2 and
    gaps[k, i] = d_i^2 - d_k^2.  The pole's 1/(lam - d_k^2)^2 parts cancel,
    as (d_k p_k q_k)^2 = d_k^2 p_k^2 q_k^2, leaving, over i != k and free of
    the sums' cancellation near d_k^2, r_k = -(p_k^2 q_k^2 + 2 d_k p_k q_k
    (1 + sum p_i q_i / (d_k + d_i)) + d_k^2 sum (q_k p_i - p_k q_i)^2
    / (d_k^2 - d_i^2)).
    """
    pq = p * q
    res = np.empty(d.size)
    for rows in _row_chunks(d.size, d.size):
        k = np.arange(rows.start, rows.stop)
        own = (k - rows.start, k)
        plus = d[k, None] + d
        plus[own] = np.inf  # the i = k terms are zero
        np.reciprocal(plus, out=plus)
        cross = q[k, None] * p - p[k, None] * q
        cross *= cross
        gaps[rows][own] = -np.inf
        cross /= gaps[rows]
        gaps[rows][own] = 0.0
        res[rows] = -(pq[k] * pq[k] + 2.0 * d[k] * pq[k] * (1.0 + plus @ pq)
                      - d[k] * d[k] * cross.sum(axis=1))
    return res


def _secular_roots(d, res, gaps):
    """The pole k and shift mu = lam - d_k^2 of each root lam of
    f(lam) = 1 + sum r_i / (lam - d_i^2), for ascending d and residues r < 0.

    f is this sum of its residues, as it has simple poles and tends to 1.
    With r < 0 it rises from -inf to +inf between poles, one root in each
    interval and one above the last, and g(mu) = mu f is convex there: so
    Newton's method converges from the side where g > 0, here kept inside
    the bracket (a bisection otherwise).  Root j starts at its interval's
    midpoint, and shifts from d_j^2 where f > 0 there, else from d_(j+1)^2
    (the last starts at mu = -sum r, where g >= 0); row j of gaps holds
    d_i^2 - d_j^2 and is moved to the chosen pole, so mu near a pole keeps
    its relative accuracy.  A root is taken once a step moves it by at most
    _SECULAR_RTOL of mu.
    """
    n = d.size
    pole = np.arange(n)
    far = np.append(0.5 * gaps[pole[:-1], pole[1:]], -np.sum(res))  # g > 0
    mu, near = far.copy(), np.zeros(n)  # the pole is the bracket's other end
    f, slope, moved = np.empty(n), np.empty(n), np.empty(n)
    active = pole.copy()
    for sweep in range(_SECULAR_SWEEPS):
        for rows in _row_chunks(active.size, n):
            j = active[rows]
            inv = gaps[j]
            np.subtract(mu[j, None], inv, out=inv)
            np.reciprocal(inv, out=inv)
            f[j] = 1.0 + inv @ res
            inv *= inv
            slope[j] = -(inv @ res)
        if sweep == 0:  # f < 0 at a midpoint: the root is nearer the upper pole
            up = active[(f < 0.0) & (active < n - 1)]
            pole[up] += 1
            mu[up] = far[up] = -far[up]
            for rows in _row_chunks(up.size, n):
                gaps[up[rows]] = _pole_gaps(d, pole[up[rows]])
        j = active
        g, g_slope = mu[j] * f[j], f[j] + mu[j] * slope[j]
        far[j] = np.where(g > 0.0, mu[j], far[j])
        near[j] = np.where(g > 0.0, near[j], mu[j])
        new = mu[j] - np.divide(g, g_slope, out=np.full(j.size, np.inf),
                                where=g_slope != 0.0)
        # a step below the last bit of mu leaves it where it is
        inside = ((new - near[j]) * (new - far[j]) < 0.0) | (new == mu[j])
        new = np.where(inside, new, 0.5 * (near[j] + far[j]))
        moved[j] = np.abs(new - mu[j])
        mu[j] = new
        active = j[moved[j] > _SECULAR_RTOL * np.abs(new)]
        if active.size == 0:
            return pole, mu
    worst = active[np.argmax(moved[active] / np.abs(mu[active]))]
    raise NumericalQualityError(
        f"secular root {worst} of {n} did not converge in {_SECULAR_SWEEPS} "
        f"sweeps: its last step moved mu = {mu[worst]:.6e} by "
        f"{moved[worst]:.3e}")


def _secular_vectors(d, p, q, pole, mu, gaps):
    """Unit singular vectors of diag(d) + p q^T, U^T and V^T (a row per
    root), at roots (pole, mu, gap rows) of _secular_roots.

    M v = sigma u and M^T u = sigma v give u_i = (sigma p_i beta +
    d_i q_i alpha) / (lam - d_i^2), v_i = (sigma q_i alpha + d_i p_i beta)
    / (lam - d_i^2), for (alpha, beta) = (mu (1 - B), sigma mu A) or
    (sigma mu C, mu (1 - B)); the one with the larger of |A|, |C| is used.
    Entry k has the pole k term divided out, like the root (A', B', C' sum
    over i != k), and u is turned so that u^T M v = sigma.
    """
    dk, pk, qk = d[pole], p[pole], q[pole]
    lam = dk * dk + mu
    sigma = np.sqrt(lam)
    own = (np.arange(pole.size), pole)
    inv = np.subtract(mu[:, None], gaps)
    np.reciprocal(inv, out=inv)
    inv[own] = 0.0
    a_rest, b_rest, c_rest = (inv @ np.stack([q * q, d * p * q, p * p],
                                             axis=1)).T
    one_b = 1.0 - b_rest
    mu_one_b = mu * one_b - dk * pk * qk
    mu_a, mu_c = qk * qk + mu * a_rest, pk * pk + mu * c_rest
    by_a = np.abs(mu_a) >= np.abs(mu_c)
    alpha = np.where(by_a, mu_one_b, sigma * mu_c)
    beta = np.where(by_a, sigma * mu_a, mu_one_b)
    u = np.outer(sigma * beta, p)
    u += np.outer(alpha, d * q)
    u *= inv
    v = np.outer(sigma * alpha, q)
    v += np.outer(beta, d * p)
    v *= inv
    u[own] = np.where(by_a, pk * qk * qk + lam * pk * a_rest + dk * qk * one_b,
                      sigma * (pk * one_b + dk * qk * c_rest))
    v[own] = np.where(by_a, sigma * (qk * one_b + dk * pk * a_rest),
                      qk * pk * pk + lam * qk * c_rest + dk * pk * one_b)
    u /= np.linalg.norm(u, axis=1)[:, None]
    v /= np.linalg.norm(v, axis=1)[:, None]
    # u^T M v = sum u d v + (u . p)(q . v), in O(N) on the arrowhead
    u[np.einsum("ij,ij->i", u * d, v) + (u @ p) * (v @ q) < 0.0] *= -1.0
    return u, v


def _quadrature_modes(dyn: LinearDynamics, omega_s0: float):
    """Normal frequencies Omega of H at omega_s0, with X Omega^-1/2 and
    Y Omega^-1/2, their rows in the operator ordering and a column per
    entry of Omega, in the order the secular solve finds them.

    The couplings are real, so in the quadratures x = (a + a^dag)/sqrt 2,
    p = (a - a^dag)/(i sqrt 2) of the system and each mode the Hamiltonian
    is 1/2 x^T P x + 1/2 p^T Q p + const, with (N+1)x(N+1) arrowheads
    P = h + w and Q = h - w: h holds omega_s0 and the mode frequencies D on
    the diagonal and V on the system row, w holds W there.  H is positive
    definite exactly when P and Q are.  An arrowhead's Cholesky factor is
    O(N): P = R_P R_P^T with R_P = [[r_p, c_p^T], [0, D^1/2]],
    c_p = D^-1/2 (V + W) and r_p^2 = omega_s0 - c_p . c_p, which exists
    exactly when D > 0 and r_p^2 > 0; R_Q likewise with V - W.  The SVD
    R_P^T R_Q = M = diag(0, D) + p q^T = U Omega V^T, p = (r_p; c_p) and
    q = (r_q; c_q), gives the normal frequencies Omega and the transforms
    X = R_Q V, Y = R_P U, which make x = X Omega^-1/2 xi,
    p = Y Omega^-1/2 pi canonical normal coordinates (the Williamson normal
    form; Simon, Chaturvedi & Srinivasan, J. Math. Phys. 40 (1999) 3632).

    The SVD is not formed: Omega^2 are the roots of M's secular equation
    (_secular_residues, _secular_roots) and U, V its closed-form vectors
    (_secular_vectors), in O(N^2) (R.-C. Li, LAPACK Working Note 89; Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 15 (1994) 1266).  As in LAPACK's
    dlaed2, poles without weight are deflated first.  A reflection H makes
    modes of one frequency, with parallel p and q there, one coupled mode
    and uncoupled ones; D is constant on the tie, so R H = H R' for the R'
    whose head is the reflected one, and X = R_Q V = H R_Q' V' = H X'.  One
    rule holds for every pole then left with p_i = q_i = 0, uncoupled from
    the start or emptied by H: it is its own normal mode, Omega = D_i, a
    single 1 in X' Omega^-1/2 and Y' Omega^-1/2.  The secular solve gives
    the other columns, on the reflected heads, and each H is applied once,
    to the finished X' and Y'.  The route needs every residue negative, so
    that the normal frequencies interlace the bath's (as for W = alpha V,
    0 <= alpha <= 1); NumericalQualityError is raised otherwise.
    """
    nb = dyn.n_modes + 1
    order = np.argsort(dyn.frequencies, kind="stable")
    freqs = dyn.frequencies[order]
    # the system rows (r, c^T) of R_P and R_Q
    heads = np.empty((2, nb))
    positive = bool(np.all(freqs > 0.0))
    if positive:
        v, w = dyn.v_couplings[order], dyn.w_couplings[order]
        root_d = np.sqrt(freqs)
        heads[:, 1:] = np.stack([v + w, v - w]) / root_d
        pivots = omega_s0 - np.einsum("ij,ij->i", heads[:, 1:], heads[:, 1:])
        positive = bool(np.all(pivots > 0.0))
    if not positive:
        raise InstabilityError(
            "coupled Hamiltonian is not positive definite (its Cholesky "
            "factorisation fails); no thermal state exists at these "
            "couplings")
    heads[:, 0] = np.sqrt(pivots)
    p, q = heads  # reflected in place below: the heads of R_P H and R_Q H
    d = np.concatenate([[0.0], freqs])
    reflections = []  # I - 2 h h^T on rows lo:hi puts their p and q on lo
    edges = 1 + np.flatnonzero(np.diff(freqs, prepend=-1.0, append=-1.0))
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 2:
            continue
        big, other = sorted((p[lo:hi], q[lo:hi]), key=np.linalg.norm)[::-1]
        if not np.any(big):
            continue
        h = big / np.linalg.norm(big)
        h[0] += math.copysign(1.0, h[0])
        h /= np.linalg.norm(h)
        for x in (big, other):
            x -= 2.0 * h * (h @ x)
        # what the reflection leaves off row lo is roundoff (8 ulp) when the
        # two are parallel
        if np.max(np.abs(other[1:])) > 2e-15 * np.linalg.norm(other):
            raise NumericalQualityError(
                f"bath modes {sorted(order[lo - 1:hi - 1].tolist())} share a "
                f"frequency but not the ratio of V + W to V - W, which the "
                f"secular solve of the normal modes needs")
        p[lo + 1:hi] = q[lo + 1:hi] = 0.0
        reflections.append((lo, hi, h))
    live = (p != 0.0) | (q != 0.0)
    d_l, p_l, q_l = d[live], p[live], q[live]
    n_live = d_l.size
    gaps = np.empty((n_live, n_live))
    for rows in _row_chunks(n_live, n_live):
        gaps[rows] = _pole_gaps(d_l, np.arange(rows.start, rows.stop))
    res = _secular_residues(d_l, p_l, q_l, gaps)
    if not np.all(res < 0.0):
        raise NumericalQualityError(
            f"the normal frequencies do not interlace the bath frequencies "
            f"(secular residue {np.max(res):.3e} >= 0 at bath mode "
            f"{order[np.flatnonzero(live)[np.argmax(res)] - 1]}), which the "
            f"secular solve of the normal modes needs")
    pole, mu = _secular_roots(d_l, res, gaps)
    eps = np.concatenate([np.sqrt(d_l[pole] ** 2 + mu), d[~live]])
    rows = np.concatenate([[0], 1 + order])  # operator row of each factor row
    x_t, y_t = np.zeros((nb, nb)), np.zeros((nb, nb))  # X'^T and Y'^T
    # a live root's rows of (R_Q' V')^T and (R_P' U')^T over Omega^1/2
    cols, root_l = rows[live][1:], root_d[live[1:]]  # the live bath rows
    for chunk in _row_chunks(n_live, n_live):
        u_t, v_t = _secular_vectors(d_l, p_l, q_l, pole[chunk], mu[chunk],
                                    gaps[chunk])
        for out, head, mat in ((x_t, q_l, v_t), (y_t, p_l, u_t)):
            block = out[chunk]
            block[:, 0] = mat @ head
            block[:, cols] = mat[:, 1:] * root_l
            block /= np.sqrt(eps[chunk, None])
    dark = (np.arange(n_live, nb), rows[~live])  # R' e_i / D_i^1/2 = e_i
    x_t[dark] = y_t[dark] = 1.0
    for lo, hi, h in reflections:  # now X^T = X'^T H and Y^T = Y'^T H
        at = rows[lo:hi]
        for out in (x_t, y_t):
            out[:, at] -= np.outer(out[:, at] @ h, 2.0 * h)
    return eps, x_t.T, y_t.T


def thermal_total_state(dyn: LinearDynamics, temperature: float,
                        omega_s0: float) -> ThermalTotalState:
    """Thermal (or ground) state of the COUPLED quadratic Hamiltonian.

    omega_s0 is the system frequency entering the Hamiltonian whose Gibbs
    state is prepared (it may differ from dyn.omega_s, which governs the
    subsequent evolution -- a frequency quench).  The Hamiltonian must be
    positive definite, otherwise no thermal state exists and an
    InstabilityError is raised.  The normal modes come from the x and p
    blocks of H (_quadrature_modes): two O(N) Cholesky factors, then the
    N + 1 roots of their product's secular equation and its closed-form
    singular vectors, in O(N^2); a root that does not converge, or
    couplings for which the normal frequencies do not interlace the bath's,
    raise NumericalQualityError.  The state is held as those transforms and
    the normal-mode occupations; the system row and the diagonals of
    <a^dag a> and <a a> are read off them in O(N^2), and no dense table is
    built.  The symplectic residual, the one O(N^3) product, checks them.
    """
    require("temperature", temperature, ">= 0")
    require("omega_s0", omega_s0)
    nb = dyn.n_modes + 1
    # the secular solve's pole gaps and the transforms, then blocks of
    # rows of u, v and their products: the process peak rose by 3.2-6.3 x
    # 8 nb^2 bytes at 600 to 3 000 modes
    require_budget(f"thermal_total_state at {nb} normal modes",
                   56 * nb * nb, "pole gaps and transforms")
    eps, x_mat, y_mat = _quadrature_modes(dyn, omega_s0)

    gram = x_mat.T @ y_mat
    gram.flat[::nb + 1] -= 1.0
    resid = guard(np.max(np.abs(gram, out=gram)),
                  SYMPLECTIC_RESIDUAL_TOL, NumericalQualityError,
                  "symplectic residual of the Bogoliubov transform")
    del gram

    # the diagonals of <a^dag a>, <a a> (the pair rule) and the system row
    # <a_j^dag a>, <a_j a>, off blocks of rows of 2u and 2v: read is 4 times
    occ_nm = n_bar(eps, temperature)
    u0, v0 = x_mat[0] + y_mat[0], x_mat[0] - y_mat[0]
    read = np.empty((4, nb))
    for rows in _row_chunks(nb, nb):
        u, v = x_mat[rows] + y_mat[rows], x_mat[rows] - y_mat[rows]
        read[0, rows], read[1, rows], _ = _pair_moments(u, v, occ_nm)
        read[2, rows] = u @ (occ_nm * u0) + v @ ((1.0 + occ_nm) * v0)
        read[3, rows] = v @ ((1.0 + occ_nm) * u0) + u @ (occ_nm * v0)
    ann_diag, dag_diag, dag_row, ann_row = 0.25 * read

    return ThermalTotalState(
        system=GaussianMoments(delta_n=float(dag_diag[0]),
                               delta_s=complex(ann_diag[0])),
        correlations=InitialCorrelations(n_prime=dag_row[1:],
                                         s_prime=ann_row[1:]),
        bath_occupations=dag_diag[1:],
        bath_squeezes=ann_diag[1:].astype(complex),
        normal_frequencies=np.sort(eps),
        x_modes=x_mat, y_modes=y_mat, mode_occupations=occ_nm,
        metadata={"scheme": THERMAL_STATE_SCHEME, "symplectic_residual": resid,
                  "min_normal_frequency": float(np.min(eps))},
    )
