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
quantity reads only the system rows S[:2, :], so the march computes those
alone, as the system columns of S^T under G^T; the system columns S[:, :2]
are not computed.  G is constant, so the march is a Chebyshev expansion of
exp(G^T t) (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967) over windows
of output steps, its degree fixed in advance by a bound that holds for any
H.  A finite bath revives: results are trustworthy only below the
recurrence horizon ~ 2 pi / min mode spacing, which LinearDynamics reports
before anything is propagated.  propagate() only plans the march; the rows
are streamed, never stored: BogoliubovPropagator.blocks() marches them and
yields a block of output steps at a time, and reduced_moments(),
exact_moments() and thermal_moments() apply the initial state to each block
as it arrives (one pair-wise rule, one GEMM with a dense product table, or
two real GEMMs with the normal-mode transforms).  Each reader runs its own
march; u_series, the 2x2 system block, is kept from the first march to
reach the end, and marches on first access if none has.

thermal_total_state() prepares the correlated initial state of a quench,
the Gibbs state of the coupled Hamiltonian.  The couplings are real, so
the same arrowhead splits into an x block and a p block of size N + 1 in
the quadratures; a Cholesky factor of each and one SVD of their product
give the normal modes.  The state is those real transforms and the
normal-mode occupations; its dense product table, in the interleaved
operator ordering, is a view of them, built only when asked for.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ContractViolationError,
    InstabilityError,
    NumericalQualityError,
    ValidationError,
    guard,
    require,
    require_budget,
)
from .greens import INSTABILITY_MAX_ABS, InitialCorrelations, TimeGrid, _check_finite
from .moments import GaussianMoments, _require_commutator
from .spectral import BathDiscretization, n_bar

RECURRENCE_GUARD = 0.5
# thermal_total_state: Cholesky factors of the x and p blocks of H, then
# one SVD of their product (the normal frequencies and both transforms)
THERMAL_STATE_SCHEME = "quadrature-cholesky-svd"
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
        for name in ("frequencies", "v_couplings", "w_couplings"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1 or arr.dtype.kind not in "iuf":
                raise ValidationError(f"{name} must be a 1-d array of reals")
            setattr(self, name, require(name, arr).astype(float, copy=False))
        sizes = {self.frequencies.size, self.v_couplings.size,
                 self.w_couplings.size}
        if len(sizes) != 1:
            raise ValidationError(
                f"frequencies, v_couplings and w_couplings must have one "
                f"length, got {sorted(sizes)}")

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes + 2

    @property
    def recurrence_horizon(self) -> float:
        """Earliest finite-bath revival estimate (inf for a single frequency)."""
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
    """The march of the system rows S(t_m)[:2, :] of S(t) = exp(generator t)
    on a grid (what the evolved system operators are made of), planned.

    The rows are streamed, never stored: blocks() marches them and yields
    them a block of output steps at a time, and each reader runs its own
    march.  u_series, their 2x2 system block, is kept from the first march
    to reach the end, and marches on first access if none has.  The columns
    S[:, :2] are not computed.  recurrence_horizon is
    LinearDynamics.recurrence_horizon of the model.  twice_b applies 2 B on
    the arrowhead (_chebyshev_operator).  metadata holds the scheme, the
    Chebyshev degree, the window in output steps and the norm bound R of
    the generator, and, once a march has reached the end, max_abs_s, the
    largest |S| entry its instability guard passed.
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
        """March the rows: contiguous (k, 2, dim) blocks of steps 0, 1, ...,
        n in order, k <= _MOMENT_BLOCK.

        Step 0, the identity, comes alone; then each window's steps, in
        blocks of _MOMENT_BLOCK (a window longer than one block is a whole
        number of them), each one GEMM of its coefficient rows against the
        window's T_0..T_K store.  The window's coefficient table is built
        at the start of each march.  The instability guard checks each
        block before it is yielded.
        """
        n, dt, dim = self.grid.n_steps, self.grid.dt, self.dim
        meta = self.metadata
        degree, window, norm = meta["degree"], meta["window"], meta["norm_bound"]
        k = np.arange(degree + 1)
        coef = (np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4]
                * _bessel_j(degree, norm * dt * np.arange(1, window + 1)).T)
        # T_k(B) x for the (dim, 2) block x of the system columns of S^T
        store = np.empty((degree + 1, dim, 2), dtype=complex)
        real = store.view(float)
        flat = store.reshape(degree + 1, 2 * dim)
        u_series = np.empty((n + 1, 2, 2), dtype=complex)
        u_series[0] = np.eye(2)
        store[0] = np.eye(dim, 2)
        worst = 1.0  # |S(0)| = |I|
        yield np.eye(2, dim, dtype=complex)[None]
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
                cols = (coef[lo:hi] @ flat).reshape(hi - lo, dim, 2)
                rows = cols.transpose(0, 2, 1).copy()
                worst = max(worst, _check_finite(
                    rows, m0 + lo + 1, dt * np.arange(m0 + lo + 1, m0 + hi + 1),
                    "S"))
                u_series[m0 + lo + 1:m0 + hi + 1] = rows[:, :, :2]
                yield rows
            store[0] = cols[-1]
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
    writes out = 2 B p for the real views (dim, 4) of two (dim, 2) complex
    blocks, in O(dim) on the arrowhead: the diagonal, then the system rows'
    couplings into the bath rows and the bath rows' into the system rows.
    """
    diag, coupling = dyn.arrowhead()
    sigma = dyn.sigma()
    abs_c = np.abs(coupling)
    norm = float(np.max(np.abs(diag) + np.concatenate(
        [abs_c.sum(axis=1), abs_c.sum(axis=0)])))
    scale = 2.0 / norm if norm > 0.0 else 0.0
    diag2 = np.repeat(scale * sigma * diag, 4).reshape(dyn.dim, 4)
    to_bath = (scale * sigma[:2, None] * coupling).T.copy()   # (dim - 2, 2)
    to_sys = scale * coupling * sigma[2:]                     # (2, dim - 2)

    def twice_b(p: np.ndarray, out: np.ndarray) -> None:
        np.multiply(diag2, p, out=out)
        out[2:] += to_bath @ p[:2]
        out[:2] += to_sys @ p[2:]

    return norm, twice_b


def propagate(dyn: LinearDynamics, grid: TimeGrid) -> BogoliubovPropagator:
    """Plan the march of the system rows of S (columns of S^T under G^T) by
    Chebyshev; BogoliubovPropagator.blocks() runs it.

    With R = ||G^T||_inf, the max absolute row sum of H, B = G^T i/R has
    ||B||_inf <= 1 and exp(G^T t) = sum_k (2 - delta_k0) (-i)^k J_k(R t)
    T_k(B).  A window covers W output steps: all n if R n dt <= 8 rad, else
    the most with R W dt <= 8, at least one, rounded down to a whole number
    of _MOMENT_BLOCK blocks once longer than one.  Its start block x gives
    T_k(B) x by the three-term recurrence (K products with the arrowhead),
    and the coefficient table, shared by every window of the uniform grid,
    gives its W rows.  K is the least degree whose bound
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
    # the T_0..T_K store; one block of columns, its rows and their |.| for
    # the guard; the Bessel recurrence, its normalised rows and the complex
    # coefficient table of one window; and the series, u_series and a
    # reader's delta_s, delta_n, delta_h and mean
    require_budget(
        f"propagate at {n} steps, degree {degree} and dimension {dim}",
        32 * dim * (degree + 1) + 80 * dim * _MOMENT_BLOCK
        + 8 * window * (_miller_top(degree, phase) + 2 + 3 * (degree + 1))
        + 128 * (n + 1),
        "Chebyshev vectors, propagator blocks, coefficient tables and series")

    return BogoliubovPropagator(
        grid=grid, dim=dim, recurrence_horizon=dyn.recurrence_horizon,
        twice_b=twice_b,
        metadata={"scheme": PROPAGATE_SCHEME, "degree": degree,
                  "window": window, "norm_bound": norm},
    )


@dataclass
class OracleMoments:
    """Reduced system moments from the finite-bath propagation."""

    times: np.ndarray
    mean_a: np.ndarray
    delta_n: np.ndarray
    delta_s: np.ndarray
    delta_h: np.ndarray

    def n_matrix(self) -> np.ndarray:
        """Series of [[delta_n, delta_s], [conj(delta_s), delta_h]]; the
        propagated delta_h = <da da^dag> replaces 1 + delta_n."""
        out = GaussianMoments.n_matrix(self)
        out[:, 1, 1] = self.delta_h
        return out


def _moments_from_rows(prop: BogoliubovPropagator, rule) -> OracleMoments:
    """Moments <A_i A_j> of the system pair, drift-checked; mean_a is zero.

    Reads the rows as prop.blocks() marches them: rule maps a (k, 2, dim)
    block of rows to its (delta_s, delta_n, delta_h), each of length k.
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
    _require_commutator(delta_n.real, delta_h.real, times)
    return OracleMoments(times=times, mean_a=np.zeros(n_times, dtype=complex),
                         delta_n=delta_n.real, delta_s=delta_s,
                         delta_h=delta_h.real)


def _table_rule(apply_m0):
    """The block rule <A_i A_j> = r_i . M0 r_j of a product table M0:
    apply_m0 maps a (k, 2, dim) block of rows r to M0 r once per block (one
    GEMM or one pair-wise rule), then each moment is one einsum."""

    def rule(block: np.ndarray):
        m0_block = apply_m0(block)
        r1, r2 = block[:, 0], block[:, 1]
        return (np.einsum("kd,kd->k", r1, m0_block[:, 0]),
                np.einsum("kd,kd->k", r2, m0_block[:, 0]),
                np.einsum("kd,kd->k", r1, m0_block[:, 1]))

    return rule


def reduced_moments(prop: BogoliubovPropagator, bath: BathDiscretization,
                    init: GaussianMoments) -> OracleMoments:
    """Open-mode moments for a product initial state (system x thermal-like bath).

    The bath enters through its per-mode occupations and squeezes only;
    cross correlations with the system are zero by assumption (use
    exact_moments with a full initial table otherwise).
    """
    init.require_physical()
    if 2 * bath.n_modes + 2 != prop.dim:
        raise ContractViolationError(
            f"bath has {bath.n_modes} modes, propagator dimension {prop.dim}")

    # the block-diagonal product table <A_p A_q>(0), per pair (x, x^dag)
    # [[<xx>, <x x^dag>], [<x^dag x>, <x^dag x^dag>]] = [[s, 1 + n], [n, s*]]
    occ = np.concatenate([[init.delta_n], bath.occupations])
    sqz = np.concatenate([[init.delta_s], bath.squeezes])
    one_occ, conj_sqz = 1.0 + occ, np.conj(sqz)

    def apply_m0(block: np.ndarray) -> np.ndarray:
        pairs = block.reshape(block.shape[0], 2, occ.size, 2)
        x, x_dag = pairs[..., 0], pairs[..., 1]
        # written into out: the transient is one block and a half-block
        # temporary
        out = np.empty_like(pairs)
        np.multiply(sqz, x, out=out[..., 0])
        out[..., 0] += one_occ * x_dag
        np.multiply(occ, x, out=out[..., 1])
        out[..., 1] += conj_sqz * x_dag
        return out.reshape(block.shape)

    out = _moments_from_rows(prop, _table_rule(apply_m0))
    # <a>(t) = U_00 <a>(0) + U_01 <a^dag>(0): the march above filled u_series
    mu0 = np.array([init.mean_a, np.conj(init.mean_a)])
    return replace(out, mean_a=prop.u_series[:, 0, :] @ mu0)


def exact_moments(prop: BogoliubovPropagator,
                  product_table: np.ndarray) -> OracleMoments:
    """Open-mode moments for an arbitrary Gaussian initial total state.

    product_table[p, q] = <A_p A_q>(0) in the interleaved operator ordering
    (means assumed zero, as for any thermal total state); its entries must
    be finite.
    """
    if product_table.shape != (prop.dim, prop.dim):
        raise ContractViolationError(
            f"product table shape {product_table.shape} does not match "
            f"dimension {prop.dim}")
    require("product_table entries", product_table)

    def apply_m0(block: np.ndarray) -> np.ndarray:
        return (block.reshape(-1, prop.dim) @ product_table.T).reshape(
            block.shape)

    return _moments_from_rows(prop, _table_rule(apply_m0))


def thermal_moments(prop: BogoliubovPropagator,
                    state: ThermalTotalState) -> OracleMoments:
    """Open-mode moments from a thermal total state, read through its
    normal-mode transforms; exact_moments(prop, state.product_table) reads
    the same moments through the dense table.

    With u = (X' + Y')/2 and v = (X' - Y')/2 (state.x_modes, state.y_modes)
    a_j = sum_k u_jk c_k + v_jk c_k^dag, so a row r, in the interleaved
    ordering, makes A = sum_k alpha_k c_k + beta_k c_k^dag with
    alpha = (P + Q)/2 and beta = (P - Q)/2 for P = (r_even + r_odd) X' and
    Q = (r_even - r_odd) Y'.  Each is one real GEMM on the real view of a
    block of rows: 4 (N+1)^2 multiply-adds a row, against 16 (N+1)^2 for
    the complex table.  Then <A_i A_j> = sum_k alpha^i_k beta^j_k (1 + nbar_k)
    + beta^i_k alpha^j_k nbar_k, and delta_h - delta_n =
    sum_k alpha^0_k beta^1_k - beta^0_k alpha^1_k still checks the march.
    """
    nb = state.mode_occupations.size
    if 2 * nb != prop.dim:
        raise ContractViolationError(
            f"thermal state has {nb - 1} bath modes, propagator dimension "
            f"{prop.dim}")
    x_t, y_t = state.x_modes.T, state.y_modes.T
    # <c c^dag> = 1 + nbar and <c^dag c> = nbar, over 4: alpha and beta
    # below are taken twice
    cc_dag = 0.25 * (1.0 + state.mode_occupations)
    c_dag_c = 0.25 * state.mode_occupations
    both = cc_dag + c_dag_c

    def rule(block: np.ndarray):
        k = block.shape[0]
        # the 2k rows of the block as columns, a, a^dag of each step in
        # turn, so that each real GEMM acts on real and imaginary parts
        even = block[:, :, 0::2].reshape(2 * k, nb).T
        odd = block[:, :, 1::2].reshape(2 * k, nb).T
        s_d = np.empty((2, nb, 2 * k), dtype=complex)
        np.add(even, odd, out=s_d[0])
        np.subtract(even, odd, out=s_d[1])
        p = (x_t @ s_d[0].view(float)).view(complex)
        q = (y_t @ s_d[1].view(float)).view(complex)
        alpha, beta = p + q, p - q
        a0, a1 = alpha[:, 0::2], alpha[:, 1::2]
        b0, b1 = beta[:, 0::2], beta[:, 1::2]
        return (both @ (a0 * b0),
                cc_dag @ (a1 * b0) + c_dag_c @ (b1 * a0),
                cc_dag @ (a0 * b1) + c_dag_c @ (b0 * a1))

    return _moments_from_rows(prop, rule)


@dataclass
class ThermalTotalState:
    """Gaussian thermal state of the coupled system + bath Hamiltonian.

    The state is its normal-mode transforms x_modes = X Omega^-1/2 and
    y_modes = Y Omega^-1/2 (_quadrature_modes: real, rows in the operator
    ordering, columns in descending Omega) and mode_occupations = nbar of
    each column.  With u = (x_modes + y_modes)/2, v = (x_modes - y_modes)/2
    the annihilators are a = u c + v c^dag over the normal-mode ones c, so
    <a^dag a> = u nbar u^T + v (1 + nbar) v^T, <a a> = u (1 + nbar) v^T
    + v nbar u^T and <a a^dag> = 1 + <a^dag a>^T.  thermal_moments reads
    the evolved moments through the transforms.  The reduced system
    moments, the system-bath cross correlations and the per-mode bath
    occupations/squeezes are read off them once; normal_frequencies ascend.
    product_table, the dense <A_p A_q> in the interleaved ordering, is a
    view of the transforms, assembled on first use.  metadata holds the
    scheme, its symplectic residual and the lowest normal-mode frequency.
    The residual is max|Omega^-1/2 X^T Y Omega^-1/2 - I| for the quadrature
    transforms X, Y: how far the normal coordinates are from canonical pairs.
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


def _quadrature_modes(dyn: LinearDynamics, omega_s0: float):
    """Normal frequencies Omega (descending) of H at omega_s0, with
    X Omega^-1/2 and Y Omega^-1/2, their rows in the operator ordering.

    The couplings are real, so in the quadratures x = (a + a^dag)/sqrt 2,
    p = (a - a^dag)/(i sqrt 2) of the system and each mode the Hamiltonian
    is 1/2 x^T P x + 1/2 p^T Q p + const, with (N+1)x(N+1) arrowheads
    P = h + w and Q = h - w: h holds omega_s0 and the mode frequencies on
    the diagonal and V on the system row, w holds W there.  H is positive
    definite exactly when P and Q are.  With Cholesky factors P = L_P L_P^T
    and Q = L_Q L_Q^T, one SVD L_P^T L_Q = U Omega V^T gives the normal
    frequencies Omega and the transforms X = L_Q V, Y = L_P U, which make
    x = X Omega^-1/2 xi, p = Y Omega^-1/2 pi canonical normal coordinates
    (the Williamson normal form; Simon, Chaturvedi & Srinivasan, J. Math.
    Phys. 40 (1999) 3632).  The bath is factored in descending frequency,
    after the system, which lets the SVD resolve the lowest normal mode to
    high relative accuracy.
    """
    nb = dyn.n_modes + 1
    # P and Q share the diagonal, with V + W and V - W on the system row
    # and column of the arrowhead H
    diag, coupling = replace(dyn, omega_s=omega_s0).arrowhead()
    exchange, pair = coupling[0, 0::2], coupling[0, 1::2]
    order = np.concatenate([[0], 1 + np.argsort(-dyn.frequencies,
                                                 kind="stable")])
    blocks = np.zeros((2, nb, nb))
    blocks[:, np.arange(nb), np.arange(nb)] = diag[0::2][order]
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = np.stack(
        [exchange + pair, exchange - pair])[:, order[1:] - 1]
    try:
        l_p, l_q = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        raise InstabilityError(
            "coupled Hamiltonian is not positive definite (its Cholesky "
            "factorisation fails); no thermal state exists at these "
            "couplings") from None
    del blocks  # the factors carry P and Q from here on
    u_svd, eps, v_svd_t = np.linalg.svd(l_p.T @ l_q)
    root = 1.0 / np.sqrt(eps)
    back = np.argsort(order)
    return eps, (l_q @ v_svd_t.T)[back] * root, (l_p @ u_svd)[back] * root


def thermal_total_state(dyn: LinearDynamics, temperature: float,
                        omega_s0: float) -> ThermalTotalState:
    """Thermal (or ground) state of the COUPLED quadratic Hamiltonian.

    omega_s0 is the system frequency entering the Hamiltonian whose Gibbs
    state is prepared (it may differ from dyn.omega_s, which governs the
    subsequent evolution -- a frequency quench).  The Hamiltonian must be
    positive definite, otherwise no thermal state exists and an
    InstabilityError is raised.  The normal modes come from the x and p
    blocks of H (_quadrature_modes): two Cholesky factors and one SVD of
    size N + 1.  The state is held as those transforms and the normal-mode
    occupations; the system row and the diagonals of <a^dag a> and <a a>
    are read off them in O(N^2), and no dense table is built.
    """
    require("temperature", temperature, ">= 0")
    require("omega_s0", omega_s0)
    nb = dyn.n_modes + 1
    # the x and p blocks, their Cholesky factors and the SVD's factors and
    # workspace: the process peak rose by 11.2-12.3 x 8 nb^2 bytes at 600 to
    # 3 000 modes
    require_budget(f"thermal_total_state at {nb} normal modes",
                   104 * nb * nb, "quadrature blocks and factors")
    eps, x_mat, y_mat = _quadrature_modes(dyn, omega_s0)

    resid = guard(np.max(np.abs(x_mat.T @ y_mat - np.eye(nb))),
                  SYMPLECTIC_RESIDUAL_TOL, NumericalQualityError,
                  "symplectic residual of the Bogoliubov transform")

    # the system row and the diagonals of <a^dag a> and <a a>
    # (ThermalTotalState), in the u, v form: half the sum of the x and p
    # covariances, minus 1/2, gives delta_n < 0 at the vacuum
    occ_nm = n_bar(eps, temperature)
    u, v = 0.5 * (x_mat + y_mat), 0.5 * (x_mat - y_mat)
    dag_row = u @ (occ_nm * u[0]) + v @ ((1.0 + occ_nm) * v[0])
    ann_row = v @ ((1.0 + occ_nm) * u[0]) + u @ (occ_nm * v[0])
    dag_diag = (u * u) @ occ_nm + (v * v) @ (1.0 + occ_nm)
    ann_diag = (u * v) @ (1.0 + 2.0 * occ_nm)

    system = GaussianMoments(mean_a=0.0 + 0.0j, delta_n=float(dag_row[0]),
                             delta_s=complex(ann_row[0]))
    return ThermalTotalState(
        system=system,
        correlations=InitialCorrelations(
            n_prime=dag_row[1:].astype(complex),
            s_prime=ann_row[1:].astype(complex)),
        bath_occupations=dag_diag[1:],
        bath_squeezes=ann_diag[1:].astype(complex),
        normal_frequencies=eps[::-1],
        x_modes=x_mat, y_modes=y_mat, mode_occupations=occ_nm,
        metadata={"scheme": THERMAL_STATE_SCHEME, "symplectic_residual": resid,
                  "min_normal_frequency": float(eps[-1])},
    )
