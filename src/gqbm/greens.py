"""Retarded and fluctuation Green functions of the open mode.

The retarded propagator U(t) (2x2, basis a / a^dagger) solves

    dU/dt + i omega_s Z U + int_0^t Z G(t - s) U(s) ds = 0,   U(0) = 1,

and carries the full non-Markovian memory of the bath.  The fluctuation
matrix

    V(tau, t) = int_0^tau int_0^t U(tau - s) Z Gt(s - s') Z U(t - s')^dag ds ds'

is the inhomogeneous part of the second moments: N(t) = U N(0) U^dag + V(t,t).
Two independent routes to V are provided: direct double-quadrature of the
closed form (solve_v_fdt, O(n log n) by FFT convolution) and marching of the
Volterra equation V itself satisfies in its first argument (solve_v_volterra,
O(n^3), also yielding the two-time table needed by the coefficient
crosscheck).

Numerics: uniform grid, second-order predictor-corrector marching
(two-step Adams-Bashforth predictor, trapezoid corrector, trapezoid memory
integrals, one midpoint step to start).  solve_u adds the memory history of
the steps already taken by divide-and-conquer FFT convolution (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532), O(n log^2 n)
over the march.  Each convolution is read only on its upper half, a middle
product (Hanrot, Quercia & Zimmermann, AAECC 14 (2004) 415) that needs half
the FFT length.  The pc2 step is linear with constant coefficients, so a
leaf block of steps is one linear map, built once per leaf length, from the
two states before the leaf and its history terms to its increments
U_m - U_(m-1) and dU/dt_m.  U is summed from the increments rather than
multiplied through I + dt A / 2, whose rounding would repeat at every step.
The first leaf, and a leaf whose history holds a non-finite entry, take
their steps one at a time.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np
import numpy.fft

from .errors import (
    InstabilityError,
    ValidationError,
    guard,
    require,
    require_budget,
    require_count,
)
from .spectral import BathDiscretization, Kernel, Z, _exp_sum

# Marching guards: a propagator entry beyond this magnitude means runaway
# pair production (or an unstable discretization), not physics we can trust.
INSTABILITY_MAX_ABS = 1e6
# Resolution guard: dt must resolve the fastest retained scale.
MAX_DT_FACTOR = 0.25
# solve_u takes each block of at most this many steps, a leaf, as one
# precomputed linear map; its build costs O(B^3) once per leaf length, and
# leaves of 64 or 128 steps were no steadily faster.
_HISTORY_BLOCK = 32

U_SOLVER_SCHEME = ("pc2(ab2 predictor, trapezoid corrector, midpoint start), "
                   "history by divide-and-conquer FFT convolution")
# solve_v_fdt, and the Volterra march that crosschecks it
V_SOLVER_SCHEME = "product-trapezoid double quadrature by FFT causal convolution"
V_CROSSCHECK_SCHEME = "volterra pc2 marching over fixed-t columns"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid t = 0 .. t_end with n_steps intervals.

    max_frequency is the fastest scale the grid must resolve (typically
    max(omega_s, cutoff)); construction enforces dt <= 0.25 / max_frequency.
    times is the lattice k dt, k = 0..n_steps, exactly, so its last entry
    may sit an ulp off t_end.
    """

    t_end: float
    n_steps: int
    max_frequency: float = 1.0

    def __post_init__(self):
        require("t_end", self.t_end, "> 0")
        object.__setattr__(self, "n_steps", require_count("n_steps", self.n_steps, 8))
        require("max_frequency", self.max_frequency, "> 0")
        if self.dt > MAX_DT_FACTOR / self.max_frequency:
            raise ValidationError(
                f"dt = {self.dt:.3e} exceeds {MAX_DT_FACTOR} / max_frequency "
                f"= {MAX_DT_FACTOR / self.max_frequency:.3e}; increase n_steps")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class GreensSolution:
    """U, dU/dt, and (optionally) V on a common grid.

    u_dot is evaluated from the integro-differential equation itself, never
    by finite differencing, so it is consistent with u to the order of the
    scheme.  v_two_time[i, j] = V(t_i, t_j) for i <= j when requested.
    """

    grid: TimeGrid
    omega_s: float
    u: np.ndarray
    u_dot: np.ndarray
    v_equal_time: np.ndarray | None = None
    v_two_time: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class InitialCorrelations:
    """System-bath cross correlations of the initial total state.

    n_prime[k] = <a^dag b_k>(0), s_prime[k] = <a b_k>(0); both must be
    finite, checked at construction.
    """

    n_prime: np.ndarray
    s_prime: np.ndarray

    def __post_init__(self):
        n = np.atleast_1d(np.asarray(self.n_prime, dtype=complex))
        s = np.atleast_1d(np.asarray(self.s_prime, dtype=complex))
        if n.shape != s.shape or n.ndim != 1:
            raise ValidationError("n_prime and s_prime must be matching 1-d arrays")
        require("n_prime", n)
        require("s_prime", s)
        object.__setattr__(self, "n_prime", n)
        object.__setattr__(self, "s_prime", s)


def _zmul(mats: np.ndarray) -> np.ndarray:
    """Left-multiply a (..., 2, 2) stack by Z = diag(1, -1)."""
    out = mats.copy()
    out[..., 1, :] *= -1.0
    return out


def _mul2(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b for (..., 2, 2) stacks that broadcast, written out elementwise:
    np.matmul makes one BLAS call per 2x2 matrix of a stack, several times
    the cost of these three whole-stack operations.  out, if given, must not
    overlap a or b."""
    out = np.multiply(a[..., :, :1], b[..., :1, :], out=out)
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def require_volterra_budget(n_steps: int):
    """Reject a Volterra march whose two (n+1)^2 x 2 x 2 complex tables,
    128 (n+1)^2 bytes, exceed the memory budget: 1 GiB admits n_steps up
    to 2895."""
    require_budget(f"solve_v_volterra at n_steps = {n_steps}",
                   128 * (n_steps + 1) ** 2, "two-time tables")


def _check_finite(block: np.ndarray, first: int, times, label: str) -> float:
    """Instability guard over a block of steps first, first + 1, ... on
    axis 0, at times[0], times[1], ...: the largest |entry|, raising at the
    first step with a non-finite entry or one past INSTABILITY_MAX_ABS."""
    amax = np.max(np.abs(block).reshape(len(block), -1), axis=1)
    return guard(amax, INSTABILITY_MAX_ABS, InstabilityError, f"|{label}|",
                 times, first)


def solve_u(kernel: Kernel, omega_s: float, grid: TimeGrid) -> GreensSolution:
    """March the retarded propagator U over the grid.

    Steps are taken in order, each a pc2 step; the instability guard
    checks each leaf block of steps once solved, before any convolution
    reads it.  The history part of the trapezoid memory at step m,
    sum_{j < m} w_j Z G(t_m - t_j) U_j, accumulates in a lag table: once
    the first half of a block of steps is solved, one FFT middle product
    adds its terms to every step of the second half, down to leaves of at
    most _HISTORY_BLOCK steps.  O(n log^2 n).

    The pc2 step is linear with constant coefficients.  On the stacked
    state s_m = [U_m; dU/dt_m] (4 x 2), a constant weight matrix times the
    states of its leaf, s_lo .. s_(m-1) (the predictor, the corrector and
    the in-leaf history at once), plus the lag term, gives the increment
    U_m - U_(m-1) and dU/dt_m.  So a leaf [lo, hi) is one map from
    (s_(lo-2), s_(lo-1), lag[lo:hi]) to its increments and dU/dt, built
    once per leaf length by taking the steps on unit columns, and U is
    U_(lo-1) plus the running sum of the increments.  The product form
    (I + dt A / 2) U_(m-1) rounds I + dt A / 2 once and repeats that error
    at every step: 7e-14 of max|U| from the per-step reference loop at
    n = 2000, against 1e-16 in increment form.  The first leaf starts from
    the midpoint step, and the map would carry a non-finite lag entry to
    its leaf's earlier steps (0 * nan = nan); both take their steps one at
    a time, so the guard reports the first bad step.
    """
    require("omega_s", omega_s)
    n = grid.n_steps
    # the process peak rose by 694-713 bytes a step (2e4 to 8e4, 4e4 to 1.6e5)
    require_budget(f"solve_u at n_steps = {n}", 720 * (n + 1),
                   "kernel table, march store and convolutions")
    dt = grid.dt
    times = grid.times

    zg = _zmul(kernel.g_table(grid))          # Z G(t_m) for m = 0..n
    eye = np.eye(2, dtype=complex)
    mws = -1j * omega_s * Z

    # s[m] = [U_m; dU/dt_m]; dU/dt at t = 0 has no memory integral
    s = np.empty((n + 1, 4, 2), dtype=complex)
    s[0, :2] = eye
    s[0, 2:] = mws

    # midpoint bootstrap; the memory over [0, dt/2] uses the kernel at dt/2
    zg_half = _zmul(kernel.g(np.array([0.5 * dt])))[0]
    u_half = s[0, :2] + 0.5 * dt * s[0, 2:]
    mem_half = 0.25 * dt * (zg_half @ s[0, :2] + zg[0] @ u_half)
    s[1, :2] = s[0, :2] + dt * (mws @ u_half - mem_half)
    mem1 = 0.5 * dt * (zg[1] @ s[0, :2] + zg[0] @ s[1, :2])
    s[1, 2:] = mws @ s[1, :2] - mem1         # checked with the first leaf

    # With U' = dU/dt, A = -i omega_s Z - dt Z G(0) / 2 and h the memory
    # history at t_m, dt (lag[m] + in-leaf sum), a step is
    #   U_m - U_(m-1) = dt/2 (A U_(m-1) + (1 + 3 dt A / 2) U'_(m-1)
    #                         - dt A U'_(m-2) / 2 - h),
    #   U'_m          = A U_m - h.
    a = mws - 0.5 * dt * zg[0]
    k_top = np.hstack([np.zeros((2, 2)), -0.25 * dt * dt * a,
                       0.5 * dt * a, 0.5 * dt * eye + 0.75 * dt * dt * a])
    k_low = a @ k_top
    k_low[:, 4:6] += a
    step = np.vstack([k_top, k_low])          # on s_(m-2), s_(m-1)
    drive = -dt * np.vstack([0.5 * dt * eye, eye + 0.5 * dt * a])  # on lag

    # lag[m] = zg[m] / 2 + sum_{1 <= j < m} Z G(t_m - t_j) U_j, the history
    # before the step's leaf.  The j = 0 term reads the raw kernel, so a
    # non-finite entry trips the guard at its own step; the interior terms
    # read zg_lag, where it is zeroed so the FFTs cannot spread it to
    # earlier steps.
    zg_lag = np.where(np.isfinite(zg), zg, 0.0)
    lag = 0.5 * zg

    # weights[k] acts on st[m - max(k, 2):m] at step m = lo + k of a leaf
    # starting at lo: the step matrix, and the in-leaf history
    # drive @ zg_lag[m - j] on U_j for lo <= j < m
    top = min(_HISTORY_BLOCK, n) - 1
    hist = np.zeros((top, 4, 4), dtype=complex)   # offsets top, ..., 1
    hist[:, :, :2] = drive @ zg_lag[top:0:-1]
    wide = np.moveaxis(hist, 0, 1).reshape(4, 4 * top)
    wide[:, -8:] += step
    weights = ([step, step + np.hstack([np.zeros((4, 4)), hist[-1]])]
               + [wide[:, 4 * (top - k):] for k in range(2, top + 1)])

    def take_steps(st, lo: int, lag_leaf, first: int):
        """Steps lo + first .. lo + len(lag_leaf) - 1 of the store st, on
        any number of columns; returns each step's [U_m - U_(m-1); U'_m]
        as taken, before U_(m-1) is added."""
        out = drive @ lag_leaf
        cols = st.shape[-1]
        for k in range(first, len(lag_leaf)):
            m = lo + k
            out[k] += weights[k] @ st[m - max(k, 2):m].reshape(-1, cols)
            st[m] = out[k]
            st[m, :2] += st[m - 1, :2]
        return out

    @functools.cache
    def leaf_map(size: int) -> np.ndarray:
        # the steps of a leaf on unit columns: the rows of (s_(lo-2),
        # s_(lo-1), lag[lo:lo+size]) map to those of its increments and U'
        cols = 8 + 2 * size
        unit = np.eye(cols, dtype=complex)
        st = np.zeros((size + 2, 4, cols), dtype=complex)
        st[:2] = unit[:8].reshape(2, 4, cols)
        out = take_steps(st, 2, unit[8:].reshape(size, 2, cols), 0)
        return out.reshape(4 * size, cols)

    @functools.cache
    def kernel_spectrum(size: int) -> np.ndarray:
        return _spectrum(zg_lag[:size], _next_fast_len(size))

    def march(lo: int, hi: int):
        """Take steps lo..hi-1, given lag[lo:hi] summed over j < lo."""
        if hi - lo <= _HISTORY_BLOCK:
            # the first leaf starts from the midpoint step, and through the
            # map a non-finite lag entry would reach the leaf's earlier
            # steps (0 * nan = nan)
            if lo > 1 and np.isfinite(lag[lo:hi]).all():
                x = np.concatenate([s[lo - 2:lo].reshape(8, 2),
                                    lag[lo:hi].reshape(-1, 2)])
                s[lo:hi] = (leaf_map(hi - lo) @ x).reshape(-1, 4, 2)
                np.cumsum(s[lo - 1:hi, :2], axis=0, out=s[lo - 1:hi, :2])
            else:
                take_steps(s, lo, lag[lo:hi], max(2 - lo, 0))
            _check_finite(s[lo:hi, :2], lo, times[lo:hi], "U")
            return
        mid = (lo + hi) // 2
        march(lo, mid)
        lag[mid:hi] += _middle_matconv(kernel_spectrum(hi - lo), s[lo:mid, :2],
                                       hi - lo)
        march(mid, hi)

    # a leaf may run past its first bad step into overflow or NaN; the
    # guard reports that step, so the warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        march(1, n + 1)
    # march refers to itself: dropping it frees the store, the lag table
    # and the caches now rather than at the next cyclic collection
    del march
    return GreensSolution(grid=grid, omega_s=omega_s,
                          u=np.ascontiguousarray(s[:, :2]),
                          u_dot=np.ascontiguousarray(s[:, 2:]),
                          metadata={"u_solver": U_SOLVER_SCHEME})


def second_moments(u: np.ndarray, n0: np.ndarray, v=0.0) -> np.ndarray:
    """N(t) = U(t) N(0) U(t)^dag + v, for U on a grid and a 2x2 N(0)."""
    return np.einsum("tab,bc,tdc->tad", u, n0, np.conj(u)) + v


@functools.lru_cache(maxsize=64)
def _fast_lengths(bits: int) -> tuple[int, ...]:
    """The 11-smooth integers up to 2^bits, ascending."""
    top = 1 << bits
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for m in lengths:        # m, m p, m p^2, ... up to the bound
            while m <= top:
                grown.append(m)
                m *= p
        lengths = grown
    return tuple(sorted(lengths))


def _next_fast_len(n: int) -> int:
    """Least 11-smooth integer >= n: a length made of pocketfft's fast
    radices, the one scipy.fft.next_fast_len picks for complex input."""
    lengths = _fast_lengths((n - 1).bit_length())  # ends at 2^bits >= n
    return lengths[bisect.bisect_left(lengths, n)]


def _spectrum(x: np.ndarray, nfft: int) -> np.ndarray:
    """The (2, 2, nfft) DFT of an (n, 2, 2) stack along its first axis."""
    # numpy's FFT is fastest along a contiguous last axis
    return np.fft.fft(np.ascontiguousarray(x.transpose(1, 2, 0)), nfft)


def _causal_matconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[m] = sum_{j <= m} a[m - j] @ b[j] for two (n, 2, 2) stacks, by FFT."""
    size = a.shape[0]
    nfft = _next_fast_len(2 * size - 1)
    spec = np.einsum("abf,bcf->acf", _spectrum(a, nfft), _spectrum(b, nfft))
    return np.moveaxis(np.fft.ifft(spec)[..., :size], -1, 0)


def _middle_matconv(spec_a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """c[m] = sum_{j < h} a[m - j] @ b[j] for h = len(b) <= m < size, given
    spec_a = _spectrum(a[:size], _next_fast_len(size)).

    Every such term has 1 <= m - j < size, so a cyclic convolution of any
    length >= size has no wrap-around on these outputs: the middle product
    (Hanrot, Quercia & Zimmermann, AAECC 14 (2004) 415), at half the FFT
    length of the full causal convolution.
    """
    spec = np.einsum("abf,bcf->acf", spec_a, _spectrum(b, spec_a.shape[-1]))
    return np.fft.ifft(spec)[..., len(b):size].transpose(2, 0, 1)


def _fdt_double_integral(inner: np.ndarray, udag: np.ndarray,
                         zgtz: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Product-trapezoid of int_0^t int_0^t inner(x) ZGtZ(y-x) udag(y) dx dy.

    inner is U (for V) or dU/dt (for the first-argument derivative of V);
    zgtz is the signed-offset table with index n + k at offset k dt.  With
    X = inner, K_d = zgtz[n + d], Y = udag and trapezoid weights w (1/2 at
    0 and m), out[m] = dt^2 sum_{i,k <= m} w_i w_k X_i K_{k-i} Y_k.  The
    unweighted sum grows by X_m E_m + (C_m - X_m K_0) Y_m from m - 1 to m,
    with the causal convolutions C_m = sum_i X_i K_{m-i} and
    E_m = sum_k K_{k-m} Y_k; the half weights subtract row and column 0
    and m and add back the four corners.  O(n log n) in all.

    The 2x2 products go through _mul2, not np.matmul: matmul makes one BLAS
    call per matrix of a stack, and at n = 600 each product cost five times
    as much as the elementwise form.  xe and cy enter only as their sum, so
    one array holds it, and the inner products share one scratch array.
    """
    k_pos = zgtz[n:]                          # K_d, d = 0..n
    k_neg = zgtz[n::-1]                       # K_{-d}, d = 0..n
    xe_cy = _mul2(inner, _causal_matconv(k_neg, udag))      # X_m E_m
    xe_cy += _mul2(_causal_matconv(inner, k_pos), udag)     # + C_m Y_m
    tmp = np.empty_like(xe_cy)
    diag = _mul2(_mul2(inner, zgtz[n], tmp), udag)          # X_m K_0 Y_m
    row0 = _mul2(inner[0], _mul2(k_pos, udag, tmp))         # X_0 K_m Y_m
    col0 = _mul2(_mul2(inner, k_neg, tmp), udag[0])         # X_m K_{-m} Y_0
    unweighted = np.cumsum(xe_cy - diag, axis=0)
    edges = np.cumsum(row0, axis=0) + np.cumsum(col0, axis=0) + xe_cy
    corners = diag[0] + row0 + col0 + diag
    out = dt * dt * (unweighted - 0.5 * edges + 0.25 * corners)
    out[0] = 0.0
    return out


def _require_u(u: np.ndarray, n: int) -> None:
    """A ValidationError unless u is a finite (n + 1, 2, 2) table."""
    if u.shape != (n + 1, 2, 2):
        raise ValidationError(
            f"u has shape {u.shape}, expected {(n + 1, 2, 2)} for this grid")
    require("u", u)


def _fdt_tables(who: str, kernel: Kernel, u: np.ndarray, grid: TimeGrid):
    """U^dag and Z Gt Z for the V route, once its memory is checked."""
    # the process peak rose by 897-899 bytes a step in either caller
    require_budget(f"{who} at n_steps = {grid.n_steps}",
                   920 * (grid.n_steps + 1), "kernel table and convolutions")
    return np.conj(np.swapaxes(u, -1, -2)), kernel.zgtz_signed_table(grid)


def solve_v_fdt(kernel: Kernel, u: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Equal-time V(t, t) from the closed double-quadrature form."""
    n = grid.n_steps
    _require_u(u, n)
    udag, zgtz = _fdt_tables("solve_v_fdt", kernel, u, grid)
    return _fdt_double_integral(u, udag, zgtz, n, grid.dt)


def v_first_derivative(kernel: Kernel, sol: GreensSolution) -> np.ndarray:
    """d/dtau V(tau, t) at tau = t, from the differentiated closed form.

    Splits into the boundary term int_0^t Z Gt(s) Z U(s)^dag ds plus the
    same double integral as V with dU/dt in place of U.
    """
    grid = sol.grid
    n = grid.n_steps
    dt = grid.dt
    udag, zgtz = _fdt_tables("v_first_derivative", kernel, sol.u, grid)

    vdot = _fdt_double_integral(sol.u_dot, udag, zgtz, n, dt)

    # cumulative trapezoid of the boundary integrand ZGt(s)Z U(s)^dag
    integrand = _mul2(zgtz[n:2 * n + 1], udag)
    increments = 0.5 * dt * (integrand[:-1] + integrand[1:])
    vdot[1:] += np.cumsum(increments, axis=0)
    return vdot


def solve_v_volterra(kernel: Kernel, sol: GreensSolution,
                     return_two_time: bool = False):
    """Equal-time V(t, t) by marching the Volterra equation in tau.

    For every fixed second argument t_j the first column argument satisfies

        dV/dtau = -i omega_s Z V - int_0^tau Z G(tau - s) V(s, t_j) ds
                  + int_0^t_j Z Gt(tau - s') Z U(t_j - s')^dag ds',

    with V(0, t_j) = 0.  All columns march together (vectorized over j).
    Returns the equal-time diagonal, or (diagonal, full table) when
    return_two_time is set; table[i, j] = V(t_i, t_j) for i <= j.
    """
    grid = sol.grid
    n = grid.n_steps
    require_volterra_budget(n)
    dt = grid.dt
    u = sol.u
    omega_s = sol.omega_s

    zg = _zmul(kernel.g_table(grid))
    zgtz = kernel.zgtz_signed_table(grid)
    udag = np.conj(np.swapaxes(u, -1, -2))
    mws = -1j * omega_s * Z

    # Source table R[i, j] = driving at (tau_i, t_j), built cumulatively in j
    # at fixed offset d = i - j: R(tau, t) depends on tau - t and t only.
    # q[d_idx, j] holds the offset d = d_idx - n (so d in [-n, 0]).
    q = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    for j in range(1, n + 1):
        inc_old = np.einsum("dab,bc->dac", zgtz[j - 1:j + n], udag[j - 1])
        inc_new = np.einsum("dab,bc->dac", zgtz[j:j + n + 1], udag[j])
        q[:, j] = q[:, j - 1] + 0.5 * dt * (inc_old + inc_new)

    def source_row(i: int) -> np.ndarray:
        # R(tau_i, t_j) for j >= i: gather q at d_idx = n + i - j
        cols = np.arange(i, n + 1)
        return q[n + i - cols, cols]

    v = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    # f arrays hold dV/dtau at the last two tau levels for ALL columns; for
    # columns j < i the values are stale but never used again.
    r0 = source_row(0)
    f_prev = r0.copy()  # V(0, t_j) = 0, memory empty: dV/dtau(0) = R(0, t_j)

    zg_half = _zmul(kernel.g(np.array([0.5 * dt])))[0]
    half_zg0 = 0.5 * dt * zg[0]

    # midpoint bootstrap for tau_0 -> tau_1, columns j >= 1
    r1 = np.zeros((n + 1, 2, 2), dtype=complex)
    r1[1:] = source_row(1)
    act = slice(1, n + 1)
    v_half = 0.5 * dt * f_prev[act]
    r_half = 0.5 * (r0[act] + r1[act])
    mem_half = 0.25 * dt * np.einsum("ab,jbc->jac", zg[0], v_half)
    f_half = (np.einsum("ab,jbc->jac", mws, v_half) - mem_half
              - 0.25 * dt * np.einsum("ab,jbc->jac", zg_half, v[0, act])
              + r_half)
    v[1, act] = dt * f_half
    mem1 = 0.5 * dt * (np.einsum("ab,jbc->jac", zg[1], v[0, act])
                       + np.einsum("ab,jbc->jac", zg[0], v[1, act]))
    f_curr = np.zeros_like(f_prev)
    f_curr[act] = (np.einsum("ab,jbc->jac", mws, v[1, act]) - mem1 + r1[act])

    for i in range(2, n + 1):
        act = slice(i, n + 1)
        ri = source_row(i)

        # sum_s zg[i - s] @ v[s, j] as one GEMM over (s, b)
        hist = dt * np.tensordot(zg[i - 1:0:-1], v[1:i, act],
                                 axes=([0, 2], [0, 2])).transpose(1, 0, 2)
        pred = v[i - 1, act] + dt * (1.5 * f_curr[act] - 0.5 * f_prev[act])
        f_pred = (np.einsum("ab,jbc->jac", mws, pred)
                  - (hist + np.einsum("ab,jbc->jac", half_zg0, pred)) + ri)
        v[i, act] = v[i - 1, act] + 0.5 * dt * (f_curr[act] + f_pred)

        f_prev, f_curr = f_curr, f_prev
        f_curr[act] = (np.einsum("ab,jbc->jac", mws, v[i, act])
                       - (hist + np.einsum("ab,jbc->jac", half_zg0, v[i, act]))
                       + ri)
        _check_finite(v[i:i + 1, act], i, grid.times[i:i + 1], "V")

    diag = np.einsum("iiab->iab", v).copy()
    if return_two_time:
        return diag, v
    return diag


def correlated_correction(bath: BathDiscretization, corr: InitialCorrelations,
                          u: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Equal-time V correction from initial system-bath cross correlations.

    An initially correlated Gaussian total state adds a boundary
    (delta-supported) piece to the fluctuation kernel; after the time-ordered
    integrals collapse it contributes

        dV(t) = -i [ int_0^t U(t - s) Z E(s) ds ] U(t)^dag + h.c.,
        E(s)  = sum_k C_k(s) Q'_k,

    where C_k carries the coupling phases of mode k and Q'_k the initial
    cross moments <a^dag b_k>, <a b_k>.  Each entry of E is one phase sum
    by spectral._exp_sum over the frequencies +-w_k, so no temporary grows
    with (n + 1) N.
    """
    if corr.n_prime.size != bath.n_modes:
        raise ValidationError(
            f"correlations carry {corr.n_prime.size} modes, bath has {bath.n_modes}")
    n = grid.n_steps
    dt = grid.dt
    _require_u(u, n)

    vk = bath.v_couplings
    wk = bath.w_couplings
    np_k = corr.n_prime
    sp_k = corr.s_prime
    freqs = np.concatenate([bath.frequencies, -bath.frequencies])

    def phase_sum(minus, plus):
        # sum_k minus_k e^{-i w_k s} + plus_k e^{+i w_k s} on the grid times
        return _exp_sum(np.concatenate([minus, plus]), freqs, grid.times)

    # E(s) = sum_k C_k(s) Q'_k with
    # C_k(s) = [[V_k e^{-i w s}, W_k e^{+i w s}], [W_k e^{-i w s}, V_k e^{+i w s}]]
    # Q'_k   = [[n'_k, s'_k], [conj(s'_k), conj(n'_k)]]
    e = np.empty((n + 1, 2, 2), dtype=complex)
    e[:, 0, 0] = phase_sum(vk * np_k, wk * np.conj(sp_k))
    e[:, 0, 1] = phase_sum(vk * sp_k, wk * np.conj(np_k))
    e[:, 1, 0] = phase_sum(wk * np_k, vk * np.conj(sp_k))
    e[:, 1, 1] = phase_sum(wk * sp_k, vk * np.conj(np_k))

    ze = _zmul(e)
    conv = _causal_matconv(u, ze) - 0.5 * (_mul2(u, ze[0]) + _mul2(u[0], ze))
    term1 = -1j * dt * _mul2(conv, np.conj(np.swapaxes(u, -1, -2)))
    out = term1 + np.conj(np.swapaxes(term1, -1, -2))
    out[0] = 0.0
    return out
