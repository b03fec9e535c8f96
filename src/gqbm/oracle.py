"""Exact finite-bath reference dynamics (the validation oracle).

A bath truncated to N discrete modes makes the total Hamiltonian a finite
quadratic form, so the Heisenberg equations close on the operator vector

    A = (a, a^dag, b_1, b_1^dag, ..., b_N, b_N^dag),   dA/dt = generator A,

and every reduced quantity of the open mode follows from the Bogoliubov
propagator S(t) = exp(generator * t) without any master-equation input.
This module never touches the kernel machinery; agreement between the two
routes is therefore a genuine cross-validation.

The generator is -i sigma H with H the real symmetric coupling table and
sigma the commutation metric.  H has arrowhead structure (system rows and
columns plus a diagonal), so LinearDynamics.generator() holds it as one
sparse CSR matrix with O(N) entries.  Every reduced quantity reads only the
system rows S[:2, :], so propagate() marches those alone, as the system
columns of S^T under G^T, by fixed-substep RK4 tuned to keep the local error
at the 1e-10 level; the system columns S[:, :2] are not computed.  A
finite bath revives: results are trustworthy only below the recurrence
horizon ~ 2 pi / min mode spacing, which LinearDynamics reports before
anything is propagated.  thermal_total_state() prepares the correlated
initial state of a quench, the Gibbs state of the coupled Hamiltonian, by
Colpa's Cholesky route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular

from .errors import (
    ContractViolationError,
    InstabilityError,
    NumericalQualityError,
    ValidationError,
)
from .greens import (
    InitialCorrelations,
    TimeGrid,
    _check_finite,
    require_finite_frequency,
)
from .moments import COMMUTATOR_DRIFT_TOL, GaussianMoments
from .spectral import BathDiscretization, n_bar

# Target local truncation error of one RK4 substep, |lambda h|^5 / 120.
RK4_LOCAL_ERROR = 1e-10
RECURRENCE_GUARD = 0.5
# Fixed-substep RK4 is the wrong tool past this many substeps per output step.
MAX_SUBSTEPS_PER_STEP = 1_000_000


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
        require_finite_frequency("omega_s", self.omega_s)
        for name in ("frequencies", "v_couplings", "w_couplings"):
            arr = np.asarray(getattr(self, name))
            if (arr.ndim != 1 or arr.dtype.kind not in "iuf"
                    or not np.all(np.isfinite(arr))):
                raise ValidationError(
                    f"{name} must be a 1-d array of finite reals")
            setattr(self, name, arr.astype(float, copy=False))
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
        distinct = np.unique(self.frequencies)
        if distinct.size < 2:
            return math.inf
        spacing = float(np.min(np.diff(distinct)))
        return RECURRENCE_GUARD * 2.0 * math.pi / max(spacing, 1e-300)

    def generator(self) -> sparse.csr_matrix:
        """Sparse generator G with dA/dt = G A (entries from H, G = -i sigma H)."""
        b = np.arange(2, self.dim, 2)
        a_idx = np.zeros_like(b)
        # couplings a-b_k and a^dag-b_k^dag carry V_k, a-b_k^dag and a^dag-b_k W_k
        sys_idx = np.concatenate([a_idx, a_idx, a_idx + 1, a_idx + 1])
        bath_idx = np.concatenate([b, b + 1, b + 1, b])
        coupling = np.concatenate([self.v_couplings, self.w_couplings,
                                   self.v_couplings, self.w_couplings])
        diag = np.arange(self.dim)
        rows = np.concatenate([diag, sys_idx, bath_idx])
        cols = np.concatenate([diag, bath_idx, sys_idx])
        h = np.concatenate([[self.omega_s, self.omega_s],
                            np.repeat(self.frequencies, 2), coupling, coupling])
        return sparse.csr_matrix((-1j * self.sigma()[rows] * h, (rows, cols)),
                                 shape=(self.dim, self.dim))

    def as_matrix(self) -> np.ndarray:
        """Dense generator; intended for small N (tests, spectra)."""
        return self.generator().toarray()

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
    """System rows of S(t) = exp(generator t) on a grid.

    sys_rows[m] = S(t_m)[:2, :] (what the evolved system operators are made
    of); u_series is its 2x2 system block.  The columns S[:, :2] are not
    computed.  recurrence_horizon is LinearDynamics.recurrence_horizon of
    the model.
    """

    grid: TimeGrid
    dim: int
    sys_rows: np.ndarray
    recurrence_horizon: float
    metadata: dict = field(default_factory=dict)

    @property
    def u_series(self) -> np.ndarray:
        return self.sys_rows[:, :, :2]


def _rk4_march(apply, x: np.ndarray, h: float, n_sub: int) -> np.ndarray:
    for _ in range(n_sub):
        k1 = apply(x)
        k2 = apply(x + 0.5 * h * k1)
        k3 = apply(x + 0.5 * h * k2)
        k4 = apply(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def propagate(dyn: LinearDynamics, grid: TimeGrid) -> BogoliubovPropagator:
    """March the system rows of S (columns of S^T under G^T) with RK4."""
    n = grid.n_steps
    dt = grid.dt

    # |lambda| h <= (120 * tol)^(1/5) keeps one-substep error below tol
    omega_ref = max(float(np.max(np.abs(dyn.frequencies), initial=0.0)),
                    abs(dyn.omega_s),
                    float(np.sum(np.abs(dyn.v_couplings))
                          + np.sum(np.abs(dyn.w_couplings))))
    h_target = (120.0 * RK4_LOCAL_ERROR) ** 0.2 / max(omega_ref, 1e-12)
    n_sub = max(1, int(math.ceil(dt / h_target)))
    if n_sub > MAX_SUBSTEPS_PER_STEP:
        raise ValidationError(
            f"grid is too stiff for the fixed-substep integrator: "
            f"dt = {dt:.3e} against fastest scale {omega_ref:.3e} needs "
            f"{n_sub} substeps per step (cap {MAX_SUBSTEPS_PER_STEP})")
    h = dt / n_sub

    gen_t = dyn.generator().T.tocsr()
    rows_t = np.zeros((dyn.dim, 2), dtype=complex)
    rows_t[0, 0] = rows_t[1, 1] = 1.0
    sys_rows = np.empty((n + 1, 2, dyn.dim), dtype=complex)
    sys_rows[0] = rows_t.T
    for m in range(1, n + 1):
        rows_t = _rk4_march(gen_t.dot, rows_t, h, n_sub)
        _check_finite(rows_t, m, m * dt, "S")
        sys_rows[m] = rows_t.T

    return BogoliubovPropagator(
        grid=grid, dim=dyn.dim, sys_rows=sys_rows,
        recurrence_horizon=dyn.recurrence_horizon,
        metadata={"scheme": "rk4-fixed, row march (S^T columns under G^T)",
                  "substeps_per_step": n_sub, "substep": h},
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


def _moments_from_rows(prop: BogoliubovPropagator, apply_m0,
                       mean_a: np.ndarray) -> OracleMoments:
    """Moments <A_i A_j> = r_i . M0 . r_j of the system pair, drift-checked."""
    rows = prop.sys_rows
    n_times = rows.shape[0]
    delta_s = np.empty(n_times, dtype=complex)
    delta_n = np.empty(n_times, dtype=complex)
    delta_h = np.empty(n_times, dtype=complex)
    for m in range(n_times):
        r1 = rows[m, 0]
        r2 = rows[m, 1]
        m0_r1 = apply_m0(r1)
        m0_r2 = apply_m0(r2)
        delta_s[m] = r1 @ m0_r1
        delta_n[m] = r2 @ m0_r1
        delta_h[m] = r1 @ m0_r2
    times = prop.grid.times
    _require_commutator(delta_n.real, delta_h.real, times)
    return OracleMoments(times=times, mean_a=mean_a, delta_n=delta_n.real,
                         delta_s=delta_s, delta_h=delta_h.real)


def _require_commutator(delta_n, delta_h, times):
    drift = np.abs(delta_h - delta_n - 1.0)
    worst = int(np.argmax(drift))
    if not (drift[worst] <= COMMUTATOR_DRIFT_TOL):
        raise NumericalQualityError(
            f"oracle commutator drift {drift[worst]:.3e} at t = "
            f"{times[worst]:.6g} exceeds {COMMUTATOR_DRIFT_TOL:.1e}")


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

    occ = bath.occupations
    sqz = bath.squeezes
    dn0, ds0 = init.delta_n, init.delta_s

    def apply_m0(r: np.ndarray) -> np.ndarray:
        # block-diagonal product table <A_p A_q>(0): per pair (x, x^dag)
        # [[<xx>, <x x^dag>], [<x^dag x>, <x^dag x^dag>]]
        out = np.empty_like(r)
        out[0] = ds0 * r[0] + (1.0 + dn0) * r[1]
        out[1] = dn0 * r[0] + np.conj(ds0) * r[1]
        out[2::2] = sqz * r[2::2] + (1.0 + occ) * r[3::2]
        out[3::2] = occ * r[2::2] + np.conj(sqz) * r[3::2]
        return out

    mu0 = np.zeros(prop.dim, dtype=complex)
    mu0[0] = init.mean_a
    mu0[1] = np.conj(init.mean_a)
    return _moments_from_rows(prop, apply_m0, prop.sys_rows[:, 0, :] @ mu0)


def exact_moments(prop: BogoliubovPropagator,
                  product_table: np.ndarray) -> OracleMoments:
    """Open-mode moments for an arbitrary Gaussian initial total state.

    product_table[p, q] = <A_p A_q>(0) in the interleaved operator ordering
    (means assumed zero, as for any thermal total state).
    """
    if product_table.shape != (prop.dim, prop.dim):
        raise ContractViolationError(
            f"product table shape {product_table.shape} does not match "
            f"dimension {prop.dim}")

    return _moments_from_rows(prop, lambda r: product_table @ r,
                              np.zeros(prop.grid.times.size, dtype=complex))


@dataclass
class ThermalTotalState:
    """Gaussian thermal state of the coupled system + bath Hamiltonian.

    Holds the reduced system moments, the system-bath cross correlations,
    the per-mode bath occupations/squeezes, and the full initial product
    table for exact_moments.  metadata holds the scheme, its symplectic
    residual and the lowest normal-mode frequency.
    """

    system: GaussianMoments
    correlations: InitialCorrelations
    bath_occupations: np.ndarray
    bath_squeezes: np.ndarray
    normal_frequencies: np.ndarray
    product_table: np.ndarray
    metadata: dict = field(default_factory=dict)


def thermal_total_state(dyn: LinearDynamics, temperature: float,
                        omega_s0: float) -> ThermalTotalState:
    """Thermal (or ground) state of the COUPLED quadratic Hamiltonian.

    omega_s0 is the system frequency entering the Hamiltonian whose Gibbs
    state is prepared (it may differ from dyn.omega_s, which governs the
    subsequent evolution -- a frequency quench).  The Hamiltonian must be
    positive definite, otherwise no thermal state exists and an
    InstabilityError is raised.  The normal modes follow Colpa (Physica A 93
    (1978) 327): a Cholesky factor of the Hamiltonian matrix, then a
    symmetric eigensolve; no non-Hermitian eigenproblem is solved.
    """
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require_finite_frequency("omega_s0", omega_s0)
    nb = dyn.n_modes + 1

    # single-particle blocks of H = Psi^dag [[h, p], [p, h]] Psi / 2 in the
    # block ordering Psi = (a, b_1..b_N, a^dag, b_1^dag..b_N^dag); real
    # frequencies and couplings make both blocks real symmetric
    h = np.diag(np.concatenate([[omega_s0], dyn.frequencies]))
    h[0, 1:] = h[1:, 0] = dyn.v_couplings
    p = np.zeros((nb, nb))
    p[0, 1:] = p[1:, 0] = dyn.w_couplings
    sigma = np.concatenate([np.ones(nb), -np.ones(nb)])

    # Colpa: M = K^T K exists iff M is positive definite; K sigma K^T = U L U^T
    # then gives T = K^-1 U |L|^(1/2) with T^T M T = |L| and T^T sigma T = sign L
    try:
        k_mat = cholesky(np.block([[h, p], [p, h]]))
    except np.linalg.LinAlgError:
        raise InstabilityError(
            "coupled Hamiltonian is not positive definite (its Cholesky "
            "factorisation fails); no thermal state exists at these "
            "couplings") from None
    lam, u_mat = eigh((k_mat * sigma) @ k_mat.T)
    eps = lam[lam > 0.0]  # positive branch, ascending: the normal frequencies
    n_neg = np.count_nonzero(lam < 0.0)
    if eps.size != nb or n_neg != nb:
        raise InstabilityError(
            f"Bogoliubov spectrum has {eps.size} positive and {n_neg} negative "
            f"normal-mode frequencies; a thermal state needs {nb} of each")
    t_mat = solve_triangular(k_mat, u_mat * np.sqrt(np.abs(lam)))

    resid = float(np.max(np.abs((t_mat.T * sigma) @ t_mat
                                - np.diag(np.sign(lam)))))
    if resid > 1e-8:
        raise NumericalQualityError(
            f"Bogoliubov transform breaks the symplectic metric by {resid:.3e}")

    # <Psi Psi^dag> = T <Phi Phi^dag> T^T: a column of T with lambda > 0
    # carries an annihilator (1 + nbar), one with lambda < 0 a creator (nbar)
    occ_nm = n_bar(np.abs(lam), temperature)
    diag = np.where(lam > 0.0, 1.0 + occ_nm, occ_nm)
    cov = ((t_mat * diag) @ t_mat.T).astype(complex)

    delta_n = cov[nb, nb].real
    delta_s = cov[0, nb]
    n_prime = cov[nb, nb + 1:]
    s_prime = cov[0, nb + 1:]
    bath_occ = np.real(np.diag(cov)[nb + 1:])
    bath_sqz = cov[np.arange(1, nb), np.arange(nb + 1, 2 * nb)]

    # product table <A_p A_q> in interleaved ordering: <Psi_i Psi_j> with
    # the second factor mapped through its particle-hole partner
    inter = np.empty(2 * nb, dtype=int)   # interleaved index -> Psi index
    inter[0], inter[1] = 0, nb
    inter[2::2] = np.arange(1, nb)
    inter[3::2] = np.arange(nb + 1, 2 * nb)
    partner = np.concatenate([np.arange(nb, 2 * nb), np.arange(0, nb)])
    table = cov[np.ix_(inter, partner[inter])]

    system = GaussianMoments(mean_a=0.0 + 0.0j, delta_n=delta_n,
                             delta_s=delta_s)
    return ThermalTotalState(
        system=system,
        correlations=InitialCorrelations(n_prime=n_prime, s_prime=s_prime),
        bath_occupations=bath_occ,
        bath_squeezes=bath_sqz,
        normal_frequencies=eps,
        product_table=table,
        metadata={"scheme": "colpa-cholesky", "symplectic_residual": resid,
                  "min_normal_frequency": float(eps[0])},
    )
