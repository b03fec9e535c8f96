"""The quadrature thermal state and the Chebyshev march against the routes
they replaced.

The functions below are the earlier implementations, kept verbatim as
the reference: the thermal state from a non-Hermitian eigensolve of
sigma M with symplectic normalisation, the Colpa route on H in the block
ordering (a, b_1..b_N, a^dag, b_1^dag..b_N^dag) with index maps back to
the interleaved table, the interleaved Colpa route on scipy's cholesky,
eigh and solve_triangular, the same route on numpy's cholesky, eigh and
solve (with one first-order step added that restores the symplectic
metric its eigh leaves 2e-11 off at zero temperature), the quadrature
route on dense batched Cholesky factors of the x and p blocks, the
quadrature route on one dense SVD of the product of its O(N) factors,
the propagation that marched the columns of S with G and the columns of
S^T with G^T separately, the fixed-substep RK4 row march that followed
it, and the Chebyshev row march on a sparse CSR generator with scipy's
jv.  Their generators are CSR matrices of the dense generator
that conftest fills from LinearDynamics's arrowhead.  Each thermal route
returns its state as a record that holds the product table, and each
march both system rows, each marched on its own, as a
conftest.StoredPropagator; the library streams its a row alone, and
conftest.stored_rows joins its blocks and rebuilds the a^dag row as the
a row conjugated, with each pair swapped, for the comparisons.  So the
comparisons check the library's a row and that identity, and each
reference march's own a^dag row must equal the conjugate-swap of its a
row to 1e-14 of max|S|.  The quadrature route (the secular equation of
the product of the O(N) Cholesky factors of the x and p arrowheads) must
match the dense-Cholesky route to 1e-13 of the largest table entry and of
the largest normal frequency, and its lowest normal frequency to 1e-14
relative, on the bath as given and permuted; it must match the SVD of the
same product to 1e-13 of the largest table entry and every normal
frequency to 1e-14 relative, there and on baths whose poles it deflates
(modes that share a frequency, uncoupled modes) and on a single mode,
where the deflated frequencies are exact; it reaches the same state
as the other routes through other arithmetic, so it must agree
with the eig route to roundoff amplified by the eigenproblem's
conditioning (1e-8 of the largest table entry; normal-mode frequencies to
1e-12 of the largest), with the
block-ordered Colpa route to 1e-10 of the largest table entry, and with
the interleaved Colpa routes, on numpy's or on scipy's factorisations, to
1e-11 of the largest entry, the spread of scipy's own evr and evd
eigensolvers.  Its lowest normal frequency at alpha = 0 must match a
bisection of the arrowhead's secular equation to 1e-14 relative, and a
permuted bath must give the permuted table to 1e-15 of the largest
entry.  The RK4 row march is the second of the two marches alone, so its
rows must be equal; its 2x2 block U = S[:2, :2] is read off the rows
instead of the columns, which agrees to roundoff.  The Chebyshev march must
agree with the RK4 one to RK4's own error, 1e-10 of max|S|, and trip its
instability guard at the same step with the same message.  On the arrowhead
it sums the same expansion in another order, so it must agree with the CSR
march to 1e-13 of max|S|.

The moment readers are kept as well: the loop that applied the initial
product table to one row at a time, with reduced_moments' elementwise rule
and exact_moments' dense matvec.  The block reader sums the same products
in another order, so it must agree with the loop to 1e-14 of each series'
largest entry.  thermal_moments, which reads the thermal state through its
normal-mode transforms, sums other products: it must agree with the dense
table, and with the loop, to 1e-13 of max|N|.  reduced_moments' rule from
when a bath could carry per-mode squeezes (one GEMV per product against
the squeezes of every pair) is kept, fed the zero squeezes every bath had:
the rule on the system pair alone must give the same bits at the vacuum,
and the same moments to 1e-15 of each series' largest entry with a
squeezed system.
"""

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import jv

import gqbm
from gqbm.errors import (
    InstabilityError,
    NumericalQualityError,
    ValidationError,
    require,
)
from gqbm.greens import (
    InitialCorrelations,
    _check_finite,
)
from gqbm.moments import GaussianMoments, SecondMomentSeries, _require_commutator
from gqbm import oracle
from gqbm.spectral import n_bar

from conftest import (
    StoredPropagator,
    dagger_rows,
    dense_generator,
    dense_h,
    make_model,
    stored_rows,
)

TABLE_RTOL = 1e-8
BLOCK_ORDER_RTOL = 1e-10
FREQ_RTOL = 1e-12
STATIONARY_RTOL = 1e-12
RK4_AGREEMENT_RTOL = 1e-10
SCIPY_ROUTE_RTOL = 1e-11
COLPA_ROUTE_RTOL = 1e-11
SECULAR_ROOT_RTOL = 1e-14
PERMUTED_BATH_RTOL = 1e-15
CSR_AGREEMENT_RTOL = 1e-13
LOOP_READER_RTOL = 1e-14
THERMAL_READER_RTOL = 1e-13
FACTOR_PARITY_RTOL = 1e-13
DAGGER_ROW_RTOL = 1e-14
SQUEEZED_RULE_RTOL = 1e-15

# Target local truncation error of one RK4 substep, |lambda h|^5 / 120.
RK4_LOCAL_ERROR = 1e-10
# Fixed-substep RK4 is the wrong tool past this many substeps per output step.
MAX_SUBSTEPS_PER_STEP = 1_000_000

# the quench benchmark point: 300 gauss modes on omega <= 12, prepared at
# omega_s0 = 0.6 and evolved at omega_s = 0.3
MODES, OMEGA_MAX, OMEGA_S0, OMEGA_S = 300, 12.0, 0.6, 0.3


@dataclass
class _ReferenceState:
    """A reference route's thermal state: ThermalTotalState's fields, with
    the product table held as a field."""

    system: GaussianMoments
    correlations: InitialCorrelations
    bath_occupations: np.ndarray
    bath_squeezes: np.ndarray
    normal_frequencies: np.ndarray
    product_table: np.ndarray
    metadata: dict = field(default_factory=dict)


def _csr_generator(dyn):
    return sparse.csr_matrix(dense_generator(dyn))


def _eig_thermal_total_state(dyn, temperature, omega_s0):
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require("omega_s0", omega_s0)
    n_m = dyn.n_modes
    nb = n_m + 1

    # single-particle blocks of H = Psi^dag [[h, p], [conj(p), conj(h)]] Psi / 2
    # in the block ordering Psi = (a, b_1..b_N, a^dag, b_1^dag..b_N^dag)
    h = np.zeros((nb, nb), dtype=complex)
    h[0, 0] = omega_s0
    h[np.arange(1, nb), np.arange(1, nb)] = dyn.frequencies
    h[0, 1:] = dyn.v_couplings
    h[1:, 0] = dyn.v_couplings
    p = np.zeros((nb, nb), dtype=complex)
    p[0, 1:] = dyn.w_couplings
    p[1:, 0] = dyn.w_couplings

    m = np.block([[h, p], [np.conj(p), np.conj(h)]])
    min_eig = float(np.linalg.eigvalsh(m).min())
    if min_eig <= 0.0:
        raise InstabilityError(
            f"coupled Hamiltonian is not positive definite (min eigenvalue "
            f"{min_eig:.3e}); no thermal state exists at these couplings")

    sigma_b = np.diag(np.concatenate([np.ones(nb), -np.ones(nb)]))
    evals, evecs = np.linalg.eig(sigma_b @ m)
    if np.max(np.abs(evals.imag)) > 1e-8 * np.max(np.abs(evals.real)):
        raise NumericalQualityError(
            "Bogoliubov spectrum acquired imaginary parts "
            f"(max {np.max(np.abs(evals.imag)):.3e})")
    order = np.argsort(evals.real)[::-1][:nb]  # the nb positive branches
    eps = evals.real[order]
    if eps.min() <= 0.0:
        raise InstabilityError(
            f"nonpositive normal-mode frequency {eps.min():.3e}")
    vpos = evecs[:, order]

    # symplectic normalization v^dag Sigma v = +1 on the positive branch
    norms = np.einsum("ik,ij,jk->k", np.conj(vpos), sigma_b, vpos).real
    if np.any(norms <= 0.0):
        raise NumericalQualityError(
            "positive-branch eigenvector with nonpositive symplectic norm")
    vpos = vpos / np.sqrt(norms)
    swap = np.vstack([np.conj(vpos[nb:]), np.conj(vpos[:nb])])  # particle-hole partner
    t_mat = np.hstack([vpos, swap])

    resid = np.max(np.abs(np.conj(t_mat.T) @ sigma_b @ t_mat - sigma_b))
    if resid > 1e-8:
        raise NumericalQualityError(
            f"Bogoliubov transform breaks the symplectic metric by {resid:.3e}")

    occ_nm = n_bar(eps, temperature)
    # <Psi Psi^dag> = T diag(1 + nbar, nbar) T^dag for the normal modes
    diag = np.concatenate([1.0 + occ_nm, occ_nm])
    cov = (t_mat * diag) @ np.conj(t_mat.T)

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
    return _ReferenceState(
        system=system,
        correlations=InitialCorrelations(n_prime=n_prime, s_prime=s_prime),
        bath_occupations=bath_occ,
        bath_squeezes=bath_sqz,
        normal_frequencies=np.sort(eps),
        product_table=table,
    )


def _block_colpa_thermal_total_state(dyn, temperature, omega_s0):
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require("omega_s0", omega_s0)
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
    return _ReferenceState(
        system=system,
        correlations=InitialCorrelations(n_prime=n_prime, s_prime=s_prime),
        bath_occupations=bath_occ,
        bath_squeezes=bath_sqz,
        normal_frequencies=eps,
        product_table=table,
        metadata={"scheme": "colpa-cholesky", "symplectic_residual": resid,
                  "min_normal_frequency": float(eps[0])},
    )


def _rk4_march(apply, x: np.ndarray, h: float, n_sub: int) -> np.ndarray:
    for _ in range(n_sub):
        k1 = apply(x)
        k2 = apply(x + 0.5 * h * k1)
        k3 = apply(x + 0.5 * h * k2)
        k4 = apply(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _rk4_propagate(dyn, grid):
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

    gen_t = _csr_generator(dyn).T.tocsr()
    rows_t = np.zeros((dyn.dim, 2), dtype=complex)
    rows_t[0, 0] = rows_t[1, 1] = 1.0
    sys_rows = np.empty((n + 1, 2, dyn.dim), dtype=complex)
    sys_rows[0] = rows_t.T
    for m in range(1, n + 1):
        rows_t = _rk4_march(gen_t.dot, rows_t, h, n_sub)
        _check_finite(rows_t[None], m, [m * dt], "S")
        sys_rows[m] = rows_t.T

    return StoredPropagator(
        grid=grid, dim=dyn.dim, sys_rows=sys_rows,
        recurrence_horizon=dyn.recurrence_horizon,
        metadata={"scheme": "rk4-fixed, row march (S^T columns under G^T)",
                  "substeps_per_step": n_sub, "substep": h},
    )


def _two_march_propagate(dyn, grid, n_sub, h):
    n = grid.n_steps
    dt = grid.dt

    gen = _csr_generator(dyn)
    gen_t = gen.T.tocsr()
    cols = np.zeros((dyn.dim, 2), dtype=complex)
    cols[0, 0] = 1.0
    cols[1, 1] = 1.0
    rows_t = cols.copy()  # columns of S^T, i.e. rows of S

    sys_cols = np.empty((n + 1, dyn.dim, 2), dtype=complex)
    sys_rows = np.empty((n + 1, 2, dyn.dim), dtype=complex)
    sys_cols[0] = cols
    sys_rows[0] = rows_t.T

    for m in range(1, n + 1):
        cols = _rk4_march(gen.dot, cols, h, n_sub)
        rows_t = _rk4_march(gen_t.dot, rows_t, h, n_sub)
        _check_finite(cols[None], m, [m * dt], "S")
        _check_finite(rows_t[None], m, [m * dt], "S")
        sys_cols[m] = cols
        sys_rows[m] = rows_t.T
    return sys_cols, sys_rows


def _scipy_colpa_thermal_total_state(dyn, temperature, omega_s0):
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require("omega_s0", omega_s0)
    nb = dyn.n_modes + 1

    # the real symmetric H at omega_s0: dA/dt = -i sigma H A
    h_mat = dense_h(gqbm.LinearDynamics(omega_s0, dyn.frequencies,
                                        dyn.v_couplings, dyn.w_couplings))
    sigma = dyn.sigma()

    # Colpa: H = K^T K exists iff H is positive definite; K sigma K^T = U L U^T
    # then gives T = K^-1 U |L|^(1/2) with T^T H T = |L| and T^T sigma T = sign L
    try:
        k_mat = cholesky(h_mat)
    except np.linalg.LinAlgError:
        raise InstabilityError(
            "coupled Hamiltonian is not positive definite (its Cholesky "
            "factorisation fails); no thermal state exists at these "
            "couplings") from None
    del h_mat  # the factor carries H from here on
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

    # <A A^dag> = T <Phi Phi^dag> T^T: a column of T with lambda > 0
    # carries an annihilator (1 + nbar), one with lambda < 0 a creator (nbar)
    occ_nm = n_bar(np.abs(lam), temperature)
    diag = np.where(lam > 0.0, 1.0 + occ_nm, occ_nm)
    cov = (t_mat * diag) @ t_mat.T
    # A_q^dag = A_(q xor 1), so <A_p A_q> = <A_p A_(q xor 1)^dag>
    table = cov[:, np.arange(dyn.dim) ^ 1].astype(complex)

    system = GaussianMoments(mean_a=0.0 + 0.0j, delta_n=table[1, 0].real,
                             delta_s=table[0, 0])
    return _ReferenceState(
        system=system,
        correlations=InitialCorrelations(n_prime=table[1, 2::2],
                                         s_prime=table[0, 2::2]),
        bath_occupations=np.real(np.diag(table[3::2, 2::2])),
        bath_squeezes=np.diag(table[2::2, 2::2]),
        normal_frequencies=eps,
        product_table=table,
        metadata={"scheme": "colpa-cholesky", "symplectic_residual": resid,
                  "min_normal_frequency": float(eps[0])},
    )


def _colpa_thermal_total_state(dyn, temperature, omega_s0):
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require("omega_s0", omega_s0)
    nb = dyn.n_modes + 1

    # the real symmetric H at omega_s0: dA/dt = -i sigma H A
    h_mat = dense_h(replace(dyn, omega_s=omega_s0))
    sigma = dyn.sigma()

    # Colpa: H = K^T K exists iff H is positive definite; K sigma K^T = U L U^T
    # then gives T = K^-1 U |L|^(1/2) with T^T H T = |L| and T^T sigma T = sign L
    try:
        k_mat = np.linalg.cholesky(h_mat).T
    except np.linalg.LinAlgError:
        raise InstabilityError(
            "coupled Hamiltonian is not positive definite (its Cholesky "
            "factorisation fails); no thermal state exists at these "
            "couplings") from None
    del h_mat  # the factor carries H from here on
    lam, u_mat = np.linalg.eigh((k_mat * sigma) @ k_mat.T)
    eps = lam[lam > 0.0]  # positive branch, ascending: the normal frequencies
    n_neg = np.count_nonzero(lam < 0.0)
    if eps.size != nb or n_neg != nb:
        raise InstabilityError(
            f"Bogoliubov spectrum has {eps.size} positive and {n_neg} negative "
            f"normal-mode frequencies; a thermal state needs {nb} of each")
    t_mat = np.linalg.solve(k_mat, u_mat * np.sqrt(np.abs(lam)))

    sign = np.sign(lam)
    metric = (t_mat.T * sigma) @ t_mat
    resid = float(np.max(np.abs(metric - np.diag(sign))))
    if resid > 1e-8:
        raise NumericalQualityError(
            f"Bogoliubov transform breaks the symplectic metric by {resid:.3e}")
    # eigh mixes each mode's two columns, +eps and -eps, by up to 1e-11 at
    # the lowest mode (2 eps apart in a matrix of norm about omega_max), and
    # leaves a small eps off by its relative error: one first-order step
    # makes each pair sigma-orthogonal, then normalises each column to the
    # metric and rescales |lambda| by the same Rayleigh quotient
    partner = np.arange(lam.size)[::-1]    # ascending: -eps_j <-> +eps_j
    t_mat -= 0.5 * t_mat[:, partner] * (
        sign[partner] * metric[np.arange(lam.size), partner])
    norm = sign * np.einsum("ij,i,ij->j", t_mat, sigma, t_mat)
    t_mat /= np.sqrt(norm)
    lam = lam / norm
    eps = lam[lam > 0.0]

    # <A A^dag> = T <Phi Phi^dag> T^T: a column of T with lambda > 0
    # carries an annihilator (1 + nbar), one with lambda < 0 a creator (nbar)
    occ_nm = n_bar(np.abs(lam), temperature)
    diag = np.where(lam > 0.0, 1.0 + occ_nm, occ_nm)
    cov = (t_mat * diag) @ t_mat.T
    # A_q^dag = A_(q xor 1), so <A_p A_q> = <A_p A_(q xor 1)^dag>
    table = cov[:, np.arange(dyn.dim) ^ 1].astype(complex)

    system = GaussianMoments(mean_a=0.0 + 0.0j, delta_n=table[1, 0].real,
                             delta_s=table[0, 0])
    return _ReferenceState(
        system=system,
        correlations=InitialCorrelations(n_prime=table[1, 2::2],
                                         s_prime=table[0, 2::2]),
        bath_occupations=np.real(np.diag(table[3::2, 2::2])),
        bath_squeezes=np.diag(table[2::2, 2::2]),
        normal_frequencies=eps,
        product_table=table,
        metadata={"scheme": "colpa-cholesky", "symplectic_residual": resid,
                  "min_normal_frequency": float(eps[0])},
    )


def _cholesky_quadrature_modes(dyn, omega_s0):
    """oracle._quadrature_modes on dense batched Cholesky factors of the
    x and p blocks, transformed back by two dense GEMMs."""
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


def _svd_quadrature_modes(dyn, omega_s0):
    """oracle._quadrature_modes on one dense SVD of the product of the O(N)
    Cholesky factors, M = diag(0, D) + p q^T, the bath in descending
    frequency."""
    nb = dyn.n_modes + 1
    order = np.argsort(-dyn.frequencies, kind="stable")
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
    head_p, head_q = heads
    product = np.outer(head_p, head_q)
    product.flat[nb + 1::nb + 1] += freqs
    u_svd, eps, v_svd_t = np.linalg.svd(product)
    del product
    root = 1.0 / np.sqrt(eps)
    rows = np.concatenate([[0], 1 + order])  # operator row of each factor row

    def apply(head: np.ndarray, mat: np.ndarray) -> np.ndarray:
        # R mat Omega^-1/2 for R = [[head], [0, D^1/2]], in operator order
        out = np.empty((nb, nb))
        out[0] = head @ mat
        out[rows[1:]] = root_d[:, None] * mat[1:]
        out *= root
        return out

    return eps, apply(head_q, v_svd_t.T), apply(head_p, u_svd)


def _csr_chebyshev_propagate(dyn, grid):
    """The Chebyshev row march on the CSR generator with scipy's jv."""
    n = grid.n_steps
    dt = grid.dt
    dim = dyn.dim

    gen_t = _csr_generator(dyn).T.tocsr()
    norm = float(abs(gen_t).sum(axis=1).max())
    if norm * dt * n <= oracle._WINDOW_PHASE:
        window = n
    else:
        window = max(1, int(oracle._WINDOW_PHASE / (norm * dt)))
        if window > oracle._MOMENT_BLOCK:
            window -= window % oracle._MOMENT_BLOCK
    degree = oracle._chebyshev_degree(norm * window * dt)

    k = np.arange(degree + 1)
    coef = (np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4]
            * jv(k, norm * dt * np.arange(1, window + 1)[:, None]))
    # B acts on the two system rows of S at once, flattened to one vector
    b_mat = sparse.block_diag((gen_t, gen_t), format="csr")
    if norm > 0.0:
        b_mat *= 1j / norm
    store = np.empty((degree + 1, 2 * dim), dtype=complex)  # T_k(B) x
    sys_rows = np.empty((n + 1, 2, dim), dtype=complex)
    flat_rows = sys_rows.reshape(n + 1, 2 * dim)
    flat_rows[0] = store[0] = np.eye(2, dim).ravel()
    for m0 in range(0, n, window):
        if degree > 0:
            store[1] = b_mat.dot(store[0])
        for j in range(2, degree + 1):
            np.subtract(2.0 * b_mat.dot(store[j - 1]), store[j - 2],
                        out=store[j])
        steps = min(window, n - m0)
        rows = flat_rows[m0 + 1:m0 + steps + 1]
        np.matmul(coef[:steps], store, out=rows)
        for j in range(steps):
            m = m0 + j + 1
            _check_finite(rows[j:j + 1], m, [m * dt], "S")
        store[0] = rows[-1]

    return StoredPropagator(
        grid=grid, dim=dim, sys_rows=sys_rows,
        recurrence_horizon=dyn.recurrence_horizon,
        metadata={"degree": degree, "window": window, "norm_bound": norm},
    )


def _loop_moments_from_rows(rows: np.ndarray, times: np.ndarray,
                            apply_m0) -> SecondMomentSeries:
    """Moments <A_i A_j> = r_i . M0 . r_j of the system pair, drift-checked,
    from the stored rows (n + 1, 2, dim) at times."""
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
    drift = _require_commutator(delta_n.real, delta_h.real, times)
    return SecondMomentSeries(times=times, delta_n=delta_n.real,
                              delta_s=delta_s, delta_h=delta_h.real,
                              max_commutator_drift=drift)


def _loop_reduced_moments(prop, bath, init):
    init.require_physical()
    occ = bath.occupations
    dn0, ds0 = init.delta_n, init.delta_s

    def apply_m0(r: np.ndarray) -> np.ndarray:
        # block-diagonal product table <A_p A_q>(0): per pair (x, x^dag)
        # [[<xx>, <x x^dag>], [<x^dag x>, <x^dag x^dag>]]
        out = np.empty_like(r)
        out[0] = ds0 * r[0] + (1.0 + dn0) * r[1]
        out[1] = dn0 * r[0] + np.conj(ds0) * r[1]
        out[2::2] = (1.0 + occ) * r[3::2]
        out[3::2] = occ * r[2::2]
        return out

    return _loop_moments_from_rows(stored_rows(prop), prop.grid.times,
                                   apply_m0)


def _squeezed_bath_reduced_moments(prop, bath, init, bath_squeezes=None):
    """reduced_moments as it was when a bath could carry per-mode squeezes
    (zero, as every bath had, unless bath_squeezes is given): one GEMV per
    product against the squeeze vector of every pair, the system's delta_s
    first."""
    init.require_physical()
    if bath_squeezes is None:
        bath_squeezes = np.zeros(bath.n_modes, dtype=complex)
    occ = np.concatenate([[init.delta_n], bath.occupations])
    sqz = np.concatenate([[init.delta_s], bath_squeezes])
    one_occ, two_occ, conj_sqz = 1.0 + occ, 1.0 + 2.0 * occ, np.conj(sqz)

    def rule(block: np.ndarray):
        x, x_dag = block[:, 0::2], block[:, 1::2]
        abs_x, abs_x_dag = oracle._abs2(x), oracle._abs2(x_dag)
        cross = 2.0 * ((x * np.conj(x_dag)) @ sqz).real
        return ((x * x) @ sqz + (x * x_dag) @ two_occ
                + (x_dag * x_dag) @ conj_sqz,
                abs_x @ occ + abs_x_dag @ one_occ + cross,
                abs_x @ one_occ + abs_x_dag @ occ + cross)

    return oracle._moments_from_rows(prop, rule)


def _loop_exact_moments(prop, product_table):
    return _loop_moments_from_rows(stored_rows(prop), prop.grid.times,
                                   lambda r: product_table @ r)


def _dynamics(alpha, omega_s, modes=MODES):
    bath = gqbm.discretize_bath(make_model(alpha), modes, OMEGA_MAX,
                                scheme="gauss")
    return gqbm.build_dynamics(bath, omega_s)


STATE_POINTS = [(0.5, 0.01), (0.5, 0.0), (0.0, 0.01)]  # (alpha, temperature)
STATE_IDS = ["quench-point", "zero-temperature", "no-pairing"]


@pytest.fixture(scope="module", params=STATE_POINTS, ids=STATE_IDS)
def both_states(request):
    alpha, temperature = request.param
    dyn = _dynamics(alpha, OMEGA_S)
    return (dyn, gqbm.thermal_total_state(dyn, temperature, OMEGA_S0),
            _eig_thermal_total_state(dyn, temperature, OMEGA_S0))


def test_colpa_state_matches_the_eig_route(both_states):
    _, colpa, eig = both_states
    scale = float(np.max(np.abs(eig.product_table)))
    for name in ("product_table", "bath_occupations", "bath_squeezes"):
        dev = np.max(np.abs(getattr(colpa, name) - getattr(eig, name)))
        assert dev <= TABLE_RTOL * scale, name
    for name in ("n_prime", "s_prime"):
        dev = np.max(np.abs(getattr(colpa.correlations, name)
                            - getattr(eig.correlations, name)))
        assert dev <= TABLE_RTOL * scale, name
    assert colpa.product_table.dtype == eig.product_table.dtype == complex
    assert colpa.correlations.n_prime.dtype == complex
    assert colpa.bath_squeezes.dtype == complex
    assert colpa.bath_occupations.dtype == float
    eps = eig.normal_frequencies
    assert (np.max(np.abs(colpa.normal_frequencies - eps))
            <= FREQ_RTOL * np.max(eps))


@pytest.mark.parametrize("alpha, temperature", STATE_POINTS, ids=STATE_IDS)
def test_colpa_state_matches_the_block_ordered_route(alpha, temperature):
    dyn = _dynamics(alpha, OMEGA_S)
    state = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)
    ref = _block_colpa_thermal_total_state(dyn, temperature, OMEGA_S0)
    bound = BLOCK_ORDER_RTOL * np.max(np.abs(ref.product_table))
    pairs = [(state.product_table, ref.product_table),
             (state.bath_occupations, ref.bath_occupations),
             (state.bath_squeezes, ref.bath_squeezes),
             (state.correlations.n_prime, ref.correlations.n_prime),
             (state.correlations.s_prime, ref.correlations.s_prime),
             (state.system.delta_n, ref.system.delta_n),
             (state.system.delta_s, ref.system.delta_s)]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= bound
    assert (np.max(np.abs(state.normal_frequencies - ref.normal_frequencies))
            <= FREQ_RTOL * np.max(ref.normal_frequencies))


# at zero temperature max|table| is about 1 instead of 50, and the Colpa
# routes' absolute spread of about 5e-11 in the lowest mode's entries is
# 9e-11 of it, for scipy's own evr and evd eigensolvers as for numpy's; there
# test_colpa_state_matches_the_block_ordered_route bounds it
@pytest.mark.parametrize("alpha, temperature", [(0.5, 0.01), (0.0, 0.01)],
                         ids=["quench-point", "no-pairing"])
def test_colpa_state_matches_the_scipy_route(alpha, temperature):
    dyn = _dynamics(alpha, OMEGA_S)
    state = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)
    ref = _scipy_colpa_thermal_total_state(dyn, temperature, OMEGA_S0)
    bound = SCIPY_ROUTE_RTOL * np.max(np.abs(ref.product_table))
    assert np.max(np.abs(state.product_table - ref.product_table)) <= bound
    assert (np.max(np.abs(state.normal_frequencies - ref.normal_frequencies))
            <= FREQ_RTOL * np.max(ref.normal_frequencies))


@pytest.mark.parametrize("alpha, temperature", STATE_POINTS, ids=STATE_IDS)
def test_quadrature_state_matches_the_colpa_route(alpha, temperature):
    dyn = _dynamics(alpha, OMEGA_S)
    state = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)
    ref = _colpa_thermal_total_state(dyn, temperature, OMEGA_S0)
    bound = COLPA_ROUTE_RTOL * np.max(np.abs(ref.product_table))
    assert np.max(np.abs(state.product_table - ref.product_table)) <= bound
    assert (np.max(np.abs(state.normal_frequencies - ref.normal_frequencies))
            <= FREQ_RTOL * np.max(ref.normal_frequencies))


def _lowest_secular_root(omega_s0, frequencies, couplings):
    """Lowest root of omega_s0 - lam - sum V_k^2 / (omega_k - lam) = 0.

    The root lies below the lowest pole omega_1, so the bisection runs on
    the shift d = omega_1 - lam, with omega_k - lam = (omega_k - omega_1) + d,
    from d = 0 (the pole) to d = omega_1 (lam = 0), until the bracket stops
    shrinking.
    """
    pole = float(np.min(frequencies))
    gaps = frequencies - pole
    lo, hi = 0.0, pole
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return pole - hi
        if omega_s0 - pole + mid - np.sum(couplings**2 / (gaps + mid)) < 0.0:
            lo = mid
        else:
            hi = mid


def test_lowest_normal_frequency_matches_the_secular_root():
    # alpha = 0: no pairing, so the normal frequencies are the eigenvalues
    # of the exchange arrowhead, the roots of its secular equation
    dyn = _dynamics(0.0, OMEGA_S)
    lowest = _lowest_secular_root(OMEGA_S0, dyn.frequencies, dyn.v_couplings)
    state = gqbm.thermal_total_state(dyn, 0.01, OMEGA_S0)
    assert 0.0 < lowest < np.min(dyn.frequencies)
    assert (abs(state.metadata["min_normal_frequency"] - lowest)
            <= SECULAR_ROOT_RTOL * lowest)


@pytest.mark.parametrize("alpha, temperature", STATE_POINTS, ids=STATE_IDS)
def test_permuted_bath_gives_the_permuted_table(alpha, temperature):
    dyn = _dynamics(alpha, OMEGA_S)
    perm = np.random.default_rng(23).permutation(dyn.n_modes)
    shuffled = gqbm.LinearDynamics(OMEGA_S, dyn.frequencies[perm],
                                   dyn.v_couplings[perm], dyn.w_couplings[perm])
    # mode k of the shuffled bath is mode perm[k]: b_k at 2k + 2, b_k^dag at
    # 2k + 3
    index = np.concatenate([[0, 1], np.stack([2 * perm + 2, 2 * perm + 3],
                                             axis=1).ravel()])
    table = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0).product_table
    got = gqbm.thermal_total_state(shuffled, temperature,
                                   OMEGA_S0).product_table
    assert (np.max(np.abs(got - table[np.ix_(index, index)]))
            <= PERMUTED_BATH_RTOL * np.max(np.abs(table)))


def _shuffled(dyn):
    perm = np.random.default_rng(23).permutation(dyn.n_modes)
    return gqbm.LinearDynamics(dyn.omega_s, dyn.frequencies[perm],
                               dyn.v_couplings[perm], dyn.w_couplings[perm])


@pytest.mark.parametrize("permuted", [False, True], ids=["ordered",
                                                         "permuted"])
@pytest.mark.parametrize("alpha, temperature", STATE_POINTS, ids=STATE_IDS)
def test_arrowhead_factors_match_the_dense_cholesky_route(
        alpha, temperature, permuted, monkeypatch):
    dyn = _dynamics(alpha, OMEGA_S)
    if permuted:
        dyn = _shuffled(dyn)
    state = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)
    monkeypatch.setattr(oracle, "_quadrature_modes",
                        _cholesky_quadrature_modes)
    ref = gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)
    assert (np.max(np.abs(state.product_table - ref.product_table))
            <= FACTOR_PARITY_RTOL * np.max(np.abs(ref.product_table)))
    freqs = ref.normal_frequencies
    assert (np.max(np.abs(state.normal_frequencies - freqs))
            <= FACTOR_PARITY_RTOL * np.max(freqs))
    assert (abs(state.metadata["min_normal_frequency"] - freqs[0])
            <= SECULAR_ROOT_RTOL * freqs[0])


def _svd_state(dyn, temperature, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_quadrature_modes", _svd_quadrature_modes)
        return gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)


def _assert_svd_parity(state, ref):
    assert (np.max(np.abs(state.product_table - ref.product_table))
            <= FACTOR_PARITY_RTOL * np.max(np.abs(ref.product_table)))
    freqs = ref.normal_frequencies
    assert (np.max(np.abs(state.normal_frequencies - freqs) / freqs)
            <= SECULAR_ROOT_RTOL)


@pytest.mark.parametrize("permuted", [False, True], ids=["ordered",
                                                         "permuted"])
@pytest.mark.parametrize("alpha, temperature", STATE_POINTS, ids=STATE_IDS)
def test_secular_modes_match_the_svd_route(alpha, temperature, permuted,
                                           monkeypatch):
    dyn = _dynamics(alpha, OMEGA_S)
    if permuted:
        dyn = _shuffled(dyn)
    _assert_svd_parity(gqbm.thermal_total_state(dyn, temperature, OMEGA_S0),
                       _svd_state(dyn, temperature, monkeypatch))


def _tied(dyn, copies):
    # copies more modes at the frequency of mode 7, with V (and so W = alpha
    # V) scaled: their V + W and V - W stay parallel to mode 7's
    scale = 0.5 ** np.arange(1, copies + 1)
    return gqbm.LinearDynamics(
        dyn.omega_s, np.append(dyn.frequencies, np.full(copies,
                                                         dyn.frequencies[7])),
        np.append(dyn.v_couplings, scale * dyn.v_couplings[7]),
        np.append(dyn.w_couplings, scale * dyn.w_couplings[7]))


def _uncoupled(dyn):
    v, w = dyn.v_couplings.copy(), dyn.w_couplings.copy()
    v[[5, 20]] = w[[5, 20]] = 0.0
    return gqbm.LinearDynamics(dyn.omega_s, dyn.frequencies, v, w)


def _tied_uncoupled(dyn):
    # three modes with V = W = 0 at one frequency between modes 10 and 11:
    # a tie whose p and q are zero, so it needs no reflection
    freq = 0.5 * (dyn.frequencies[10] + dyn.frequencies[11])
    return gqbm.LinearDynamics(
        dyn.omega_s, np.append(dyn.frequencies, np.full(3, freq)),
        np.append(dyn.v_couplings, np.zeros(3)),
        np.append(dyn.w_couplings, np.zeros(3)))


def _gapped():
    # the gapped table of ROADMAP item 19, a band on [0.5, 1.6], with gauss
    # nodes on [0, 3]: 224 of the 300 modes fall where J = 0, uncoupled
    model = gqbm.SpectralModel(
        family="tabulated", alpha=0.5, temperature=0.01,
        tab_omega=[0.0, 0.5, 0.6, 1.5, 1.6, 3.0],
        tab_j=[0.0, 0.0, 0.05, 0.05, 0.0, 0.0])
    return gqbm.build_dynamics(
        gqbm.discretize_bath(model, MODES, 3.0, scheme="gauss"), OMEGA_S)


# deflated poles: one or two more modes at one frequency (one coupled mode
# and uncoupled ones after a reflection), modes with V = W = 0, alone, tied
# or most of a gapped bath; each uncoupled mode leaves an exact normal
# frequency at its mode's (exact lists the modes, once per uncoupled one).
# The single mode is the Fock-space Gibbs test's
@pytest.mark.parametrize("make, exact", [
    (lambda: _tied(_dynamics(0.5, OMEGA_S, 60), 1), [7]),
    (lambda: _tied(_dynamics(0.5, OMEGA_S, 60), 2), [7, 7]),
    (lambda: _tied(_dynamics(1.0, OMEGA_S, 60), 1), [7]),
    (lambda: _uncoupled(_dynamics(0.5, OMEGA_S, 60)), [5, 20]),
    (lambda: _tied_uncoupled(_dynamics(0.5, OMEGA_S, 60)), [60, 60, 60]),
    (_gapped, np.flatnonzero(_gapped().v_couplings == 0.0).tolist()),
    (lambda: gqbm.LinearDynamics(1.0, np.array([1.3]), np.array([0.25]),
                                 np.array([0.15])), []),
], ids=["tied-pair", "tied-triple", "tied-pair-alpha-1", "uncoupled",
        "tied-uncoupled", "gapped", "single-mode"])
def test_deflated_and_single_mode_baths_match_the_svd_route(make, exact,
                                                            monkeypatch):
    dyn = make()
    state = gqbm.thermal_total_state(dyn, 0.3, OMEGA_S0)
    _assert_svd_parity(state, _svd_state(dyn, 0.3, monkeypatch))
    for mode in set(exact):
        assert (np.count_nonzero(state.normal_frequencies
                                 == dyn.frequencies[mode])
                == exact.count(mode))


def test_colpa_state_is_stationary_under_its_hamiltonian(both_states):
    dyn, colpa, _ = both_states
    gen = _csr_generator(gqbm.LinearDynamics(OMEGA_S0, dyn.frequencies,
                                             dyn.v_couplings, dyn.w_couplings))
    table = colpa.product_table
    # d<A_p A_q>/dt = (G P + P G^T)_pq vanishes for a Gibbs state
    resid = np.max(np.abs(gen @ table + (gen @ table.T).T))
    assert resid <= STATIONARY_RTOL * np.max(np.abs(table))


def test_colpa_state_reports_its_margins(both_states):
    _, colpa, _ = both_states
    meta = colpa.metadata
    assert meta["scheme"] == oracle.THERMAL_STATE_SCHEME
    assert (0.0 <= meta["symplectic_residual"]
            <= oracle.SYMPLECTIC_RESIDUAL_TOL)
    assert meta["min_normal_frequency"] == colpa.normal_frequencies[0] > 0.0


@pytest.fixture(scope="module", params=STATE_POINTS + [(0.5, 0.3)],
                ids=STATE_IDS + ["warm"])
def thermal_point(request):
    alpha, temperature = request.param
    dyn = _dynamics(alpha, OMEGA_S)
    return dyn, gqbm.thermal_total_state(dyn, temperature, OMEGA_S0)


@pytest.mark.parametrize("n_steps", [200, 1000])
def test_thermal_moments_match_the_dense_table(thermal_point, n_steps):
    dyn, state = thermal_point
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=n_steps, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    got = gqbm.thermal_moments(prop, state)
    ref = gqbm.exact_moments(prop, state.product_table).n_matrix()
    assert (np.max(np.abs(got.n_matrix() - ref))
            <= THERMAL_READER_RTOL * np.max(np.abs(ref)))


def test_row_march_is_the_row_half_of_the_two_marches():
    dyn = _dynamics(0.5, OMEGA_S, modes=80)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=40, max_frequency=1.0)
    prop = _rk4_propagate(dyn, grid)
    cols, rows = _two_march_propagate(dyn, grid,
                                      prop.metadata["substeps_per_step"],
                                      prop.metadata["substep"])
    assert np.array_equal(prop.sys_rows, rows)
    assert np.max(np.abs(prop.u_series - cols[:, :2, :])) <= 1e-15
    assert "row march" in prop.metadata["scheme"]


@pytest.mark.parametrize("march", ["rk4", "csr"])
def test_reference_a_dag_row_is_the_conjugate_swap_of_its_a_row(march):
    # the references march both system columns of S^T independently; the
    # library marches the a column alone and rebuilds the a^dag row from it
    dyn = _dynamics(0.5, OMEGA_S, modes=80)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=40, max_frequency=1.0)
    propagate = {"rk4": _rk4_propagate, "csr": _csr_chebyshev_propagate}
    rows = propagate[march](dyn, grid).sys_rows
    assert (np.max(np.abs(rows[:, 1] - dagger_rows(rows[:, 0])))
            <= DAGGER_ROW_RTOL * np.max(np.abs(rows)))


def test_chebyshev_rows_match_the_rk4_march_on_the_oracle_point():
    # the oracle benchmark point: 400 gauss modes on omega <= 20 at alpha 0.5
    # and the marginal default omega_s, t_end = 3 in 300 steps
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, 400, 20.0, scheme="gauss")
    dyn = gqbm.build_dynamics(bath, gqbm.default_omega_s(model))
    grid = gqbm.TimeGrid(t_end=3.0, n_steps=300, max_frequency=1.0)
    ref = _rk4_propagate(dyn, grid).sys_rows
    rows = stored_rows(gqbm.propagate(dyn, grid))
    assert (np.max(np.abs(rows - ref))
            <= RK4_AGREEMENT_RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("modes, omega_max, omega_s, t_end, n_steps", [
    (400, 20.0, None, 3.0, 300), (MODES, OMEGA_MAX, OMEGA_S, 2.0, 200),
    (20, 20.0, 0.7, 8.0, 16)], ids=["oracle-point", "quench-point",
                                     "one-step-windows"])
def test_arrowhead_march_matches_the_csr_march(modes, omega_max, omega_s,
                                               t_end, n_steps):
    model = make_model(0.5)
    bath = gqbm.discretize_bath(model, modes, omega_max, scheme="gauss")
    dyn = gqbm.build_dynamics(
        bath, gqbm.default_omega_s(model) if omega_s is None else omega_s)
    grid = gqbm.TimeGrid(t_end=t_end, n_steps=n_steps,
                         max_frequency=0.25 * n_steps / t_end)
    ref = _csr_chebyshev_propagate(dyn, grid)
    prop = gqbm.propagate(dyn, grid)
    if n_steps == 16:
        assert prop.metadata["window"] == 1
    for key in ("degree", "window"):
        assert prop.metadata[key] == ref.metadata[key]
    assert prop.metadata["norm_bound"] == pytest.approx(
        ref.metadata["norm_bound"], rel=1e-15)
    assert (np.max(np.abs(stored_rows(prop) - ref.sys_rows))
            <= CSR_AGREEMENT_RTOL * np.max(np.abs(ref.sys_rows)))


def _runaway():
    # the runaway case of test_oracle.py: eigenvalues +-2, |S| passes the
    # instability bound mid-grid, well inside a Chebyshev window
    return gqbm.LinearDynamics(omega_s=0.0, frequencies=np.array([0.0]),
                               v_couplings=np.array([0.0]),
                               w_couplings=np.array([2.0]))


def _nan_coupling():
    dyn = _runaway()
    dyn.v_couplings[0] = np.nan  # set after construction, which rejects it
    return dyn


def _beam_splitter():
    # the runaway's norm bound R = 2 from exchange alone: stable, so its
    # march runs to the end and reports the window of (R, dt)
    return gqbm.LinearDynamics(omega_s=0.0, frequencies=np.array([0.0]),
                               v_couplings=np.array([2.0]),
                               w_couplings=np.array([0.0]))


# the runaway passes the bound near t = 7.2; on the coarse grids that step
# is the last of a Chebyshev window, or the first of the next
@pytest.mark.parametrize("make, t_end, n_steps, max_frequency, where", [
    pytest.param(_runaway, 10.0, 100, 2.0, "inside", id="runaway"),
    pytest.param(_nan_coupling, 10.0, 100, 2.0, None, id="nan-coupling"),
    pytest.param(_runaway, 10.0, 16, 0.25, "last", id="runaway-16-last"),
    pytest.param(_runaway, 9.0, 19, 0.25, "last", id="runaway-19-last"),
    pytest.param(_runaway, 10.0, 17, 0.25, "first", id="runaway-17-first"),
    pytest.param(_runaway, 9.0, 20, 0.25, "first", id="runaway-20-first"),
])
def test_instability_trips_at_the_rk4_step_with_its_message(
        make, t_end, n_steps, max_frequency, where):
    grid = gqbm.TimeGrid(t_end=t_end, n_steps=n_steps,
                         max_frequency=max_frequency)
    with pytest.raises(InstabilityError) as ref:
        _rk4_propagate(make(), grid)
    with pytest.raises(InstabilityError) as cheb:
        gqbm.propagate(make(), grid).u_series
    assert str(cheb.value) == str(ref.value)
    if where is not None:
        twin = gqbm.propagate(_beam_splitter(), grid).metadata
        assert twin["norm_bound"] == oracle._chebyshev_operator(make())[0]
        window = twin["window"]
        step = int(re.search(r"at step (\d+) ", str(cheb.value)).group(1))
        assert 1 < window < step
        assert {0: "last", 1: "first"}.get(step % window, "inside") == where


# 40 gauss modes at the quench point, out to n + 1 = b - 1, b, b + 1 and
# 2b + 3 output steps for the reader's block of b steps
READER_MODES = 40
BLOCK = oracle._MOMENT_BLOCK


@pytest.fixture(scope="module")
def reader_point():
    model = make_model(0.5, temperature=0.3)
    bath = gqbm.discretize_bath(model, READER_MODES, OMEGA_MAX,
                                scheme="gauss")
    dyn = gqbm.build_dynamics(bath, OMEGA_S)
    return bath, dyn, gqbm.thermal_total_state(dyn, 0.01, OMEGA_S0)


@pytest.mark.parametrize("n_times", [BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK + 3])
def test_block_reader_matches_the_loop(reader_point, n_times):
    bath, dyn, state = reader_point
    table = state.product_table
    grid = gqbm.TimeGrid(t_end=0.02 * (n_times - 1), n_steps=n_times - 1,
                         max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    init = GaussianMoments(mean_a=0.4 - 0.2j, delta_n=0.3,
                           delta_s=0.1 + 0.2j)
    pairs = [(gqbm.reduced_moments(prop, bath, init),
              _loop_reduced_moments(prop, bath, init)),
             (gqbm.exact_moments(prop, table),
              _loop_exact_moments(prop, table))]
    for got, want in pairs:
        assert got.times.size == n_times
        for name in ("delta_n", "delta_s", "delta_h"):
            ref = getattr(want, name)
            dev = np.max(np.abs(getattr(got, name) - ref))
            assert dev <= LOOP_READER_RTOL * np.max(np.abs(ref)), name
        assert np.max(np.abs(got.delta_s)) > 0.0
        # the drift is a max of |delta_h - delta_n - 1|, so it moves by at
        # most the two series' deviations, each within the bound above
        assert (abs(got.max_commutator_drift - want.max_commutator_drift)
                <= 2.0 * LOOP_READER_RTOL * np.max(np.abs(want.delta_h)))
    # the transform reader sums other products: its bound is the dense
    # route's, relative to max|N|
    got, want = gqbm.thermal_moments(prop, state), pairs[1][1]
    assert got.times.size == n_times
    ref = want.n_matrix()
    assert (np.max(np.abs(got.n_matrix() - ref))
            <= THERMAL_READER_RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("init", [
    pytest.param(GaussianMoments(), id="vacuum"),
    pytest.param(GaussianMoments(mean_a=0.4 - 0.2j, delta_n=0.3,
                                 delta_s=0.1 + 0.2j), id="squeezed"),
])
def test_reduced_moments_matches_the_squeezed_bath_rule(init):
    # the bench oracle point's bath (alpha = 0.5, gauss modes on omega <= 20),
    # at 120 modes and a bath temperature that fills every occupation
    bath = gqbm.discretize_bath(make_model(0.5, temperature=0.3), 120, 20.0,
                                scheme="gauss")
    grid = gqbm.TimeGrid(t_end=3.0, n_steps=300, max_frequency=1.0)
    prop = gqbm.propagate(gqbm.build_dynamics(bath, OMEGA_S), grid)
    got = gqbm.reduced_moments(prop, bath, init)
    want = _squeezed_bath_reduced_moments(prop, bath, init)
    for name in ("delta_n", "delta_s", "delta_h"):
        ref = getattr(want, name)
        if init.delta_s == 0.0:
            assert getattr(got, name).tobytes() == ref.tobytes(), name
        else:
            dev = np.max(np.abs(getattr(got, name) - ref))
            assert dev <= SQUEEZED_RULE_RTOL * np.max(np.abs(ref)), name


@pytest.mark.parametrize("init", [
    pytest.param(GaussianMoments(), id="vacuum"),
    pytest.param(GaussianMoments(delta_n=0.3, delta_s=0.1 + 0.2j),
                 id="squeezed"),
])
def test_squeezed_product_bath_is_read_through_exact_moments(reader_point,
                                                             init):
    # a bath with per-mode squeezes has no field of its own: its product
    # table, one [[s, 1 + n], [n, s*]] block per pair, goes to exact_moments,
    # which must give the moments of the rule that read those squeezes
    bath, dyn, _ = reader_point
    rng = np.random.default_rng(11)
    squeezes = 0.1 * np.sqrt(bath.occupations * (1.0 + bath.occupations)) \
        * np.exp(2j * math.pi * rng.uniform(size=bath.n_modes))
    occ = np.concatenate([[init.delta_n], bath.occupations])
    sqz = np.concatenate([[init.delta_s], squeezes])
    dim = 2 * occ.size
    table = np.zeros((dim, dim), dtype=complex)
    pairs = np.arange(0, dim, 2)
    table[pairs, pairs] = sqz
    table[pairs, pairs + 1] = 1.0 + occ
    table[pairs + 1, pairs] = occ
    table[pairs + 1, pairs + 1] = np.conj(sqz)
    n_times = 2 * BLOCK + 3
    grid = gqbm.TimeGrid(t_end=0.02 * (n_times - 1), n_steps=n_times - 1,
                         max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    got = gqbm.exact_moments(prop, table)
    want = _squeezed_bath_reduced_moments(prop, bath, init, squeezes)
    for name in ("delta_n", "delta_s", "delta_h"):
        ref = getattr(want, name)
        dev = np.max(np.abs(getattr(got, name) - ref))
        assert dev <= LOOP_READER_RTOL * np.max(np.abs(ref)), name
    assert np.max(np.abs(got.delta_s)) > 0.0
