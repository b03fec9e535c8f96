"""The Colpa thermal state and the fused march against the routes they replaced.

The two functions below are the earlier implementations, kept verbatim as
the reference: the thermal state from a non-Hermitian eigensolve of
sigma M with symplectic normalisation, and the propagation that marched the
columns of S with G and the columns of S^T with G^T separately.  The Colpa
route reaches the same state through other arithmetic, so it must agree to
roundoff amplified by the eigenproblem's conditioning (1e-8 of the largest
table entry; normal-mode frequencies to 1e-12 of the largest).  The fused
march does the same arithmetic row by row, so its arrays must be equal.
"""

import math

import numpy as np
import pytest

import gqbm
from gqbm.errors import (
    InstabilityError,
    NumericalQualityError,
    ValidationError,
)
from gqbm.greens import (
    InitialCorrelations,
    _check_finite,
    require_finite_frequency,
)
from gqbm.moments import GaussianMoments
from gqbm.oracle import ThermalTotalState, _rk4_march
from gqbm.spectral import n_bar

from conftest import make_model

TABLE_RTOL = 1e-8
FREQ_RTOL = 1e-12
STATIONARY_RTOL = 1e-12

# the quench benchmark point: 300 gauss modes on omega <= 12, prepared at
# omega_s0 = 0.6 and evolved at omega_s = 0.3
MODES, OMEGA_MAX, OMEGA_S0, OMEGA_S = 300, 12.0, 0.6, 0.3


def _eig_thermal_total_state(dyn, temperature, omega_s0):
    if temperature < 0.0 or not math.isfinite(temperature):
        raise ValidationError("temperature must be >= 0")
    require_finite_frequency("omega_s0", omega_s0)
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
    return ThermalTotalState(
        system=system,
        correlations=InitialCorrelations(n_prime=n_prime, s_prime=s_prime),
        bath_occupations=bath_occ,
        bath_squeezes=bath_sqz,
        normal_frequencies=np.sort(eps),
        product_table=table,
    )


def _two_march_propagate(dyn, grid, n_sub, h):
    n = grid.n_steps
    dt = grid.dt

    gen = dyn.generator()
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
        _check_finite(cols, m, m * dt, "S")
        _check_finite(rows_t, m, m * dt, "S")
        sys_cols[m] = cols
        sys_rows[m] = rows_t.T
    return sys_cols, sys_rows


def _dynamics(alpha, omega_s, modes=MODES):
    bath = gqbm.discretize_bath(make_model(alpha), modes, OMEGA_MAX,
                                scheme="gauss")
    return gqbm.build_dynamics(bath, omega_s)


@pytest.fixture(scope="module", params=[(0.5, 0.01), (0.5, 0.0), (0.0, 0.01)],
                ids=["quench-point", "zero-temperature", "no-pairing"])
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


def test_colpa_state_is_stationary_under_its_hamiltonian(both_states):
    dyn, colpa, _ = both_states
    gen = gqbm.LinearDynamics(OMEGA_S0, dyn.frequencies, dyn.v_couplings,
                              dyn.w_couplings).generator()
    table = colpa.product_table
    # d<A_p A_q>/dt = (G P + P G^T)_pq vanishes for a Gibbs state
    resid = np.max(np.abs(gen @ table + (gen @ table.T).T))
    assert resid <= STATIONARY_RTOL * np.max(np.abs(table))


def test_colpa_state_reports_its_margins(both_states):
    _, colpa, _ = both_states
    meta = colpa.metadata
    assert meta["scheme"] == "colpa-cholesky"
    assert 0.0 <= meta["symplectic_residual"] <= 1e-8
    assert meta["min_normal_frequency"] == colpa.normal_frequencies[0] > 0.0


def test_fused_march_is_the_two_marches_bitwise():
    dyn = _dynamics(0.5, OMEGA_S, modes=80)
    grid = gqbm.TimeGrid(t_end=2.0, n_steps=40, max_frequency=1.0)
    prop = gqbm.propagate(dyn, grid)
    cols, rows = _two_march_propagate(dyn, grid,
                                      prop.metadata["substeps_per_step"],
                                      prop.metadata["substep"])
    assert np.array_equal(prop.sys_cols, cols)
    assert np.array_equal(prop.sys_rows, rows)
    assert "fused" in prop.metadata["scheme"]
