"""Shared fixtures: the standard weak-damping low-T operating point.

Most tests probe gamma0 = 3e-4, cutoff = 1, T = 0.01 (the jolt-study
parameter set) at the critical system frequency omega_s = sqrt(2 gamma0 / pi).
The n = 2000 grid solves are expensive enough to share; fixtures are
session-scoped and treated as read-only by every consumer.
"""

import importlib.util
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

import gqbm

GAMMA0 = 3e-4
CUTOFF = 1.0
TEMPERATURE = 0.01

# the scheme id of each stage an ohmic pipeline can run: the constant beside
# its solver
SCHEMES = {
    "thermal_state": gqbm.oracle.THERMAL_STATE_SCHEME,
    "oracle": gqbm.oracle.PROPAGATE_SCHEME,
    "transforms": gqbm.spectral.OHMIC_TRANSFORM_SCHEME,
    "u_solver": gqbm.greens.U_SOLVER_SCHEME,
    "v_solver": gqbm.greens.V_SOLVER_SCHEME,
    "v_crosscheck": gqbm.greens.V_CROSSCHECK_SCHEME,
    "moments": gqbm.moments.MOMENT_MARCH_SCHEME,
}


def make_model(alpha, temperature=TEMPERATURE, gamma0=GAMMA0, cutoff=CUTOFF):
    return gqbm.SpectralModel(family="ohmic", gamma0=gamma0, cutoff=cutoff,
                              alpha=alpha, temperature=temperature)


def tabulated_model(temperature=TEMPERATURE, seed=1):
    """The bench tabulated model: perfbench.workloads.tabulated_table(seed,
    300), seed 1 in the benchmark."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tab_omega, tab_j = module.tabulated_table(seed, 300)
    return gqbm.SpectralModel(family="tabulated", gamma0=GAMMA0, cutoff=CUTOFF,
                              alpha=0.5, temperature=temperature,
                              tab_omega=tab_omega, tab_j=tab_j)


@pytest.fixture(scope="session")
def omega_s():
    return gqbm.default_omega_s(make_model(1.0))


@pytest.fixture(scope="session")
def grid10():
    return gqbm.TimeGrid(t_end=10.0, n_steps=2000, max_frequency=CUTOFF)


def _solve_pack(alpha, grid, ws):
    """(model, kernel, solution-with-equal-time-V) at the standard point."""
    model = make_model(alpha)
    kernel = gqbm.build_kernels(model)
    sol = gqbm.solve_u(kernel, ws, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    return model, kernel, sol


@pytest.fixture(scope="session")
def pack_alpha0(grid10, omega_s):
    return _solve_pack(0.0, grid10, omega_s)


@pytest.fixture(scope="session")
def pack_alpha05(grid10, omega_s):
    return _solve_pack(0.5, grid10, omega_s)


@pytest.fixture(scope="session")
def pack_alpha1(grid10, omega_s):
    return _solve_pack(1.0, grid10, omega_s)


def coeffs_of(pack):
    _, kernel, sol = pack
    return gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))


@pytest.fixture(scope="session")
def coeffs_alpha0(pack_alpha0):
    return coeffs_of(pack_alpha0)


@pytest.fixture(scope="session")
def coeffs_alpha05(pack_alpha05):
    return coeffs_of(pack_alpha05)


@pytest.fixture(scope="session")
def coeffs_alpha1(pack_alpha1):
    return coeffs_of(pack_alpha1)


def _no_transform(dt):
    raise AssertionError("a synthetic kernel has no scalar transforms")


def kernel_with(g, gtilde):
    """A Kernel whose G and Gt are the callables g and gtilde.

    They override the methods on this instance only; its scalar transforms
    raise if anything reads them.
    """
    kernel = gqbm.Kernel(_no_transform, _no_transform, alpha=0.0,
                         temperature=TEMPERATURE, cutoff=CUTOFF)
    kernel.g, kernel.gtilde = g, gtilde
    return kernel


def dense_h(dyn):
    """The real symmetric H of an oracle model, filled from its arrowhead."""
    diag, coupling = dyn.arrowhead()
    h = np.diag(diag)
    h[:2, 2:] = coupling
    h[2:, :2] = coupling.T
    return h


def dense_generator(dyn):
    """Dense generator G with dA/dt = G A (G = -i sigma H), for small N."""
    return -1j * dyn.sigma()[:, None] * dense_h(dyn)


def runaway_bath():
    """One bath mode at zero frequency with W = 2 V = 2 (alpha = 2): near
    omega_s = 0 its quadratures grow as exp(sqrt(3) t), so the oracle's |S|
    passes the instability bound at t = 8.3."""
    with pytest.warns(RuntimeWarning, match="covers only"):
        bath = gqbm.discretize_bath(make_model(0.5), 1, 2.0)
    return replace(bath, frequencies=np.zeros(1), v_couplings=np.ones(1),
                   alpha=2.0)


def dagger_rows(a_rows):
    """The a^dag rows of S from its a rows, on the last axis: a^dag(t) =
    a(t)^dag, so each entry is the conjugate of its pair partner's (b_k and
    b_k^dag, a and a^dag)."""
    return np.conj(a_rows[..., np.arange(a_rows.shape[-1]) ^ 1])


def stored_rows(prop):
    """Every step's system rows S(t_m)[:2, :], (n + 1, 2, dim): the a rows
    prop.blocks() yields, joined, each with its a^dag row rebuilt by
    dagger_rows (a BogoliubovPropagator marches for them)."""
    a_rows = np.concatenate(list(prop.blocks()))
    return np.stack([a_rows, dagger_rows(a_rows)], axis=1)


@dataclass
class StoredPropagator:
    """A propagator whose system rows are a stored array, (n + 1, 2, dim):
    the oracle's readers take it as they take a BogoliubovPropagator, and
    blocks() yields its a rows _MOMENT_BLOCK steps at a time."""

    grid: gqbm.TimeGrid
    dim: int
    sys_rows: np.ndarray
    recurrence_horizon: float = math.inf
    metadata: dict = field(default_factory=dict)

    @property
    def u_series(self):
        return self.sys_rows[:, :, :2]

    def blocks(self):
        block = gqbm.oracle._MOMENT_BLOCK
        for lo in range(0, self.sys_rows.shape[0], block):
            yield self.sys_rows[lo:lo + block, 0]


def max_abs(x) -> float:
    return float(np.max(np.abs(x)))
