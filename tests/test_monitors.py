"""Every quality monitor trips on NaN, not only on large values."""

import re
import warnings

import numpy as np
import pytest

import gqbm
from gqbm.coeffs import CoefficientSeries, HpzCoefficients, _invert_2x2
from gqbm.errors import (
    InstabilityError,
    NumericalQualityError,
    ValidationError,
    guard,
)
from gqbm.greens import INSTABILITY_MAX_ABS, _check_finite
from gqbm.moments import COMMUTATOR_DRIFT_TOL, _march_block
from gqbm.oracle import _require_commutator
from gqbm.spectral import _BoseSumTransform, _LinearTableTransform

from test_convolutions import RTOL
from test_moments import loop_states, recording_march, run_march

GRID = gqbm.TimeGrid(t_end=2.0, n_steps=20, max_frequency=1.0)


def _coeffs_with_nan_gamma(at=7):
    n = GRID.n_steps + 1
    gamma = np.zeros(n)
    gamma[at] = np.nan
    return CoefficientSeries(
        times=GRID.times, omega_s=0.5, omega_s_prime=np.full(n, 0.5),
        omega_bar_prime=np.zeros(n, dtype=complex), gamma=gamma,
        gamma_tilde=np.zeros(n), gamma_bar=np.zeros(n, dtype=complex),
        omega_r=np.full(n, 0.5, dtype=complex),
        radicand_negative=np.zeros(n, dtype=bool))


def _hpz_with_nan_damping(at=7):
    n = GRID.n_steps + 1
    damping = np.zeros(n)
    damping[at] = np.nan
    zeros = np.zeros(n)
    return HpzCoefficients(
        times=GRID.times, delta_omega_sq=zeros, gamma_damping=damping,
        gamma_h=zeros, gamma_f=zeros, omega_p_sq=np.full(n, 0.25),
        residual_freq=zeros, residual_damping=zeros,
        residual_diffusion=zeros)


def _propagate_nan_coupling():
    dyn = gqbm.LinearDynamics(omega_s=0.5, frequencies=np.array([0.4, 0.9]),
                              v_couplings=np.array([0.1, 0.2]),
                              w_couplings=np.array([0.05, 0.05]))
    # construction rejects NaN, so it enters afterwards, as a corrupted
    # array would, to reach the march's own monitor
    dyn.v_couplings[1] = np.nan
    gqbm.propagate(dyn, GRID)


def _nan_u():
    u = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    u[2, 0, 1] = np.nan
    return u


def _bose_sum_of_a_nan_weight():
    g_v = _LinearTableTransform(np.array([0.0, 1.0, 2.0]),
                                np.array([0.0, 1.0, 0.0]))
    # g_v's own construction rejects NaN, so it enters afterwards, by
    # mutation, to reach the thermal sum's roundoff guard
    g_v.weights[1] = np.nan
    _BoseSumTransform(g_v, 0.3)


def _require_physical_nan():
    moments = gqbm.GaussianMoments(delta_n=0.1)
    # construction rejects NaN, so it enters afterwards, by mutation
    moments.delta_n = np.nan
    moments.require_physical()


# each monitor as a call that feeds it a NaN, with its class and its label:
# the label pins the raise site where two monitors share a class
CASES = {
    "evolve_means": (lambda: gqbm.evolve_means(
        _coeffs_with_nan_gamma(), gqbm.GaussianMoments(mean_a=1.0), GRID),
        NumericalQualityError, "mean conjugacy deviation (relative)"),
    "evolve_covariances": (lambda: gqbm.evolve_covariances(
        _coeffs_with_nan_gamma(), gqbm.GaussianMoments(delta_n=0.1), GRID),
        NumericalQualityError, "commutator drift"),
    "evolve_hpz_covariances": (lambda: gqbm.evolve_hpz_covariances(
        _hpz_with_nan_damping(), gqbm.QuadratureCovariances(1.0, 1.0, 0.0),
        GRID, omega_s=0.5), NumericalQualityError,
        "largest quadrature covariance"),
    "oracle_commutator": (lambda: _require_commutator(
        np.array([0.0, np.nan]), np.array([1.0, 1.0]), np.array([0.0, 1.0])),
        NumericalQualityError, "commutator drift"),
    "propagate": (_propagate_nan_coupling, InstabilityError, "|S|"),
    "invert_2x2": (lambda: _invert_2x2(_nan_u(), np.arange(4.0)),
                   InstabilityError, "propagator condition estimate"),
    "bose_sum_roundoff": (_bose_sum_of_a_nan_weight, NumericalQualityError,
                          "a-priori roundoff of the tabulated gtilde_v's "
                          "Bose sum"),
    "require_physical": (_require_physical_nan, ValidationError,
                         "violation of the uncertainty bound"),
    "knot_sum": (lambda: _LinearTableTransform(
        np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 1.0])),
        NumericalQualityError,
        "a-priori roundoff of the tabulated g_v's knot sum"),
}


@pytest.mark.parametrize("singular, reads", [(np.zeros((2, 2)), "nan"),
                                             (np.ones((2, 2)), "inf")])
def test_singular_propagator_trips_the_condition_guard_at_its_step(
        singular, reads):
    # det = 0 reads an infinite estimate, and U = 0 the NaN of 0 / 0; either
    # trips at its own step, with no warning from the division
    u = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    u[2] = singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="propagator condition "
                           f"estimate reached {reads} at t = 2 against"):
            _invert_2x2(u, np.arange(4.0))


@pytest.mark.parametrize("name", sorted(CASES))
def test_monitor_trips_on_nan(name):
    call, error, label = CASES[name]
    with pytest.raises(error, match=re.escape(label) + " reached nan"):
        call()


# a NaN coefficient at t_at, with a mean, an occupation or a covariance to
# carry it, for each moment march
MARCH_STARTS = {
    "evolve_means": (_coeffs_with_nan_gamma, gqbm.GaussianMoments(mean_a=1.0)),
    "evolve_covariances": (_coeffs_with_nan_gamma,
                           gqbm.GaussianMoments(delta_n=0.1)),
    "evolve_hpz_covariances": (_hpz_with_nan_damping,
                               gqbm.QuadratureCovariances(1.0, 1.0, 0.0)),
}
BLOCK = _march_block(GRID.n_steps)


# the coefficient at t_at enters the half-step coefficients of the step from
# t_{at-1} to t_at, so the state at t_at is the first non-finite one (for the
# quadrature march, var_p and cov_xp; var_x follows a step later).  That
# step lies inside a block, is the last step of a block, or is the first
# step of a block; either way no earlier state may see the NaN
@pytest.mark.parametrize("name, at", [
    pytest.param(name, at, id=name + edge) for name in sorted(MARCH_STARTS)
    for at, edge in ((2 * BLOCK - 1, ""), (2 * BLOCK, "-block-end"),
                     (2 * BLOCK + 1, "-block-start"))])
def test_moment_monitors_name_the_first_non_finite_time(name, at, monkeypatch):
    make, init = MARCH_STARTS[name]
    coeffs = make(at)
    seen = recording_march(monkeypatch)
    with pytest.raises(NumericalQualityError) as err:
        run_march(name, coeffs, init, GRID, omega_s=0.5)
    ref = loop_states(name, coeffs, init, GRID, omega_s=0.5)
    first = int(np.argmax(~np.all(np.isfinite(ref), axis=1)))
    assert first == at
    assert re.search(r"at t = (\S+)", str(err.value)).group(1) == (
        f"{GRID.times[first]:.6g}")
    assert np.all(np.isfinite(seen[0][:first]))
    assert np.max(np.abs(seen[0][:first] - ref[:first])) <= (
        RTOL * np.max(np.abs(ref[:first])))


def test_commutator_rule_names_the_first_time_past_the_bound():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    delta_n = np.array([0.0, 1e-3, 0.0, 1.0])  # the later drift is larger
    with pytest.raises(NumericalQualityError, match="at t = 0.5 "):
        _require_commutator(delta_n, np.ones(4), times)
    assert _require_commutator(np.zeros(4), np.ones(4), times) == 0.0


# each series guard as a call on a nonnegative series x over TIMES, which
# its monitor checks against bound; check_finite's block starts at step 5
TIMES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
SERIES_GUARDS = {
    "check_finite": (lambda x: _check_finite(
        x[:, None, None] * np.ones((2, 2)), 5, TIMES, "U"),
        INSTABILITY_MAX_ABS, InstabilityError, 5),
    "require_commutator": (lambda x: _require_commutator(
        np.zeros_like(x), 1.0 + x, TIMES),
        COMMUTATOR_DRIFT_TOL, NumericalQualityError, None),
    "guard": (lambda x: guard(x, 1.0, InstabilityError, "x", TIMES),
              1.0, InstabilityError, None),
}


@pytest.mark.parametrize("name", sorted(SERIES_GUARDS))
@pytest.mark.parametrize("fail", [np.nan, np.inf, 2.0])
def test_series_guard_returns_the_worst_or_names_the_first_failure(name,
                                                                    fail):
    call, bound, error, first = SERIES_GUARDS[name]
    passing = bound * np.array([0.1, 0.5, 0.9, 0.3, 0.0])
    assert call(passing) == pytest.approx(0.9 * bound, rel=1e-9)
    failing = passing.copy()
    failing[2] = fail * bound
    failing[3] = 3.0 * bound  # a later, larger failure is not the one named
    with pytest.raises(error) as err:
        call(failing)
    message = str(err.value)
    assert f" at t = {TIMES[2]:.6g} " in message
    if first is not None:
        assert f" at step {first + 2} " in message
