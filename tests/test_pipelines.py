"""The library pipelines against the same chains built by hand.

Each pipeline function runs at a small point of tests/test_cli.py and must
return exactly (np.array_equal) the arrays of a chain written out here from
the layer functions, so a pipeline adds no arithmetic of its own.
"""

from dataclasses import replace

import numpy as np
import pytest

import gqbm
import gqbm.pipelines as pipelines
from gqbm.errors import InstabilityError, ValidationError

from conftest import SCHEMES, make_model, runaway_bath


def _grid(omega_s, t_end=2.0, n_steps=200):
    return gqbm.TimeGrid(t_end=t_end, n_steps=n_steps,
                         max_frequency=max(abs(omega_s), 1.0))


def _by_hand(kernel, omega_s, grid):
    sol = gqbm.solve_u(kernel, omega_s, grid)
    sol.v_equal_time = gqbm.solve_v_fdt(kernel, sol.u, grid)
    return sol


def _assert_same_series(got, want, names):
    for name in names:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


COEFF_FIELDS = ("gamma", "gamma_tilde", "gamma_bar", "omega_s_prime",
                "omega_bar_prime")


def _assert_stages(res, names):
    """res.stages names exactly these stages, in run order, each with the
    scheme constant beside its solver."""
    assert list(res.stages.items()) == [(n, SCHEMES[n]) for n in names]


def test_coefficient_run_is_the_hand_built_chain():
    model = make_model(1.0)
    omega_s = gqbm.default_omega_s(model)
    grid = _grid(omega_s)
    res = pipelines.coefficient_run(model, omega_s, grid, crosscheck=True)

    kernel = gqbm.build_kernels(model)
    sol = _by_hand(kernel, omega_s, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    hpz = gqbm.hpz_reduce(me, omega_s)
    v_diag, sol.v_two_time = gqbm.solve_v_volterra(kernel, sol,
                                                   return_two_time=True)
    check = gqbm.coeff_integral_crosscheck(kernel, sol)

    _assert_same_series(res.outputs["sol"], sol, ("u", "u_dot", "v_equal_time",
                                                  "v_two_time"))
    _assert_same_series(res.outputs["me"], me, COEFF_FIELDS)
    _assert_same_series(res.outputs["hpz"], hpz,
                        ("delta_omega_sq", "gamma_h", "residual_diffusion"))
    assert res.summaries == {
        "omega_s": omega_s,
        "gamma_final": float(me.gamma[-1]),
        "structure_residual": me.structure_residual,
        "coeff_integral_max_deviation": check["max_deviation"],
        "v_route_max_deviation": float(
            np.max(np.abs(v_diag - sol.v_equal_time))),
    }
    _assert_stages(res, ["transforms", "u_solver", "v_solver", "v_crosscheck"])


def test_coefficient_run_can_stop_after_u_and_v():
    model = make_model(0.5)
    omega_s = gqbm.default_omega_s(model)
    res = pipelines.coefficient_run(model, omega_s, _grid(omega_s),
                                    coefficients=False)
    assert set(res.outputs) == {"kernel", "sol"}
    assert res.summaries == {"omega_s": omega_s}
    _assert_stages(res, ["transforms", "u_solver", "v_solver"])


def test_jolt_study_is_the_hand_built_chain():
    model = make_model(0.5)
    omega_s = gqbm.default_omega_s(model)
    grid = _grid(omega_s)
    res = pipelines.jolt_study(model, omega_s, grid)

    kernel = gqbm.build_kernels(model)
    sol = _by_hand(kernel, omega_s, grid)
    me = gqbm.compute_me_coeffs(gqbm.compute_k_lambda(sol, kernel))
    est = gqbm.jolt_estimate(kernel, sol)

    _assert_same_series(res.outputs["me"], me, COEFF_FIELDS)
    _assert_same_series(res.outputs["estimate"], est,
                        ("gamma_est", "gamma_tilde_est"))
    peak = float(np.max(np.abs(me.gamma_tilde)))
    assert res.summaries["peak_gamma_tilde"] == peak
    assert res.summaries["est_dev_gamma_tilde_frac"] == float(
        np.max(np.abs(est.gamma_tilde_est - me.gamma_tilde))) / peak
    assert set(res.summaries) == {"peak_gamma", "peak_gamma_tilde",
                                  "est_dev_gamma_frac",
                                  "est_dev_gamma_tilde_frac"}


def test_oracle_comparison_is_the_hand_built_chain():
    model = make_model(0.5)
    omega_s = gqbm.default_omega_s(model)
    grid = _grid(omega_s)
    bath = gqbm.discretize_bath(model, 60, 12.0, scheme="gauss")
    res = pipelines.oracle_comparison(model, bath, omega_s, grid)

    dyn = gqbm.build_dynamics(bath, omega_s)
    prop = gqbm.propagate(dyn, grid)
    sol = _by_hand(gqbm.build_kernels(model), omega_s, grid)
    vac = gqbm.GaussianMoments()
    orc = gqbm.reduced_moments(prop, bath, vac)
    v_oracle = orc.n_matrix() - np.einsum("tab,bc,tdc->tad", prop.u_series,
                                          vac.n_matrix(),
                                          np.conj(prop.u_series))
    u_dev = np.max(np.abs(sol.u - prop.u_series), axis=(1, 2))
    v_dev = np.max(np.abs(sol.v_equal_time - v_oracle), axis=(1, 2))

    assert np.array_equal(res.outputs["u_deviation"], u_dev)
    assert np.array_equal(res.outputs["v_deviation"], v_dev)
    assert res.summaries == {
        "omega_s": omega_s, "recurrence_horizon": dyn.recurrence_horizon,
        "max_u_deviation": float(np.max(u_dev)),
        "max_v_deviation": float(np.max(v_dev))}
    assert res.summaries["max_u_deviation"] < 1e-4
    _assert_stages(res, ["oracle", "transforms", "u_solver", "v_solver"])


def test_oracle_comparison_on_a_runaway_bath_raises_before_it_returns():
    # the continuum model's kernel route is stable; the exact bath's march,
    # which runs inside reduced_moments, trips at its step
    model = make_model(0.5)
    omega_s = gqbm.default_omega_s(model)
    grid = _grid(omega_s, t_end=10.0, n_steps=100)
    with pytest.raises(InstabilityError, match=r"\|S\| reached .* at step 83 "):
        pipelines.oracle_comparison(model, runaway_bath(), omega_s, grid)


def test_quench_comparison_is_the_hand_built_chain():
    model = make_model(0.5)
    grid = _grid(0.3, t_end=1.0, n_steps=40)
    bath = gqbm.discretize_bath(model, 40, 12.0, scheme="gauss")
    res = pipelines.quench_comparison(bath, 0.3, 0.6, grid)

    dyn = gqbm.build_dynamics(bath, 0.3)
    state = gqbm.thermal_total_state(dyn, model.temperature, 0.6)
    prop = gqbm.propagate(dyn, grid)
    kbath = replace(bath, occupations=state.bath_occupations)
    sol = _by_hand(gqbm.kernels_from_bath(kbath), 0.3, grid)
    dv = gqbm.correlated_correction(kbath, state.correlations, sol.u, grid)
    n_me = (np.einsum("tab,bc,tdc->tad", sol.u, state.system.n_matrix(),
                      np.conj(sol.u)) + sol.v_equal_time + dv)
    orc = gqbm.thermal_moments(prop, state)

    assert np.array_equal(res.outputs["n_me"], n_me)
    assert np.array_equal(res.outputs["correction"], dv)
    _assert_same_series(res.outputs["oracle"], orc,
                        ("delta_n", "delta_s", "delta_h"))
    assert res.summaries["max_moment_deviation"] == float(
        np.max(np.abs(n_me - orc.n_matrix())))
    assert res.summaries["max_moment_deviation"] < 1e-3
    assert res.summaries["correction_magnitude"] > 0.0
    assert res.summaries["symplectic_residual"] == state.metadata[
        "symplectic_residual"]
    _assert_stages(res, ["thermal_state", "oracle", "u_solver", "v_solver"])


def test_quench_comparison_never_builds_the_product_table():
    model = make_model(0.5)
    grid = _grid(0.3, t_end=1.0, n_steps=40)
    bath = gqbm.discretize_bath(model, 40, 12.0, scheme="gauss")
    state = pipelines.quench_comparison(bath, 0.3, 0.6, grid).outputs["state"]
    assert "product_table" not in state.__dict__
    assert state.product_table.shape == (82, 82)  # still there on demand
    assert "product_table" in state.__dict__


class _Propagated(Exception):
    pass


def test_horizon_is_rejected_before_propagation(monkeypatch):
    def propagate(*args, **kwargs):
        raise _Propagated("propagate ran past the recurrence horizon")

    monkeypatch.setattr(pipelines.oracle, "propagate", propagate)
    model = make_model(0.5)
    omega_s = gqbm.default_omega_s(model)
    grid = _grid(omega_s, t_end=20.0, n_steps=2000)
    bath = gqbm.discretize_bath(model, 60, 12.0)
    with pytest.raises(ValidationError, match="recurrence horizon"):
        pipelines.oracle_comparison(model, bath, omega_s, grid)
    with pytest.raises(ValidationError, match="recurrence horizon"):
        pipelines.quench_comparison(bath, omega_s, 0.6, grid)
    # the sentinel is live: inside the horizon the comparison reaches it
    with pytest.raises(_Propagated):
        pipelines.oracle_comparison(model, bath, omega_s, _grid(omega_s))
