"""Spectral densities, scalar transforms, kernel assembly, discretization."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid

import gqbm
from gqbm import spectral
from gqbm.errors import (
    ContractViolationError,
    QuadratureConvergenceError,
    ValidationError,
)
from gqbm.spectral import SIGMA_X

from conftest import GAMMA0, TEMPERATURE, make_model, tabulated_model

# ---- spectral density -------------------------------------------------------


def test_ohmic_density_vanishes_at_zero():
    model = make_model(1.0)
    assert gqbm.eval_spectral_density(model, 0.0) == 0.0


def test_ohmic_density_at_cutoff():
    model = make_model(1.0)
    expected = math.sqrt(math.pi * GAMMA0 / 2.0) * 1.0 * math.exp(-1.0)
    assert gqbm.eval_spectral_density(model, 1.0) == pytest.approx(
        expected, rel=1e-14)


def test_channel_ratios():
    model = make_model(0.5)
    om = np.linspace(0.1, 6.0, 40)
    jv = gqbm.eval_spectral_density(model, om, channel="v")
    jw = gqbm.eval_spectral_density(model, om, channel="w")
    jvw = gqbm.eval_spectral_density(model, om, channel="vw")
    np.testing.assert_allclose(jw / jv, 0.25, rtol=1e-14)
    np.testing.assert_allclose(jvw / jv, 0.5, rtol=1e-14)


def test_negative_omega_rejected():
    model = make_model(1.0)
    with pytest.raises(ValidationError):
        gqbm.eval_spectral_density(model, -0.1)


def test_unknown_channel_rejected():
    with pytest.raises(ValidationError):
        gqbm.eval_spectral_density(make_model(1.0), 1.0, channel="x")


def test_model_validation():
    with pytest.raises(ValidationError):
        make_model(alpha=1.5)
    with pytest.raises(ValidationError):
        make_model(alpha=1.0, gamma0=-1e-4)
    with pytest.raises(ValidationError):
        gqbm.SpectralModel(family="ohmic", cutoff=0.0)
    with pytest.raises(ValidationError):
        make_model(alpha=1.0, temperature=-0.1)
    with pytest.raises(ValidationError):
        gqbm.SpectralModel(family="lorentzian")


def test_tabulated_validation():
    om = np.linspace(0.0, 5.0, 50)
    with pytest.raises(ValidationError):
        gqbm.SpectralModel(family="tabulated")
    with pytest.raises(ValidationError):
        gqbm.SpectralModel(family="tabulated", tab_omega=om[::-1],
                           tab_j=np.ones(50))
    with pytest.raises(ValidationError):
        gqbm.SpectralModel(family="tabulated", tab_omega=om,
                           tab_j=-np.ones(50))
    with pytest.raises(ValidationError, match="matching"):
        gqbm.SpectralModel(family="tabulated", tab_omega=om,
                           tab_j=np.ones(49))
    # J_V(0) > 0 at omega = 0: J_V nbar ~ J_V(0) T / omega, so at T > 0 the
    # thermal transform diverges; T = 0 and a bath (no omega = 0 mode) stand
    flat = gqbm.SpectralModel(family="tabulated", temperature=0.1,
                              tab_omega=om, tab_j=np.ones(50))
    with pytest.raises(ValidationError, match="diverge"):
        gqbm.build_kernels(flat)
    gqbm.build_kernels(replace(flat, temperature=0.0))
    gqbm.discretize_bath(flat, 10, 5.0)


def test_default_omega_s_value():
    model = make_model(1.0)
    assert gqbm.default_omega_s(model) == pytest.approx(
        math.sqrt(2.0 * GAMMA0 / math.pi), rel=1e-15)
    tab = gqbm.SpectralModel(family="tabulated", temperature=0.0,
                             tab_omega=np.array([0.0, 1.0]),
                             tab_j=np.array([0.0, 1.0]))
    with pytest.raises(ContractViolationError):
        gqbm.default_omega_s(tab)


# ---- scalar transform g_v ---------------------------------------------------


def eval_g_v(model, dt):
    """g_v(dt) = int J_V(w) exp(-i w dt) dw / (2 pi) of the continuum model."""
    return gqbm.build_kernels(model).g_v(dt)


def test_g_v_closed_form_at_zero():
    # sqrt(gamma0 / (8 pi)) with cutoff = 1
    val = eval_g_v(make_model(1.0), 0.0)
    assert complex(val) == pytest.approx(3.454941494713355e-3, rel=1e-15)


def test_g_v_closed_form_at_one():
    # (1 + i t)^-2 at t = 1 is -i/2, so g_v(1) is purely imaginary
    val = complex(eval_g_v(make_model(1.0), 1.0))
    assert val == pytest.approx(-1.7274707473566775e-3j, rel=1e-15, abs=0)


def test_g_v_against_adaptive_quadrature():
    # independent route: adaptive quadrature of J_V(w) e^{-iwt} / 2pi
    model = make_model(1.0)
    for dt in (1.0, 0.3, 4.0):
        re = quad(lambda w: math.sqrt(math.pi * GAMMA0 / 2.0) * w
                  * math.exp(-w) * math.cos(w * dt) / (2 * math.pi),
                  0.0, np.inf, limit=200)[0]
        im = quad(lambda w: -math.sqrt(math.pi * GAMMA0 / 2.0) * w
                  * math.exp(-w) * math.sin(w * dt) / (2 * math.pi),
                  0.0, np.inf, limit=200)[0]
        ref = re + 1j * im
        val = complex(eval_g_v(model, dt))
        assert abs(val - ref) / abs(ref) < 1e-8


def test_g_v_long_time_decay():
    model = make_model(1.0)
    t = np.array([10.0, 20.0, 40.0, 80.0])
    mags = np.abs(eval_g_v(model, t))
    # 1/t^2 asymptotics: magnitude * t^2 approaches a constant
    plateau = mags * t**2
    assert np.all(np.abs(plateau / plateau[-1] - 1.0) < 0.02)
    assert mags[-1] < mags[0] / 50.0


def test_g_v_tabulated_family_matches_ohmic_shape():
    # tabulate the ohmic profile densely; the quadrature route must agree
    # with the closed form wherever the table resolves the profile
    om = np.linspace(0.0, 30.0, 4000)
    jv = np.sqrt(np.pi * GAMMA0 / 2.0) * om * np.exp(-om)
    tab = gqbm.SpectralModel(family="tabulated", temperature=0.0,
                             tab_omega=om, tab_j=jv)
    ohmic = make_model(1.0, temperature=0.0)
    for dt in (0.0, 1.0, 3.0):
        a = complex(eval_g_v(tab, dt))
        b = complex(eval_g_v(ohmic, dt))
        assert abs(a - b) / abs(b) < 5e-5  # limited by table linearization


def _table_quadrature(model):
    """g_v of a tabulated model by the frequency quadrature it replaced.

    J_V / 2 pi on omega <= the last node, with panels breaking at the nodes
    and the cutoff as inner scale, self-checked against its refinement.
    """
    return spectral._TransformFamily(
        lambda om: gqbm.eval_spectral_density(model, om) / (2.0 * math.pi),
        float(model.tab_omega[-1]), model.cutoff, "reference", model.tab_omega)


def _table_model(tab_omega, tab_j):
    return gqbm.SpectralModel(family="tabulated", temperature=0.0,
                              tab_omega=np.asarray(tab_omega, dtype=float),
                              tab_j=np.asarray(tab_j, dtype=float))


def _straddling_the_taylor_switch(model):
    """Negative offsets from half to 1.5 times the Taylor branch's end."""
    switch = spectral._TAYLOR_PHASE / model.tab_omega[-1]
    return -np.linspace(0.5 * switch, 1.5 * switch, 101)


def _rough_table():
    """300 jittered knots on [0, 20] with i.i.d. uniform J."""
    rng = np.random.default_rng(4)
    omega = np.linspace(0.0, 20.0, 300)
    omega[1:-1] += rng.uniform(-0.3, 0.3, 298) * omega[1]
    return omega, rng.uniform(0.0, 1.0, 300)


_G_V_TABLES = {
    "bench": tabulated_model,
    "rough": lambda: _table_model(*_rough_table()),
    "edge-jumps": lambda: _table_model(np.linspace(0.5, 6.0, 80),
                                       1.0 + np.sin(np.linspace(0.5, 6.0, 80))),
    "two-knots": lambda: _table_model([0.3, 2.0], [1.0, 0.4]),
}


@pytest.mark.parametrize("name, bound", [
    ("bench", 1e-13), ("rough", 2e-12), ("edge-jumps", 1e-14),
    ("two-knots", 1e-14)])
def test_tabulated_g_v_closed_form_against_quadrature(name, bound):
    model = _G_V_TABLES[name]()
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    ref = _table_quadrature(model)
    g_v = gqbm.build_kernels(model).g_v
    for offsets in (times, 1.0137 * times + 3e-3,
                    _straddling_the_taylor_switch(model)):
        want = ref(offsets)
        assert (np.max(np.abs(g_v(offsets) - want))
                <= bound * np.max(np.abs(want)))


def test_tabulated_g_v_at_zero_is_the_trapezoid_sum():
    for make in _G_V_TABLES.values():
        model = make()
        area = np.sum(spectral._trapezoid_panels(model.tab_j, model.tab_omega))
        assert complex(eval_g_v(model, 0.0)) == pytest.approx(
            area / (2.0 * math.pi), rel=1e-15, abs=0)


def test_tabulated_g_v_of_a_table_ending_at_1e6():
    # the suite turns an overflow's RuntimeWarning into an error
    omega = np.linspace(0.0, 1e6, 50)
    model = _table_model(omega, omega * np.exp(-omega / 2e5))
    offsets = np.concatenate([np.linspace(-2e-5, 2e-5, 41), [1e-4, 1e-3]])
    want = _table_quadrature(model)(offsets)
    got = gqbm.build_kernels(model).g_v(offsets)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_knot_sum_roundoff_bound_rejects_nearly_coincident_knots():
    # a jump in J over a short interval: the knot sum's two large weights
    # cancel, losing digits as gap^-1; its a-priori bound reads 1.1e-9 at
    # gap = 1e-7 and 1.1e-7, past QUADRATURE_RTOL, at gap = 1e-9
    def table(gap):
        return _table_model([0.0, 1.0, 1.0 + gap, 2.0], [0.0, 0.0, 1.0, 1.0])

    with pytest.raises(QuadratureConvergenceError, match="knot sum"):
        gqbm.build_kernels(table(1e-9))
    model = table(1e-7)
    offsets = np.linspace(2.0, 10.0, 81)
    want = _table_quadrature(model)(offsets)
    got = gqbm.build_kernels(model).g_v(offsets)
    assert (np.max(np.abs(got - want))
            <= spectral.QUADRATURE_RTOL * np.max(np.abs(want)))


def test_tabulated_g_v_builds_no_quadrature_rule(monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("g_v built a quadrature rule")

    monkeypatch.setattr(spectral, "_FourierRule", no_rule)
    g_v = gqbm.build_kernels(tabulated_model()).g_v
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=600)
    assert np.all(np.isfinite(g_v(grid.times)))
    assert np.all(np.isfinite(g_v(-0.37 * grid.times)))


# ---- kernel assembly --------------------------------------------------------


def test_kernel_alpha1_all_entries_pure_imaginary():
    kernel = gqbm.build_kernels(make_model(1.0, temperature=0.0))
    dt = np.linspace(0.0, 8.0, 30)
    g = kernel.g(dt)
    gv = kernel.g_v(dt)
    # every entry collapses to 2i Im g_v (conjugating a pure imaginary
    # number and negating is the identity)
    expected = 2j * gv.imag
    np.testing.assert_allclose(g[:, 0, 0], expected, atol=1e-18)
    np.testing.assert_allclose(g[:, 0, 1], expected, atol=1e-18)
    np.testing.assert_allclose(g[:, 1, 0], expected, atol=1e-18)
    np.testing.assert_allclose(g[:, 1, 1], expected, atol=1e-18)


def test_kernel_zero_temperature_gtilde():
    # T = 0 removes every thermal transform: Gt11 = conj(g_w) = alpha^2 conj(g_v)
    alpha = 0.6
    kernel = gqbm.build_kernels(make_model(alpha, temperature=0.0))
    dt = np.linspace(0.0, 5.0, 17)
    gt = kernel.gtilde(dt)
    gv = kernel.g_v(dt)
    np.testing.assert_allclose(gt[:, 0, 0], alpha**2 * np.conj(gv), atol=1e-18)
    np.testing.assert_allclose(gt[:, 1, 1], np.conj(gv), atol=1e-18)
    np.testing.assert_allclose(gt[:, 0, 1], alpha * np.conj(gv), atol=1e-18)


def test_gtilde_against_discrete_sum():
    # 2000-mode discrete-bath summation as the independent route; the gauss
    # scheme makes the summation itself far more accurate than the target
    model = make_model(0.5)
    kernel = gqbm.build_kernels(model)
    bath = gqbm.discretize_bath(model, 2000, 20.0, scheme="gauss")
    dkernel = gqbm.kernels_from_bath(bath)
    dt = np.array([0.0, 1.0, 5.0])
    cont = kernel.gtilde(dt)
    disc = dkernel.gtilde(dt)
    scale = np.max(np.abs(cont))
    assert np.max(np.abs(cont - disc)) / scale < 1e-6


def _thermal_quadrature(model):
    """gtilde_v by the frequency quadrature on its widest range.

    Its thermal weight J_V nbar / 2 pi, with the origin limit from a probe
    near zero, on omega <= max(20 cutoff, 50 T) with inner scale
    min(T, cutoff) / 2, breaking at a table's nodes: the ohmic route before
    the closed form, and the tabulated one before its range ended at 50 T.
    """
    cut, temp = model.cutoff, model.temperature
    eps = 1e-8 * cut
    origin_limit = float(gqbm.eval_spectral_density(model, eps) / eps
                         * temp / (2.0 * math.pi))

    def weight(om):
        with np.errstate(invalid="ignore", over="ignore"):
            val = (gqbm.eval_spectral_density(model, om) * gqbm.n_bar(om, temp)
                   / (2.0 * math.pi))
        return np.where(np.isfinite(val), val, origin_limit)

    knots = model.tab_omega if model.family == "tabulated" else np.empty(0)
    return spectral._TransformFamily(weight, max(20.0 * cut, 50.0 * temp),
                                     min(temp, cut) * 0.5, "reference", knots)


@pytest.mark.parametrize("temperature", [0.01, 0.3, 1.0])
def test_ohmic_gtilde_closed_form_against_quadrature(temperature):
    model = make_model(0.5, temperature=temperature)
    t = gqbm.TimeGrid(t_end=100.0, n_steps=20000).times
    ref = _thermal_quadrature(model)(t)
    got = gqbm.build_kernels(model).gtilde_v(t)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("temperature", [0.01, 0.3])
def test_tabulated_gtilde_on_its_thermal_range_against_the_widest(temperature):
    model = tabulated_model(temperature)
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    ref = _thermal_quadrature(model)
    gtilde_v = gqbm.build_kernels(model).gtilde_v
    for offsets in (times, -times[::-1]):
        want = ref(offsets)
        assert (np.max(np.abs(gtilde_v(offsets) - want))
                <= 2e-15 * np.max(np.abs(want)))


def test_hurwitz_zeta2_converged_in_its_direct_terms():
    rng = np.random.default_rng(7)
    a = (1.0 + rng.uniform(0.0, 100.0, 200)
         + 1j * rng.uniform(-2000.0, 2000.0, 200))
    a[:3] = [1.0, 1.0 + 0.01j, 1.3 - 5.0j]
    z = spectral._hurwitz_zeta2(a)
    assert np.max(np.abs(z - spectral._hurwitz_zeta2(a, direct=40))
                  / np.abs(z)) <= 2e-15
    # zeta(2, 1) = pi^2 / 6, and zeta(2, a) - zeta(2, a + 1) = a^-2
    assert abs(z[0] - math.pi**2 / 6.0) <= 1e-15
    np.testing.assert_allclose(z - spectral._hurwitz_zeta2(a + 1.0),
                               1.0 / a**2, rtol=1e-12)


def test_kernels_name_their_transform_route():
    om = np.linspace(0.0, 5.0, 50)
    tab = gqbm.SpectralModel(family="tabulated", temperature=0.01,
                             tab_omega=om, tab_j=om * np.exp(-om))
    for model, scheme in ((make_model(0.5), spectral.OHMIC_TRANSFORM_SCHEME),
                          (make_model(0.5, temperature=0.0),
                           spectral.OHMIC_TRANSFORM_SCHEME),
                          (tab, spectral.TABULATED_TRANSFORM_SCHEME)):
        assert gqbm.build_kernels(model).metadata["transforms"] == scheme
    bath = gqbm.discretize_bath(make_model(0.5), 16, 20.0)
    assert "transforms" not in gqbm.kernels_from_bath(bath).metadata


_KERNELS_FOR_PROPS = [
    gqbm.build_kernels(make_model(a, temperature=t))
    for a, t in ((0.0, 0.0), (0.7, 0.01), (1.0, 0.05))
] + [gqbm.build_kernels(tabulated_model())]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from(_KERNELS_FOR_PROPS))
def test_g_conjugation_symmetry_property(dt, kernel):
    g = kernel.g(np.array([dt]))[0]
    ref = -SIGMA_X @ np.conj(g) @ SIGMA_X
    assert np.max(np.abs(g - ref)) <= 1e-15 * max(np.max(np.abs(g)), 1e-30)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=20.0,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from(_KERNELS_FOR_PROPS))
def test_gtilde_time_hermiticity_property(dt, kernel):
    gp = kernel.gtilde(np.array([dt]))[0]
    gm = kernel.gtilde(np.array([-dt]))[0]
    scale = max(np.max(np.abs(gp)), 1e-30)
    assert np.max(np.abs(np.conj(gp).T - gm)) <= 1e-9 * scale


def test_n_bar_behavior():
    assert np.all(gqbm.n_bar(np.array([0.5, 1.0]), 0.0) == 0.0)
    val = float(gqbm.n_bar(np.array([1.0]), 0.5)[0])
    assert val == pytest.approx(1.0 / math.expm1(2.0), rel=1e-12)
    # classical limit: n_bar -> T / omega for omega << T
    hot = float(gqbm.n_bar(np.array([1e-6]), 1.0)[0])
    assert hot == pytest.approx(1e6, rel=1e-5)


def test_n_bar_at_negative_frequencies_is_minus_one_minus_n_bar():
    omega = np.array([1e-3, 0.05, 1.0, 30.0, 80.0])
    temp = 0.1
    np.testing.assert_allclose(gqbm.n_bar(-omega, temp),
                               -1.0 - gqbm.n_bar(omega, temp), rtol=1e-12)
    assert gqbm.n_bar(np.array([-80.0]), temp)[0] == -1.0  # omega/T = -800
    assert np.all(gqbm.n_bar(np.array([-1e-14, 0.0, 1e-14]), temp) == np.inf)


def test_quadrature_rule_over_budget_rejected_before_allocation():
    # the thermal rule spans omega <= min(last node, 50 T) = 50 T: at T = 1e6
    # and |dt| <= 16 it would take about 4.9e8 nodes, tens of GB with its
    # self-check
    tab = gqbm.SpectralModel(family="tabulated", temperature=1e6,
                             tab_omega=np.array([0.0, 1e8, 2e8]),
                             tab_j=np.array([0.0, 1.0, 0.0]))
    gtilde_v = gqbm.build_kernels(tab).gtilde_v
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="GiB budget"):
            gtilde_v(np.array([0.0, 16.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---- bath discretization ----------------------------------------------------


def test_single_bin_weight():
    model = make_model(1.0, temperature=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bath = gqbm.discretize_bath(model, 1, 2.0)
    # V_1^2 = J_V(midpoint) * bin_width / 2 pi
    j_mid = gqbm.eval_spectral_density(model, 1.0)
    assert bath.v_couplings[0] ** 2 == pytest.approx(
        j_mid * 2.0 / (2.0 * math.pi), rel=1e-12)


def test_coupling_sum_rule():
    # 2 pi sum V_j^2 over a bin approximates int J_V over that bin
    model = make_model(1.0)
    bath = gqbm.discretize_bath(model, 2000, 20.0)
    lo, hi = 0.5, 1.5
    mask = (bath.frequencies >= lo) & (bath.frequencies < hi)
    discrete = 2.0 * math.pi * np.sum(bath.v_couplings[mask] ** 2)
    exact = quad(lambda w: math.sqrt(math.pi * GAMMA0 / 2.0) * w
                 * math.exp(-w), lo, hi)[0]
    assert discrete == pytest.approx(exact, rel=1e-4)


def test_alpha0_kills_pair_couplings():
    bath = gqbm.discretize_bath(make_model(0.0), 50, 20.0)
    assert np.all(bath.w_couplings == 0.0)


def test_w_couplings_ratio():
    bath = gqbm.discretize_bath(make_model(0.5), 50, 20.0)
    np.testing.assert_allclose(bath.w_couplings, 0.5 * bath.v_couplings,
                               rtol=1e-15)


def test_coverage_warning_for_small_omega_max():
    with pytest.warns(RuntimeWarning, match="covers only"):
        gqbm.discretize_bath(make_model(1.0), 100, 5.0)


def test_discrete_sum_reproduces_g_v():
    model = make_model(1.0)
    bath = gqbm.discretize_bath(model, 2000, 20.0)
    dkernel = gqbm.kernels_from_bath(bath)
    dt = np.linspace(0.0, 10.0, 101)
    cont = eval_g_v(model, dt)
    disc = dkernel.g_v(dt)
    assert np.max(np.abs(cont - disc)) < 1e-4


def test_midpoint_convergence_order():
    # kernel error at fixed dt should drop ~ N^-2 for the midpoint rule
    model = make_model(1.0, temperature=0.0)
    dt = np.array([2.0])
    exact = eval_g_v(model, dt)[0]
    errs = []
    for n in (250, 500, 1000, 2000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bath = gqbm.discretize_bath(model, n, 20.0)
        errs.append(abs(gqbm.kernels_from_bath(bath).g_v(dt)[0] - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(orders) >= 1.8


def test_gauss_bath_calls_leggauss_once_per_mode_count(monkeypatch):
    orders = []
    real_rule = spectral._gauss_legendre

    def counting_rule(order):
        orders.append(order)
        return real_rule(order)

    spectral._bath_leggauss.cache_clear()
    monkeypatch.setattr(spectral, "_gauss_legendre", counting_rule)
    try:
        baths = [gqbm.discretize_bath(make_model(alpha), n, 20.0,
                                      scheme="gauss")
                 for alpha in (0.0, 0.5, 1.0) for n in (64, 65)]
        x, w = spectral._bath_leggauss(64)
    finally:
        spectral._bath_leggauss.cache_clear()
    assert orders == [64, 65]
    assert not x.flags.writeable and not w.flags.writeable
    # the cached nodes give the arrays of an uncached rule bit for bit
    x_ref, w_ref = real_rule(64)
    assert np.array_equal(baths[0].frequencies, 10.0 * (x_ref + 1.0))
    assert np.array_equal(baths[0].weights, 10.0 * w_ref)
    assert baths[0].frequencies.flags.writeable


def _mpmath_gauss_legendre(n, start):
    """40-digit nodes and weights of order n, by Newton on mpmath's own
    Legendre functions from the float nodes start (quadratic from 1e-16)."""
    def derivative(x):
        return n * (mpmath.legendre(n - 1, x)
                    - x * mpmath.legendre(n, x)) / (1 - x * x)

    nodes, weights = [], []
    with mpmath.workdps(40):
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(3):
                x -= mpmath.legendre(n, x) / derivative(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * derivative(x) ** 2))
    return nodes, weights


@pytest.mark.parametrize("n", [*range(1, 13), 24, 48, 64])
def test_gauss_legendre_rule_against_mpmath(n):
    x, w = spectral._gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert not x.flags.writeable and not w.flags.writeable
    x_ref, w_ref = _mpmath_gauss_legendre(n, x)
    assert max(abs(float(a - b)) for a, b in zip(x, x_ref)) <= 2.2e-16
    assert max(abs(float((a - b) / b)) for a, b in zip(w, w_ref)) <= 2e-13
    assert abs(w.sum() - 2.0) <= 4e-15
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])


def test_gauss_legendre_rule_rejects_a_march_cut_short(monkeypatch):
    # order 64 needs three Newton sweeps; past the cap the rule raises
    monkeypatch.setattr(spectral, "_NEWTON_SWEEPS", 2)
    with pytest.raises(QuadratureConvergenceError, match="order 64"):
        spectral._gauss_legendre(64)


@pytest.mark.parametrize("n, weight_rtol", [(300, 1e-10), (400, 1e-9)])
def test_gauss_legendre_rule_against_numpy_leggauss(n, weight_rtol):
    # leggauss's own weights are up to 6.3e-11 (n = 300) and 5.7e-10
    # (n = 400) relative from 40-digit ones, at the nodes next to +-1; the
    # rule's are within 2.1e-12 there
    from numpy.polynomial.legendre import leggauss

    x, w = spectral._gauss_legendre(n)
    x_ref, w_ref = leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 2.2e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= weight_rtol
    assert abs(w.sum() - 2.0) <= 4e-15


def test_gauss_scheme_nodes_and_validation():
    bath = gqbm.discretize_bath(make_model(1.0), 64, 20.0, scheme="gauss")
    assert bath.scheme == "gauss"
    assert np.all(np.diff(bath.frequencies) > 0.0)
    with pytest.raises(ValidationError):
        gqbm.discretize_bath(make_model(1.0), 64, 20.0, scheme="simpson")
    with pytest.raises(ValidationError):
        gqbm.discretize_bath(make_model(1.0), 0, 20.0)
    with pytest.raises(ValidationError):
        gqbm.discretize_bath(make_model(1.0), 64, -1.0)


def test_kernels_from_bath_rejects_squeezes():
    import dataclasses
    bath = gqbm.discretize_bath(make_model(0.5), 16, 20.0)
    bad = dataclasses.replace(
        bath, squeezes=np.full(16, 0.1 + 0.0j, dtype=complex))
    with pytest.raises(ContractViolationError):
        gqbm.kernels_from_bath(bad)


def test_kernels_from_bath_equals_the_six_channel_sums():
    alpha = 0.6
    bath = gqbm.discretize_bath(make_model(alpha, temperature=0.3), 300, 20.0,
                                scheme="gauss")
    kernel = gqbm.kernels_from_bath(bath)
    dt = np.linspace(-6.0, 6.0, 41)
    v = bath.v_couplings
    w = alpha * v                      # pair couplings W_k = alpha V_k
    occ = bath.occupations
    phase = np.exp(-1j * np.outer(dt, bath.frequencies))
    gv, gw, gvw = phase @ v**2, phase @ w**2, phase @ (v * w)
    gtv, gtw, gtvw = (phase @ (v**2 * occ), phase @ (w**2 * occ),
                      phase @ (v * w * occ))
    g = np.empty((dt.size, 2, 2), dtype=complex)
    g[:, 0, 0] = gv - np.conj(gw)
    g[:, 0, 1] = gvw - np.conj(gvw)
    g[:, 1, 0] = -np.conj(g[:, 0, 1])
    g[:, 1, 1] = -np.conj(g[:, 0, 0])
    gt = np.empty((dt.size, 2, 2), dtype=complex)
    gt[:, 0, 0] = gtv + np.conj(gw) + np.conj(gtw)
    gt[:, 0, 1] = gt[:, 1, 0] = gtvw + np.conj(gvw) + np.conj(gtvw)
    gt[:, 1, 1] = gtw + np.conj(gv) + np.conj(gtv)
    for got, want in ((kernel.g(dt), g), (kernel.gtilde(dt), gt)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tabulated_bath_coverage_and_kernels():
    om = np.linspace(0.0, 20.0, 81)
    jv = math.sqrt(math.pi * GAMMA0 / 2.0) * om * np.exp(-om)
    model = gqbm.SpectralModel(family="tabulated", gamma0=GAMMA0, alpha=0.5,
                               temperature=TEMPERATURE, tab_omega=om, tab_j=jv)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bath = gqbm.discretize_bath(model, 64, 15.0, scheme="gauss")
    inside = om <= 15.0
    assert bath.coverage_fraction == pytest.approx(
        trapezoid(jv[inside], om[inside]) / trapezoid(jv, om), rel=1e-15)
    kernel = gqbm.kernels_from_bath(bath)
    g0 = kernel.g(np.array([0.0]))[0]
    gv0 = np.sum(bath.v_couplings**2)
    np.testing.assert_allclose(np.diag(g0), [0.75 * gv0, -0.75 * gv0],
                               rtol=1e-14)
    assert gv0 == pytest.approx(
        trapezoid(jv[inside], om[inside]) / (2.0 * math.pi), rel=1e-3)


def test_thermal_occupations_filled():
    bath = gqbm.discretize_bath(make_model(1.0), 64, 20.0)
    x = bath.frequencies / TEMPERATURE
    rep = x <= 700.0  # beyond this the occupation underflows to zero
    np.testing.assert_allclose(bath.occupations[rep],
                               1.0 / np.expm1(x[rep]), rtol=1e-12)
    assert np.all(bath.occupations[~rep] == 0.0)
    assert np.all(bath.squeezes == 0.0)
