"""Spectral densities, scalar transforms, kernel assembly, discretization."""

import math
import time
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
from gqbm.errors import NumericalQualityError, ValidationError

from conftest import GAMMA0, TEMPERATURE, make_model, tabulated_model

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

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
    with pytest.raises(ValidationError, match="ohmic family"):
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


# ---- the quadrature the closed forms replaced, kept as their reference ------
#
# A composite Gauss-Legendre rule for integrals of f(w) exp(-i w dt), moved
# here from the library when the last transform that ran it became a closed
# form.  Its panels are geometrically refined toward w = 0 (the Bose factor
# lives on the temperature scale) and break at a table's knots; node counts
# scale with the largest phase, and each rule is checked against its own
# refinement before use.

_MAX_PANEL_PHASE = 350.0
_BASE_PANEL_NODES = 24
_NODES_PER_PHASE = 0.55
_RULE_RTOL = 1e-8


def _panel_edges(omega_max, inner_scale, knots):
    first = min(max(inner_scale, omega_max * 1e-8), omega_max)
    edges = [0.0, first]
    while edges[-1] < omega_max:
        edges.append(min(edges[-1] * 5.0, omega_max))
    interior = knots[(knots > 0.0) & (knots < omega_max)]
    return sorted(set(edges).union(float(k) for k in interior))


class _FourierRule:
    def __init__(self, weight_fn, omega_max, inner_scale, dt_max, knots,
                 refine=1):
        edges = np.array(_panel_edges(omega_max, inner_scale, knots))
        widths = np.diff(edges)
        n_subs = np.maximum(1, np.ceil(widths * dt_max / _MAX_PANEL_PHASE))
        nodes = []
        weights = []
        for lo, hi, n_sub in zip(edges[:-1], edges[1:], n_subs.astype(int)):
            sub = np.linspace(lo, hi, n_sub + 1)
            for a, b in zip(sub[:-1], sub[1:]):
                n_p = refine * (_BASE_PANEL_NODES
                                + int(_NODES_PER_PHASE * (b - a) * dt_max))
                x, w = spectral._gauss_legendre(n_p)
                nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
                weights.append(0.5 * (b - a) * w)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights) * weight_fn(self.nodes)

    def transform(self, dt):
        return spectral._exp_sum(self.weights, self.nodes, dt)


class _TransformFamily:
    """A self-checked _FourierRule per power-of-two bucket of max |dt|."""

    def __init__(self, weight_fn, omega_max, inner_scale, label, knots):
        self.args = (weight_fn, omega_max, inner_scale)
        self.label = label
        self.knots = knots
        self._rules = {}

    def _rule_for(self, dt_max):
        bucket = 2.0 ** math.ceil(math.log2(max(dt_max, 1e-3)))
        if bucket not in self._rules:
            rule = _FourierRule(*self.args, bucket, self.knots)
            fine = _FourierRule(*self.args, bucket, self.knots, refine=2)
            probes = np.array([0.0, 0.25 * bucket, 0.5 * bucket, bucket])
            ref = fine.transform(probes)
            dev = np.max(np.abs(rule.transform(probes) - ref))
            assert dev <= _RULE_RTOL * np.max(np.abs(ref)), self.label
            self._rules[bucket] = rule
        return self._rules[bucket]

    def __call__(self, dt):
        dt = np.asarray(dt, dtype=float)
        dt_max = float(np.max(np.abs(dt))) if dt.size else 0.0
        return self._rule_for(dt_max).transform(dt)


def _table_quadrature(model):
    """g_v of a tabulated model by the frequency quadrature it replaced.

    J_V / 2 pi on omega <= the last node, with panels breaking at the nodes
    and the cutoff as inner scale, self-checked against its refinement.
    """
    return _TransformFamily(
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

    with pytest.raises(NumericalQualityError, match="knot sum"):
        gqbm.build_kernels(table(1e-9))
    model = table(1e-7)
    offsets = np.linspace(2.0, 10.0, 81)
    want = _table_quadrature(model)(offsets)
    got = gqbm.build_kernels(model).g_v(offsets)
    assert (np.max(np.abs(got - want))
            <= spectral.QUADRATURE_RTOL * np.max(np.abs(want)))


def test_no_continuum_kernel_builds_a_gauss_legendre_rule(monkeypatch):
    def no_rule(order):
        raise AssertionError("a continuum kernel built a Gauss-Legendre rule")

    monkeypatch.setattr(spectral, "_gauss_legendre", no_rule)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=600)
    for model in (make_model(0.5), make_model(0.5, temperature=0.3),
                  tabulated_model(), tabulated_model(0.3)):
        kernel = gqbm.build_kernels(model)
        for transform in (kernel.g_v, kernel.gtilde_v):
            assert np.all(np.isfinite(transform(grid.times)))
            assert np.all(np.isfinite(transform(-0.37 * grid.times)))


def _kink_table(j_kink):
    """Knots [0, 1e-7, 0.5, 2] at T = 0.3: a kink at 1e-7 << T unless J
    runs straight through it."""
    return gqbm.SpectralModel(family="tabulated", temperature=0.3,
                              tab_omega=[0.0, 1e-7, 0.5, 2.0],
                              tab_j=[0.0, j_kink, 0.5, 0.0])


def _bose_branches(gtilde_v, offsets):
    """{(branch, kind)} of the terms gtilde_v sums past its loop at these
    offsets: branch "zeta", "series" or "fraction", kind "knot" or "end"."""
    terms, series, _ = gtilde_v.plan(float(np.max(np.abs(offsets))))
    tails = (gtilde_v.last > terms) & (gtilde_v.rates > 0.0)
    out = {("zeta", "knot")} if gtilde_v.zero_weight != 0.0 else set()
    for branch, cols in (("series", series), ("fraction", tails & ~series)):
        out |= {(branch, "knot" if order == 2 else "end")
                for order in gtilde_v.order[cols]}
    return out


def test_bose_sum_of_a_kink_far_below_t_closes_its_tail_at_once():
    # the kink needs about 40 T / 1e-7 = 1.2e8 terms: 12 run in the loop,
    # and the rest are one series
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    start = time.perf_counter()
    gtilde_v = gqbm.build_kernels(_kink_table(2e-7)).gtilde_v
    got = gtilde_v(times)
    elapsed = time.perf_counter() - start
    assert gtilde_v.last.max() > 1e8 and gtilde_v.plan(10.0)[0].max() < 100
    assert ("series", "knot") in _bose_branches(gtilde_v, times)
    assert np.all(np.isfinite(got)) and elapsed < 0.1
    # its values: test_tabulated_gtilde_against_mpmath["kink-series-T0.3"]


def test_bose_sum_of_the_same_knots_on_a_straight_line_is_short():
    model = _kink_table(1e-7)
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    offsets = np.concatenate([-times[::-1], times])
    start = time.perf_counter()
    gtilde_v = gqbm.build_kernels(model).gtilde_v
    got = gtilde_v(offsets)
    elapsed = time.perf_counter() - start
    assert gtilde_v.plan(10.0)[0].max() < 100 and elapsed < 0.1
    want = _thermal_quadrature(model)(offsets)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bose_sum_at_a_high_temperature_stays_within_memory():
    # at T = 1e6 the knots at 1e8 and 2e8 are dead from k = 1 on and the
    # zero knot carries gtilde_v, as -c_0 T^2 zeta(2, 1 + i T t); the
    # quadrature it replaced would have taken about 4.9e8 nodes here
    tab = gqbm.SpectralModel(family="tabulated", temperature=1e6,
                             tab_omega=np.array([0.0, 1e8, 2e8]),
                             tab_j=np.array([0.0, 1.0, 0.0]))
    gtilde_v = gqbm.build_kernels(tab).gtilde_v
    tracemalloc.start()
    try:
        got = gtilde_v(np.array([0.0, 16.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got)) and peak < 64 * 2**20
    assert got[0].real == pytest.approx(gtilde_v.at_zero, rel=1e-15)


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
    its closed form, and the tabulated one before its Bose sum.
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
    return _TransformFamily(weight, max(20.0 * cut, 50.0 * temp),
                            min(temp, cut) * 0.5, "reference", knots)


@pytest.mark.parametrize("temperature", [0.01, 0.3, 1.0])
def test_ohmic_gtilde_closed_form_against_quadrature(temperature):
    model = make_model(0.5, temperature=temperature)
    t = gqbm.TimeGrid(t_end=100.0, n_steps=20000).times
    ref = _thermal_quadrature(model)(t)
    got = gqbm.build_kernels(model).gtilde_v(t)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _log_table(temperature):
    """J = w e^-w on 0 and 300 log-spaced knots from 1e-6 to 20: most knots
    far below T, each summed past its first terms in closed form."""
    omega = np.concatenate([[0.0], np.geomspace(1e-6, 20.0, 300)])
    return gqbm.SpectralModel(family="tabulated", temperature=temperature,
                              tab_omega=omega, tab_j=omega * np.exp(-omega))


def _thermal_table(name, temperature):
    """A gate table at the temperature; at T > 0 a table needs J(0) = 0."""
    if name.startswith("bench"):
        return tabulated_model(temperature, seed=int(name[-1]))
    if name == "log-spaced":
        return _log_table(temperature)
    if name == "rough":
        omega, j = _rough_table()
        return replace(_table_model(omega, np.concatenate([[0.0], j[1:]])),
                       temperature=temperature)
    return replace(_G_V_TABLES[name](), temperature=temperature)


@pytest.mark.parametrize("temperature", [0.01, 0.3])
@pytest.mark.parametrize("name", ["bench-1", "bench-2", "bench-3", "rough",
                                  "edge-jumps", "two-knots", "log-spaced"])
def test_tabulated_gtilde_bose_sum_against_quadrature(name, temperature):
    model = _thermal_table(name, temperature)
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    ref = _thermal_quadrature(model)
    gtilde_v = gqbm.build_kernels(model).gtilde_v
    for offsets in (times, -times[::-1]):
        want = ref(offsets)
        assert (np.max(np.abs(gtilde_v(offsets) - want))
                <= 1e-13 * np.max(np.abs(want)))


def _mpmath_gtilde_v(model, offsets):
    """gtilde_v by 25-digit quadrature of J_V nbar e^{-i w t} / 2 pi, one
    interval of the table at a time, cut where its phase passes 4."""
    temp = mpmath.mpf(model.temperature)
    knots = [mpmath.mpf(float(w)) for w in model.tab_omega]
    values = [mpmath.mpf(float(j)) for j in model.tab_j]
    out = []
    with mpmath.workdps(25):
        for t in offsets:
            total = 0
            for a, b, fa, fb in zip(knots[:-1], knots[1:], values[:-1],
                                    values[1:]):
                def integrand(w, a=a, b=b, fa=fa, fb=fb):
                    j = fa + (fb - fa) * (w - a) / (b - a)
                    return j / mpmath.expm1(w / temp) * mpmath.expj(-w * t)
                cuts = math.ceil(float(b - a) * abs(t) / 4.0) or 1
                total += mpmath.quad(integrand, mpmath.linspace(a, b, cuts + 1))
            out.append(complex(total / (2 * mpmath.pi)))
    return np.array(out)


_OFFSETS = (0.0, 0.37, -1.5, 1.5, 7.0)
# (knots, J, T, offsets, the branches past the loop it must take): the zero
# knot's zeta tail at low T, and at T = 1, where |t| < sqrt 3 takes the
# Taylor branch at tau_1 = t - i, and at T = 1000, where it runs all 256
# terms of the loop (their Filon form read 5e-14 off); a jump onto
# w_0 = 0.3 > 0, whose end term is damped, at T = 1 with the Taylor branch
# and at T = 50, where the Taylor branch runs to k = 99; a kink and a jump
# at w << T, closed by the series; and at w/T = 0.05 with |t| up to 40, too
# far for the series, by the continued fraction
_MPMATH_TABLES = {
    "zero-knot-T0.05": ([0.0, 0.3, 2.0], [0.0, 1.0, 0.4], 0.05, _OFFSETS,
                        {("zeta", "knot")}),
    "zero-knot-T1": ([0.0, 0.3, 2.0], [0.0, 1.0, 0.4], 1.0, _OFFSETS,
                     {("zeta", "knot")}),
    "zero-knot-T1000": ([0.0, 0.3, 2.0], [0.0, 1.0, 0.4], 1000.0,
                        _OFFSETS[:4], {("zeta", "knot"), ("series", "knot"),
                                       ("fraction", "knot"),
                                       ("fraction", "end")}),
    "jump-T1": ([0.3, 2.0], [1.0, 0.4], 1.0, _OFFSETS, set()),
    "jump-T50": ([0.3, 2.0], [1.0, 0.4], 50.0, _OFFSETS[:4],
                 {("series", "knot"), ("series", "end"), ("fraction", "knot"),
                  ("fraction", "end")}),
    "kink-series-T0.3": ([0.0, 1e-7, 0.5, 2.0], [0.0, 2e-7, 0.5, 0.0], 0.3,
                         _OFFSETS, {("zeta", "knot"), ("series", "knot")}),
    "jump-series-T0.3": ([1e-3, 0.5, 2.0], [1.0, 0.5, 0.0], 0.3, _OFFSETS,
                         {("series", "knot"), ("series", "end")}),
    "kink-fraction-T1": ([0.0, 0.05, 0.5, 2.0], [0.0, 0.1, 0.5, 0.0], 1.0,
                         _OFFSETS + (-40.0, 40.0),
                         {("zeta", "knot"), ("fraction", "knot")}),
    "jump-fraction-T1": ([0.05, 0.5, 2.0], [1.0, 0.5, 0.0], 1.0,
                         _OFFSETS + (-40.0, 40.0),
                         {("fraction", "knot"), ("fraction", "end")}),
}


@pytest.mark.parametrize("name", sorted(_MPMATH_TABLES))
def test_tabulated_gtilde_against_mpmath(name):
    omega, j, temperature, offsets, branches = _MPMATH_TABLES[name]
    model = replace(_table_model(omega, j), temperature=temperature)
    offsets = np.array(offsets)
    want = _mpmath_gtilde_v(model, offsets)
    gtilde_v = gqbm.build_kernels(model).gtilde_v
    assert _bose_branches(gtilde_v, offsets) == branches
    scale = np.max(np.abs(want))
    assert np.max(np.abs(gtilde_v(offsets) - want)) <= 1e-14 * scale
    # the closed form of gtilde_v(0) that scales the roundoff bound
    assert abs(gtilde_v.at_zero - want[0]) <= 1e-14 * scale


@pytest.mark.parametrize("s", [1, 2])
def test_exp_en_against_mpmath_on_the_right_half_plane(s):
    # every branch: the series below |w| = 1, and each band of the
    # continued fraction, on rays from the real to the imaginary axis
    radii = np.array([0.01, 0.3, 0.99, 1.0, 1.9, 2.0, 3.9, 4.0, 7.9, 8.0,
                      15.9, 16.0, 31.9, 32.0, 1e4])
    w = np.outer(radii, np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 9)))
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.exp(x) * mpmath.expint(s, x))
                         for x in w.ravel()]).reshape(w.shape)
    got = spectral._exp_en(w.ravel(), s).reshape(w.shape)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 3e-15


def _lerch_tail(z, rate, s):
    """sum_{k >= 0} e^{-r (z + k)} (z + k)^-s by 30-digit mpmath."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return complex(mpmath.exp(-rate * z)
                       * mpmath.lerchphi(mpmath.exp(-rate), s, z))


@pytest.mark.parametrize("s", [1, 2])
def test_bose_tails_against_mpmath_lerch_sums(s):
    # each route past the loop on one knot of unit weight: the series where
    # |r z| <= 2, and the continued fraction for rates up to 0.17, with
    # phases r Im z below 70 rad (past that the phase itself carries
    # |r z| eps)
    for route, starts, rates in (
            (spectral._series_tails, [13.0, 13.0 + 3j, 13.0 - 150j],
             [1e-7, 0.02, 0.15]),
            (spectral._fraction_tails, [257.0, 257.0 - 300j],
             [1e-7, 0.05, 0.17])):
        for rate in rates:
            z = np.array([x for x in starts if route is spectral._fraction_tails
                          or abs(rate * x) <= spectral._SERIES_RADIUS])
            got = route(z, np.array([rate]), np.array([1.0]), s)
            want = np.array([_lerch_tail(x, rate, s) for x in z])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_hurwitz_zeta2_against_mpmath():
    rng = np.random.default_rng(7)
    a = (1.0 + rng.uniform(0.0, 100.0, 200)
         + 1j * rng.uniform(-2000.0, 2000.0, 200))
    a[:3] = [1.0, 1.0 + 0.01j, 1.3 - 5.0j]
    z = spectral._hurwitz_zeta2(a)
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.zeta(2, mpmath.mpc(x.real, x.imag)))
                        for x in a])
    assert np.max(np.abs(z - ref) / np.abs(ref)) <= 2e-15
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


def test_gauss_bath_is_the_legendre_rule_mapped_onto_its_band():
    bath = gqbm.discretize_bath(make_model(0.5), 64, 20.0, scheme="gauss")
    x, w = spectral._gauss_legendre(64)
    assert np.array_equal(bath.frequencies, 10.0 * (x + 1.0))
    assert np.array_equal(bath.weights, 10.0 * w)


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
    with pytest.raises(NumericalQualityError, match="order 64"):
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
