"""The kernel tables against the routes they replaced.

Two of the reference routes are kept verbatim below: the chunked n x N
exponential loop of `_exp_sum`, and the signed-offset evaluation of
`Kernel.gtilde_signed_table`.  The lattice GEMM sums the same terms in
another order, so on TimeGrid offsets it may differ by roundoff (1e-13 of
the largest entry); every other offset array still takes the loop and must
give the same bits.  The mirror Gt(-t) = Gt(t)^dagger is exact, so with the
sums pinned to the loop the mirrored table is the old table bit for bit.
"""

import numpy as np
import pytest

import gqbm
from gqbm import spectral
from gqbm.spectral import _offsets

from conftest import CUTOFF, make_model, tabulated_model

RTOL = 1e-13
# linspace(0, 2.0, 49 + 1) puts one time off the lattice k * times[1], found
# by searching t_end in {1, 2, 3, 5, 10, 20} and n_steps in 20..299; a
# TimeGrid's times are the lattice by construction.
OFF_LATTICE_GRID = (2.0, 49)


def _loop_exp_sum(weights, freqs, dt):
    """sum_j weights[j] exp(-i freqs[j] dt), elementwise in dt."""
    dt = _offsets(dt)
    flat = dt.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # chunk the outer product so memory stays bounded for long grids
    step = max(1, int(4e6 // max(freqs.size, 1)))
    for k in range(0, flat.size, step):
        block = flat[k:k + step]
        out[k:k + step] = np.exp(-1j * np.outer(block, freqs)) @ weights
    return out.reshape(dt.shape)


def _old_gtilde_signed_table(kernel, grid):
    t = grid.times
    offsets = np.concatenate([-t[::-1], t[1:]])
    return kernel.gtilde(offsets)


def _bath(n_modes=300):
    return gqbm.discretize_bath(make_model(0.5), n_modes, 12.0, scheme="gauss")


def _max_rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# ---- the Hermitian mirror ---------------------------------------------------

_MIRROR_KERNELS = {
    "ohmic-T0.01": lambda: gqbm.build_kernels(make_model(0.5)),
    "ohmic-T0.3": lambda: gqbm.build_kernels(make_model(0.7, temperature=0.3)),
    "ohmic-T0": lambda: gqbm.build_kernels(make_model(0.5, temperature=0.0)),
    "tabulated": lambda: gqbm.build_kernels(tabulated_model()),
    "bath": lambda: gqbm.kernels_from_bath(_bath()),
}


@pytest.mark.parametrize("name", sorted(_MIRROR_KERNELS))
def test_mirrored_gtilde_table_is_the_signed_evaluation(name, monkeypatch):
    # the sums themselves are pinned to the loop: this isolates the mirror
    # (no offsets are a lattice, so the Bose sum builds no GEMM factors)
    monkeypatch.setattr(spectral, "_exp_sum", _loop_exp_sum)
    monkeypatch.setattr(spectral, "_lattice", lambda dt: None)
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=600, max_frequency=CUTOFF)
    kernel = _MIRROR_KERNELS[name]()
    table = kernel.gtilde_signed_table(grid)
    assert np.array_equal(table, _old_gtilde_signed_table(kernel, grid))


def test_mirrored_gtilde_table_with_lattice_sums_matches_to_roundoff():
    grid = gqbm.TimeGrid(t_end=10.0, n_steps=600, max_frequency=CUTOFF)
    kernel = gqbm.build_kernels(tabulated_model())
    ref = _old_gtilde_signed_table(kernel, grid)
    assert _max_rel_dev(kernel.gtilde_signed_table(grid), ref) <= RTOL


# ---- lattice offsets as one GEMM --------------------------------------------


def _tabulated_rules():
    """(weights, frequencies) of the sums the bench table runs."""
    kernel = gqbm.build_kernels(tabulated_model(0.3))
    # "plain" is the closed-form g_v's sum over the table's knots on
    # [0, 20]; "thermal" is the first term of gtilde_v's Bose sum, at
    # T = 0.3 its 139 live knots damped by e^{-w/T}
    g_v, bose = kernel.g_v, kernel.gtilde_v
    knots, live = g_v.order == 2, bose.order == 2
    return {"plain": (g_v.weights[knots], g_v.freqs[knots]),
            "thermal": (bose.weights[live] * np.exp(-bose.freqs[live] / 0.3),
                        bose.freqs[live])}


@pytest.mark.parametrize("n_steps", [600, 20000])
def test_lattice_sum_matches_the_loop_on_tabulated_rules(n_steps):
    times = gqbm.TimeGrid(t_end=10.0, n_steps=n_steps,
                          max_frequency=CUTOFF).times
    rules = _tabulated_rules()
    # at n = 20 001 check all the knots: their phases reach 200 rad
    names = ("plain", "thermal") if n_steps == 600 else ("plain",)
    for name in names:
        weights, freqs = rules[name]
        got = spectral._exp_sum(weights, freqs, times)
        assert _max_rel_dev(got, _loop_exp_sum(weights, freqs,
                                               times)) <= RTOL, name


def test_lattice_sum_matches_the_loop_on_a_finite_bath():
    bath = _bath()
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600, max_frequency=CUTOFF).times
    v2 = bath.v_couplings**2
    for weights in (v2, v2 * bath.occupations):
        got = spectral._exp_sum(weights, bath.frequencies, times)
        ref = _loop_exp_sum(weights, bath.frequencies, times)
        assert _max_rel_dev(got, ref) <= RTOL


def test_lattice_sum_of_short_grids():
    # n = 2 and 3 and a perfect square exercise the edge of the q, r split
    bath = _bath(40)
    for n in (2, 3, 16, 17):
        times = np.arange(n) * 0.3
        got = spectral._exp_sum(bath.weights, bath.frequencies, times)
        ref = _loop_exp_sum(bath.weights, bath.frequencies, times)
        assert got.shape == (n,)
        assert _max_rel_dev(got, ref) <= RTOL


def test_off_lattice_offsets_take_the_loop_bit_for_bit():
    weights, freqs = _tabulated_rules()["thermal"]
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600, max_frequency=CUTOFF).times
    rng = np.random.default_rng(7)
    jittered = times + rng.uniform(-1e-3, 1e-3, times.size)
    jittered[0] = 0.0
    t_end, n_steps = OFF_LATTICE_GRID
    off_grid = np.linspace(0.0, t_end, n_steps + 1)
    assert not np.array_equal(off_grid, np.arange(off_grid.size) * off_grid[1])
    for offsets in (jittered, times[:600].reshape(20, 30), off_grid):
        got = spectral._exp_sum(weights, freqs, offsets)
        assert np.array_equal(got, _loop_exp_sum(weights, freqs, offsets))


def test_exp_sum_temporaries_stay_within_the_bound(monkeypatch):
    sizes = []
    real_exp = np.exp

    def recording_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    # a lattice long enough that (Q + B) N > 4e6 with N = 6000 frequencies
    rng = np.random.default_rng(3)
    freqs = np.sort(rng.uniform(0.0, 20.0, 6000))
    weights = rng.uniform(0.0, 1.0, freqs.size)
    times = np.arange(250001) * 4e-5
    jittered = times[:2000] + rng.uniform(-1e-6, 1e-6, 2000)
    monkeypatch.setattr(np, "exp", recording_exp)
    lattice = spectral._exp_sum(weights, freqs, times)
    n_lattice_calls = len(sizes)
    direct = spectral._exp_sum(weights, freqs, jittered)
    monkeypatch.undo()
    assert n_lattice_calls > 2  # the frequency axis was chunked
    assert len(sizes) > n_lattice_calls + 1  # so were the direct offsets
    assert max(sizes) <= 4e6
    sample = slice(None, None, 997)  # the loop over all 250 001 takes seconds
    assert _max_rel_dev(lattice[sample],
                        _loop_exp_sum(weights, freqs, times[sample])) <= RTOL
    assert np.array_equal(direct, _loop_exp_sum(weights, freqs, jittered))


@pytest.mark.parametrize("temperature", [0.01, 0.3, 1.0])
def test_tabulated_transforms_under_a_small_element_bound(temperature,
                                                          monkeypatch):
    # at a bound of 1 000 elements _exp_sum chunks its frequencies, and from
    # T = 0.3 on the Bose sum's live knots are too many for its lattice
    # factors, so each of its terms calls _exp_sum; the sums come in another
    # order, measured within 1.3e-15 (g_v) and 6.5e-16 (gtilde_v) of max
    kernel = gqbm.build_kernels(tabulated_model(temperature))
    times = gqbm.TimeGrid(t_end=10.0, n_steps=600).times
    want = [kernel.g_v(times), kernel.gtilde_v(times)]
    calls = {"_exp_sum": 0, "_lattice_factors": 0}

    def counted(name):
        real = getattr(spectral, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(spectral, "_EXP_ELEMENTS", 1000)
    for name in calls:
        monkeypatch.setattr(spectral, name, counted(name))
    got = [kernel.g_v(times)]
    # one sum per order: the 300 knots in chunks of 1000 // (25 + 25) = 20,
    # and the end term
    assert calls == {"_exp_sum": 2, "_lattice_factors": 16}
    got.append(kernel.gtilde_v(times))
    assert (calls["_exp_sum"] > 2) == (temperature > 0.01)
    for value, ref in zip(got, want):
        assert _max_rel_dev(value, ref) <= 5e-15
