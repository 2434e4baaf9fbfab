import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach.localize import bounds_for_box, global_bounds, ibp_intervals
from curvreach.model import (ACTIVATIONS, Activation, Layer, Network,
                             act_deriv, act_second)
from conftest import make_net

SMOOTH = [Activation.TANH, Activation.SIGMOID, Activation.SOFTPLUS]


def grid_range(fun, kind, lo, hi, n=1_000_000):
    ts = np.linspace(lo, hi, n)
    vals = fun(kind, ts)
    return float(vals.min()), float(vals.max())


class TestIbp:
    def test_zero_weight_gives_bias_interval(self):
        net = Network((
            Layer(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]), Activation.TANH),
            Layer(np.ones((1, 3)), np.zeros(1), None),
        ))
        iv = ibp_intervals(net, -np.ones(2), np.ones(2))
        assert np.allclose(iv.lower[0], [1.0, -2.0, 0.5])
        assert np.allclose(iv.upper[0], [1.0, -2.0, 0.5])

    def test_signed_row_interval(self):
        net = Network((
            Layer(np.array([[1.0, -1.0]]), np.zeros(1), Activation.TANH),
            Layer(np.ones((1, 1)), np.zeros(1), None),
        ))
        iv = ibp_intervals(net, np.zeros(2), np.ones(2))
        assert np.isclose(iv.lower[0][0], -1.0)
        assert np.isclose(iv.upper[0][0], 1.0)

    def test_monte_carlo_containment(self):
        net = make_net([2, 8, 8, 1], seed=42)
        lo, hi = -np.ones(2), np.ones(2)
        iv = ibp_intervals(net, lo, hi)
        rng = np.random.default_rng(0)
        xs = lo + rng.random((10_000, 2)) * (hi - lo)
        zs = net.preactivations(xs)
        for l in range(net.depth - 1):
            assert np.all(zs[l] >= iv.lower[l] - 1e-9)
            assert np.all(zs[l] <= iv.upper[l] + 1e-9)

    def test_bad_box(self):
        net = make_net([2, 4, 1], seed=0)
        with pytest.raises(ValueError):
            ibp_intervals(net, np.ones(2), -np.ones(2))
        with pytest.raises(ValueError):
            ibp_intervals(net, np.zeros(3), np.ones(3))


class TestLocalSlope:
    def test_tanh_wide_interval(self):
        a, b = ACTIVATIONS[Activation.TANH].slope_range(-10.0, 10.0)
        sech2_10 = 1.0 / np.cosh(10.0) ** 2
        assert abs(a - sech2_10) < 1e-8
        assert abs(b - 1.0) < 1e-8

    def test_tanh_positive_interval_frozen(self):
        # dense-grid oracle froze these: sech^2(2), sech^2(1)
        a, b = ACTIVATIONS[Activation.TANH].slope_range(1.0, 2.0)
        assert abs(a - 0.07065082485316447) < 1e-9
        assert abs(b - 0.4199743416140261) < 1e-9

    def test_identity(self):
        identity = ACTIVATIONS[Activation.IDENTITY]
        assert identity.slope_range(-3.0, 7.0) == (1.0, 1.0)

    @pytest.mark.parametrize("kind", SMOOTH)
    def test_dense_grid_oracle(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo = rng.uniform(-4, 4)
            hi = lo + rng.uniform(0, 4)
            a, b = ACTIVATIONS[kind].slope_range(lo, hi)
            ga, gb = grid_range(act_deriv, kind, lo, hi)
            assert a - 1e-9 <= ga and gb <= b + 1e-9
            assert abs(a - ga) < 1e-6 and abs(b - gb) < 1e-6


class TestLocalCurvature:
    def test_tanh_global_extrema(self):
        a, b = ACTIVATIONS[Activation.TANH].curv_range(-20.0, 20.0)
        k = 4.0 / (3.0 * np.sqrt(3.0))
        assert abs(a + k) < 1e-9 and abs(b - k) < 1e-9

    def test_tanh_no_interior_critical_point(self):
        # on [0.1, 0.2] sigma'' is negative and decreasing: endpoints decide
        a, b = ACTIVATIONS[Activation.TANH].curv_range(0.1, 0.2)
        s2 = lambda t: float(act_second(Activation.TANH, np.array([t]))[0])
        assert abs(a - s2(0.2)) < 1e-9
        assert abs(b - s2(0.1)) < 1e-9
        assert b < 0

    def test_identity(self):
        identity = ACTIVATIONS[Activation.IDENTITY]
        assert identity.curv_range(-1.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", SMOOTH)
    def test_dense_grid_oracle(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lo = rng.uniform(-4, 4)
            hi = lo + rng.uniform(0, 4)
            a, b = ACTIVATIONS[kind].curv_range(lo, hi)
            ga, gb = grid_range(act_second, kind, lo, hi)
            assert a - 1e-9 <= ga and gb <= b + 1e-9
            assert abs(a - ga) < 1e-6 and abs(b - gb) < 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(SMOOTH),
       lo=st.floats(-30, 30), width=st.floats(0, 20),
       shrink=st.floats(0, 1), offset=st.floats(0, 1))
def test_localization_properties(kind, lo, width, shrink, offset):
    hi = lo + width
    a, b = ACTIVATIONS[kind].slope_range(lo, hi)
    ca, cb = ACTIVATIONS[kind].curv_range(lo, hi)
    # soundness on sampled points
    ts = np.linspace(lo, hi, 101)
    d1 = act_deriv(kind, ts)
    d2 = act_second(kind, ts)
    assert np.all(d1 >= a - 1e-9) and np.all(d1 <= b + 1e-9)
    assert np.all(d2 >= ca - 1e-9) and np.all(d2 <= cb + 1e-9)
    # within global constants
    g_lo, g_hi = ACTIVATIONS[kind].slope_range(-np.inf, np.inf)
    c_lo, c_hi = ACTIVATIONS[kind].curv_range(-np.inf, np.inf)
    assert g_lo <= a <= b <= g_hi
    assert c_lo <= ca <= cb <= c_hi
    # monotone refinement: a sub-interval never widens the bounds
    sub_w = width * shrink
    sub_lo = lo + (width - sub_w) * offset
    a2, b2 = ACTIVATIONS[kind].slope_range(sub_lo, sub_lo + sub_w)
    ca2, cb2 = ACTIVATIONS[kind].curv_range(sub_lo, sub_lo + sub_w)
    assert a2 >= a - 1e-15 and b2 <= b + 1e-15
    assert ca2 >= ca - 1e-15 and cb2 <= cb + 1e-15


@pytest.mark.parametrize("kind", list(Activation))
def test_local_bounds_shapes_and_global_fallback(kind):
    net = make_net([2, 6, 4, 1], act=kind, seed=8)
    lb = bounds_for_box(net, -np.ones(2), np.ones(2))
    gb = global_bounds(net)
    assert lb.num_hidden == gb.num_hidden == 2
    for loc_b, glob_b in zip(lb.slope_hi, gb.slope_hi):
        assert np.all(loc_b <= glob_b + 1e-12)
    for loc_a, glob_a in zip(lb.slope_lo, gb.slope_lo):
        assert np.all(loc_a >= glob_a - 1e-12)
    for h_loc, h_glob in zip(lb.curv_abs, gb.curv_abs):
        assert np.all(h_loc <= h_glob + 1e-12)
    # the whole-line ranges, bit for bit, with the whole line as intervals
    s_ref = ACTIVATIONS[kind].slope_range(-np.inf, np.inf)
    c_ref = ACTIVATIONS[kind].curv_range(-np.inf, np.inf)
    for l, n in enumerate((6, 4)):
        for got, ref in zip((gb.slope_lo[l], gb.slope_hi[l], gb.curv_lo[l],
                             gb.curv_hi[l]), s_ref + c_ref):
            assert got.shape == (n,)
            assert np.array_equal(got, np.full(n, ref))
        assert np.array_equal(gb.z_lo[l], np.full(n, -np.inf))
        assert np.array_equal(gb.z_hi[l], np.full(n, np.inf))


def test_guard_widening_present():
    # computed extrema are widened by the rounding guard, never narrowed
    a, b = ACTIVATIONS[Activation.TANH].slope_range(np.array([0.5]),
                                                    np.array([0.5]))
    exact = 1.0 / np.cosh(0.5) ** 2
    assert a[0] <= exact <= b[0]
    assert b[0] - a[0] >= 1e-12
