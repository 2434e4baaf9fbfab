import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from curvreach import lipschitz as lip, oracle
from curvreach.lipschitz import (LoopTransform, default_loop_transform,
                                 jacobian_elementwise_bounds, liplt,
                                 lipschitz_report, naive_lipschitz,
                                 operator_norm, refine_loop_transform,
                                 zero_loop_transform)
from curvreach.localize import LocalBounds, bounds_for_box
from curvreach.model import Activation, Layer, Network, ScalarObjective
from conftest import make_net


def example_net():
    """The two-layer instance with published golden bound values."""
    W1 = np.array([[1.0, 2.0], [1.0, 2.0]])
    W2 = np.array([[1.0, 1.0], [1.0, 2.0]])
    net = Network((Layer(W1, np.zeros(2), Activation.TANH),
                   Layer(W2, np.zeros(2), None)))
    alpha = np.array([0.2, 0.6])
    beta = np.array([0.8, 0.7])
    local = LocalBounds((alpha,), (beta,), (np.zeros(2),), (np.zeros(2),))
    return net, local, alpha, beta


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(2), 2) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0]), 2) == pytest.approx(4.0, rel=1e-8)

    def test_rank_one_closed_form(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        est = operator_norm(A, 2)
        # the SVD value carries an upward rounding margin of order 1e-14
        assert est == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert est >= np.sqrt(10.0)

    def test_inf_norm_row_sums(self):
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert operator_norm(A, np.inf) == 3.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.zeros((0, 2)), 2)

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            A = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
            exact = np.linalg.svd(A, compute_uv=False)[0]
            est = operator_norm(A, 2)
            assert est == pytest.approx(exact, rel=1e-12)
            assert est >= exact

    def test_near_degenerate_top_pair_not_underestimated(self):
        # sigma_1 - sigma_2 = 1e-6: an iterative estimate approaches from below
        rng = np.random.default_rng(4)
        U, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        V, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        s = np.linspace(0.1, 1.0 - 1e-6, 32)
        s[-1] = 1.0
        A = (U * s) @ V.T
        assert operator_norm(A, 2) >= np.linalg.norm(A, 2)

    def test_tiny_vector_not_underflowed(self):
        # squared entries underflow to zero; the norm must not
        A = np.full((1, 4), 1e-170)
        assert operator_norm(A, 2) >= 2.0 * A[0, 0]

    def test_subnormal_entries_not_underestimated(self):
        # a relative margin rounds away on subnormal values
        A = np.array([[0.0, 2.22507386e-313, 2.22507386e-313, 2.22507386e-313]])
        with mpmath.workdps(50):
            sigma = max(mpmath.svd_r(mpmath.matrix(A.tolist()),
                                     compute_uv=False))
            assert mpmath.mpf(operator_norm(A, 2)) >= sigma

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("p", [2, np.inf])
    def test_non_finite_rejected(self, bad, p):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(A, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.data())
    def test_upper_bounds_50_digit_sigma(self, m, n, data):
        A = data.draw(hnp.arrays(float, (m, n), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_infinity=False)))
        with mpmath.workdps(50):
            sigma = max(mpmath.svd_r(mpmath.matrix(A.tolist()),
                                     compute_uv=False))
            assert mpmath.mpf(operator_norm(A, 2)) >= sigma


class TestGoldenValues:
    def test_naive(self):
        net, local, _, _ = example_net()
        assert naive_lipschitz(net, local, 2) == pytest.approx(6.22, abs=0.01)

    def test_midpoint_transform(self):
        net, local, alpha, beta = example_net()
        lt = LoopTransform(((alpha + beta) / 2.0,))
        assert liplt(net, local, lt, 2) == pytest.approx(6.55, abs=0.01)

    def test_half_beta_transform(self):
        net, local, _, _ = example_net()
        assert liplt(net, local, default_loop_transform(local), 2) == \
            pytest.approx(6.08, abs=0.01)

    def test_refined_transform(self):
        net, local, _, _ = example_net()
        lt = refine_loop_transform(net, local, 2)
        val = liplt(net, local, lt, 2)
        assert val <= 6.08
        assert val >= 5.96 - 0.01

    def test_zero_transform_reduces_to_naive(self):
        net, local, _, _ = example_net()
        lt = zero_loop_transform(local)
        assert abs(liplt(net, local, lt, 2) - naive_lipschitz(net, local, 2)) \
            <= 1e-12


class TestRecursionProperties:
    @pytest.mark.parametrize("p", [2, np.inf])
    def test_default_improves_naive_100_nets(self, p):
        for k in range(100):
            act = Activation.TANH if k % 2 == 0 else Activation.SIGMOID
            depth = 2 + k % 5
            dims = [3] + [4 + (k * 7) % 29] * (depth - 1) + [2]
            net = make_net(dims, act=act, seed=k)
            local = bounds_for_box(net, -np.ones(3), np.ones(3))
            lt = default_loop_transform(local)
            assert liplt(net, local, lt, p) <= \
                naive_lipschitz(net, local, p) + 1e-12

    def test_zero_transform_equals_naive_multilayer(self):
        net = make_net([2, 8, 6, 4, 1], seed=5)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        lt = zero_loop_transform(local)
        for p in (2, np.inf):
            assert liplt(net, local, lt, p) == \
                pytest.approx(naive_lipschitz(net, local, p), abs=1e-12)

    def test_two_layer_closed_form(self):
        rng = np.random.default_rng(10)
        for k in range(20):
            net = make_net([3, 6, 2], seed=200 + k)
            local = bounds_for_box(net, -np.ones(3), np.ones(3))
            d = rng.uniform(0, 1) * (local.slope_lo[0] + local.slope_hi[0]) / 2
            lt = LoopTransform((d,))
            W1, W2 = net.layers[0].weight, net.layers[1].weight
            alpha, beta = local.slope_lo[0], local.slope_hi[0]
            scale = np.maximum(np.abs(beta - d), np.abs(d - alpha))
            closed = operator_norm(W2, 2) * operator_norm(scale[:, None] * W1, 2) \
                + operator_norm((W2 * d) @ W1, 2)
            assert liplt(net, local, lt, 2) == pytest.approx(closed, abs=1e-12)

    def test_invariant_violation_rejected(self):
        net, local, alpha, beta = example_net()
        with pytest.raises(ValueError):
            liplt(net, local, LoopTransform((beta,)), 2)
        with pytest.raises(ValueError):
            liplt(net, local, LoopTransform((-0.1 * np.ones(2),)), 2)

    def test_monotone_localization(self):
        from curvreach.localize import global_bounds
        net = make_net([2, 8, 8, 1], seed=77)
        tight = bounds_for_box(net, -0.5 * np.ones(2), 0.5 * np.ones(2))
        loose = global_bounds(net)
        for p in (2, np.inf):
            assert liplt(net, tight, default_loop_transform(tight), p) <= \
                liplt(net, loose, default_loop_transform(loose), p) + 1e-12
            assert naive_lipschitz(net, tight, p) <= \
                naive_lipschitz(net, loose, p) + 1e-12


class TestSoundness:
    def test_sampled_slope_below_bound(self):
        for k in range(10):
            net = make_net([2, 8, 8, 1], seed=300 + k)
            obj = ScalarObjective(net)
            lo, hi = -np.ones(2), np.ones(2)
            local = bounds_for_box(net, lo, hi)
            lt = default_loop_transform(local)
            for p in (2, np.inf):
                bound = liplt(net, local, lt, p)
                sampled = oracle.sampled_lipschitz(obj.value, lo, hi,
                                                   n_pairs=20_000, p=p, seed=k)
                assert sampled <= bound + 1e-7

    def test_linear_map_exact(self):
        W = np.array([[2.0, -1.0], [0.5, 3.0]])
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.IDENTITY),
                       Layer(W, np.zeros(2), None)))
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        lt = default_loop_transform(local)
        # identity activations have slope exactly 1: bound equals ||W||
        assert liplt(net, local, lt, 2) == pytest.approx(operator_norm(W, 2),
                                                         rel=1e-9)


class TestSubnet:
    def test_first_layer_is_weight_norm(self):
        net = make_net([3, 7, 5, 1], seed=31)
        local = bounds_for_box(net, -np.ones(3), np.ones(3))
        lt = default_loop_transform(local)
        for p in (2, np.inf):
            assert lipschitz_report(net, local, lt, p).subnet[0] == \
                pytest.approx(operator_norm(net.layers[0].weight, p), rel=1e-12)

    def test_linear_chain_submultiplicative(self):
        rng = np.random.default_rng(6)
        W1, W2 = rng.standard_normal((4, 3)), rng.standard_normal((2, 4))
        net = Network((Layer(W1, np.zeros(4), Activation.IDENTITY),
                       Layer(W2, np.zeros(2), None)))
        local = bounds_for_box(net, -np.ones(3), np.ones(3))
        lt = zero_loop_transform(local)
        got = lipschitz_report(net, local, lt, 2).subnet[0]
        assert operator_norm(W1, 2) == pytest.approx(got, rel=1e-12)

    def test_sampled_subnet_slopes(self):
        net = make_net([2, 8, 8, 1], seed=33)
        lo, hi = -np.ones(2), np.ones(2)
        local = bounds_for_box(net, lo, hi)
        lt = default_loop_transform(local)
        rng = np.random.default_rng(1)
        xs = lo + rng.random((300, 2)) * (hi - lo)
        ys = lo + rng.random((300, 2)) * (hi - lo)
        zx = net.preactivations(xs)
        zy = net.preactivations(ys)
        subnet = lipschitz_report(net, local, lt, 2).subnet
        for l in (1, 2):
            const = subnet[l - 1]
            num = np.linalg.norm(zx[l - 1] - zy[l - 1], axis=1)
            den = np.linalg.norm(xs - ys, axis=1)
            assert np.max(num / den) <= const + 1e-7

    def test_report_matches_individual_calls(self):
        net = make_net([2, 6, 5, 1], seed=34)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        lt = default_loop_transform(local)
        rep = lipschitz_report(net, local, lt, 2)
        assert rep.total == pytest.approx(liplt(net, local, lt, 2), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", [[3, 8, 1], [3, 8, 6, 2],
                                      [2, 10, 5, 5, 1], [6, 32, 32, 1]])
    def test_stacked_raw_report_per_box(self, dims, seed):
        # the raw recursion over a stack of boxes gives each box the
        # constants of its own report, bit for bit
        net = make_net(dims, seed=seed, scale=2.0)
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1.0, 1.0, (7, dims[0]))
        r = rng.uniform(0.0, 0.5, (7, dims[0]))
        local = bounds_for_box(net, c - r, c + r)
        ds = list(default_loop_transform(local).d)
        weights = [lay.weight for lay in net.layers]
        for p in (2, np.inf):
            total = lip._total_raw(weights, local.slope_hi, ds, p)
            # the first constant is ||W_1||, one float for every box
            subnet = [np.broadcast_to(s, (7,))
                      for s in lip._report_raw(weights, local.slope_hi, ds, p)]
            for k in range(7):
                alone = bounds_for_box(net, c[k] - r[k], c[k] + r[k])
                rep = lipschitz_report(net, alone,
                                       default_loop_transform(alone), p)
                assert total[k] == rep.total
                assert [s[k] for s in subnet] == list(rep.subnet)


class TestJacobianElementwise:
    def test_base_case(self):
        net = make_net([2, 5, 1], seed=40)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        S = jacobian_elementwise_bounds(net, local)[1]
        assert np.allclose(S, np.abs(net.layers[-1].weight[0]))

    def test_identity_activations_absolute_products(self):
        rng = np.random.default_rng(9)
        W1 = rng.standard_normal((4, 2))
        W2 = rng.standard_normal((3, 4))
        W3 = rng.standard_normal((1, 3))
        net = Network((Layer(W1, np.zeros(4), Activation.IDENTITY),
                       Layer(W2, np.zeros(3), Activation.IDENTITY),
                       Layer(W3, np.zeros(1), None)))
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        bounds = jacobian_elementwise_bounds(net, local)
        S1 = bounds[1]
        assert np.allclose(S1, np.abs(W3) @ np.abs(W2), atol=1e-12)
        S2 = bounds[2]
        assert np.allclose(S2, np.abs(W3)[0], atol=1e-12)

    def test_fd_jacobian_dominated(self):
        net = make_net([2, 6, 6, 1], seed=41)
        lo, hi = -np.ones(2), np.ones(2)
        local = bounds_for_box(net, lo, hi)
        bounds = jacobian_elementwise_bounds(net, local)
        rng = np.random.default_rng(2)
        xs = lo + rng.random((100, 2)) * (hi - lo)
        for l in (1, 2):
            # d z_L / d a_l at sampled points, by chain rule on stored slopes
            for x in xs[:25]:
                zs = net.preactivations(x)
                row = net.layers[-1].weight[0].copy()
                for k in range(net.depth - 2, l - 1, -1):
                    from curvreach.model import act_deriv
                    row = (row * act_deriv(net.layers[k].activation, zs[k])) \
                        @ net.layers[k].weight
                assert np.all(np.abs(row) <= bounds[l] + 1e-9)

    def test_rejects_vector_output(self):
        net = make_net([2, 4, 2], seed=42)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            jacobian_elementwise_bounds(net, local)
