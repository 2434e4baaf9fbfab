import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach import oracle
from curvreach.hessian import (MatrixHessianBound, ScalarHessianBound,
                               hessian_norm_bound, two_layer_matrix_bounds)
from curvreach.lipschitz import (default_loop_transform,
                                 jacobian_elementwise_bounds, lipschitz_report)
from curvreach.localize import bounds_for_box, global_bounds
from curvreach.model import Activation, Layer, Network, ScalarObjective
from conftest import make_net

TANH_K = 4.0 / (3.0 * np.sqrt(3.0))


def scalar_pipeline(net, lo, hi):
    local = bounds_for_box(net, lo, hi)
    lt = default_loop_transform(local)
    report = lipschitz_report(net, local, lt, 2)
    jac = jacobian_elementwise_bounds(net, local)
    return hessian_norm_bound(net, local, report, jac)


class TestTwoLayerMatrix:
    def test_identity_activation_zero(self):
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.IDENTITY),
                       Layer(np.ones((1, 2)), np.zeros(1), None)))
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        mb = two_layer_matrix_bounds(net, local)
        assert np.allclose(mb.M, 0.0) and np.allclose(mb.N, 0.0)

    def test_signed_output_weights_global_curvature(self):
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.TANH),
                       Layer(np.array([[1.0, -1.0]]), np.zeros(1), None)))
        local = global_bounds(net)
        mb = two_layer_matrix_bounds(net, local)
        assert np.allclose(mb.M, TANH_K * np.eye(2), atol=1e-12)
        assert np.allclose(mb.N, -TANH_K * np.eye(2), atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(act=st.sampled_from(list(Activation)), seed=st.integers(0, 100_000))
    def test_fd_sandwich(self, act, seed):
        # N <= H <= M at sampled points of a random box, for every activation:
        # the vertex bound in branch and bound is sound only if H <= M
        rng = np.random.default_rng(seed)
        net = make_net([2, 6, 1], act=act, seed=seed, scale=2.0)
        obj = ScalarObjective(net)
        lo = rng.uniform(-1.5, 1.0, 2)
        hi = lo + rng.uniform(0.1, 2.0, 2)
        mb = two_layer_matrix_bounds(net, bounds_for_box(net, lo, hi))
        for _ in range(10):
            x = lo + 0.02 + rng.random(2) * (hi - lo - 0.04)
            H = oracle.fd_hessian(obj.value, x)
            assert np.linalg.eigvalsh(mb.M - H).min() >= -1e-6
            assert np.linalg.eigvalsh(H - mb.N).min() >= -1e-6

    def test_depth_check(self):
        net = make_net([2, 4, 4, 1], seed=2)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            two_layer_matrix_bounds(net, local)

    def test_invalid_sandwich_rejected(self):
        with pytest.raises(ValueError):
            MatrixHessianBound(-np.eye(2), np.eye(2))


class TestScalarBound:
    def test_identity_network_zero(self):
        net = Network((Layer(np.eye(3), np.zeros(3), Activation.IDENTITY),
                       Layer(np.ones((2, 3)), np.zeros(2), Activation.IDENTITY),
                       Layer(np.ones((1, 2)), np.zeros(1), None)))
        bound = scalar_pipeline(net, -np.ones(3), np.ones(3))
        assert bound.lam == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(act=st.sampled_from(list(Activation)),
           hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
           seed=st.integers(0, 100_000))
    def test_fd_hessian_norm_dominated(self, act, hidden, seed):
        # ||H||_2 <= lam at sampled points of a random sub-box, depth 2-4:
        # branch and bound maximizes the first-order model over the whole
        # box, so lam must hold everywhere on it
        rng = np.random.default_rng(seed)
        net = make_net([2, *hidden, 1], act=act, seed=seed, scale=2.0)
        obj = ScalarObjective(net)
        lo = rng.uniform(-1.5, 1.0, 2)
        hi = lo + rng.uniform(0.1, 2.0, 2)
        bound = scalar_pipeline(net, lo, hi)
        for _ in range(10):
            x = lo + 0.02 + rng.random(2) * (hi - lo - 0.04)
            H = oracle.fd_hessian(obj.value, x)
            assert np.abs(np.linalg.eigvalsh(H)).max() <= bound.lam + 1e-6

    def test_monotonicity_in_localization(self):
        net = make_net([2, 8, 8, 1], seed=9)
        local_tight = bounds_for_box(net, -0.3 * np.ones(2), 0.3 * np.ones(2))
        local_loose = global_bounds(net)
        def lam_for(local):
            lt = default_loop_transform(local)
            report = lipschitz_report(net, local, lt, 2)
            jac = jacobian_elementwise_bounds(net, local)
            return hessian_norm_bound(net, local, report, jac).lam
        assert lam_for(local_tight) <= lam_for(local_loose) + 1e-12

    def test_missing_subnet_constants(self):
        net = make_net([2, 5, 5, 1], seed=4)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        lt = default_loop_transform(local)
        report = lipschitz_report(net, local, lt, 2)
        jac = jacobian_elementwise_bounds(net, local)
        from curvreach.lipschitz import LipschitzReport
        bad = LipschitzReport(report.total, report.subnet[:1], 2)
        with pytest.raises(ValueError):
            hessian_norm_bound(net, local, bad, jac)
        wrong_norm = LipschitzReport(report.total, report.subnet, np.inf)
        with pytest.raises(ValueError):
            hessian_norm_bound(net, local, wrong_norm, jac)

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            ScalarHessianBound(-1.0)

    def test_shrinking_interval_tracks_local_curvature(self):
        # odd-symmetric tanh net centered at 0: local h shrinks toward
        # sigma''(0) = 0 as the box shrinks
        net = make_net([2, 6, 1], seed=11, bias_scale=0.0)
        lam_prev = None
        for half in (1.0, 0.3, 0.1, 0.03, 0.01):
            bound = scalar_pipeline(net, -half * np.ones(2), half * np.ones(2))
            if lam_prev is not None:
                assert bound.lam <= lam_prev + 1e-12
            lam_prev = bound.lam
        assert lam_prev < 0.1


class TestTwoRoutesConsistency:
    def test_both_routes_dominate_samples(self):
        # matrix and scalar bounds come from different routes; each must
        # dominate the sampled Hessian norms on its own
        rng = np.random.default_rng(5)
        net = make_net([2, 6, 1], seed=800)
        obj = ScalarObjective(net)
        lo, hi = -np.ones(2), np.ones(2)
        local = bounds_for_box(net, lo, hi)
        mb = two_layer_matrix_bounds(net, local)
        sb = scalar_pipeline(net, lo, hi)
        for _ in range(50):
            x = lo + 0.02 + rng.random(2) * (hi - lo - 0.04)
            H = oracle.fd_hessian(obj.value, x)
            spec = np.abs(np.linalg.eigvalsh(H)).max()
            assert spec <= sb.lam + 1e-6
            assert np.linalg.eigvalsh(mb.M - H).min() >= -1e-6
