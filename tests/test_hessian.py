from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach import oracle
from curvreach.hessian import (MatrixHessianBound, ScalarHessianBound,
                               hessian_norm_bound, interval_hessian,
                               two_layer_matrix_bounds)
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
        # public construction keeps the eigenvalue check of M - N
        with pytest.raises(ValueError, match="does not dominate"):
            MatrixHessianBound(-np.eye(2), np.eye(2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(act=st.sampled_from([Activation.TANH, Activation.SIGMOID,
                                Activation.SOFTPLUS]),
           seed=st.integers(0, 100_000), n=st.integers(1, 8),
           h=st.integers(1, 64), scale=st.floats(0.1, 10.0))
    def test_pair_dominates_unchecked(self, act, seed, n, h, scale):
        # the sandwich skips the check that M - N is PSD: it is
        # W1^T diag((c_hi - c_lo) |w2|) W1, PSD by construction
        rng = np.random.default_rng(seed)
        net = make_net([n, h, 1], act=act, seed=seed, scale=scale,
                       bias_scale=scale)
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + rng.uniform(0.0, 3.0, n)
        mb = two_layer_matrix_bounds(net, bounds_for_box(net, lo, hi))
        assert np.linalg.eigvalsh(mb.M - mb.N).min() >= -1e-9

    def test_stacked_boxes_rejected(self):
        net = make_net([2, 3, 1], seed=5)
        lo, hi = -np.ones((2, 2)), np.ones((2, 2))
        with pytest.raises(ValueError, match="one box"):
            two_layer_matrix_bounds(net, bounds_for_box(net, lo, hi))

    @pytest.mark.parametrize("which", ["M", "N"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_pair_rejected(self, which, bad):
        # an all-NaN M - N has NaN eigenvalues, which the PSD test alone
        # would let through
        pair = {"M": np.eye(2), "N": -np.eye(2)}
        pair[which] = np.full((2, 2), bad)
        with pytest.raises(ValueError, match="must be finite"):
            MatrixHessianBound(**pair)

    def test_stacked_pair_rejected(self):
        with pytest.raises(ValueError, match="square matrices"):
            MatrixHessianBound(np.stack([np.eye(2)] * 2),
                               np.zeros((2, 2, 2)))

    def test_empty_curvature_range_rejected(self):
        net = make_net([2, 3, 1], seed=5)
        local = bounds_for_box(net, -np.ones(2), np.ones(2))
        assert (local.curv_hi[0] > local.curv_lo[0]).any()
        swapped = SimpleNamespace(curv_lo=local.curv_hi, curv_hi=local.curv_lo)
        with pytest.raises(ValueError, match="empty curvature range"):
            two_layer_matrix_bounds(net, swapped)


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

    @staticmethod
    def report_and_bound(net, lo, hi):
        local = bounds_for_box(net, lo, hi)
        report = lipschitz_report(net, local, default_loop_transform(local), 2)
        jac = jacobian_elementwise_bounds(net, local)
        return local, report, jac, hessian_norm_bound(net, local, report, jac)

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("hidden", [[6], [6, 5], [5, 4, 3]])
    def test_terms_sum_to_lam(self, act, hidden):
        # branch and bound sums the full lam from the terms of a partial
        # report: stacked and alone, the sum is lam bit for bit
        from curvreach.hessian import _spectral_sum
        rng = np.random.default_rng(31)
        net = make_net([3, *hidden, 1], act=act, seed=31, scale=2.0)
        lo = rng.uniform(-1.5, 1.0, (4, 3))
        hi = lo + rng.uniform(0.05, 2.0, (4, 3))
        for box in [(lo, hi)] + list(zip(lo, hi)):
            _, report, _, bound = self.report_and_bound(net, *box)
            assert len(bound.terms) == len(hidden)
            lam = _spectral_sum(report.subnet, bound.terms)
            assert type(lam) is type(bound.lam)
            assert np.array_equal(lam, bound.lam)

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("hidden", [[6], [6, 5], [5, 4, 3]])
    def test_partial_report_gives_the_first_term(self, act, hidden):
        # with c_1 alone and zeros after it, lam is c_1^2 w_1, at most the
        # full lam; the terms do not depend on the report
        from curvreach.lipschitz import LipschitzReport
        rng = np.random.default_rng(32)
        net = make_net([3, *hidden, 1], act=act, seed=32, scale=2.0)
        lo = rng.uniform(-1.5, 1.0, (4, 3))
        hi = lo + rng.uniform(0.05, 2.0, (4, 3))
        local, report, jac, full = self.report_and_bound(net, lo, hi)
        c1 = report.subnet[0]
        partial = hessian_norm_bound(
            net, local,
            LipschitzReport(0.0, (c1,) + (0.0,) * (len(hidden) - 1), 2), jac)
        assert np.array_equal(partial.lam, c1 * c1 * full.terms[0])
        assert (partial.lam <= full.lam).all()
        for a, b in zip(partial.terms, full.terms):
            assert np.array_equal(a, b)
        if len(hidden) > 1 and act is not Activation.IDENTITY:
            assert (partial.lam < full.lam).any()

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


class TestExactHessianOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(act=st.sampled_from(list(Activation)),
           hidden=st.lists(st.integers(2, 8), min_size=0, max_size=3),
           seed=st.integers(0, 100_000))
    def test_matches_finite_differences(self, act, hidden, seed):
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=2.0)
        x = rng.uniform(-1.0, 1.0, 3)
        H = oracle.exact_hessian(net, x)
        assert np.array_equal(H, H.T)
        fd = oracle.fd_hessian(ScalarObjective(net).value, x)
        assert np.allclose(H, fd, rtol=1e-4, atol=1e-5)

    def test_rejects_vector_network(self):
        with pytest.raises(ValueError):
            oracle.exact_hessian(make_net([2, 4, 2], seed=1), np.zeros(2))


def _imul(a, b):
    """Exact range of the product of intervals a = (lo, hi) and b."""
    p = np.array([a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]])
    return p.min(axis=0), p.max(axis=0)


def _ilin(W, a):
    """Exact range of W x over the box x in a = (lo, hi)."""
    pos, neg = np.maximum(W, 0.0), np.minimum(W, 0.0)
    return pos @ a[0] + neg @ a[1], pos @ a[1] + neg @ a[0]


def endpoint_interval_hessian(net, local):
    """The Hessian chain rule in endpoint interval arithmetic, one exact
    interval operation at a time: no tighter than the true Hessian range,
    and never looser than the midpoint-radius form of ``interval_hessian``,
    whose every operation encloses the exact range of its operands."""
    Ws = [lay.weight for lay in net.layers]
    jacs = [(Ws[0], Ws[0])]
    for l in range(1, len(Ws) - 1):
        s = (local.slope_lo[l - 1][:, None], local.slope_hi[l - 1][:, None])
        jacs.append(_ilin(Ws[l], _imul(s, jacs[-1])))
    delta = (Ws[-1][0], Ws[-1][0])
    lo = hi = 0.0
    for l in range(len(Ws) - 1, 0, -1):
        t = _imul(delta, (local.curv_lo[l - 1], local.curv_hi[l - 1]))
        J_lo, J_hi = jacs[l - 1]
        pair = _imul((J_lo[:, :, None], J_hi[:, :, None]),
                     (J_lo[:, None, :], J_hi[:, None, :]))
        term = _imul(pair, (t[0][:, None, None], t[1][:, None, None]))
        lo, hi = lo + term[0].sum(axis=0), hi + term[1].sum(axis=0)
        q = _imul(delta, (local.slope_lo[l - 1], local.slope_hi[l - 1]))
        delta = _ilin(Ws[l - 1].T, q)
    return lo, hi


class TestIntervalHessian:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(act=st.sampled_from(list(Activation)),
           hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
           seed=st.integers(0, 100_000))
    def test_encloses_the_exact_hessian(self, act, hidden, seed):
        # H_lo <= hess J(x) <= H_hi at sampled points of a random box, depth
        # 2-4, corners included: branch and bound bounds its model with the
        # interval on the whole box
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=2.0)
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.05, 2.0, 3)
        h_lo, h_hi = interval_hessian(net, bounds_for_box(net, lo, hi))
        assert np.array_equal(h_lo, h_lo.T) and np.array_equal(h_hi, h_hi.T)
        pts = np.vstack([lo + rng.random((10, 3)) * (hi - lo), lo, hi])
        for x in pts:
            H = oracle.exact_hessian(net, x)
            tol = 1e-12 * max(1.0, float(np.abs(H).max()))
            assert (h_lo - tol <= H).all() and (H <= h_hi + tol).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(act=st.sampled_from(list(Activation)),
           hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
           seed=st.integers(0, 100_000))
    def test_encloses_the_endpoint_reference(self, act, hidden, seed):
        # sampling rarely reaches the interval's ends; the endpoint form
        # does, so a term dropped from any radius shows here
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=2.0)
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.05, 2.0, 3)
        local = bounds_for_box(net, lo, hi)
        h_lo, h_hi = interval_hessian(net, local)
        ref_lo, ref_hi = endpoint_interval_hessian(net, local)
        tol = 1e-12 * (1.0 + np.abs(ref_lo) + np.abs(ref_hi))
        assert (h_lo <= ref_lo + tol).all() and (ref_hi <= h_hi + tol).all()
        for x in lo + rng.random((5, 3)) * (hi - lo):
            H = oracle.exact_hessian(net, x)
            assert (ref_lo - tol <= H).all() and (H <= ref_hi + tol).all()

    def test_identity_activations_give_zero(self):
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.IDENTITY),
                       Layer(np.ones((2, 2)), np.zeros(2), Activation.IDENTITY),
                       Layer(np.ones((1, 2)), np.zeros(1), None)))
        h_lo, h_hi = interval_hessian(
            net, bounds_for_box(net, -np.ones(2), np.ones(2)))
        assert not h_lo.any() and not h_hi.any()

    def test_two_layer_matches_the_sandwich(self):
        # one hidden layer: J_1 = W_1 is exact, so the interval's diagonal
        # never exceeds the sandwich's upper matrix M
        net = make_net([3, 6, 1], seed=12, scale=2.0)
        local = bounds_for_box(net, -np.ones(3), np.ones(3))
        h_lo, h_hi = interval_hessian(net, local)
        mb = two_layer_matrix_bounds(net, local)
        assert (np.diag(h_hi) <= np.diag(mb.M) + 1e-12).all()
        assert (np.diag(mb.N) - 1e-12 <= np.diag(h_lo)).all()

    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_stacked_boxes_match_alone(self, act, hidden, seed):
        # bit for bit: branch and bound stacks the children of many splits
        self._assert_stacked_matches_alone(act, hidden, seed)

    def test_stacked_boxes_match_alone_where_pow_rounds_apart(self):
        # box 3's second subnetwork constant is 0x1.c97766a0e88cdp+2, whose
        # square by the C pow behind a float's c ** 2 rounds apart from c * c
        # with at least one libm (CPython 3.11.7, GCC 12.2); numpy squares
        # the stacked constants as c * c, so a c ** 2 in hessian_norm_bound
        # would set box 3's lam apart from its lam alone
        self._assert_stacked_matches_alone(Activation.TANH, [7, 4], 51)

    @staticmethod
    def _assert_stacked_matches_alone(act, hidden, seed):
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=2.0)
        lo = rng.uniform(-1.5, 1.0, (4, 3))
        hi = lo + rng.uniform(0.05, 2.0, (4, 3))
        h_lo, h_hi = interval_hessian(net, bounds_for_box(net, lo, hi))
        lam = scalar_pipeline(net, lo, hi).lam
        assert lam.shape == (4,)
        for k in range(4):
            a, b = interval_hessian(net, bounds_for_box(net, lo[k], hi[k]))
            assert np.array_equal(h_lo[k], a) and np.array_equal(h_hi[k], b)
            alone = scalar_pipeline(net, lo[k], hi[k]).lam
            assert type(alone) is float
            assert float(lam[k]).hex() == alone.hex()

    def test_tightens_as_the_box_shrinks(self):
        net = make_net([2, 6, 5, 1], seed=21, scale=2.0)
        widths = []
        for half in (1.0, 0.1, 1e-2, 1e-3, 1e-4):
            h_lo, h_hi = interval_hessian(
                net, bounds_for_box(net, -half * np.ones(2), half * np.ones(2)))
            widths.append(float((h_hi - h_lo).max()))
        assert all(b <= a for a, b in zip(widths, widths[1:]))
        H0 = oracle.exact_hessian(net, np.zeros(2))
        assert widths[-1] < 0.1 * float(np.abs(H0).max())

    def test_rejects_vector_network(self):
        net = make_net([2, 4, 4, 2], seed=3)
        with pytest.raises(ValueError):
            interval_hessian(net, bounds_for_box(net, -np.ones(2), np.ones(2)))
