import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach import oracle
from curvreach.bnb import BnBConfig, solve
from curvreach.model import ScalarObjective
from curvreach.taylor import (BallRegion, epsilon_crossover, first_upper,
                              first_upper_from, optimal_perturbation,
                              shifted_center, two_layer_dual_upper,
                              vertex_upper)
from conftest import ball_sup_oracle, linear_net, make_net, quad_model


def root_node(obj, center, radius, use_first_order=False):
    """Branch and bound over center +- radius, stopped after the root node."""
    center = np.asarray(center, dtype=float)
    cfg = BnBConfig(eps_t=1e-12, max_branches=1,
                    use_first_order=use_first_order)
    return solve(obj, center - radius, center + radius, cfg=cfg)


class TestZeroth:
    """The zeroth-order bound J(center) + L_inf * radius, which branch and
    bound computes inline; checked at its root node."""

    def test_direct_substitution(self):
        obj = ScalarObjective(linear_net([[1.0, -1.0]], b=[5.0]))
        res = root_node(obj, np.zeros(2), 0.5)
        # L_inf = 2 for this net
        assert res.lb == pytest.approx(5.0)
        assert res.ub == pytest.approx(6.0)
        assert np.allclose(res.witness, np.zeros(2))

    def test_zero_lipschitz_collapses(self):
        obj = ScalarObjective(linear_net([[0.0]], b=[3.0]))
        res = root_node(obj, np.zeros(1), 1.0)
        assert res.lb == res.ub == pytest.approx(3.0)

    def test_linear_inf_ball_exact(self):
        W = np.array([[2.0, -3.0]])
        obj = ScalarObjective(linear_net(W))
        center = np.array([0.5, -0.5])
        res = root_node(obj, center, 1.0)
        vertices = center + np.array(
            [[sx, sy] for sx in (-1, 1) for sy in (-1, 1)])
        vmax = obj.value(vertices).max()
        assert res.ub == pytest.approx(vmax, abs=1e-12)


class TestFirstUpper:
    def test_substitution_p2(self):
        region = BallRegion(np.zeros(2), 1.0, 2)
        val = first_upper_from(0.0, np.array([3.0, 4.0]), region, 2.0,
                               np.zeros(2))
        assert val == pytest.approx(0.0 + 5.0 + 1.0)

    def test_zero_curvature_inf_is_linear_exact(self):
        region = BallRegion(np.zeros(2), 0.7, np.inf)
        g = np.array([1.5, -2.0])
        val = first_upper_from(1.0, g, region, 0.0, np.zeros(2))
        assert val == pytest.approx(1.0 + np.abs(g).sum() * 0.7)

    def test_monte_carlo_soundness_inf(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            net = make_net([2, 8, 1], seed=900 + k)
            obj = ScalarObjective(net)
            center = rng.uniform(-0.5, 0.5, 2)
            eps = 0.4
            region = BallRegion(center, eps, np.inf)
            from curvreach.hessian import hessian_norm_bound
            from curvreach.lipschitz import (default_loop_transform,
                                             jacobian_elementwise_bounds,
                                             lipschitz_report)
            from curvreach.localize import bounds_for_box
            local = bounds_for_box(net, center - eps, center + eps)
            lt = default_loop_transform(local)
            report = lipschitz_report(net, local, lt, 2)
            jac = jacobian_elementwise_bounds(net, local)
            lam = hessian_norm_bound(net, local, report, jac).lam
            ub = first_upper(obj, region, lam)
            xs = center - eps + rng.random((100_000, 2)) * 2 * eps
            assert obj.value(xs).max() <= ub + 1e-9

    def test_outside_expansion_point_rejected(self):
        region = BallRegion(np.zeros(2), 0.5, 2)
        with pytest.raises(ValueError):
            first_upper_from(0.0, np.ones(2), region, 1.0, np.ones(2))


class TestOptimalPerturbation:
    def test_sign_of_gradient_inf(self):
        x = optimal_perturbation(np.zeros(2), 1.0, np.inf,
                                 np.array([1.0, -2.0]), 5.0, np.zeros(2))
        assert np.allclose(x, [1.0, -1.0])

    def test_normalized_gradient_p2(self):
        x = optimal_perturbation(np.zeros(2), 1.0, 2, np.array([3.0, 4.0]),
                                 0.0, np.zeros(2))
        assert np.allclose(x, [0.6, 0.8])

    def test_sign_zero_resolves_positive(self):
        x = optimal_perturbation(np.zeros(2), 1.0, np.inf,
                                 np.array([0.0, -1.0]), 0.0, np.zeros(2))
        assert np.allclose(x, [1.0, -1.0])

    def test_zero_steering_tie_break(self):
        x = optimal_perturbation(np.zeros(3), 2.0, 2, np.zeros(3), 0.0,
                                 np.zeros(3))
        assert np.allclose(x, [2.0, 0.0, 0.0])

    def test_p2_maximizes_model_on_sphere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.standard_normal(3)
            lam = rng.uniform(0, 3)
            y = rng.uniform(-0.3, 0.3, 3)
            eps = 1.0
            x_star = optimal_perturbation(np.zeros(3), eps, 2, g, lam, y)
            def model(x):
                d = x - y
                return d @ g + 0.5 * lam * d @ d
            best = model(x_star)
            d = rng.standard_normal((2000, 3))
            pts = d / np.linalg.norm(d, axis=1, keepdims=True) * eps
            sampled = max(model(p) for p in pts)
            assert best >= sampled - 1e-9


class TestShiftedCenter:
    def test_formula_value(self):
        y = shifted_center(np.zeros(2), 1.0, np.array([1.0, 1.0]), 1.0)
        eta = 1.0 / (np.sqrt(2.0) + 1.0)
        assert np.allclose(y, eta * np.ones(2), atol=1e-12)

    def test_zero_gradient_coordinate_stays_centered(self):
        y = shifted_center(np.zeros(2), 1.0, np.array([0.0, 2.0]), 1.0)
        assert np.allclose(y, np.zeros(2))

    def test_zero_curvature_stays_centered(self):
        y = shifted_center(np.ones(2), 1.0, np.array([1.0, 2.0]), 0.0)
        assert np.allclose(y, np.ones(2))

    def test_improvement_property_100_instances(self):
        rng = np.random.default_rng(2)
        for k in range(100):
            net = make_net([2, 6, 1], seed=1000 + k)
            obj = ScalarObjective(net)
            center = rng.uniform(-0.3, 0.3, 2)
            eps = rng.uniform(0.1, 0.6)
            region = BallRegion(center, eps, np.inf)
            grad_c = obj.grad(center)
            lam = rng.uniform(0.01, 2.0)
            # lam must certify the Hessian for soundness, but the improvement
            # property itself only needs gradient-Lipschitzness with lam; use
            # a certified lam for a faithful check
            from curvreach.hessian import hessian_norm_bound
            from curvreach.lipschitz import (default_loop_transform,
                                             jacobian_elementwise_bounds,
                                             lipschitz_report)
            from curvreach.localize import bounds_for_box
            local = bounds_for_box(net, center - eps, center + eps)
            lt = default_loop_transform(local)
            report = lipschitz_report(net, local, lt, 2)
            jac = jacobian_elementwise_bounds(net, local)
            lam = hessian_norm_bound(net, local, report, jac).lam
            if lam == 0.0:
                continue
            y = shifted_center(center, eps, grad_c, lam)
            eta_max = min(1.0, float(np.min(
                np.abs(grad_c) / (lam * (np.linalg.norm(eps * np.sign(grad_c))
                                         + eps)))))
            assert region.contains(y)
            ub_center = first_upper(obj, region, lam)
            ub_shifted = first_upper(obj, region, lam, y)
            assert ub_shifted <= ub_center + 1e-9
            assert 0.0 <= eta_max <= 1.0


class TestFirstLower:
    """Branch and bound's lower bound: exact evaluations at the center and at
    the model maximizers clipped into the box; checked at its root node."""

    def test_empty_candidates(self):
        # without the first-order model the root evaluates its center only
        obj = ScalarObjective(make_net([2, 4, 1], seed=3))
        center = np.array([0.1, 0.2])
        res = root_node(obj, center, 0.5)
        assert res.lb == pytest.approx(obj.value(center))
        assert np.allclose(res.witness, center)

    def test_linear_vertex_is_exact(self):
        W = np.array([[1.0, -2.0]])
        obj = ScalarObjective(linear_net(W))
        res = root_node(obj, np.zeros(2), 1.0, use_first_order=True)
        assert res.lb == pytest.approx(3.0)

    def test_witness_is_exact_evaluation(self):
        obj = ScalarObjective(make_net([2, 6, 1], seed=4))
        res = root_node(obj, np.zeros(2), 0.8, use_first_order=True)
        assert obj.value(res.witness) == pytest.approx(res.lb, abs=1e-9)
        assert np.all(np.abs(res.witness) <= 0.8)

    def test_bracket_with_grid(self):
        for k in range(5):
            obj = ScalarObjective(make_net([2, 8, 1], seed=1100 + k))
            res = root_node(obj, np.zeros(2), 0.5, use_first_order=True)
            gmax, _ = oracle.grid_max(obj.value, -0.5 * np.ones(2),
                                      0.5 * np.ones(2), n_per_axis=100,
                                      n_random=10_000, seed=k)
            assert res.lb <= gmax + 1e-9 <= res.ub + 1e-9


class TestCrossover:
    def test_substitution(self):
        assert epsilon_crossover(5.0, 3.0, 4.0, 2, 2) == pytest.approx(1.0)

    def test_no_slack(self):
        assert epsilon_crossover(3.0, 3.0, 1.0, 2, 4) == 0.0

    def test_zero_curvature_sentinel(self):
        assert math.isinf(epsilon_crossover(3.0, 1.0, 0.0, 2, 4))

    def test_formula_level_equivalence(self):
        # below the crossover radius the first-order formula wins, above it
        # the zeroth-order formula wins; both statements at formula level
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            g = rng.standard_normal(n)
            lam = rng.uniform(0.05, 3.0)
            for p in (2.0, np.inf):
                dual = np.linalg.norm(g) if p == 2 else np.abs(g).sum()
                L = dual + rng.uniform(0.0, 2.0)
                eps_max = epsilon_crossover(L, dual, lam, p, n)
                if eps_max <= 0:
                    continue
                region_small = BallRegion(np.zeros(n), eps_max * 0.999, p)
                region_big = BallRegion(np.zeros(n), eps_max * 1.001, p)
                for region, first_wins in ((region_small, True),
                                           (region_big, False)):
                    ub1 = first_upper_from(0.0, g, region, lam, np.zeros(n))
                    ub0 = L * region.radius
                    if first_wins:
                        assert ub1 <= ub0 + 1e-9
                    else:
                        assert ub1 >= ub0 - 1e-9


class TestDualUpper:
    def test_zero_matrix_linear(self):
        g = np.array([3.0, -4.0])
        assert two_layer_dual_upper(g, np.zeros((2, 2)), 0.5) == \
            pytest.approx(2.5, abs=1e-9)

    def test_isotropic_matches_scalar_route(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            g = rng.standard_normal(n)
            lam = rng.uniform(0.0, 2.0)
            eps = rng.uniform(0.2, 1.5)
            got = two_layer_dual_upper(g, lam * np.eye(n), eps)
            expect = np.linalg.norm(g) * eps + 0.5 * lam * eps * eps
            assert got == pytest.approx(expect, abs=1e-8)

    def test_indefinite_2d_vs_sampling(self):
        rng = np.random.default_rng(9)
        for k in range(15):
            A = rng.standard_normal((2, 2))
            M = (A + A.T) / 2.0 * 2.0
            g = rng.standard_normal(2)
            eps = rng.uniform(0.3, 1.2)
            val = two_layer_dual_upper(g, M, eps)
            samp = ball_sup_oracle(g, M, eps, seed=k)
            assert val >= samp - 1e-9
            assert val <= samp + 1e-6

    def test_negative_definite_interior(self):
        M = np.diag([-2.0, -1.0])
        g = np.array([0.4, 0.1])
        eps = 5.0
        # unconstrained max of g.d + d^T M d / 2 at d = -M^{-1} g, interior
        expect = 0.5 * g @ np.linalg.solve(-M, g)
        assert two_layer_dual_upper(g, M, eps) == pytest.approx(expect, abs=1e-8)

    def test_inf_ball_relaxation_encloses_box(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            A = rng.standard_normal((2, 2))
            M = (A + A.T)
            g = rng.standard_normal(2)
            eps = 0.5
            val = two_layer_dual_upper(g, M, eps, p=np.inf)
            # the relaxed value must dominate the box max
            fn = quad_model(g, M)
            xs = rng.uniform(-eps, eps, size=(50_000, 2))
            corners = eps * np.array([[sx, sy] for sx in (-1, 1)
                                      for sy in (-1, 1)])
            assert val >= fn(np.concatenate([xs, corners])).max() - 1e-9

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_nonpositive_radius_rejected(self, eps):
        with pytest.raises(ValueError, match="radius"):
            two_layer_dual_upper(np.ones(2), np.eye(2), eps)

    def test_asymmetric_matrix_read_through_its_symmetric_part(self):
        # the model reads sym(M) = [[1, 2.5], [2.5, 1]]; d = (1, 1) eps/sqrt 2
        # lies on the ball and attains 1.1446..., above what M's lower
        # triangle alone gives (0.8321...)
        g, M, eps = np.ones(2), np.array([[1.0, 5.0], [0.0, 1.0]]), 0.5
        d = np.full(2, eps / np.sqrt(2.0))
        attained = g @ d + 0.5 * d @ M @ d
        got = two_layer_dual_upper(g, M, eps)
        assert attained == pytest.approx(1.1446, abs=1e-4)
        assert got >= attained - 1e-12
        assert got == pytest.approx(ball_sup_oracle(g, M, eps), abs=1e-6)
        assert got == two_layer_dual_upper(g, (M + M.T) / 2.0, eps)

    @pytest.mark.parametrize("arg", ["grad", "M"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, arg, bad):
        g, M = np.ones(2), np.eye(2)
        (g if arg == "grad" else M)[0] = bad
        with pytest.raises(ValueError, match=f"{arg} must be finite"):
            two_layer_dual_upper(g, M, 0.5)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="M must have shape"):
            two_layer_dual_upper(np.ones(3), np.eye(2), 0.5)


def _every_vertex(lo, hi):
    """All 2**n vertices of the box, vertex i taking hi_j where bit j of i
    is set."""
    n = len(lo)
    upper = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) == 1
    return np.where(upper, hi, lo)


def _nonnegative_diagonal(rng, n, psd):
    """A PSD M, or an asymmetric M with a nonnegative diagonal whose
    symmetric part is indefinite for n >= 2."""
    A = rng.standard_normal((n, n))
    if psd:
        return A @ A.T / n
    np.fill_diagonal(A, rng.uniform(0.0, 0.5, n))
    return A


class TestVertexUpper:
    def test_linear_over_box(self):
        g = np.array([1.0, 2.0])
        got = vertex_upper(g, np.zeros((2, 2)), -np.ones(2), np.ones(2))
        assert got == pytest.approx(3.0)

    def test_identity_matrix_symmetric(self):
        got = vertex_upper(np.zeros(2), np.eye(2), -np.ones(2), np.ones(2))
        assert got == pytest.approx(1.0)

    def test_random_psd_3d_matches_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            M = A @ A.T
            g = rng.standard_normal(3)
            lo = rng.uniform(-1.5, -0.3, 3)
            hi = rng.uniform(0.3, 1.5, 3)
            got = vertex_upper(g, M, lo, hi)
            center = (lo + hi) / 2.0
            axes = [np.linspace(lo[i], hi[i], 11) for i in range(3)]
            mesh = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
            fn = quad_model(g, M)
            assert got == pytest.approx(fn(mesh - center).max(), abs=1e-9)

    def test_indefinite_rejected(self):
        # indefinite with a negative diagonal entry: concave along axis 2
        with pytest.raises(ValueError):
            vertex_upper(np.zeros(2), np.diag([1.0, -1.0]), -np.ones(2),
                         np.ones(2))

    def test_dimension_cap(self):
        n = 21
        with pytest.raises(ValueError):
            vertex_upper(np.zeros(n), np.eye(n), -np.ones(n), np.ones(n))

    @pytest.mark.parametrize("n", list(range(1, 13)) + [17])
    def test_stacked_matches_alone_and_every_vertex(self, n):
        # every dimension up to 12, and 17: more than 2**16 vertices, 32
        # blocks.  Boxes stacked on a leading axis are refused, naming the
        # argument; each box alone gets the model's largest value over all
        # vertices, at the witness it returns
        rng = np.random.default_rng(1300 + n)
        A = rng.standard_normal((2, n, n))
        M = A @ np.swapaxes(A, 1, 2) / n
        g = rng.standard_normal((2, n))
        lo = rng.uniform(-1.5, -0.3, (2, n))
        hi = rng.uniform(0.3, 1.5, (2, n))
        with pytest.raises(ValueError, match="lo must be a vector"):
            vertex_upper(g, M, lo, hi)
        for k in range(2):
            v, w = vertex_upper(g[k], M[k], lo[k], hi[k], return_witness=True)
            center = (lo[k] + hi[k]) / 2.0
            model = quad_model(g[k], M[k])
            brute = model(_every_vertex(lo[k], hi[k]) - center).max()
            assert abs(v - brute) <= 1e-12 * abs(brute)
            assert model(w - center)[0] == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 13])
    def test_off_centre_expansion_matches_every_vertex(self, n):
        # expanded at a point of the box other than its mid-point (m != 0 in
        # the sign table's terms), the value is the model's largest over all
        # vertices; n = 13 takes two blocks of vertices, and the third box's
        # M has rank 1
        rng = np.random.default_rng(1400 + n)
        A = rng.standard_normal((3, n, n))
        A[2, :, 1:] = 0.0
        M = A @ np.swapaxes(A, 1, 2) / n
        g = rng.standard_normal((3, n))
        lo = rng.uniform(-1.5, -0.3, (3, n))
        hi = rng.uniform(0.3, 1.5, (3, n))
        center = lo + rng.uniform(0.1, 0.9, (3, n)) * (hi - lo)
        for k in range(3):
            v, w = vertex_upper(g[k], M[k], lo[k], hi[k], center[k],
                                return_witness=True)
            model = quad_model(g[k], M[k])
            brute = model(_every_vertex(lo[k], hi[k]) - center[k]).max()
            assert abs(v - brute) <= 1e-12 * abs(brute)
            assert model(w - center[k])[0] == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("psd", [True, False])
    @pytest.mark.parametrize("n", range(1, 14))
    def test_nonnegative_diagonal_is_exact_over_the_box(self, n, psd):
        # PSD M, and asymmetric indefinite M with a nonnegative diagonal,
        # expanded off the box centre: the value is the brute-force maximum over every
        # vertex (n = 13 spans two blocks), and no point of a dense grid (n
        # <= 3) or of a random sample of the box lies above it
        rng = np.random.default_rng(1500 + 2 * n + psd)
        M = _nonnegative_diagonal(rng, n, psd)
        assert psd or n == 1 or np.linalg.eigvalsh(M + M.T)[0] < 0.0
        g = rng.standard_normal(n)
        lo = rng.uniform(-1.5, 0.0, n)
        hi = lo + rng.uniform(0.1, 2.0, n)
        center = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
        v, w = vertex_upper(g, M, lo, hi, center, return_witness=True)
        model = quad_model(g, M)
        brute = model(_every_vertex(lo, hi) - center).max()
        assert abs(v - brute) <= 1e-12 * max(1.0, abs(brute))
        assert model(w - center)[0] == pytest.approx(v, rel=1e-12, abs=1e-12)
        if n <= 3:
            axes = [np.linspace(lo[i], hi[i], 41) for i in range(n)]
            pts = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
        else:
            pts = rng.uniform(lo, hi, (20_000, n))
        assert model(pts - center).max() <= v + 1e-12 * max(1.0, abs(v))

    def test_just_beyond_the_psd_tolerance_rejected(self):
        M = np.diag([1.0, -2e-9])
        with pytest.raises(ValueError, match="diagonal"):
            vertex_upper(np.zeros(2), M, -np.ones(2), np.ones(2))

    def test_psd_tolerance_is_accounted(self):
        # M_11 = -5e-10 passes the diagonal check; the model's maximum over
        # the box is 0, at the centre, which no vertex attains
        got = vertex_upper(np.zeros(1), [[-5e-10]], [-1.0], [1.0])
        assert got >= 0.0

    def test_negative_diagonal_slack_is_per_axis(self):
        # only axis 2 has M_ii < 0: the vertex maximum 0.5 - 2.5e-10 (at
        # x_2 = -1) gets 1/2 * 5e-10 * far_2^2 added, with far_2 = 2 the
        # larger distance from the expansion point to an end of axis 2
        M = np.diag([1.0, -5e-10])
        lo, hi, c = np.array([-1.0, -1.0]), np.array([1.0, 2.0]), np.zeros(2)
        plain = vertex_upper(np.zeros(2), np.diag([1.0, 0.0]), lo, hi, c)
        got = vertex_upper(np.zeros(2), M, lo, hi, c)
        assert plain == 0.5
        assert got == pytest.approx(0.5 - 0.5 * 5e-10 + 0.5 * 5e-10 * 4.0,
                                    rel=1e-15)

    @pytest.mark.parametrize("arg", ["grad", "M", "lo", "hi", "center"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, arg, bad):
        args = dict(grad=np.ones(2), M=np.eye(2), lo=-np.ones(2),
                    hi=np.ones(2), center=np.zeros(2))
        args[arg].flat[0] = bad
        with pytest.raises(ValueError, match=f"{arg} must be finite"):
            vertex_upper(**args)

    def test_reversed_box_rejected(self):
        with pytest.raises(ValueError, match="lo must not exceed hi"):
            vertex_upper(np.ones(2), np.zeros((2, 2)), np.ones(2),
                         -np.ones(2))

    @pytest.mark.parametrize("arg, value", [("grad", np.ones(3)),
                                            ("M", np.eye(3)),
                                            ("hi", np.ones(3)),
                                            ("center", np.zeros(3))])
    def test_mismatched_shapes_rejected(self, arg, value):
        args = dict(grad=np.ones(2), M=np.eye(2), lo=-np.ones(2),
                    hi=np.ones(2), center=np.zeros(2))
        args[arg] = value
        with pytest.raises(ValueError, match=f"{arg} must have shape"):
            vertex_upper(**args)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 100_000))
def test_p2_model_tightness(seed):
    # value of the quadratic model at the optimal perturbation equals the
    # first-order upper bound exactly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    g = rng.standard_normal(n)
    lam = float(rng.uniform(0, 4))
    eps = float(rng.uniform(0.1, 2.0))
    y = rng.uniform(-0.2, 0.2, n)
    center = np.zeros(n)
    region = BallRegion(center, eps, 2)
    if not region.contains(y):
        y = np.zeros(n)
    x_star = optimal_perturbation(center, eps, 2, g, lam, y)
    d = x_star - y
    model_at_star = g @ d + 0.5 * lam * d @ d
    ub = first_upper_from(0.0, g, region, lam, y)
    assert abs(model_at_star - ub) <= 1e-12 * max(1.0, abs(ub))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 100_000))
def test_vertex_bound_never_above_the_ball_bounds(seed):
    # with M PSD the vertex maximum is exact over the box, while the dual
    # (ell_2 ball of radius eps sqrt(n)) and the isotropic bound (ell_inf ball
    # of radius eps, lam = lam_max(M)) maximize over supersets of it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    A = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    M = A @ A.T * rng.uniform(0.0, 3.0)
    g = rng.standard_normal(n) * rng.uniform(0.0, 2.0)
    lo = rng.uniform(-1.5, 1.0, n)
    hi = lo + rng.uniform(0.01, 2.0, n)
    center = (lo + hi) / 2.0
    eps = float(np.max(hi - lo)) / 2.0
    lam = max(float(np.linalg.eigvalsh(M)[-1]), 0.0)
    v = vertex_upper(g, M, lo, hi, center)
    dual = two_layer_dual_upper(g, M, eps * np.sqrt(n), p=2)
    iso = first_upper_from(0.0, g, BallRegion(center, eps, np.inf), lam,
                           center)
    slack = 1e-12 * max(1.0, abs(v))
    assert v <= dual + slack
    assert v <= iso + slack


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 100_000))
def test_box_maximizer_is_exact_over_the_box(seed):
    # with per-coordinate radii r the ell_inf maximizer is the model's exact
    # maximum over the box c +- r (the brute-force vertex maximum, since the
    # model is convex), never above the one over the cube of radius max(r)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    g = rng.standard_normal(n) * (rng.random(n) < 0.9)
    lam = float(rng.uniform(0.0, 4.0)) * (rng.random() < 0.8)
    lo = rng.uniform(-1.5, 1.0, n)
    hi = lo + np.exp(rng.uniform(np.log(1e-3), np.log(2.0), n))
    c = (lo + hi) / 2.0
    r = (hi - lo) / 2.0

    def model(x):
        d = np.atleast_2d(x) - c
        return d @ g + 0.5 * lam * np.einsum("ij,ij->i", d, d)

    box = float(model(optimal_perturbation(c, r, np.inf, g, lam, c))[0])
    mask = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    brute = float(model(np.where(mask == 1, hi, lo)).max())
    cube = float(model(optimal_perturbation(c, float(r.max()), np.inf, g,
                                            lam, c))[0])
    slack = 1e-12 * max(1.0, abs(brute))
    assert abs(box - brute) <= slack
    assert box <= cube + slack
