import numpy as np
import pytest

from curvreach import oracle
from curvreach.lipschitz import default_loop_transform, liplt, operator_norm
from curvreach.localize import bounds_for_box
from curvreach.model import ScalarObjective
from conftest import linear_net, make_net


class TestGridMax:
    def test_linear_with_vertices_exact(self):
        W = np.array([[2.0, -3.0]])
        obj = ScalarObjective(linear_net(W))
        val, arg = oracle.grid_max(obj.value, -np.ones(2), np.ones(2),
                                   n_per_axis=5)
        assert val == pytest.approx(5.0)
        assert np.allclose(arg, [1.0, -1.0])

    def test_constant(self):
        val, _ = oracle.grid_max(lambda xs: np.full(len(xs), 3.25),
                                 -np.ones(2), np.ones(2), n_per_axis=3,
                                 n_random=100)
        assert val == 3.25

    def test_below_bnb_upper_bound(self):
        from curvreach.bnb import solve
        net = make_net([2, 6, 1], seed=5000)
        obj = ScalarObjective(net)
        res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-3)
        val, _ = oracle.grid_max(obj.value, -np.ones(2), np.ones(2),
                                 n_per_axis=80, n_random=10_000, seed=0)
        assert val <= res.ub + 1e-9

    def test_seeded_determinism(self):
        net = make_net([2, 5, 1], seed=5100)
        obj = ScalarObjective(net)
        a = oracle.grid_max(obj.value, -np.ones(2), np.ones(2), n_random=500,
                            seed=7)
        b = oracle.grid_max(obj.value, -np.ones(2), np.ones(2), n_random=500,
                            seed=7)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])


class TestFiniteDifferences:
    def test_quadratic_hessian_recovered(self):
        Q = np.array([[2.0, 0.5], [0.5, -1.0]])
        def f(xs):
            xs = np.atleast_2d(xs)
            return 0.5 * np.einsum("ij,jk,ik->i", xs, Q, xs)
        H = oracle.fd_hessian(f, np.array([0.3, -0.7]))
        assert np.abs(H - Q).max() < 1e-6

    def test_tanh_odd_second_derivative_zero(self):
        def f(xs):
            return np.tanh(np.atleast_2d(xs))[:, 0]
        H = oracle.fd_hessian(f, np.zeros(1))
        assert abs(H[0, 0]) < 1e-6

    def test_gradient_matches_model(self):
        net = make_net([3, 8, 1], seed=5200)
        obj = ScalarObjective(net)
        x = np.array([0.2, -0.4, 0.1])
        g = oracle.fd_gradient(obj.value, x)
        assert np.abs(g - obj.grad(x)).max() / max(np.abs(g).max(), 1e-9) \
            < 1e-5


class TestSampledLipschitz:
    def test_linear_map_approaches_norm_from_below(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((2, 2))
        fn = lambda xs: np.atleast_2d(xs) @ W.T
        exact = operator_norm(W, 2)
        got = oracle.sampled_lipschitz(fn, -np.ones(2), np.ones(2),
                                       n_pairs=20_000, p=2, seed=0)
        assert got <= exact + 1e-9
        assert got >= 0.98 * exact

    def test_constant_map(self):
        fn = lambda xs: np.zeros((len(np.atleast_2d(xs)), 2))
        assert oracle.sampled_lipschitz(fn, -np.ones(2), np.ones(2),
                                        n_pairs=100) == 0.0

    def test_below_certified_bound(self):
        net = make_net([2, 8, 8, 1], seed=5300)
        obj = ScalarObjective(net)
        lo, hi = -np.ones(2), np.ones(2)
        local = bounds_for_box(net, lo, hi)
        bound = liplt(net, local, default_loop_transform(local), np.inf)
        got = oracle.sampled_lipschitz(obj.value, lo, hi, n_pairs=30_000,
                                       p=np.inf, seed=1)
        assert got <= bound + 1e-7

    def test_needs_pairs(self):
        with pytest.raises(ValueError):
            oracle.sampled_lipschitz(lambda x: x, -np.ones(1), np.ones(1),
                                     n_pairs=0)


class TestPolishedMax:
    def test_polish_beats_grid_on_smooth_peak(self):
        # peak at an off-lattice point: the ascent polish must localize it
        peak = np.array([0.123456789, -0.654321987])

        def fn(xs):
            xs = np.atleast_2d(xs)
            return -((xs - peak) ** 2).sum(axis=1)

        raw, _ = oracle.grid_max(fn, -np.ones(2), np.ones(2), n_per_axis=30,
                                 n_random=1000, seed=0)
        polished, arg = oracle.polished_max(fn, -np.ones(2), np.ones(2),
                                            n_per_axis=30, n_random=1000,
                                            seed=0)
        assert polished >= raw
        assert polished >= -1e-12
        assert np.abs(arg - peak).max() < 1e-6

    def test_polish_stays_in_box(self):
        fn = lambda xs: np.atleast_2d(xs).sum(axis=1)
        val, arg = oracle.polished_max(fn, -np.ones(2), np.ones(2),
                                       n_per_axis=5)
        assert val == pytest.approx(2.0, abs=1e-9)
        assert np.all(arg <= 1.0 + 1e-12)

    def test_never_below_plain_grid(self):
        net = make_net([2, 6, 1], seed=5400)
        obj = ScalarObjective(net)
        raw, _ = oracle.grid_max(obj.value, -np.ones(2), np.ones(2),
                                 n_per_axis=40, n_random=2000, seed=3)
        polished, _ = oracle.polished_max(obj.value, -np.ones(2), np.ones(2),
                                          n_per_axis=40, n_random=2000, seed=3)
        assert polished >= raw - 1e-15


@pytest.mark.parametrize("search", [oracle.grid_max, oracle.polished_max])
def test_single_point_lattice_is_the_centre(search):
    # the one lattice point joins the random samples, and beats them here
    fn = lambda xs: -(np.atleast_2d(xs) ** 2).sum(axis=1)
    val, arg = search(fn, -np.ones(2), np.ones(2), n_per_axis=1, n_random=3,
                      **({"sweeps": 0} if search is oracle.polished_max
                         else {}))
    assert val == 0.0 and np.array_equal(arg, np.zeros(2))


@pytest.mark.parametrize("search", [oracle.grid_max, oracle.polished_max])
def test_rejects_inverted_box(search):
    with pytest.raises(ValueError, match="exceeds"):
        search(lambda xs: np.atleast_2d(xs)[:, 0], np.ones(2), -np.ones(2),
               n_random=10)


def test_report_round_trip():
    rep = oracle.OracleReport("grid_max", 1.25, 1000, 7)
    d = rep.to_dict()
    assert d == {"quantity": "grid_max", "value": 1.25, "samples": 1000,
                 "seed": 7}
