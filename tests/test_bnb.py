from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach import bnb, oracle
from curvreach.bnb import (BnBConfig, Lockstep, as_objective, solve,
                           solve_zonotope, _Bounder)
from curvreach.model import Activation, ScalarObjective, scalarize
from conftest import (assert_same_result, blind_to_input, collapsed,
                      linear_net, make_net, monotone_calls, node_rows,
                      node_streams, shipped_initial_set, shipped_system)


def scalar_linear(w, b=0.0):
    return ScalarObjective(linear_net(np.atleast_2d(w), b=[b]))


def _per_box(lo, first=0, parent_ub=np.inf):
    """The per-box ``index``, ``parent_ub`` and ``dirs`` of ``_Bounder.bound``
    for a stack ``lo`` of direction 0: its boxes numbered from ``first`` in
    stack order, each capped by ``parent_ub`` (one value or one per box)."""
    n = len(lo)
    return (np.arange(first, first + n),
            np.broadcast_to(np.asarray(parent_ub, dtype=float), n),
            np.zeros(n, dtype=int))


def _bound_passes(monkeypatch):
    """Record the nodes of each ``_Bounder.bound`` pass."""
    real = _Bounder.bound
    passes = []

    def bound(self, *args):
        nodes = real(self, *args)
        passes.append(nodes)
        return nodes

    monkeypatch.setattr(_Bounder, "bound", bound)
    return passes


def _linear_relaxation(obj, lo, hi):
    """The linear-relaxation bound of ``obj`` over the box [lo, hi], summed
    plainly: each hidden unit's activation lies between the lines of slope
    ``k = slope_lo`` through the ends of its IBP interval [l, u], and a
    backward pass keeps ``J(x) <= a . x + const`` on the box."""
    from curvreach.localize import bounds_for_box
    from curvreach.model import act_value
    local = bounds_for_box(obj.net, lo, hi)
    layers = obj.net.layers
    a, const = layers[-1].weight[0], layers[-1].bias[0] + obj.offset
    for lay, k, l, u in reversed(list(zip(layers, local.slope_lo,
                                          local.z_lo, local.z_hi))):
        above = act_value(lay.activation, u) - k * u
        below = act_value(lay.activation, l) - k * l
        const += np.where(a > 0.0, a * above, a * below).sum()
        a = a * k
        const += a @ lay.bias
        a = a @ lay.weight
    if obj.linear is not None:
        a = a + obj.linear
    return const + a @ ((lo + hi) / 2.0) + np.abs(a) @ ((hi - lo) / 2.0)


class TestNodeBounds:
    def test_linear_converges_at_root(self):
        obj = scalar_linear([2.0, -1.0], b=0.5)
        res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-6)
        assert res.status == "Converged"
        assert res.branches_processed == 1
        assert res.ub - res.lb <= 1e-12
        assert res.lb == pytest.approx(3.5)

    def test_constant_objective(self):
        obj = scalar_linear([0.0, 0.0], b=7.0)
        res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-9)
        assert res.branches_processed == 1
        assert res.lb == res.ub == pytest.approx(7.0)

    def test_random_tanh_bracket_contains_grid(self):
        for k in range(5):
            net = make_net([2, 8, 1], seed=1200 + k)
            obj = ScalarObjective(net)
            res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-3)
            gmax, _ = oracle.grid_max(obj.value, -np.ones(2), np.ones(2),
                                      n_per_axis=150, n_random=20_000, seed=k)
            assert res.status == "Converged"
            assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    def test_witness_realizes_lb(self):
        net = make_net([2, 6, 1], seed=1300)
        obj = ScalarObjective(net)
        res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-3)
        assert obj.value(res.witness) == pytest.approx(res.lb, abs=1e-9)
        assert np.all(res.witness >= -1 - 1e-12)
        assert np.all(res.witness <= 1 + 1e-12)


class TestSelect:
    def test_largest_child_selected_next(self, monkeypatch):
        # after a split, solve always expands the pool-max node: verified by
        # the heap invariant through a short deterministic run
        net = make_net([2, 6, 1], seed=1400)
        obj = ScalarObjective(net)
        passes = _bound_passes(monkeypatch)
        res = solve(obj, -np.ones(2), np.ones(2), eps_t=1e-4)
        assert res.status == "Converged"
        diams = [float(np.max(node.hi - node.lo))
                 for nodes in passes for node in nodes]
        # maxlen bisection only ever halves the current longest edge
        assert max(diams) == diams[0]


def _nodes(lo, hi):
    """The nodes of the stacked boxes ``lo``, ``hi``, bounded in one pass."""
    obj = scalar_linear(np.ones(lo.shape[1]))
    return _Bounder([obj], BnBConfig()).bound(lo, hi, *_per_box(lo))


class TestSplit:
    """Each node carries its split axis from its bound pass, and ``_halves``
    builds the children of a batch of nodes at once."""

    def test_maxlen_longest_axis(self):
        node, = _nodes(np.array([[0.0, 0.0]]), np.array([[4.0, 1.0]]))
        assert node.axis == 0
        (l1, l2), (h1, h2), index, parent_ub = bnb._halves([node], 7)
        assert h1[0] == 2.0 and l2[0] == 2.0
        assert index.tolist() == [7, 8]
        assert parent_ub.tolist() == [node.ub, node.ub]

    def test_tie_breaks_smallest_axis(self):
        lo = np.zeros((4, 3))
        hi = np.array([[1.0, 1.0, 1.0], [0.5, 2.0, 2.0], [0.5, 1.0, 2.0],
                       [3.0, 1.0, 3.0]])
        assert [node.axis for node in _nodes(lo, hi)] == [0, 1, 2, 0]

    def test_partition_exact(self):
        lo = np.array([[-1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [0.3, -0.2, 1.0]])
        hi = np.array([[1.0, 3.0, 2.75], [1.0, 3.0, 1.0], [0.7, 0.9, 1.1]])
        nodes = _nodes(lo, hi)
        assert [node.axis for node in nodes] == [2, 1, 1]
        los, his, _, _ = bnb._halves(nodes, 1)
        for k, node in enumerate(nodes):
            a, other = node.axis, np.arange(3) != node.axis
            (l1, l2), (h1, h2) = los[2 * k:2 * k + 2], his[2 * k:2 * k + 2]
            assert np.array_equal(l1, lo[k]) and np.array_equal(h2, hi[k])
            assert h1[a] == l2[a] == (lo[k, a] + hi[k, a]) / 2
            assert np.array_equal(h1[other], hi[k, other])
            assert np.array_equal(l2[other], lo[k, other])

    def test_too_small_to_split(self):
        # the longest edge must exceed 1e-13 times max(1, |center|_inf)
        lo = np.array([[0.3, -0.2], [1e3, 0.0], [1e3, 0.0]])
        hi = lo + np.array([[1e-15, 0.0], [5e-11, 0.0], [2e-10, 0.0]])
        assert [node.axis for node in _nodes(lo, hi)] == [-1, -1, 0]
        point = np.array([[0.0, 1.0]])
        assert _nodes(point, point)[0].axis == -1


class TestSolveContracts:
    def test_determinism(self):
        net = make_net([2, 8, 1], seed=1600)
        obj = ScalarObjective(net)
        cfg = BnBConfig(eps_t=1e-3)
        r1 = solve(obj, -np.ones(2), np.ones(2), cfg=cfg)
        r2 = solve(obj, -np.ones(2), np.ones(2), cfg=cfg)
        assert r1.lb == r2.lb
        assert r1.ub == r2.ub
        assert r1.branches_processed == r2.branches_processed
        assert np.array_equal(r1.witness, r2.witness)

    def test_branch_limit_status_and_valid_bracket(self):
        net = make_net([2, 8, 8, 1], seed=1700)
        obj = ScalarObjective(net)
        cfg = BnBConfig(eps_t=1e-9, max_branches=20)
        res = solve(obj, -np.ones(2), np.ones(2), cfg=cfg)
        assert res.status == "BranchLimit"
        gmax, _ = oracle.grid_max(obj.value, -np.ones(2), np.ones(2),
                                  n_per_axis=120, n_random=10_000, seed=0)
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    def test_invalid_eps_t(self):
        obj = scalar_linear([1.0])
        with pytest.raises(ValueError):
            solve(obj, -np.ones(1), np.ones(1), eps_t=0.0)

    @pytest.mark.parametrize("field, value", [
        ("eps_t", 0.0), ("eps_t", -1e-3), ("eps_t", np.nan),
        ("max_branches", 0), ("max_branches", -3), ("max_branches", 2.5),
        ("max_branches", 5.0), ("max_branches", True),
    ])
    def test_config_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            BnBConfig(**{field: value})
        # a solve never sees it: replacing a field validates it too
        with pytest.raises(ValueError, match=field):
            solve(scalar_linear([1.0]), -np.ones(1), np.ones(1),
                  cfg=replace(BnBConfig(), **{field: value}))

    def test_config_accepts_its_limits(self):
        # an infinite gap is the zeroth-order root fallback's
        cfg = BnBConfig(eps_t=np.inf, max_branches=np.int64(1))
        assert cfg.eps_t == np.inf and cfg.max_branches == 1

    def test_bad_box(self):
        obj = scalar_linear([1.0, 1.0])
        with pytest.raises(ValueError):
            solve(obj, np.ones(2), -np.ones(2), eps_t=1e-2)
        with pytest.raises(ValueError):
            solve(obj, np.zeros(3), np.ones(3), eps_t=1e-2)

    def test_monotone_global_bounds(self):
        # lb never decreases, ub never increases along the run
        net = make_net([2, 8, 1], seed=1900)
        obj = ScalarObjective(net)

        lbs, ubs = [], []
        cfg = BnBConfig(eps_t=1e-4, max_branches=400)
        # re-run with increasing budgets: the final bracket must tighten
        for budget in (1, 3, 9, 27, 81):
            res = solve(obj, -np.ones(2), np.ones(2),
                        cfg=BnBConfig(eps_t=1e-12, max_branches=budget))
            lbs.append(res.lb)
            ubs.append(res.ub)
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ubs, ubs[1:]))

    def test_first_order_reduces_branches(self):
        net = make_net([2, 8, 8, 1], seed=2000)
        obj = ScalarObjective(net)
        both = solve(obj, -np.ones(2), np.ones(2),
                     cfg=BnBConfig(eps_t=1e-3))
        zeroth = solve(obj, -np.ones(2), np.ones(2),
                       cfg=BnBConfig(eps_t=1e-3, use_first_order=False))
        assert both.status == zeroth.status == "Converged"
        assert both.branches_processed <= zeroth.branches_processed

    def test_crossover_fraction_grows_as_nodes_shrink(self, monkeypatch):
        # over [-1, 1]^2 the monotonicity test moves many nodes onto vertices,
        # where no bound wins; over [-2, 2]^2 none of the smaller half's
        # boxes is a point
        net = make_net([2, 8, 8, 1], seed=2100)
        obj = ScalarObjective(net)
        passes = _bound_passes(monkeypatch)
        solve(obj, -2.0 * np.ones(2), 2.0 * np.ones(2),
              cfg=BnBConfig(eps_t=5e-4))
        monkeypatch.undo()
        lo = np.array([node.lo for nodes in passes for node in nodes])
        hi = np.array([node.hi for nodes in passes for node in nodes])
        assert len(lo) > 20
        # the first-order bound won where the box's upper bound lies below
        # that of the zeroth-order bound alone
        ub = [np.array([node.ub for node in _Bounder(
                  [obj], BnBConfig(use_first_order=first)).bound(
                      lo, hi, *_per_box(lo))])
              for first in (True, False)]
        wins = ub[0] < ub[1]
        diams = np.max(hi - lo, axis=1)
        cut = np.median(diams)
        small = wins[diams < cut]
        large = wins[diams >= cut]
        assert small.size and large.size
        assert small.mean() >= large.mean()

    def test_accepts_bare_network(self):
        net = make_net([2, 5, 1], seed=2500)
        res = solve(net, -np.ones(2), np.ones(2), eps_t=1e-2)
        assert res.status == "Converged"

    def test_rejects_vector_network(self):
        net = make_net([2, 5, 3], seed=2600)
        with pytest.raises(ValueError):
            as_objective(net)


GOLDEN = [
    # (dims, net seed, status, branches, max_active, flagged, lb, ub,
    #  witness) recorded from the solver's batched loop; floats are float.hex
    #  so any change to node order or arithmetic shows.  The depth-3 row was
    #  re-recorded when its nodes gained the interval Hessian bound, which
    #  converges where the spectral bound alone stopped at the budget; the
    #  depth-2 row when the two-layer matrix route gave way to the path of
    #  every depth, with the linear-relaxation bound.  Both rows were
    #  re-recorded when the monotonicity test began to move boxes onto
    #  their faces (depth 3: 275 branches, max_active 24, ub
    #  0x1.824709f340a19p+0 before; depth 2: 49 branches, ub
    #  0x1.443239692c026p+1 before; lb and witness unchanged), and again
    #  when the batched search stopped replaying the one-node loop (depth
    #  3: 139 branches, max_active 20, ub 0x1.8245fad81e439p+0 before;
    #  depth 2: max_active 4 before)
    ([3, 6, 5, 1], 3701, "Converged", 143, 13, 0,
     "0x1.8209edfcce047p+0", "0x1.821ffec7814acp+0",
     ["-0x1.a000000000000p-3", "0x1.0000000000000p-1",
      "-0x1.0000000000000p-1"]),
    ([3, 6, 1], 3800, "Converged", 31, 3, 0,
     "0x1.44119d8456922p+1", "0x1.44236c8d75bd7p+1",
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1",
      "-0x1.0000000000000p-1"]),
]


@pytest.mark.parametrize("dims,seed,status,branches,max_active,flagged,lb,"
                         "ub,witness", GOLDEN,
                         ids=["depth3-interval-path", "depth2-one-path"])
def test_golden_solve(dims, seed, status, branches, max_active, flagged, lb,
                      ub, witness):
    # both depths take the smallest of the spectral, the interval Hessian
    # and the linear-relaxation bounds
    net = make_net(dims, seed=seed, scale=2.0)
    res = solve(ScalarObjective(net), -0.5 * np.ones(3), 0.5 * np.ones(3),
                cfg=BnBConfig(eps_t=1e-3, max_branches=300))
    assert res.status == status
    assert res.branches_processed == branches
    assert res.max_active == max_active
    assert res.flagged_nodes == flagged
    assert res.lb.hex() == lb
    assert res.ub.hex() == ub
    assert [float(w).hex() for w in res.witness] == witness


class TestActivationsEndToEnd:
    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 7), min_size=1, max_size=3),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 3.0))
    def test_bracket_validity(self, act, hidden, seed, scale):
        # depth 2-4; a budget-limited bracket must be valid too
        net = make_net([2, *hidden, 1], act=act, seed=seed, scale=scale)
        obj = ScalarObjective(net)
        res = solve(obj, -np.ones(2), np.ones(2),
                    cfg=BnBConfig(eps_t=1e-3, max_branches=100))
        assert res.status in ("Converged", "BranchLimit")
        assert obj.value(res.witness) == pytest.approx(res.lb, abs=1e-9)
        gmax, _ = oracle.polished_max(obj.value, -np.ones(2), np.ones(2),
                                      n_per_axis=20, n_random=500, seed=seed)
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 7), min_size=1, max_size=3),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 3.0))
    def test_root_bound_on_non_cubic_boxes(self, act, hidden, seed, scale):
        # depth 2-4: the root's model is maximized over the box itself, so
        # its ub must hold on boxes whose edges differ by up to 40x
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=scale)
        obj = ScalarObjective(net)
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.05, 2.0, 3)
        res = solve(obj, lo, hi, cfg=BnBConfig(eps_t=1e-9, max_branches=1))
        assert res.branches_processed == 1
        gmax, _ = oracle.polished_max(obj.value, lo, hi, n_per_axis=12,
                                      n_random=500, seed=seed)
        assert gmax <= res.ub + 1e-9

    def test_softplus_two_layer_matrix_route(self):
        # softplus has one-sided curvature [0, 1/4]: M and N are both built
        # from nonnegative unit curvatures, signed by the output weights
        from curvreach import oracle as orc
        from curvreach.hessian import two_layer_matrix_bounds
        from curvreach.localize import bounds_for_box
        net = make_net([2, 6, 1], act=Activation.SOFTPLUS, seed=3500)
        obj = ScalarObjective(net)
        lo, hi = -np.ones(2), np.ones(2)
        local = bounds_for_box(net, lo, hi)
        mb = two_layer_matrix_bounds(net, local)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = lo + 0.02 + rng.random(2) * (hi - lo - 0.04)
            H = orc.fd_hessian(obj.value, x)
            assert np.linalg.eigvalsh(mb.M - H).min() >= -1e-6
            assert np.linalg.eigvalsh(H - mb.N).min() >= -1e-6
        res = solve(obj, lo, hi, eps_t=1e-3)
        assert res.status == "Converged"

    def test_identity_hidden_layers_linear_exactness(self):
        rng = np.random.default_rng(4)
        from curvreach.model import Layer, Network
        W1 = rng.standard_normal((4, 2))
        W2 = rng.standard_normal((1, 4))
        net = Network((Layer(W1, np.zeros(4), Activation.IDENTITY),
                       Layer(W2, np.zeros(1), None)))
        res = solve(ScalarObjective(net), -np.ones(2), np.ones(2), eps_t=1e-9)
        assert res.status == "Converged"
        assert res.branches_processed == 1
        exact = np.abs(W2 @ W1).sum()
        assert res.ub == pytest.approx(exact, abs=1e-9)


class TestFailureEnvelope:
    def test_model_failure_flags_node(self, monkeypatch):
        # the Taylor models fail numerically on every box in x_0 <= -0.5,
        # where the maximum lies: each is flagged and keeps its parent's
        # upper bound
        net = make_net([2, 6, 1], seed=3600)
        obj = ScalarObjective(net)
        real = _Bounder._taylor_model

        def broken(self, net, cert, value_c, grad_c, x_iso, center, linear):
            # the box's upper end, from its maximizer c + r * sign(g)
            hi = center + np.abs(x_iso - center)
            if (hi[:, 0] <= -0.5).any():
                raise FloatingPointError("overflow")
            return real(self, net, cert, value_c, grad_c, x_iso, center,
                        linear)

        monkeypatch.setattr(_Bounder, "_taylor_model", broken)
        res = solve(obj, -np.ones(2), np.ones(2),
                    cfg=BnBConfig(eps_t=1e-3, max_branches=200))
        assert res.flagged_nodes > 0
        # remaining routes keep the bracket valid
        from curvreach import oracle as orc
        gmax, _ = orc.polished_max(obj.value, -np.ones(2), np.ones(2),
                                   n_per_axis=90, n_random=5_000, seed=1)
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    def test_bound_engine_failure_keeps_parent_bounds(self, monkeypatch):
        net = make_net([2, 6, 1], seed=3100)
        obj = ScalarObjective(net)
        cfg = BnBConfig(eps_t=1e-3)
        bounder = _Bounder([obj], cfg)
        lo = -np.ones((1, 2))
        root, = bounder.bound(lo, np.ones((1, 2)), *_per_box(lo))

        def broken(lo, hi):
            raise np.linalg.LinAlgError("engine down")

        monkeypatch.setattr(bounder, "_certificate", broken)
        child, = bounder.bound(lo, np.zeros((1, 2)),
                               *_per_box(lo, 1, root.ub))
        assert child.flagged
        assert child.ub == root.ub
        assert child.lb == pytest.approx(obj.value(child.center))

    def test_zeroth_order_on_a_linear_net(self):
        # no hidden layer and no first-order bound: each box's Lipschitz
        # constant is a scalar, and no child is looser than the root
        obj = scalar_linear([1.0, -2.0])
        cfg = BnBConfig(eps_t=1e-3, use_first_order=False, max_branches=21)
        res = solve(obj, -np.ones(2), np.ones(2), cfg=cfg)
        assert res.branches_processed == 21 and res.ub == 3.0

    def test_overflowed_interval_hessian_keeps_the_lam_bound(self,
                                                             monkeypatch):
        # the linear-relaxation bound overflows too, or it would win
        from curvreach import hessian as hs
        from curvreach import lipschitz as lip
        from curvreach.localize import bounds_for_box
        obj = ScalarObjective(make_net([2, 6, 5, 1], seed=4200))
        lo, hi = -np.ones((1, 2)), np.ones((1, 2))
        # the ell_inf constant of the stack, which a pass computes for a box
        # whose first-order certificate failed
        local = bounds_for_box(obj.net, lo, hi)
        l_inf = lip.liplt(obj.net, local, lip.default_loop_transform(local),
                          np.inf)
        # the full spectral bound, of which a pass first takes the first
        # term
        local = bounds_for_box(obj.net, lo[0], hi[0])
        report = lip.lipschitz_report(obj.net, local,
                                      lip.default_loop_transform(local), 2)
        lam = hs.hessian_norm_bound(
            obj.net, local, report,
            lip.jacobian_elementwise_bounds(obj.net, local)).lam

        def overflowed(weights, jac_mid, jac_rad, local):
            nan = np.full(local.slope_hi[0].shape[:-1] + (2, 2), np.nan)
            return nan, nan

        monkeypatch.setattr(hs, "_interval_hessian_raw", overflowed)
        monkeypatch.setattr(_Bounder, "_linear_bound",
                            lambda self, obj, cert, center, r:
                            np.full(len(center), np.nan))
        node, = _Bounder([obj], BnBConfig()).bound(lo, hi, *_per_box(lo))
        value, grad = obj.value_and_grad(np.zeros(2))
        # half-edges 1: the lam model peaks at J(0) + |g|_1 + lam
        lam_model = value + np.abs(grad).sum() + lam
        assert node.ub == pytest.approx(min(value + l_inf[0], lam_model),
                                        rel=1e-12)

    def test_degenerate_box_solves_as_point(self):
        net = make_net([2, 5, 1], seed=3200)
        obj = ScalarObjective(net)
        x = np.array([0.3, -0.2])
        res = solve(obj, x, x, eps_t=1e-9)
        assert res.status == "Converged"
        assert res.lb == res.ub == pytest.approx(obj.value(x))

    def test_near_degenerate_finalizes(self):
        # the root's edges, 9e-14, are below the split threshold, and its
        # gap is above eps_t: the search pops it, finalizes it unsplit with
        # its own bounds and stops with an empty heap, its budget unspent.
        # J ignores x_1, so the monotonicity test can move the root onto a
        # face of axis 0 at most, which is still too small to split
        obj = ScalarObjective(blind_to_input(
            make_net([2, 16, 16, 1], seed=11, scale=3.0), 1))
        lo = np.array([0.3, -0.2])
        hi = lo + 9e-14
        res = solve(obj, lo, hi, cfg=BnBConfig(eps_t=1e-300))
        assert res.branches_processed == 1
        assert res.status == "Exhausted"
        assert 0.0 < res.ub - res.lb <= 1e-15
        xs = lo + (hi - lo) * np.random.default_rng(0).random((1000, 2))
        assert obj.value(xs).max() <= res.ub
        assert obj.value(res.witness) == pytest.approx(res.lb, rel=1e-15)


class TestModelBoundRouting:
    """A two-layer node takes the first-order path of every depth: it runs
    neither the sandwich matrices, the vertex enumeration nor the dual
    bisection, whatever its matrix or its number of inputs."""

    @staticmethod
    def _count_matrix_model_calls(monkeypatch):
        from curvreach import hessian as hs
        from curvreach import taylor as ty
        calls = []
        for owner, name in ((ty, "two_layer_dual_upper"),
                            (ty, "vertex_upper"),
                            (hs, "two_layer_matrix_bounds")):
            def counted(*args, real=getattr(owner, name), **kwargs):
                calls.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def _assert_bracket(obj, res, lo, hi):
        gmax, _ = oracle.polished_max(obj.value, lo, hi, n_random=5_000,
                                      seed=1)
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    def test_psd_sandwich_runs_no_matrix_model(self, monkeypatch):
        # softplus curvature lies in [0, 1/4]; with positive output weights
        # every unit adds a PSD term to the sandwich M on every box.  Over
        # [-1, 1]^2 the root collapses onto a vertex and converges; over
        # [-3, 3]^2 the solve branches
        from curvreach.model import Layer, Network
        hidden, out = make_net([2, 6, 1], act=Activation.SOFTPLUS,
                               seed=3500).layers
        net = Network((hidden, Layer(np.abs(out.weight), out.bias, None)))
        obj = ScalarObjective(net)
        calls = self._count_matrix_model_calls(monkeypatch)
        lo, hi = -3.0 * np.ones(2), 3.0 * np.ones(2)
        res = solve(obj, lo, hi, eps_t=1e-4)
        assert res.status == "Converged" and res.branches_processed > 1
        assert not calls
        self._assert_bracket(obj, res, lo, hi)

    def test_thirteen_inputs_run_no_matrix_model(self, monkeypatch):
        n = 13
        obj = ScalarObjective(make_net([n, 8, 1], seed=3700))
        calls = self._count_matrix_model_calls(monkeypatch)
        lo, hi = -0.5 * np.ones(n), 0.5 * np.ones(n)
        res = solve(obj, lo, hi, eps_t=1e-3, cfg=BnBConfig(max_branches=41))
        assert res.branches_processed > 1 and not calls
        self._assert_bracket(obj, res, lo, hi)


def _children(lo, hi):
    """The stacked children of the box [lo, hi], split as the solver does."""
    node, = _nodes(lo[None], hi[None])
    return bnb._halves([node], 1)[:2]


def _bound_stacked_and_alone(obj, lo, hi, parent_ub=np.inf):
    """``parent_ub`` is one value for all boxes or one per box.  ``obj`` is
    one objective for all boxes, or a list of one per box, directions that
    share their hidden layers and are stacked as in a lockstep pass."""
    args = _per_box(lo, 1, parent_ub)
    if isinstance(obj, list):
        stacked = _Bounder(obj, BnBConfig()).bound(lo, hi, *args[:2],
                                                   np.arange(len(obj)))
    else:
        stacked = _Bounder([obj], BnBConfig()).bound(lo, hi, *args)
        obj = [obj] * len(lo)
    alone = [_Bounder([obj[k]], BnBConfig()).bound(
                 lo[k:k + 1], hi[k:k + 1], *(a[k:k + 1] for a in args))[0]
             for k in range(len(lo))]
    return stacked, alone


def _assert_same_nodes(stacked, alone):
    # bit for bit: solve bounds the children of many nodes in one pass, and
    # each must get the bounds it gets alone
    assert len(stacked) == len(alone)
    for s, a in zip(stacked, alone):
        assert s.index == a.index
        # the box, which the monotonicity test may move onto a face
        assert np.array_equal(s.lo, a.lo) and np.array_equal(s.hi, a.hi)
        assert np.array_equal(s.center, a.center) and s.axis == a.axis
        assert s.lb == a.lb and s.ub == a.ub
        assert np.array_equal(s.witness, a.witness)
        assert s.flagged == a.flagged
        assert np.all((s.lo <= s.witness) & (s.witness <= s.hi))


class TestStackedBounds:
    """Both children of a split are bounded in one stacked pass; each must
    get the bounds it gets when bounded alone."""

    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 7), min_size=1, max_size=3),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 3.0))
    def test_stacked_matches_alone(self, act, hidden, seed, scale):
        # depth 2-4 on non-cubic boxes
        rng = np.random.default_rng(seed)
        obj = ScalarObjective(make_net([3, *hidden, 1], act=act, seed=seed,
                                       scale=scale))
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.05, 2.0, 3)
        _assert_same_nodes(*_bound_stacked_and_alone(obj, *_children(lo, hi)))

    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 7), min_size=1, max_size=3),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 3.0))
    def test_batch_of_children_matches_alone(self, act, hidden, seed, scale):
        # depth 2-4: the children of 2 * _BATCH distinct boxes in one pass,
        # as solve bounds a batch, each pair capped by its own parent's ub,
        # which binds on some boxes and not on others
        rng = np.random.default_rng(seed)
        obj = ScalarObjective(make_net([3, *hidden, 1], act=act, seed=seed,
                                       scale=scale))
        lo = rng.uniform(-1.5, 1.0, (bnb._BATCH, 3))
        hi = lo + rng.uniform(0.05, 2.0, (bnb._BATCH, 3))
        pairs = [_children(a, b) for a, b in zip(lo, hi)]
        lo2 = np.concatenate([a for a, _ in pairs])
        hi2 = np.concatenate([b for _, b in pairs])
        parent_ub = np.repeat(obj.value((lo + hi) / 2.0)
                              + rng.uniform(0.0, 2.0, bnb._BATCH), 2)
        stacked, alone = _bound_stacked_and_alone(obj, lo2, hi2, parent_ub)
        assert len(stacked) == 2 * bnb._BATCH
        _assert_same_nodes(stacked, alone)

    @pytest.mark.parametrize("dims", [[3, 6, 1], [3, 6, 5, 1],
                                      [3, 5, 4, 3, 1]],
                             ids=["depth2", "depth3", "depth4"])
    def test_collapsed_children_match_alone(self, dims):
        # the children of _BATCH small boxes, on some of which the
        # monotonicity test finds monotone axes: the faces they move onto,
        # their lower bounds and witnesses are those they get alone
        rng = np.random.default_rng(7)
        obj = ScalarObjective(make_net(dims, seed=5500, scale=2.0))
        lo = rng.uniform(-1.0, 1.0, (bnb._BATCH, 3))
        hi = lo + rng.uniform(0.02, 1.0, (bnb._BATCH, 3))
        pairs = [_children(a, b) for a, b in zip(lo, hi)]
        stacked, alone = _bound_stacked_and_alone(
            obj, np.concatenate([a for a, _ in pairs]),
            np.concatenate([b for _, b in pairs]))
        assert collapsed(stacked)
        _assert_same_nodes(stacked, alone)

    def test_deep_net_takes_the_interval_bound(self):
        # depth 3: each child's ub is the interval model J(c) + |g|.r +
        # r^T A r / 2, with A built from the public interval Hessian, below
        # the spectral, zeroth-order and linear-relaxation bounds, and is
        # bit-identical to bounding the child alone
        from curvreach import lipschitz as lip
        from curvreach.hessian import hessian_norm_bound, interval_hessian
        from curvreach.localize import bounds_for_box
        rng = np.random.default_rng(17)
        obj = ScalarObjective(make_net([3, 6, 5, 1], seed=4102, scale=2.0))
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.025, 0.15, 3)
        lo2, hi2 = _children(lo, hi)
        h_lo, h_hi = interval_hessian(obj.net, bounds_for_box(obj.net, lo2,
                                                              hi2))
        diag = np.diagonal(h_hi, axis1=1, axis2=2)
        assert (diag < 0.0).any()          # the clamp to 0 matters here
        A = np.maximum(np.abs(h_lo), np.abs(h_hi))
        A[:, [0, 1, 2], [0, 1, 2]] = np.maximum(diag, 0.0)
        r = (hi2 - lo2) / 2.0
        value, grad = obj.value_and_grad((lo2 + hi2) / 2.0)
        model = value + (np.abs(grad) * r).sum(axis=1) \
            + 0.5 * np.einsum("bi,bij,bj->b", r, A, r)
        local = bounds_for_box(obj.net, lo2, hi2)
        l_inf = lip.liplt(obj.net, local, lip.default_loop_transform(local),
                          np.inf)
        lam = np.empty(2)
        for k in range(2):
            local = bounds_for_box(obj.net, lo2[k], hi2[k])
            report = lip.lipschitz_report(obj.net, local,
                                          lip.default_loop_transform(local), 2)
            lam[k] = hessian_norm_bound(
                obj.net, local, report,
                lip.jacobian_elementwise_bounds(obj.net, local)).lam
        assert (model < value + (np.abs(grad) * r).sum(axis=1)
                + 0.5 * lam * (r * r).sum(axis=1)).all()
        assert (model < value + l_inf * r.max(axis=1)).all()
        assert all(model[k] < _linear_relaxation(obj, lo2[k], hi2[k])
                   for k in range(2))
        stacked, alone = _bound_stacked_and_alone(obj, lo2, hi2)
        _assert_same_nodes(stacked, alone)
        for k, s in enumerate(stacked):
            assert s.ub == pytest.approx(model[k], rel=1e-12)

    def test_thirteen_inputs_match_alone(self):
        rng = np.random.default_rng(13)
        obj = ScalarObjective(make_net([13, 8, 1], seed=3900))
        lo = rng.uniform(-1.0, 0.0, 13)
        hi = lo + rng.uniform(0.2, 1.0, 13)
        _assert_same_nodes(*_bound_stacked_and_alone(obj, *_children(lo, hi)))

    @staticmethod
    def _mixed_sandwich_net():
        # softplus curvature lies in [0, 1/4]; unit 2 has a negative output
        # weight, so the sandwich M = diag(-100 c, m) with c its least
        # curvature, which is 0 (to the guard) far from the origin and
        # positive near it
        from curvreach.model import Layer, Network
        W1 = np.array([[0.0, 1.0], [10.0, 0.0]])
        return Network((Layer(W1, np.zeros(2), Activation.SOFTPLUS),
                        Layer(np.array([[1.0, -1.0]]), np.zeros(1), None)))

    def test_children_with_psd_and_indefinite_sandwiches(self):
        from curvreach.hessian import two_layer_matrix_bounds
        from curvreach.localize import bounds_for_box
        net = self._mixed_sandwich_net()
        lo, hi = _children(np.array([-4.0, -1.0]), np.array([0.5, 1.0]))
        lam_min = [np.linalg.eigvalsh(two_layer_matrix_bounds(
            net, bounds_for_box(net, lo[k], hi[k])).M)[0] for k in range(2)]
        # a PSD sandwich on the first child, an indefinite one on the second
        assert lam_min[0] >= -1e-9 > lam_min[1]
        _assert_same_nodes(*_bound_stacked_and_alone(ScalarObjective(net),
                                                     lo, hi))

    def test_psd_and_indefinite_sandwiches_in_one_stack(self):
        # three directions over one softplus layer 6 -> 8, one box each: all
        # output weights positive give a positive definite sandwich M;
        # weights on four units only give M of rank 4 < 6, with lambda_min a
        # rounding error below 0; a weight of -3 makes M indefinite.  Each
        # box still gets its bits alone
        from curvreach.hessian import two_layer_matrix_bounds
        from curvreach.localize import bounds_for_box
        from curvreach.model import Layer, Network
        rng = np.random.default_rng(1)
        hidden = Layer(rng.standard_normal((8, 6)),
                       0.1 * rng.standard_normal(8), Activation.SOFTPLUS)
        rows = [np.abs(rng.standard_normal(8)),
                np.r_[np.abs(rng.standard_normal(4)), np.zeros(4)],
                np.r_[np.abs(rng.standard_normal(4)), -3.0, np.zeros(3)]]
        objs = [ScalarObjective(Network((hidden, Layer(w[None], np.zeros(1),
                                                       None))))
                for w in rows]
        lo, hi = np.full((3, 6), -0.25), np.full((3, 6), 0.25)
        M = [two_layer_matrix_bounds(o.net, bounds_for_box(o.net, lo[0],
                                                           hi[0])).M
             for o in objs]
        np.linalg.cholesky(M[0])
        for m in M[1:]:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(m)
        lam_min = [np.linalg.eigvalsh(m)[0] for m in M[1:]]
        assert -1e-9 < lam_min[0] < 0.0 and lam_min[1] < -1e-9
        _assert_same_nodes(*_bound_stacked_and_alone(objs, lo, hi))

    def test_failing_child_alone_is_flagged(self, monkeypatch):
        # the box-level certificates fail on any stack that holds the second
        # child: the stack is bounded again one box at a time, and only that
        # child is flagged
        net = make_net([3, 6, 1], seed=4000)
        obj = ScalarObjective(net)
        lo, hi = _children(-np.ones(3), np.array([1.0, 0.5, 0.5]))
        alone_first = _Bounder([obj], BnBConfig()).bound(
            lo[:1], hi[:1], *_per_box(lo[:1], 1, 9.0))
        real, calls = _Bounder._certificate, []

        def failing(self, a, b):
            calls.append(len(a))
            if any(np.array_equal(row, hi[1]) for row in b):
                raise np.linalg.LinAlgError("engine down")
            return real(self, a, b)

        monkeypatch.setattr(_Bounder, "_certificate", failing)
        first, second = _Bounder([obj], BnBConfig()).bound(
            lo, hi, *_per_box(lo, 1, 9.0))
        assert calls == [2, 1, 1]
        _assert_same_nodes([first], alone_first)
        assert not first.flagged
        assert second.flagged
        assert second.ub == 9.0
        assert second.lb == obj.value(second.center)

    def test_failing_model_flags_its_child(self, monkeypatch):
        # 13 inputs: the interval Hessian fails on any stack that holds the
        # second child's curvature ranges; that child alone is flagged.  On
        # these wide boxes the floor of the interval model beats the linear
        # bound, so the floor reads -inf here and every box assembles it
        from curvreach import hessian as hs
        from curvreach.localize import bounds_for_box
        monkeypatch.setattr(bnb, "_interval_floor", _no_floor)
        rng = np.random.default_rng(13)
        net = make_net([13, 8, 1], seed=3900)
        obj = ScalarObjective(net)
        lo = rng.uniform(-1.0, 0.0, 13)
        lo, hi = _children(lo, lo + rng.uniform(0.2, 1.0, 13))
        bad = bounds_for_box(net, lo[1], hi[1]).curv_lo[0]
        real, calls = hs._interval_hessian_raw, []

        def failing(weights, jac_mid, jac_rad, local):
            rows = np.reshape(local.curv_lo[0], (-1, len(bad)))
            calls.append(any(np.array_equal(row, bad) for row in rows))
            if calls[-1]:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(weights, jac_mid, jac_rad, local)

        alone_first = _Bounder([obj], BnBConfig()).bound(
            lo[:1], hi[:1], *_per_box(lo[:1], 1, 9.0))
        monkeypatch.setattr(hs, "_interval_hessian_raw", failing)
        first, second = _Bounder([obj], BnBConfig()).bound(
            lo, hi, *_per_box(lo, 1, 9.0))
        assert calls == [True, False, True]
        _assert_same_nodes([first], alone_first)
        assert not first.flagged
        assert second.flagged
        assert second.ub == 9.0
        assert second.lb == obj.value(second.center)


class TestSpeculativeBatching:
    """solve pops up to _BATCH top nodes per round and bounds the children
    of those it splits in one pass.  The result is that of this batched
    loop, not of the one-node loop: every box it bounds is counted, the
    budget holds to one box, and the bracket is valid."""

    def check(self, monkeypatch, obj, lo, hi, cfg):
        """Solve with the passes recorded, check the search's invariants
        and return the result and the passes."""
        passes = _bound_passes(monkeypatch)
        res = solve(obj, lo, hi, cfg=cfg)
        sizes = [len(nodes) for nodes in passes]
        # the batch grows from one node, and no pass is wider than the
        # children of _BATCH nodes
        assert sizes[:3] == [1, 2, 2][:len(sizes)]
        assert max(sizes) <= 2 * bnb._BATCH
        # every box bounded is counted, numbered in the order bounded
        indices = [node.index for nodes in passes for node in nodes]
        assert indices == list(range(res.branches_processed))
        assert res.branches_processed <= cfg.max_branches + 1
        assert obj.value(res.witness) == pytest.approx(res.lb, abs=1e-12)
        assert np.all((lo <= res.witness) & (res.witness <= hi))
        best, _ = oracle.polished_max(obj.value, lo, hi, n_random=2_000,
                                      seed=0)
        assert res.lb - 1e-9 <= best <= res.ub + 1e-9
        return res, passes

    def test_budget_stop(self, monkeypatch):
        # a small cap, so that the batch reaches it before the budget stop
        monkeypatch.setattr(bnb, "_BATCH", 8)
        obj = ScalarObjective(make_net([4, 16, 1], seed=5100, scale=2.5))
        cfg = BnBConfig(eps_t=1e-9, max_branches=401)
        res, passes = self.check(monkeypatch, obj, -np.ones(4), np.ones(4),
                                 cfg)
        assert res.status == "BranchLimit"
        assert res.branches_processed == 401
        assert max(len(nodes) for nodes in passes) == 2 * bnb._BATCH

    @pytest.mark.parametrize("budget", [2, 3, 40, 41])
    def test_budget_holds_to_one_box(self, monkeypatch, budget):
        # a split adds two boxes, so an even budget ends one box past it
        obj = ScalarObjective(make_net([4, 16, 1], seed=5100, scale=2.5))
        cfg = BnBConfig(eps_t=1e-9, max_branches=budget)
        res, _ = self.check(monkeypatch, obj, -np.ones(4), np.ones(4), cfg)
        assert res.status == "BranchLimit"
        assert res.branches_processed == budget + 1 - budget % 2

    def test_deep_budget_stop(self, monkeypatch):
        # depth 3, where children seldom beat their parent's upper bound:
        # the replay of the one-node loop left 122 of the 423 boxes it
        # bounded here uncounted, and this search counts every box
        obj = ScalarObjective(make_net([6, 32, 32, 1], seed=5300, scale=2.0))
        cfg = BnBConfig(eps_t=1e-9, max_branches=301)
        res, passes = self.check(monkeypatch, obj, -np.ones(6), np.ones(6),
                                 cfg)
        assert res.status == "BranchLimit"
        assert res.branches_processed == 301

    # at the coarse gap a child's lower bound meets the gap before the last
    # node of its batch is expanded
    @pytest.mark.parametrize("dims, eps_t", [([3, 6, 5, 1], 1e-4),
                                             ([3, 12, 1], 3e-3)])
    def test_converged(self, monkeypatch, dims, eps_t):
        obj = ScalarObjective(make_net(dims, seed=5200, scale=2.0))
        res, passes = self.check(monkeypatch, obj, -np.ones(3), np.ones(3),
                                 BnBConfig(eps_t=eps_t))
        assert res.status == "Converged"
        assert res.ub - res.lb <= eps_t
        assert max(len(nodes) for nodes in passes) > 2

    def test_child_outranks_a_later_node_of_its_batch(self, monkeypatch):
        # where a child outranks a later node of its batch, that node is
        # still expanded in the same pass, as the one-node loop would not
        obj = ScalarObjective(make_net([3, 12, 1], seed=5200, scale=2.0))
        real, caps = _Bounder.bound, []

        def bound(self, lo, hi, index, parent_ub, dirs):
            caps.append(parent_ub.copy())
            return real(self, lo, hi, index, parent_ub, dirs)

        monkeypatch.setattr(_Bounder, "bound", bound)
        res, passes = self.check(monkeypatch, obj, -np.ones(3), np.ones(3),
                                 BnBConfig(eps_t=1e-4))
        assert res.status == "Converged"
        # a pass's rows 2k and 2k + 1 are the children of its k-th node,
        # whose upper bound caps both
        assert any(nodes[i].ub > cap[j] for nodes, cap in zip(passes, caps)
                   for i in range(len(nodes))
                   for j in range(2 * (i // 2 + 1), len(nodes), 2))

    def test_collapsed_nodes(self, monkeypatch):
        # nodes that the monotonicity test moves onto faces, points
        # included, are split and counted like any other
        obj = ScalarObjective(make_net([3, 6, 5, 1], seed=3701, scale=2.0))
        res, passes = self.check(monkeypatch, obj, -np.ones(3), np.ones(3),
                                 BnBConfig(eps_t=1e-4))
        assert res.status == "Converged"
        nodes = [node for nodes in passes for node in nodes]
        assert collapsed(nodes)
        assert any((node.hi == node.lo).all() for node in nodes)

    @pytest.mark.parametrize("dims", [[2, 8, 2], [2, 6, 5, 2]])
    def test_directions_sharing_a_store(self, monkeypatch, dims):
        # the directions run in lockstep, every stack of theirs in one pass;
        # each search reads only its own nodes, so each result is that of
        # its direction solved alone
        net = make_net(dims, seed=5400, scale=2.0)
        ang = 2.0 * np.pi * np.arange(6) / 6
        directions = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        objs = [ScalarObjective(scalarize(net, c)) for c in directions]
        lo, hi = -np.ones(2), np.ones(2)
        cfg = BnBConfig(eps_t=1e-4)
        passes = _bound_passes(monkeypatch)
        group = Lockstep(objs)
        shared = [solve(obj, lo, hi, cfg=cfg, lockstep=group) for obj in objs]
        assert max(len(nodes) for nodes in passes) > 2 * len(directions)
        for obj, res in zip(objs, shared):
            assert_same_result(res, solve(obj, lo, hi, cfg=cfg))


def _both_ways(monkeypatch, run, rows):
    """``run()`` as it is and forced, with the passes of each recorded by
    ``rows(monkeypatch, force)``; every search of both runs must bound the
    same nodes, bit for bit."""
    results, passes, streams = [], [], []
    for force in (False, True):
        passes.append(rows(monkeypatch, force))
        streams.append(node_streams(monkeypatch))
        results.append(run())
        monkeypatch.undo()
    lazy, full = ({i: node_rows(nodes) for i, nodes in s.items()}
                  for s in streams)
    assert lazy == full
    return results, passes


def _di_hexagon_step(di_controller):
    """A ``run()`` of the shipped DI controller's closed-loop step over the
    hexagon, its 20 faces solved in lockstep: it returns the step's
    polytope and the results of its solves."""
    from curvreach.reach import (LinearSystem, Zonotope, closed_loop_step,
                                 uniform_directions)
    sys_model = LinearSystem(np.array([[1.0, 1.0], [0.0, 1.0]]),
                             np.array([[0.5], [1.0]]), di_controller, 5)
    hexagon = Zonotope(np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]]),
                       np.array([2.5, 0.0]))

    def run():
        real, results = bnb.solve, []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        bnb.solve = recording
        try:
            poly, _ = closed_loop_step(sys_model, hexagon,
                                       uniform_directions(16), 1e-3)
        finally:
            bnb.solve = real
        return poly, results

    return run


def _full_lam_rows(monkeypatch, force=False):
    """Record each deep stacked pass as ``[boxes, boxes that summed the full
    lam]``.  With ``force`` the first term of lam, which a pass takes first,
    reads 0, so that the boxes sum the full lam."""
    from curvreach import hessian as hs
    real_norm, real_full = hs.hessian_norm_bound, _Bounder._full_lam
    passes = []

    def norm(*args):
        bound = real_norm(*args)
        passes.append([len(bound.lam), 0])
        if force:
            return hs.ScalarHessianBound(np.zeros_like(bound.lam),
                                         bound.terms)
        return bound

    def full(self, slope_hi, terms):
        passes[-1][1] = len(slope_hi[0])
        return real_full(self, slope_hi, terms)

    monkeypatch.setattr(hs, "hessian_norm_bound", norm)
    monkeypatch.setattr(_Bounder, "_full_lam", full)
    return passes


def _deep_net(gain, seed):
    """A seeded 6-32-32-1 tanh net with first-layer gain ``gain``."""
    from curvreach.model import Layer, Network
    rng = np.random.default_rng(seed)
    w1 = gain * rng.standard_normal((32, 6)) / np.sqrt(6.0)
    b1 = 0.5 * gain * rng.standard_normal(32)
    w2 = rng.standard_normal((32, 32)) / np.sqrt(32.0)
    b2 = 0.5 * rng.standard_normal(32)
    w3 = rng.standard_normal((1, 32)) / np.sqrt(32.0)
    return ScalarObjective(Network((Layer(w1, b1, Activation.TANH),
                                    Layer(w2, b2, Activation.TANH),
                                    Layer(w3, np.zeros(1), None))))


class TestLazySpectralBound:
    """On nets of depth 3 or more a pass sums the full spectral bound lam
    only for the boxes where its first term leaves the lam model below the
    interval Hessian's model; every result must be that of summing it for
    every box."""

    @staticmethod
    def both_ways(monkeypatch, run):
        """``run()`` as it is and with every box summing the full lam, and
        the passes of each (``_full_lam_rows``); both bound every node
        alike."""
        return _both_ways(monkeypatch, run, _full_lam_rows)

    @staticmethod
    def every_box_full(passes):
        return all(k == n for n, k in passes)

    def test_closed_loop_step(self, monkeypatch, di_controller):
        # the shipped depth-4 controller in lockstep over the hexagon: no
        # box needs the full lam
        ((poly, lazy), (poly_full, full)), (passes, full_passes) = \
            self.both_ways(monkeypatch, _di_hexagon_step(di_controller))
        assert len(lazy) == len(full) == 20
        for a, b in zip(lazy, full):
            assert_same_result(a, b)
        assert poly.offsets.tolist() == poly_full.offsets.tolist()
        assert passes and not any(k for _, k in passes)
        assert self.every_box_full(full_passes)

    @pytest.mark.parametrize("name", ["di", "quad6"])
    def test_closed_loop_step_takes_one_l2_head_norm(self, monkeypatch,
                                                     name):
        # no box of a shipped step sums the full lam, so the step's lockstep
        # group computes ||W_1||_2, the first term's head, and no other
        # spectral norm
        from curvreach import lipschitz as lip
        from curvreach.reach import closed_loop_step, uniform_directions
        sys_model = shipped_system(name)
        template = uniform_directions(16) if name == "di" else None
        real, shapes = lip.operator_norm, []

        def counting(A, p):
            if p == 2:
                shapes.append(np.shape(A))
            return real(A, p)

        monkeypatch.setattr(lip, "operator_norm", counting)
        closed_loop_step(sys_model, shipped_initial_set(name), template,
                         1e-3)
        first = sys_model.controller.layers[0].weight.shape[0]
        assert [s[0] for s in shapes] == [first]

    def test_deep_net_with_mixed_passes(self, monkeypatch):
        # at gain 0.3 some passes hold boxes of both kinds
        obj = _deep_net(0.3, 3)
        cfg = BnBConfig(eps_t=1e-6, max_branches=1000)
        (lazy, full), (passes, full_passes) = self.both_ways(
            monkeypatch, lambda: solve(obj, -np.ones(6), np.ones(6), cfg=cfg))
        assert_same_result(lazy, full)
        assert any(0 < k < n for n, k in passes)
        assert self.every_box_full(full_passes)

    def test_budget_capped_deep_net(self, monkeypatch):
        # gain 2 at a node budget, also one node per stacked pass
        obj = _deep_net(2.0, 1)
        cfg = BnBConfig(eps_t=1e-9, max_branches=300)

        def run():
            return solve(obj, -np.ones(6), np.ones(6), cfg=cfg)

        (lazy, full), (_, full_passes) = self.both_ways(monkeypatch, run)
        assert lazy.status == "BranchLimit"
        assert_same_result(lazy, full)
        assert self.every_box_full(full_passes)
        monkeypatch.setattr(bnb, "_BATCH", 1)
        one = run()
        _full_lam_rows(monkeypatch, force=True)
        assert_same_result(one, run())


def _l_inf_rows(monkeypatch, force=False):
    """Record each stacked pass as ``[boxes, boxes that computed L_inf]``.
    With ``force`` every box reads as one whose first-order certificate
    failed (``bnb._failed``), so that every box computes L_inf and takes the
    smaller of its first-order and zeroth-order bounds."""
    real_cert, real_full = _Bounder._certificate, _Bounder._full_l_inf
    passes = []

    def certificate(self, lo, hi):
        passes.append([len(lo), 0])
        return real_cert(self, lo, hi)

    def full(self, slope_hi, obj):
        passes[-1][1] = len(slope_hi[0])
        return real_full(self, slope_hi, obj)

    monkeypatch.setattr(_Bounder, "_certificate", certificate)
    monkeypatch.setattr(_Bounder, "_full_l_inf", full)
    if force:
        monkeypatch.setattr(bnb, "_failed", lambda bounds:
                            np.ones(len(bounds[0]), dtype=bool))
    return passes


def _two_layer_net(seed):
    """A seeded 6-64-1 tanh net: the first net that the two-layer
    benchmark draws at ``seed``."""
    from curvreach.model import Layer, Network
    rng = np.random.default_rng(seed)
    w1 = 3.0 * rng.standard_normal((64, 6)) / np.sqrt(6.0)
    b1 = 1.5 * rng.standard_normal(64)
    w2 = rng.standard_normal((1, 64)) / 8.0
    return ScalarObjective(Network((Layer(w1, b1, Activation.TANH),
                                    Layer(w2, np.zeros(1), None))))


class TestLazyZerothOrderBound:
    """A pass computes the ell_inf Lipschitz constant L_inf only for the
    boxes whose first-order certificate failed numerically.  On these runs
    no certificate fails and the zeroth-order bound would win no node, so
    every result must be that of computing L_inf for every box and taking
    the smaller bound."""

    @staticmethod
    def both_ways(monkeypatch, run):
        """``run()`` as it is and with every box computing L_inf, and the
        passes of each (``_l_inf_rows``); both bound every node alike."""
        return _both_ways(monkeypatch, run, _l_inf_rows)

    @staticmethod
    def every_box_full(passes):
        return all(k == n for n, k in passes)

    def test_budget_capped_two_layer_net(self, monkeypatch):
        # no box computes L_inf; also one node per stacked pass
        obj = _two_layer_net(2)
        cfg = BnBConfig(eps_t=1e-9, max_branches=1000)

        def run():
            return solve(obj, -np.ones(6), np.ones(6), cfg=cfg)

        (lazy, full), (passes, full_passes) = self.both_ways(monkeypatch,
                                                             run)
        assert lazy.status == "BranchLimit"
        assert_same_result(lazy, full)
        assert self.every_box_full(full_passes)
        assert passes and not any(k for _, k in passes)
        monkeypatch.setattr(bnb, "_BATCH", 1)
        one = run()
        _l_inf_rows(monkeypatch, force=True)
        assert_same_result(one, run())

    def test_closed_loop_step(self, monkeypatch, di_controller):
        # the shipped depth-4 controller in lockstep over the hexagon: no
        # box computes L_inf
        ((poly, lazy), (poly_full, full)), (passes, full_passes) = \
            self.both_ways(monkeypatch, _di_hexagon_step(di_controller))
        assert len(lazy) == len(full) == 20
        for a, b in zip(lazy, full):
            assert_same_result(a, b)
        assert poly.offsets.tolist() == poly_full.offsets.tolist()
        assert passes and not any(k for _, k in passes)
        assert self.every_box_full(full_passes)

    def test_budget_capped_deep_net(self, monkeypatch):
        # gain 1 at a node budget: no box computes L_inf
        obj = _deep_net(1.0, 1)
        cfg = BnBConfig(eps_t=1e-9, max_branches=300)
        (lazy, full), (passes, full_passes) = self.both_ways(
            monkeypatch, lambda: solve(obj, -np.ones(6), np.ones(6), cfg=cfg))
        assert lazy.status == "BranchLimit"
        assert_same_result(lazy, full)
        assert self.every_box_full(full_passes)
        assert passes and not any(k for _, k in passes)


class TestZerothOrderFallback:
    """A box whose linear bound, lam model or interval model is NaN computes
    L_inf and takes the smaller of its first-order bound and ``J(c) + L_inf
    * eps``; the other boxes of its pass compute no L_inf."""

    @pytest.mark.parametrize("nan", [("linear",), ("lam",), ("interval",),
                                     ("linear", "lam", "interval")],
                             ids=["linear", "lam", "interval", "all"])
    def test_failed_box_takes_the_smaller_bound(self, monkeypatch, nan):
        from curvreach import lipschitz as lip
        from curvreach import taylor
        from curvreach.localize import bounds_for_box
        obj = ScalarObjective(make_net([2, 6, 5, 1], seed=4200))
        bounder = _Bounder([obj], BnBConfig())
        # one pass of two boxes, of which the first fails
        lo = np.array([[-1.0, -1.0], [0.0, -1.0]])
        hi = np.array([[0.0, 1.0], [1.0, 1.0]])
        center, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        stand = bounder._stack(np.zeros(2, dtype=int))
        value, grad = ScalarObjective.value_and_grad(stand, center)
        cert = bounder._certificate(lo, hi)
        x_iso = taylor.optimal_perturbation(center, r, np.inf, grad, 0.0,
                                            center)
        bounds = {"linear": bounder._linear_bound(stand, cert, center, r)}
        bounds["lam"], bounds["interval"], _ = bounder._taylor_model(
            stand.net, cert, value, grad, x_iso, center, bounds["linear"])
        local = bounds_for_box(obj.net, lo, hi)
        l_inf = lip.liplt(obj.net, local, lip.default_loop_transform(local),
                          np.inf)
        zeroth = value + l_inf * r.max(axis=1)

        def first_nan(b):
            b = b.copy()
            b[0] = np.nan
            return b

        linear, models = _Bounder._linear_bound, _Bounder._taylor_model
        if "linear" in nan:
            monkeypatch.setattr(_Bounder, "_linear_bound", lambda *args:
                                first_nan(linear(*args)))
        monkeypatch.setattr(_Bounder, "_taylor_model", lambda *args: tuple(
            first_nan(b) if name in nan else b
            for name, b in zip(("lam", "interval", "hess"), models(*args))))
        passes = _l_inf_rows(monkeypatch)
        failed, kept = bounder.bound(lo, hi, *_per_box(lo))
        assert passes == [[2, 1]]
        rest = [b[0] for name, b in bounds.items() if name not in nan]
        assert failed.ub == pytest.approx(max(min(rest + [zeroth[0]]),
                                              failed.lb), rel=1e-12)
        assert kept.ub == max(min(b[1] for b in bounds.values()), kept.lb)


def _assemblies(monkeypatch):
    """The curvature ranges ``curv_lo[0]`` of the stack of each call that
    assembles the interval Hessian, one row per box."""
    from curvreach import hessian as hs
    real, calls = hs._interval_hessian_raw, []

    def raw(weights, jac_mid, jac_rad, local):
        calls.append(local.curv_lo[0].copy())
        return real(weights, jac_mid, jac_rad, local)

    monkeypatch.setattr(hs, "_interval_hessian_raw", raw)
    return calls


def _no_floor(*args):
    """``bnb._interval_floor`` with every floor -inf, so that every box of a
    net with one hidden layer assembles the interval Hessian."""
    base = args[-1]
    return np.full_like(base, -np.inf), np.zeros_like(base)


def _interval_rows(monkeypatch, force=False):
    """Record each stacked pass as ``[boxes, boxes that assembled the
    interval Hessian]``.  With ``force`` the floor of the interval model
    reads -inf (``bnb._interval_floor``), so that every box assembles it."""
    from curvreach import hessian as hs
    real_cert, real_raw = _Bounder._certificate, hs._interval_hessian_raw
    passes = []

    def certificate(self, lo, hi):
        passes.append([len(lo), 0])
        return real_cert(self, lo, hi)

    def raw(weights, jac_mid, jac_rad, local):
        passes[-1][1] += len(local.curv_lo[0])
        return real_raw(weights, jac_mid, jac_rad, local)

    monkeypatch.setattr(_Bounder, "_certificate", certificate)
    monkeypatch.setattr(hs, "_interval_hessian_raw", raw)
    if force:
        monkeypatch.setattr(bnb, "_interval_floor", _no_floor)
    return passes


class TestLazyIntervalHessian:
    """On a net with one hidden layer a pass assembles the interval Hessian
    only for the boxes where the floor of the interval model does not beat
    the linear bound; every result must be that of assembling it for every
    box.  Deeper nets assemble it for every box."""

    @staticmethod
    def both_ways(monkeypatch, run):
        """``run()`` as it is and with every box assembling the interval
        Hessian, and the passes of each (``_interval_rows``); both bound
        every node alike."""
        return _both_ways(monkeypatch, run, _interval_rows)

    @staticmethod
    def every_box_full(passes):
        return all(k == n for n, k in passes)

    def test_budget_capped_two_layer_net(self, monkeypatch):
        # on these wide boxes every floor beats the linear bound, so no box
        # assembles; also one node per stacked pass
        obj = _two_layer_net(1)
        cfg = BnBConfig(eps_t=1e-9, max_branches=1000)

        def run():
            return solve(obj, -np.ones(6), np.ones(6), cfg=cfg)

        (lazy, full), (passes, full_passes) = self.both_ways(monkeypatch,
                                                             run)
        assert lazy.status == "BranchLimit"
        assert lazy.branches_processed >= 300
        assert_same_result(lazy, full)
        assert self.every_box_full(full_passes)
        assert passes and not any(k for _, k in passes)
        monkeypatch.setattr(bnb, "_BATCH", 1)
        one = run()
        _interval_rows(monkeypatch, force=True)
        assert_same_result(one, run())

    def test_closed_loop_step(self, monkeypatch, di_controller):
        # the shipped depth-4 controller: every box assembles
        ((poly, lazy), (poly_full, full)), (passes, _) = \
            self.both_ways(monkeypatch, _di_hexagon_step(di_controller))
        assert len(lazy) == len(full) == 20
        for a, b in zip(lazy, full):
            assert_same_result(a, b)
        assert poly.offsets.tolist() == poly_full.offsets.tolist()
        assert passes and self.every_box_full(passes)

    def test_budget_capped_deep_net(self, monkeypatch):
        # depth 3: every box assembles
        obj = _deep_net(1.0, 1)
        cfg = BnBConfig(eps_t=1e-9, max_branches=300)
        passes = _interval_rows(monkeypatch)
        res = solve(obj, -np.ones(6), np.ones(6), cfg=cfg)
        assert res.status == "BranchLimit"
        assert passes and self.every_box_full(passes)


class TestIntervalFloor:
    """The floor of the interval model on a net with one hidden layer
    (``bnb._interval_floor``): it never exceeds the assembled model by more
    than the rounding slack, and a box whose floor does not beat its linear
    bound by that slack, or whose floor is NaN, assembles the model."""

    @staticmethod
    def parts(objs, lo, hi, dirs):
        """The floor of each box of a stack and its slack without the
        linear bound's term (``bnb._interval_floor``), the assembled interval
        model, and a ``model(linear)`` that runs ``_taylor_model`` against
        ``linear``."""
        from types import SimpleNamespace
        from curvreach import taylor
        bounder = _Bounder(objs, BnBConfig())
        center, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        stand = bounder._stack(np.asarray(dirs))
        value, grad = ScalarObjective.value_and_grad(stand, center)
        cert = bounder._certificate(lo, hi)
        x_iso = taylor.optimal_perturbation(center, r, np.inf, grad, 0.0,
                                            center)
        d = x_iso - center
        floor, slack = bnb._interval_floor(
            *bounder.floor_w, stand.net.layers[-1].weight[:, 0, :], cert,
            np.abs(d), value + taylor._dot(grad, d))

        def model(linear):
            return bounder._taylor_model(stand.net, cert, value, grad, x_iso,
                                         center, linear)[1]

        # no floor beats an infinite linear bound: every box assembles
        return SimpleNamespace(floor=floor, slack=slack, model=model,
                               assembled=model(np.full(len(lo), np.inf)))

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.SIGMOID,
                                     Activation.SOFTPLUS])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), hidden=st.integers(1, 12),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 4.0),
           log_width=st.floats(-3.0, np.log10(2.0)), linear=st.booleans())
    def test_never_exceeds_the_model(self, act, n, hidden, seed, scale,
                                     log_width, linear):
        # three boxes 1e-3 to 2 wide, in two directions with or without a
        # linear term, stacked and each alone: each floor is at most its
        # model plus the slack, and bit-identical stacked and alone
        rng = np.random.default_rng(seed)
        net = make_net([n, hidden, 2], act=act, seed=seed, scale=scale)
        objs = [ScalarObjective(scalarize(net, c),
                                rng.standard_normal(n) if linear else None,
                                0.3)
                for c in (np.array([1.0, 0.0]), rng.standard_normal(2))]
        lo = rng.uniform(-1.5, 1.0, (3, n))
        hi = lo + np.clip(10.0 ** log_width * rng.uniform(0.5, 2.0, (3, n)),
                          1e-3, 2.0)
        dirs = [0, 1, 0]
        stacked = self.parts(objs, lo, hi, dirs)
        assert (stacked.floor <= stacked.assembled + stacked.slack).all()
        for k, i in enumerate(dirs):
            alone = self.parts([objs[i]], lo[k:k + 1], hi[k:k + 1], [0])
            assert alone.floor[0] == stacked.floor[k]
            assert alone.floor[0] <= alone.assembled[0] + alone.slack[0]

    def test_box_within_the_slack_assembles(self, monkeypatch):
        # four boxes against linear bounds 4 slacks and half a slack below
        # the floor, at it and above it: all but the first assemble
        obj = _two_layer_net(1)
        lo = np.array([[-1.0] * 6, [0.0] * 6, [-0.5] * 6, [-1.0, 0.0] * 3])
        parts = self.parts([obj], lo, lo + 1.0, [0] * 4)
        assert (parts.slack >= 1e-10 * np.abs(parts.floor)).all()
        # the linear bound's own term, 1e-9 |linear|, is about 1e-9 |floor|
        slack = parts.slack + 1e-9 * np.abs(parts.floor)
        linear = parts.floor - np.array([4.0, 0.5, 0.0, -1e6]) * slack
        calls = _assemblies(monkeypatch)
        got = parts.model(linear)
        assert [len(c) for c in calls] == [3]
        assert got[0] == parts.floor[0]
        assert got[1:].tolist() == parts.assembled[1:].tolist()

    def test_nan_curvature_assembles_and_falls_back(self, monkeypatch):
        # a NaN in the first box's curvature range makes its floor NaN: the
        # box assembles the interval Hessian, whose model is NaN too, and
        # takes the zeroth-order fallback, the only box of its pass to do so
        obj = _two_layer_net(1)
        lo = np.array([[-1.0] * 6, [0.0] * 6])
        real = _Bounder._certificate

        def nan_first(self, lo, hi):
            cert = real(self, lo, hi)
            cert.curv_lo[0][0, 0] = np.nan
            return cert

        monkeypatch.setattr(_Bounder, "_certificate", nan_first)
        calls = _assemblies(monkeypatch)
        passes = _l_inf_rows(monkeypatch)
        failed, kept = _Bounder([obj], BnBConfig()).bound(
            lo, lo + 1.0, *_per_box(lo))
        assert len(calls) == 1 and np.isnan(calls[0][0]).any()
        assert passes == [[2, 1]]
        assert np.isfinite(failed.ub) and np.isfinite(kept.ub)


class TestLinearBound:
    @pytest.mark.parametrize("act", list(Activation))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(hidden=st.lists(st.integers(2, 7), min_size=0, max_size=3),
           seed=st.integers(0, 2**16), scale=st.floats(0.5, 3.0))
    def test_holds_over_the_box(self, act, hidden, seed, scale):
        # depth 1-4, with a linear term and an offset, on non-cubic boxes:
        # the bound is the plain reference's and lies above the polished
        # sampled maximum
        rng = np.random.default_rng(seed)
        net = make_net([3, *hidden, 1], act=act, seed=seed, scale=scale)
        obj = ScalarObjective(net, rng.standard_normal(3), 0.3)
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.05, 2.0, 3)
        bounder = _Bounder([obj], BnBConfig())
        cert = bounder._certificate(lo[None], hi[None])
        got, = bounder._linear_bound(bounder._stack(np.zeros(1, dtype=int)),
                                     cert, (lo + hi)[None] / 2.0,
                                     (hi - lo)[None] / 2.0)
        assert got == pytest.approx(_linear_relaxation(obj, lo, hi),
                                    rel=1e-12, abs=1e-12)
        best, _ = oracle.polished_max(obj.value, lo, hi, n_per_axis=12,
                                      n_random=500, seed=seed)
        assert best <= got + 1e-9


class TestSmallSetClaim:
    """The paper's claim about small input sets, at the root node: on small
    boxes the Taylor models (``_Bounder._taylor_model``) are far tighter than
    the linear-relaxation bound, on wide ones the linear bound is, and a
    node takes the smaller.  Three two-layer and three deep gain-1 nets,
    each over a box ``c +- eps`` with its own center ``c`` in
    ``[-0.5, 0.5]^6``; the excess is the bound's mean over the nets less
    the polished sampled maximum's.  Acceptance criterion 4 checks the
    crossover of the first- and zeroth-order formulas; this checks the
    crossover of the two first-order bounds on nets."""

    @staticmethod
    def root_bounds(obj, lo, hi):
        """The Taylor-model, linear-relaxation and node upper bounds of the
        root box [lo, hi]."""
        from curvreach import taylor
        bounder = _Bounder([obj], BnBConfig())
        lo, hi = lo[None], hi[None]
        center, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        stand = bounder._stack(np.zeros(1, dtype=int))
        value, grad = ScalarObjective.value_and_grad(stand, center)
        cert = bounder._certificate(lo, hi)
        x_iso = taylor.optimal_perturbation(center, r, np.inf, grad, 0.0,
                                            center)
        # against an infinite linear bound every box assembles the interval
        # Hessian, whose model is the one compared
        model = np.fmin(*bounder._taylor_model(stand.net, cert, value, grad,
                                               x_iso, center,
                                               np.full(1, np.inf))[:2])
        linear = bounder._linear_bound(stand, cert, center, r)
        node, = bounder.bound(lo, hi, *_per_box(lo))
        return model[0], linear[0], node.ub

    def test_taylor_wins_small_boxes_and_linear_wide_ones(self):
        objs = [_two_layer_net(s) for s in (1, 2, 3)] \
            + [_deep_net(1.0, s) for s in (1, 2, 3)]
        rng = np.random.default_rng(0)
        centers = [rng.uniform(-0.5, 0.5, 6) for _ in objs]
        excess = {}
        for eps in (1e-2, 0.1, 1.0):
            rows = []
            for obj, c in zip(objs, centers):
                lo, hi = c - eps, c + eps
                best, _ = oracle.polished_max(obj.value, lo, hi, n_random=500,
                                              seed=1)
                model, linear, ub = self.root_bounds(obj, lo, hi)
                assert ub == min(model, linear)
                rows.append((model - best, linear - best))
            excess[eps] = np.mean(rows, axis=0)
        model, linear = excess[1e-2]
        assert 0.0 <= 8.0 * model <= linear
        model, linear = excess[1.0]
        assert 0.0 <= linear < model


def _no_monotone_axis(g, s, r):
    """``bnb._monotone`` that finds no axis: no box is moved onto a face."""
    return np.zeros(g.shape, dtype=bool)


class TestMonotonicityTest:
    """The monotonicity test (``_Bounder._collapse``): where the interval
    Hessian proves that dJ/dx_i keeps the sign of g_i = dJ/dx_i(c) over a
    box, the supremum lies on one face, and the node moves onto it."""

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("act", [Activation.TANH, Activation.SIGMOID,
                                     Activation.SOFTPLUS])
    def test_declared_axes_are_monotone(self, monkeypatch, act, depth):
        # each box bounded alone, so that the test's rows are its own; on
        # every axis declared monotone, the gradient has the declared sign at
        # the corners and at 256 random points, and a collapsed node's ub,
        # that of its full box, is not below the sampled maximum over it
        import itertools
        from curvreach.model import gradient
        seed = 10 * depth + list(Activation).index(act)
        rng = np.random.default_rng(seed)
        net = make_net([3] + [8] * (depth - 1) + [1], act=act, seed=seed,
                       scale=2.0)
        obj = ScalarObjective(net)
        bounder = _Bounder([obj], BnBConfig(eps_t=1e-9))
        calls = monotone_calls(monkeypatch)
        declared = 0
        for _ in range(16):
            c = rng.uniform(-1.0, 1.0, 3)
            r = np.exp(rng.uniform(np.log(1e-3), 0.0, 3))
            lo, hi = c - r, c + r
            calls.clear()
            node, = bounder.bound(lo[None], hi[None], *_per_box(lo[None]))
            if not calls or not calls[0][1].any():
                assert np.array_equal(node.lo, lo)
                assert np.array_equal(node.hi, hi)
                continue
            (g, mono), = calls
            declared += int(mono.sum())
            pts = np.concatenate([
                np.array(list(itertools.product(*zip(lo, hi)))),
                lo + (hi - lo) * rng.random((256, 3))])
            grads = gradient(net, pts)
            for i in np.flatnonzero(mono):
                assert (np.sign(g[i]) * grads[:, i] > 0.0).all(), i
            # the face the node moved onto
            face = np.where(mono, np.where(g > 0.0, hi, lo), np.nan)
            assert np.array_equal(node.lo[mono], face[mono])
            assert np.array_equal(node.hi[mono], face[mono])
            # a point node's ub is J at its vertex, evaluated once; the
            # oracle's batched evaluation of that vertex may round
            # differently, by an ulp
            best, _ = oracle.grid_max(obj.value, lo, hi, n_per_axis=9,
                                      n_random=2_000, seed=0)
            assert node.ub >= best - 1e-12 * (1.0 + abs(best))
        assert declared > 0

    def test_root_converged_solves_untouched(self, monkeypatch):
        # a quadrotor closed-loop step whose 12 faces all converge at their
        # root: under the own-gap rule no root is tested, so finding no
        # axis changes no bit of the step
        from curvreach.reach import closed_loop_step
        system = shipped_system("quad6")
        init = shipped_initial_set("quad6")
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(bnb, "_monotone", _no_monotone_axis)
            streams = node_streams(monkeypatch)
            poly, nxt = closed_loop_step(system, init, None, 1e-2)
            runs.append(([node_rows(streams[i]) for i in sorted(streams)],
                         poly, nxt))
            monkeypatch.undo()
        (rows, poly, nxt), (rows_off, poly_off, nxt_off) = runs
        assert [len(r) for r in rows] == [1] * 12
        assert rows == rows_off
        assert poly.offsets.tobytes() == poly_off.offsets.tobytes()
        assert poly.lbs.tobytes() == poly_off.lbs.tobytes()
        assert nxt.G.tobytes() == nxt_off.G.tobytes()
        assert nxt.center.tobytes() == nxt_off.center.tobytes()

    def test_lone_root_converged_solve_untouched(self, monkeypatch):
        # a lone solve that converges at its root, whose axes are all
        # monotone: the own-gap rule leaves the root untested, and finding
        # no axis changes no bit of the result
        obj = ScalarObjective(make_net([3, 6, 5, 1], seed=3701, scale=2.0))
        lo, hi = np.full(3, 0.2), np.full(3, 0.21)
        calls = monotone_calls(monkeypatch)
        res = solve(obj, lo, hi, cfg=BnBConfig(eps_t=1e-2))
        assert res.branches_processed == 1 and res.status == "Converged"
        assert not calls
        # at a gap the root does not meet, it is tested
        solve(obj, lo, hi, cfg=BnBConfig(eps_t=1e-9))
        assert calls[0][1].all()
        monkeypatch.setattr(bnb, "_monotone", _no_monotone_axis)
        assert_same_result(res, solve(obj, lo, hi, cfg=BnBConfig(eps_t=1e-2)))

    def test_zeroth_order_ablation_never_collapses(self, monkeypatch):
        # without first-order bounds no interval Hessian is assembled, and
        # no box is tested
        obj = ScalarObjective(make_net([3, 6, 5, 1], seed=3701, scale=2.0))
        calls = monotone_calls(monkeypatch)
        passes = _bound_passes(monkeypatch)
        res = solve(obj, -0.5 * np.ones(3), 0.5 * np.ones(3),
                    cfg=BnBConfig(eps_t=1e-3, max_branches=300,
                                  use_first_order=False))
        assert res.branches_processed > 1 and not calls
        assert not collapsed(node for nodes in passes for node in nodes)


class TestOverflowingChain:
    """A net whose layer norms multiply to an inf would overflow the ell_inf
    recursion, and one whose squared layer norms do would overflow the
    Hessian bounds; its solve is refused before any box is bounded."""

    @staticmethod
    def _overflowing_net():
        # a 2-4-1 tanh net with weights of +-1e200: the chain W_2 D_1 W_1 of
        # the Lipschitz recursion overflows
        from curvreach.model import Layer, Network
        signs = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        return Network((Layer(1e200 * signs, np.zeros(4), Activation.TANH),
                        Layer(1e200 * signs[:, :1].T, np.zeros(1), None)))

    def test_overflowing_net_raises(self):
        # the solve is refused whether or not a box would compute L_inf
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            solve(ScalarObjective(self._overflowing_net()), -np.ones(2),
                  np.ones(2), eps_t=1e-3)

    @pytest.mark.parametrize("first_order", [True, False])
    def test_overflowing_net_fails_early(self, first_order):
        # before any box is bounded, and with no numpy warning on the way,
        # so that warnings raised as errors see the same ValueError
        import warnings
        cfg = BnBConfig(eps_t=1e-3, use_first_order=first_order)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflow the Lipschitz "
                                                 "chain"):
                solve(ScalarObjective(self._overflowing_net()), -np.ones(2),
                      np.ones(2), cfg=cfg)

    @pytest.mark.parametrize("first_order", [True, False])
    def test_overflowing_curvature_chain(self, first_order):
        # a 2-4-3-1 tanh net with weights scaled by 1e100: its layer norms
        # multiply to about 1e300, but the Hessian bounds square the first
        # ones.  With first-order bounds the solve is refused by name before
        # any numpy warning; the zeroth-order bound alone needs no second
        # order, and the solve runs with no warning
        import warnings
        from curvreach.model import Layer, Network
        net = Network(tuple(Layer(1e100 * lay.weight, lay.bias, lay.activation)
                            for lay in make_net([2, 4, 3, 1],
                                                seed=6100).layers))
        cfg = BnBConfig(eps_t=1e-3, max_branches=20,
                        use_first_order=first_order)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if first_order:
                with pytest.raises(ValueError, match="overflow the curvature "
                                                     "chain"):
                    solve(ScalarObjective(net), -np.ones(2), np.ones(2),
                          cfg=cfg)
            else:
                res = solve(ScalarObjective(net), -np.ones(2), np.ones(2),
                            cfg=cfg)
                assert np.isfinite(res.ub) and res.lb <= res.ub


class TestZonotope:
    def test_scaled_identity_equals_box(self):
        net = make_net([2, 8, 1], seed=2700)
        obj = ScalarObjective(net)
        eps = 0.4
        res_box = solve(obj, -eps * np.ones(2), eps * np.ones(2), eps_t=1e-4)
        res_zono = solve_zonotope(obj, eps * np.eye(2), np.zeros(2),
                                  eps_t=1e-4)
        assert res_zono.lb == pytest.approx(res_box.lb, abs=1e-4)
        assert res_zono.ub == pytest.approx(res_box.ub, abs=1e-4)

    def test_hexagon_bracket(self):
        net = make_net([2, 8, 1], seed=2800)
        obj = ScalarObjective(net)
        G = np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]])
        x_c = np.array([2.5, 0.0])
        res = solve_zonotope(obj, G, x_c, eps_t=1e-3)
        gmax, _ = oracle.grid_max(lambda z: obj.value(z @ G.T + x_c),
                                  -np.ones(3), np.ones(3), n_per_axis=41,
                                  n_random=30_000, seed=0)
        assert res.status == "Converged"
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    def test_rank_deficient_generators(self):
        net = make_net([2, 6, 1], seed=2900)
        obj = ScalarObjective(net)
        G = np.array([[0.2, 0.2], [0.1, 0.1]])  # duplicate columns
        res = solve_zonotope(obj, G, np.zeros(2), eps_t=1e-3)
        rng = np.random.default_rng(1)
        zs = rng.uniform(-1, 1, size=(50_000, 2))
        vals = obj.value(zs @ G.T)
        assert res.status == "Converged"
        assert res.lb - 1e-9 <= vals.max() <= res.ub + 1e-9

    def test_linear_term_composition(self):
        net = make_net([2, 6, 1], seed=3000)
        q = np.array([0.7, -0.3])
        obj = ScalarObjective(net, linear=q, offset=0.2)
        G = np.array([[0.3, 0.0, 0.1], [0.0, 0.3, -0.1]])
        x_c = np.array([1.0, -1.0])
        res = solve_zonotope(obj, G, x_c, eps_t=1e-3)
        gmax, _ = oracle.grid_max(lambda z: obj.value(z @ G.T + x_c),
                                  -np.ones(3), np.ones(3), n_per_axis=41,
                                  n_random=20_000, seed=2)
        assert res.lb - 1e-9 <= gmax <= res.ub + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["generator", "center"])
    @pytest.mark.parametrize("build", [
        lambda obj, G, x_c: bnb.latent_objective(obj, G, x_c),
        lambda obj, G, x_c: solve_zonotope(obj, G, x_c, eps_t=1e-3)],
        ids=["latent_objective", "solve_zonotope"])
    def test_non_finite_map_named(self, build, entry, bad):
        # the generator matrix or the center is named, not the merged
        # first layer's weight or bias; the linear term is composed after
        # the check
        obj = ScalarObjective(make_net([2, 6, 1], seed=3000),
                              linear=np.array([0.7, -0.3]))
        G = np.array([[0.3, 0.0, 0.1], [0.0, 0.3, -0.1]])
        x_c = np.array([1.0, -1.0])
        if entry == "generator":
            G[1, 2] = bad
        else:
            x_c[0] = bad
        name = "generator matrix G" if entry == "generator" else "center x_c"
        with pytest.raises(ValueError, match=f"^{name} has non-finite"):
            build(obj, G, x_c)


class TestBoxCertificates:
    """Box-level certificates are shared among the boxes of one stacked pass
    only: each distinct box of a pass gets them once."""

    def directions(self):
        ang = 2.0 * np.pi * np.arange(6) / 6
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def test_group_directions_run_in_lockstep(self, monkeypatch):
        # the group's first solve runs all its directions; a later solve
        # returns its kept result
        net = make_net([2, 6, 5, 2], seed=3900)
        objs = [ScalarObjective(scalarize(net, c)) for c in self.directions()]
        lo, hi = -np.ones(2), np.ones(2)
        cfg = BnBConfig(eps_t=1e-3)
        runs = []
        real = bnb._lockstep

        def counting(bounder, *args):
            runs.append(len(bounder.objs))
            return real(bounder, *args)

        monkeypatch.setattr(bnb, "_lockstep", counting)
        group = Lockstep(objs)
        shared = [solve(obj, lo, hi, cfg=cfg, lockstep=group) for obj in objs]
        assert runs == [len(objs)]
        for obj, res in zip(objs, shared):
            assert_same_result(res, solve(obj, lo, hi, cfg=cfg))

    def test_group_refuses_other_solves(self):
        # a direction outside the group, another box or another config
        # raises rather than running alone
        net = make_net([2, 6, 5, 2], seed=3900)
        objs = [ScalarObjective(scalarize(net, c)) for c in self.directions()]
        lo, hi = -np.ones(2), np.ones(2)
        cfg = BnBConfig(eps_t=1e-2)
        group = Lockstep(objs[:3])
        with pytest.raises(ValueError, match="not in its lockstep group"):
            solve(objs[3], lo, hi, cfg=cfg, lockstep=group)
        solve(objs[0], lo, hi, cfg=cfg, lockstep=group)
        for args, kwargs in (((objs[1], lo, 0.5 * hi), {"cfg": cfg}),
                             ((objs[1], lo, hi), {"eps_t": 1e-3}),
                             ((objs[1], lo, hi),
                              {"cfg": replace(cfg, max_branches=50)})):
            with pytest.raises(ValueError, match="one box with one config"):
                solve(*args, **kwargs, lockstep=group)
        with pytest.raises(ValueError, match="not in its lockstep group"):
            solve(objs[3], lo, hi, cfg=cfg, lockstep=group)
        assert_same_result(solve(objs[1], lo, hi, cfg=cfg, lockstep=group),
                           solve(objs[1], lo, hi, cfg=cfg))

    @staticmethod
    def assert_third_refused(objs, lo, hi):
        """The first two directions run in lockstep; with the third, whose
        hidden layers differ, the run is refused."""
        def run(objs):
            return solve(objs[0], lo, hi, eps_t=1e-2,
                         lockstep=Lockstep(objs))

        run(objs[:2])
        with pytest.raises(ValueError, match="hidden layers"):
            run(objs)

    def test_refuses_other_hidden_layers(self):
        # the directions of a run share one localization of each box; same
        # hidden layers with a new output layer are accepted
        net = make_net([2, 6, 5, 2], seed=3500)
        other = make_net([2, 6, 5, 2], seed=3501)
        objs = [ScalarObjective(scalarize(n, c))
                for n, c in ((net, [1.0, 0.0]), (net, [0.0, 1.0]),
                             (other, [1.0, 0.0]))]
        self.assert_third_refused(objs, -np.ones(2), np.ones(2))

    def test_zonotope_solves_compare_merged_first_layer(self):
        # over a zonotope the first hidden layer holds its center; equal
        # compositions built apart are accepted
        net = make_net([2, 6, 5, 2], seed=3600)
        G = np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]])
        objs = [bnb.latent_objective(ScalarObjective(scalarize(net, c)), G,
                                     np.array(x_c))
                for c, x_c in (([1.0, 0.0], [0.5, 0.0]),
                               ([0.0, 1.0], [0.5, 0.0]),
                               ([1.0, 0.0], [0.5, 1e-3]))]
        self.assert_third_refused(objs, -np.ones(3), np.ones(3))

    @pytest.mark.parametrize("dims", [[2, 8, 2], [2, 6, 5, 2]])
    def test_each_box_of_a_pass_certified_once(self, monkeypatch, dims):
        net = make_net(dims, seed=3800, scale=2.0)
        objs = [ScalarObjective(scalarize(net, c)) for c in self.directions()]
        lo, hi = -np.ones(2), np.ones(2)
        cfg = BnBConfig(eps_t=1e-3, max_branches=201)
        real = _Bounder._fresh_certificate
        stacks = []

        def fresh(self, lo, hi):
            stacks.append({a.tobytes() + b.tobytes() for a, b in zip(lo, hi)})
            assert len(stacks[-1]) == len(lo)      # no box twice in a pass
            return real(self, lo, hi)

        monkeypatch.setattr(_Bounder, "_fresh_certificate", fresh)
        group = Lockstep(objs)
        shared = [solve(obj, lo, hi, cfg=cfg, lockstep=group) for obj in objs]
        # the first pass bounds every direction's root, the one box [lo, hi]
        assert len(stacks[0]) == 1
        monkeypatch.setattr(_Bounder, "_fresh_certificate", real)
        for obj, res in zip(objs, shared):
            assert_same_result(res, solve(obj, lo, hi, cfg=cfg))

    @pytest.mark.parametrize("zero, rows", [(0.0, 1), (-0.0, 2)])
    def test_boxes_told_apart_by_their_bytes(self, monkeypatch, zero, rows):
        # equal floats are not enough: a box is shared only when its bounds
        # are bit for bit the same, so 0.0 and -0.0 stay apart
        net = make_net([2, 6, 5, 2], seed=3800)
        bounder = _Bounder([ScalarObjective(scalarize(net, c))
                            for c in ([1.0, 0.0], [0.0, 1.0])], BnBConfig())
        real = _Bounder._fresh_certificate
        counts = []

        def fresh(self, lo, hi):
            counts.append(len(lo))
            return real(self, lo, hi)

        monkeypatch.setattr(_Bounder, "_fresh_certificate", fresh)
        lo = np.array([[0.0, -1.0], [zero, -1.0]])
        cert = bounder._certificate(lo, np.ones((2, 2)))
        assert counts == [rows]
        assert len(cert.slope_hi[0]) == 2
