import warnings

import numpy as np
import pytest


from curvreach.reach import (Box, DirectionTemplate, LinearSystem, Polytope,
                             Zonotope, axes_directions, closed_loop_reach,
                             closed_loop_step, pca_directions, reach_polytope,
                             sample_inputs, simulate, uniform_directions)
from curvreach import bnb, reach
from curvreach.fileio import dumps17, polytope_to_dict
from curvreach import lipschitz as lip
from curvreach.model import ScalarObjective, scalarize
from conftest import (assert_same_result, collapsed, linear_net, make_net,
                      node_rows, node_streams, shipped_initial_set,
                      shipped_system)


class TestTemplates:
    def test_axes(self):
        t = axes_directions(3)
        assert t.count == 6
        assert np.allclose(np.linalg.norm(t.directions, axis=1), 1.0)

    def test_uniform_k4_is_axes(self):
        t = uniform_directions(4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(t.directions, expected, atol=1e-15)

    def test_uniform_k16_unit_norm(self):
        t = uniform_directions(16)
        assert t.count == 16
        assert np.allclose(np.linalg.norm(t.directions, axis=1), 1.0,
                           atol=1e-12)

    def test_uniform_too_few(self):
        with pytest.raises(ValueError):
            uniform_directions(2)

    def test_pca_identity_on_box_is_axis_aligned(self):
        net = linear_net(np.eye(2))
        box = Box(np.array([-1.0, -3.0]), np.array([1.0, 3.0]))
        t = pca_directions(net, box, n_samples=10_000, seed=0)
        # dominant direction is the long axis e2
        lead = t.directions[0]
        assert abs(abs(lead[1]) - 1.0) < 1e-2
        assert np.allclose(np.linalg.norm(t.directions, axis=1), 1.0)

    def test_pca_rank_one_alignment(self):
        # outputs on the line y = 2x: leading direction aligns with (1,2)/sqrt5
        W = np.array([[1.0], [2.0]])
        net = linear_net(W)
        box = Box(np.array([-1.0]), np.array([1.0]))
        t = pca_directions(net, box, n_samples=10_000, seed=1)
        lead = t.directions[0]
        target = np.array([1.0, 2.0]) / np.sqrt(5.0)
        angle = np.arccos(min(1.0, abs(lead @ target)))
        assert angle < 1e-3
        # rank-deficient cloud: axis padding present
        assert t.count > 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_row_naming_it(self, bad):
        dirs = np.eye(2).tolist() + [[1.0, bad]]
        with pytest.raises(ValueError,
                           match=r"template 'mine': direction 2 has "
                                 r"non-finite entries"):
            DirectionTemplate(dirs, "mine")

    @pytest.mark.parametrize("dirs", [[1.0, 0.0], [[1.0, 0.0], [1.0]],
                                      np.ones((2, 2, 2))])
    def test_rejects_rows_that_are_not_a_matrix(self, dirs):
        with pytest.raises(ValueError, match=r"template 'mine': directions "
                                             r"must be a \(k, n_f\) array"):
            DirectionTemplate(dirs, "mine")

    def test_pca_default_samples_contract(self):
        import inspect
        sig = inspect.signature(pca_directions)
        assert sig.parameters["n_samples"].default == 10_000


class TestPolytope:
    def test_margins_and_contains(self):
        poly = Polytope(axes_directions(2).directions, np.ones(4))
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.2, 0.0]])
        margins = poly.margins(pts)
        assert margins[0] == pytest.approx(-1.0)
        assert margins[1] == pytest.approx(0.0)
        assert margins[2] == pytest.approx(0.2)
        assert poly.contains(pts[:2])
        assert not poly.contains(pts)

    def test_separation_certificate(self):
        # with unit normals, a positive margin bounds the distance from the
        # point to the polytope from below
        poly = Polytope(axes_directions(2).directions, np.ones(4))
        assert poly.margins(np.array([3.0, 0.0]))[0] == pytest.approx(2.0)
        assert poly.margins(np.array([0.0, 0.0]))[0] < 0


class TestReachPolytope:
    def test_identity_net_axes_recovers_box(self):
        net = linear_net(np.eye(2))
        box = Box(np.array([-0.5, -1.0]), np.array([0.5, 1.0]))
        poly, _ = reach_polytope(net, box, axes_directions(2), 1e-4)
        # +e1, +e2, -e1, -e2 rows
        assert np.allclose(poly.offsets, [0.5, 1.0, 0.5, 1.0], atol=1e-4)

    def test_linear_support_exact_vs_vertices(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((2, 2))
        net = linear_net(W)
        box = Box(-np.ones(2), np.ones(2))
        dirs = uniform_directions(8)
        poly, _ = reach_polytope(net, box, dirs, 1e-6)
        verts = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)],
                         dtype=float)
        images = verts @ W.T
        for i, c in enumerate(dirs.directions):
            exact = (images @ c).max()
            assert abs(poly.offsets[i] - exact) <= 1e-6 + 1e-9

    def test_random_tanh_containment(self):
        net = make_net([2, 8, 2], seed=4000)
        box = Box(-np.ones(2), np.ones(2))
        poly, _ = reach_polytope(net, box, uniform_directions(8), 1e-3)
        rng = np.random.default_rng(5)
        xs = sample_inputs(box, 100_000, rng)
        ys = net.forward(xs)
        assert poly.margins(ys).max() <= 1e-9

    def test_zonotope_input_containment(self):
        net = make_net([2, 6, 2], seed=4100)
        zono = Zonotope(np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]]),
                        np.array([2.5, 0.0]))
        poly, _ = reach_polytope(net, zono, axes_directions(2), 1e-3)
        rng = np.random.default_rng(6)
        ys = net.forward(sample_inputs(zono, 50_000, rng))
        assert poly.margins(ys).max() <= 1e-9

    def test_template_monotonicity(self):
        net = make_net([2, 6, 2], seed=4200)
        box = Box(-np.ones(2), np.ones(2))
        few, _ = reach_polytope(net, box, uniform_directions(4), 1e-3)
        more_dirs = DirectionTemplate(
            np.concatenate([uniform_directions(4).directions,
                            uniform_directions(8).directions]), "mixed")
        more, _ = reach_polytope(net, box, more_dirs, 1e-3)
        # adding faces never enlarges: every point inside `more` is inside `few`
        rng = np.random.default_rng(7)
        probe = rng.uniform(-6, 6, size=(20_000, 2))
        inside_more = more.margins(probe) <= 0
        inside_few = few.margins(probe) <= 0
        assert np.all(~inside_more | inside_few)

    def test_budget_stopped_faces_unconverged(self):
        net = make_net([2, 6, 2], seed=4300, scale=2.0)
        box = Box(-np.ones(2), np.ones(2))
        cfg = bnb.BnBConfig(max_branches=1)
        poly, results = reach_polytope(net, box, uniform_directions(6), 1e-12,
                                       cfg)
        assert [res.status for res in results] == ["BranchLimit"] * 6
        assert poly.unconverged == tuple(range(6))
        assert poly.flagged == ()
        poly, _ = reach_polytope(linear_net(np.eye(2)), box,
                                 axes_directions(2), 1e-6)
        assert poly.unconverged == ()

    def test_empty_template_rejected(self):
        net = make_net([2, 4, 2], seed=1)
        with pytest.raises(ValueError):
            reach_polytope(net, Box(-np.ones(2), np.ones(2)),
                           DirectionTemplate(np.zeros((0, 2)), "none"), 1e-2)

    def test_numerical_solver_failure_propagates(self, monkeypatch,
                                                 di_controller):
        # both callers of the shared per-direction loop: a numerical error
        # that ends a solve is no face, and surfaces with its message
        import curvreach.reach as reach_mod

        def failing(objective, lo, hi, cfg, lockstep=None):
            raise np.linalg.LinAlgError("solver blew up")

        monkeypatch.setattr(reach_mod.bnb, "solve", failing)
        net = make_net([2, 6, 2], seed=4300)
        with pytest.raises(np.linalg.LinAlgError, match="solver blew up"):
            reach_polytope(net, Box(-np.ones(2), np.ones(2)),
                           axes_directions(2), 1e-3)
        step_box = Box(np.array([2.4, -0.1]), np.array([2.6, 0.1]))
        with pytest.raises(np.linalg.LinAlgError, match="solver blew up"):
            closed_loop_step(di_system(di_controller), step_box, None, 1e-3,
                             next_rep="hull")

    def test_non_numerical_failure_propagates(self, monkeypatch):
        # only numerical failures become flagged faces; a bug surfaces
        import curvreach.reach as reach_mod

        def broken(objective, lo, hi, cfg, lockstep=None):
            raise ValueError("shape bug")

        monkeypatch.setattr(reach_mod.bnb, "solve", broken)
        net = make_net([2, 6, 2], seed=4300)
        with pytest.raises(ValueError, match="shape bug"):
            reach_polytope(net, Box(-np.ones(2), np.ones(2)),
                           axes_directions(2), 1e-3)


class TestSharedCertificates:
    """One step's directions share box certificates; results must match
    independent solves bit for bit."""

    @staticmethod
    def assert_identical(a, b, res_a, res_b):
        assert a.offsets.tobytes() == b.offsets.tobytes()
        assert a.lbs.tobytes() == b.lbs.tobytes()
        assert [r.branches_processed for r in res_a] == \
            [r.branches_processed for r in res_b]

    @pytest.mark.parametrize("dims", [[2, 8, 2], [2, 6, 5, 2]])
    def test_reach_polytope_box(self, dims):
        net = make_net(dims, seed=4400)
        box = Box(-np.ones(2), np.ones(2))
        template = uniform_directions(8)
        shared, res_shared = reach_polytope(net, box, template, 1e-3)
        cfg = bnb.BnBConfig(eps_t=1e-3)
        res_alone = [bnb.solve(ScalarObjective(scalarize(net, c)), box.lo,
                               box.hi, cfg=cfg) for c in template.directions]
        alone = Polytope(template.directions,
                         np.array([r.ub for r in res_alone]),
                         np.array([r.lb for r in res_alone]))
        self.assert_identical(shared, alone, res_shared, res_alone)

    def test_closed_loop_step_zonotope(self, monkeypatch, di_controller):
        # record each direction's result, in lockstep and alone
        import curvreach.reach as reach_mod
        real = reach_mod.bnb.solve
        sys_model = di_system(di_controller)
        runs = []
        for share in (True, False):
            results = []

            def recording(objective, lo, hi, cfg, lockstep=None):
                res = real(objective, lo, hi, cfg=cfg,
                           lockstep=lockstep if share else None)
                results.append(res)
                return res

            monkeypatch.setattr(reach_mod.bnb, "solve", recording)
            poly, _ = closed_loop_step(sys_model, hexagon(),
                                       uniform_directions(16), 1e-3)
            runs.append((poly, results))
        (a, res_a), (b, res_b) = runs
        assert len(res_a) == a.normals.shape[0] == 20
        self.assert_identical(a, b, res_a, res_b)

    def test_localizes_fewer_boxes_than_it_bounds(self, monkeypatch):
        from curvreach import localize
        real = localize.bounds_for_box
        calls = {"n": 0}

        def counting(net, lo, hi):
            calls["n"] += 1
            return real(net, lo, hi)

        monkeypatch.setattr(localize, "bounds_for_box", counting)
        net = make_net([2, 6, 5, 2], seed=4500)
        _, results = reach_polytope(net, Box(-np.ones(2), np.ones(2)),
                                    uniform_directions(8), 1e-3)
        nodes = sum(r.branches_processed for r in results)
        assert 0 < calls["n"] < nodes


class TestLockstepDirections:
    """reach runs the directions of one input set in lockstep, with one
    stacked bound pass per round over every live direction; each result
    must be that of solving its direction alone."""

    DEPTHS = [[2, 8, 2], [2, 6, 5, 2], [2, 5, 4, 3, 2]]
    ZONO = Zonotope(np.array([[0.15, 0.075, 0.05], [-0.1, 0.05, 0.125]]),
                    np.array([0.3, -0.2]))

    @staticmethod
    def alone(objective, input_set, cfg):
        if isinstance(input_set, Box):
            return bnb.solve(objective, input_set.lo, input_set.hi, cfg=cfg)
        return bnb.solve_zonotope(objective, input_set.G, input_set.center,
                                  cfg=cfg)

    @staticmethod
    def count_passes(monkeypatch):
        """The number of stacked bound passes, and the number of searches
        in each."""
        real = bnb._pass
        passes = []

        def counting(bounder, dirs, asks):
            passes.append(len(dirs))
            return real(bounder, dirs, asks)

        monkeypatch.setattr(bnb, "_pass", counting)
        return passes

    def rounds_alone(self, monkeypatch, objectives, input_set, cfg):
        """Each direction's result alone, and the passes it takes."""
        passes = self.count_passes(monkeypatch)
        results, rounds = [], []
        for objective in objectives:
            passes.clear()
            results.append(self.alone(objective, input_set, cfg))
            rounds.append(len(passes))
        return results, rounds

    @pytest.mark.parametrize("cfg", [
        bnb.BnBConfig(eps_t=1e-2),
        # directions stop in different rounds at this budget
        bnb.BnBConfig(eps_t=1e-3, max_branches=101),
        # a larger budget at the coarser gap
        bnb.BnBConfig(eps_t=1e-2, max_branches=201),
    ], ids=["converged", "budget", "budget-stats"])
    @pytest.mark.parametrize("kind", ["box", "zonotope"])
    @pytest.mark.parametrize("dims", DEPTHS, ids=["depth2", "depth3",
                                                  "depth4"])
    def test_reach_polytope_matches_alone(self, monkeypatch, dims, kind,
                                          cfg):
        net = make_net(dims, seed=4600, scale=2.0)
        input_set = Box(-np.ones(2), np.ones(2)) if kind == "box" \
            else self.ZONO
        template = uniform_directions(6)
        objectives = [ScalarObjective(scalarize(net, c))
                      for c in template.directions]
        streams = node_streams(monkeypatch)
        alone, rounds = self.rounds_alone(monkeypatch, objectives,
                                          input_set, cfg)
        # the directions solved alone, one after another
        alone_rows = node_rows(streams[0])
        passes = self.count_passes(monkeypatch)
        streams = node_streams(monkeypatch)
        poly, results = reach_polytope(net, input_set, template, cfg.eps_t,
                                       cfg)
        for res, ref in zip(results, alone):
            assert_same_result(res, ref)
        # each direction bounds the nodes it bounds alone, bit for bit
        assert sorted(streams) == list(range(len(objectives)))
        assert node_rows(node for i in sorted(streams)
                         for node in streams[i]) == alone_rows
        assert poly.offsets.tolist() == [r.ub for r in alone]
        # one pass per round, all directions in the first
        assert len(passes) == max(rounds)
        assert passes[0] == len(objectives)
        if cfg.max_branches == 101:
            assert len(set(rounds)) > 1

    @pytest.mark.parametrize("kind", ["box", "zonotope"])
    def test_collapsed_nodes_match_alone(self, monkeypatch, kind):
        # depth 3 at a fine gap, where the monotonicity test moves nodes of
        # the directions onto faces of their boxes: each direction still
        # bounds the nodes, faces included, that it bounds alone
        cfg = bnb.BnBConfig(eps_t=1e-4)
        net = make_net([2, 6, 5, 2], seed=4600, scale=2.0)
        input_set = Box(-np.ones(2), np.ones(2)) if kind == "box" \
            else self.ZONO
        template = uniform_directions(6)
        objectives = [ScalarObjective(scalarize(net, c))
                      for c in template.directions]
        streams = node_streams(monkeypatch)
        alone, _ = self.rounds_alone(monkeypatch, objectives, input_set, cfg)
        alone_nodes = list(streams[0])
        streams = node_streams(monkeypatch)
        poly, results = reach_polytope(net, input_set, template, cfg.eps_t,
                                       cfg)
        for res, ref in zip(results, alone):
            assert_same_result(res, ref)
        nodes = [node for i in sorted(streams) for node in streams[i]]
        assert node_rows(nodes) == node_rows(alone_nodes)
        assert [(n.lo.tolist(), n.hi.tolist(), n.axis) for n in nodes] == \
            [(n.lo.tolist(), n.hi.tolist(), n.axis) for n in alone_nodes]
        assert collapsed(nodes)

    @pytest.mark.parametrize("kind", ["box", "zonotope"])
    @pytest.mark.parametrize("dims", DEPTHS, ids=["depth2", "depth3",
                                                  "depth4"])
    def test_zeroth_order_reach_matches_alone(self, monkeypatch, dims, kind):
        # without first-order bounds every box of a pass computes L_inf, row
        # by row, whichever directions carry it
        cfg = bnb.BnBConfig(eps_t=1e-2, max_branches=101,
                            use_first_order=False)
        net = make_net(dims, seed=4600, scale=2.0)
        input_set = Box(-np.ones(2), np.ones(2)) if kind == "box" \
            else self.ZONO
        template = uniform_directions(6)
        objectives = [ScalarObjective(scalarize(net, c))
                      for c in template.directions]
        alone, rounds = self.rounds_alone(monkeypatch, objectives,
                                          input_set, cfg)
        passes = self.count_passes(monkeypatch)
        poly, results = reach_polytope(net, input_set, template, cfg.eps_t,
                                       cfg)
        for res, ref in zip(results, alone):
            assert_same_result(res, ref)
        assert poly.offsets.tolist() == [r.ub for r in alone]
        assert len(passes) == max(rounds) < sum(rounds)
        assert passes[0] == len(objectives)

    @pytest.mark.parametrize("cfg", [
        bnb.BnBConfig(eps_t=1e-3),
        bnb.BnBConfig(eps_t=1e-3, use_first_order=False),
    ], ids=["first-order", "zeroth-order"])
    @pytest.mark.parametrize("dims", DEPTHS, ids=["depth2", "depth3",
                                                  "depth4"])
    def test_point_box_reach_matches_alone(self, monkeypatch, dims, cfg):
        # a point box is bounded in the one stacked pass of all directions,
        # and each direction takes its value at the point as both bounds
        net = make_net(dims, seed=4600, scale=2.0)
        point = np.array([0.3, -0.2])
        template = uniform_directions(6)
        objectives = [ScalarObjective(scalarize(net, c))
                      for c in template.directions]
        alone, rounds = self.rounds_alone(monkeypatch, objectives,
                                          Box(point, point), cfg)
        passes = self.count_passes(monkeypatch)
        poly, results = reach_polytope(net, Box(point, point), template,
                                       cfg.eps_t, cfg)
        for res, ref, obj in zip(results, alone, objectives):
            assert_same_result(res, ref)
            assert res.status == "Converged" and res.branches_processed == 1
            assert res.lb == res.ub == pytest.approx(obj.value(point),
                                                     rel=1e-12, abs=1e-12)
        assert rounds == [1] * len(objectives)
        assert passes == [len(objectives)]

    @pytest.mark.parametrize("cfg", [
        bnb.BnBConfig(eps_t=1e-3),
        # the zeroth-order bound alone reads each direction's linear part
        bnb.BnBConfig(eps_t=1e-3, max_branches=101, use_first_order=False),
    ], ids=["first-order", "zeroth-order"])
    @pytest.mark.parametrize("kind", ["box", "zonotope"])
    def test_closed_loop_step_matches_alone(self, monkeypatch, di_controller,
                                            kind, cfg):
        # the shipped depth-4 controller under the step map's linear part
        import curvreach.reach as reach_mod
        sys_model = di_system(di_controller)
        input_set = hexagon() if kind == "zonotope" else \
            Box(np.array([2.4, -0.1]), np.array([2.6, 0.1]))
        real = reach_mod.bnb.solve
        results = []

        def recording(objective, lo, hi, cfg, lockstep=None):
            results.append(real(objective, lo, hi, cfg=cfg,
                                lockstep=lockstep))
            return results[-1]

        monkeypatch.setattr(reach_mod.bnb, "solve", recording)
        passes = self.count_passes(monkeypatch)
        poly, _ = closed_loop_step(sys_model, input_set,
                                   uniform_directions(16), cfg.eps_t, cfg)
        monkeypatch.setattr(reach_mod.bnb, "solve", real)
        lockstep = len(passes)
        objectives = [sys_model.step_objective(c) for c in poly.normals]
        alone, rounds = self.rounds_alone(monkeypatch, objectives,
                                          input_set, cfg)
        assert len(results) == len(alone) == 20
        for res, ref in zip(results, alone):
            assert_same_result(res, ref)
        assert lockstep == max(rounds)

    @pytest.mark.parametrize("cfg", [
        bnb.BnBConfig(eps_t=1e-3),
        bnb.BnBConfig(eps_t=1e-3, max_branches=101, use_first_order=False),
    ], ids=["first-order", "zeroth-order"])
    @pytest.mark.parametrize("kind", ["box", "zonotope"])
    def test_closed_loop_step_with_drift_matches_alone(
            self, monkeypatch, di_controller, kind, cfg):
        # a drift gives each direction c its own offset c . drift, which a
        # stacked pass gathers per box like the output bias and linear term
        import curvreach.reach as reach_mod
        sys_model = LinearSystem(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                 np.array([[0.5], [1.0]]), di_controller, 5,
                                 drift=np.array([0.3, -0.2]))
        input_set = hexagon() if kind == "zonotope" else \
            Box(np.array([2.4, -0.1]), np.array([2.6, 0.1]))
        real = reach_mod.bnb.solve
        results = []

        def recording(objective, lo, hi, cfg, lockstep=None):
            results.append(real(objective, lo, hi, cfg=cfg,
                                lockstep=lockstep))
            return results[-1]

        monkeypatch.setattr(reach_mod.bnb, "solve", recording)
        passes = self.count_passes(monkeypatch)
        poly, _ = closed_loop_step(sys_model, input_set,
                                   uniform_directions(16), cfg.eps_t, cfg)
        monkeypatch.setattr(reach_mod.bnb, "solve", real)
        lockstep = len(passes)
        objectives = [sys_model.step_objective(c) for c in poly.normals]
        assert len({obj.offset for obj in objectives}) > 10
        alone, rounds = self.rounds_alone(monkeypatch, objectives,
                                          input_set, cfg)
        assert len(results) == len(alone) == 20
        for res, ref in zip(results, alone):
            assert_same_result(res, ref)
        assert lockstep == max(rounds) < sum(rounds)

    @staticmethod
    def fail_after_root(monkeypatch, net, c, error):
        """Make every evaluation that holds a point of direction ``c`` away
        from the root's center, the origin, raise ``error``.  A stacked
        evaluation carries one output row per point, so it raises when any
        of its points is such a point."""
        row = c @ net.layers[-1].weight
        real = ScalarObjective.value_and_grad

        def value_and_grad(self, x):
            # (1, h) for one direction, (B, 1, h) stacked per point
            ours = (self.net.layers[-1].weight[..., 0, :] == row).all(axis=-1)
            if np.any(ours & np.any(x != 0.0, axis=-1)):
                raise error("injected")
            return real(self, x)

        monkeypatch.setattr(ScalarObjective, "value_and_grad",
                            value_and_grad)

    @pytest.mark.parametrize("dims", DEPTHS[:2], ids=["depth2", "depth3"])
    def test_one_direction_failing_evaluation_propagates(self, monkeypatch,
                                                         dims):
        # an evaluation of the objective leaves no finite bound to fall
        # back to: its error ends the lockstep run in the second round
        net = make_net(dims, seed=4600, scale=2.0)
        template = uniform_directions(6)
        self.fail_after_root(monkeypatch, net, template.directions[2],
                             FloatingPointError)
        passes = self.count_passes(monkeypatch)
        with pytest.raises(FloatingPointError, match="injected"):
            reach_polytope(net, Box(-np.ones(2), np.ones(2)), template,
                           1e-2)
        assert passes == [6, 6]

    @pytest.mark.parametrize("dims", DEPTHS[:2], ids=["depth2", "depth3"])
    def test_one_direction_failing_numerically(self, monkeypatch, dims):
        # every model stage that holds a box of direction bad away from the
        # root raises, so the stack is bounded one box at a time and only
        # that direction's boxes are flagged; every node of it is split
        # again, so the budget ends its search
        net = make_net(dims, seed=4600, scale=2.0)
        box = Box(-np.ones(2), np.ones(2))
        template = uniform_directions(6)
        cfg = bnb.BnBConfig(eps_t=1e-2, max_branches=200)
        alone = [bnb.solve(ScalarObjective(scalarize(net, c)), box.lo,
                           box.hi, cfg=cfg) for c in template.directions]
        bad = 2
        row = template.directions[bad] @ net.layers[-1].weight
        real = bnb._Bounder._linear_bound

        def failing(self, obj, cert, center, r):
            ours = (obj.net.layers[-1].weight[:, 0, :] == row).all(axis=-1)
            if np.any(ours & np.any(center != 0.0, axis=-1)):
                raise FloatingPointError("injected")
            return real(self, obj, cert, center, r)

        monkeypatch.setattr(bnb._Bounder, "_linear_bound", failing)
        poly, results = reach_polytope(net, box, template, cfg.eps_t, cfg)
        assert poly.flagged == (bad,)
        assert results[bad].flagged_nodes > 0
        for k, (res, ref) in enumerate(zip(results, alone)):
            if k != bad:
                assert_same_result(res, ref)
        # the flagged face is sound
        rng = np.random.default_rng(13)
        ys = net.forward(sample_inputs(box, 20_000, rng))
        assert poly.margins(ys).max() <= 1e-9

    def test_non_numerical_failure_in_a_pass_propagates(self, monkeypatch):
        net = make_net([2, 6, 5, 2], seed=4600, scale=2.0)
        template = uniform_directions(6)
        self.fail_after_root(monkeypatch, net, template.directions[4],
                             ValueError)
        with pytest.raises(ValueError, match="injected"):
            reach_polytope(net, Box(-np.ones(2), np.ones(2)), template,
                           1e-2)


def di_system(controller, horizon=5):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])
    return LinearSystem(A, B, controller, horizon)


def hexagon():
    return Zonotope(np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]]),
                    np.array([2.5, 0.0]))


class TestClosedLoop:
    def test_zero_b_reduces_to_linear_image(self, di_controller):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        dummy = make_net([2, 4, 1], seed=5)
        sys_model = LinearSystem(A, np.zeros((2, 1)), dummy, 1)
        box = Box(np.array([1.0, -1.0]), np.array([2.0, 1.0]))
        poly, nxt = closed_loop_step(sys_model, box, None, 1e-5,
                                     next_rep="hull")
        verts = np.array([[x1, x2] for x1 in (1.0, 2.0) for x2 in (-1.0, 1.0)])
        images = verts @ A.T
        for c, d in zip(poly.normals, poly.offsets):
            assert abs(d - (images @ c).max()) <= 1e-5 + 1e-9

    def test_zero_a_reduces_to_controller_image(self, di_controller):
        sys_model = LinearSystem(np.zeros((2, 2)), np.array([[0.5], [1.0]]),
                                 di_controller, 1)
        box = Box(np.array([2.4, -0.1]), np.array([2.6, 0.1]))
        poly, _ = closed_loop_step(sys_model, box, None, 1e-4,
                                   next_rep="hull")
        rng = np.random.default_rng(8)
        xs = sample_inputs(box, 20_000, rng)
        ys = sys_model.step_map(xs)
        assert poly.margins(ys).max() <= 1e-9

    def test_di_single_step_containment(self, di_controller):
        sys_model = di_system(di_controller)
        poly, nxt = closed_loop_step(sys_model, hexagon(), None, 1e-3,
                                     next_rep="pca")
        rng = np.random.default_rng(9)
        xs = sample_inputs(hexagon(), 10_000, rng)
        ys = sys_model.step_map(xs)
        assert poly.margins(ys).max() <= 1e-9
        # propagated zonotope also contains the images
        z = np.linalg.solve(nxt.G, (ys - nxt.center).T).T
        assert np.abs(z).max() <= 1 + 1e-9

    def test_di_five_steps_containment(self, di_controller):
        sys_model = di_system(di_controller)
        trace = closed_loop_reach(sys_model, hexagon(), None, 1e-3, steps=5,
                                  seed=0)
        rng = np.random.default_rng(10)
        cloud = simulate(sys_model, sample_inputs(hexagon(), 10_000, rng), 5)
        for t, (poly, _) in enumerate(trace, start=1):
            assert poly.margins(cloud[t]).max() <= 1e-9

    def test_identity_dynamics_fixed_point(self):
        dummy = make_net([2, 4, 1], seed=6)
        sys_model = LinearSystem(np.eye(2), np.zeros((2, 1)), dummy, 3)
        box = Box(np.array([-0.5, -0.25]), np.array([0.5, 0.25]))
        trace = closed_loop_reach(sys_model, box, None, 1e-6, steps=3,
                                  next_rep="hull")
        for poly, nxt in trace:
            assert np.allclose(nxt.lo, box.lo, atol=1e-5)
            assert np.allclose(nxt.hi, box.hi, atol=1e-5)

    def test_wrapping_monotonicity(self, di_controller):
        # the hull propagated set contains the polytope it hulls
        sys_model = di_system(di_controller)
        extra = DirectionTemplate(uniform_directions(8).directions, "u8")
        poly, nxt = closed_loop_step(sys_model, hexagon(), extra, 1e-3,
                                     next_rep="hull")
        rng = np.random.default_rng(11)
        pts = rng.uniform(-4, 4, size=(50_000, 2))
        inside_poly = poly.margins(pts) <= 0
        inside_hull = np.all((pts >= nxt.lo - 1e-12) &
                             (pts <= nxt.hi + 1e-12), axis=1)
        assert np.all(~inside_poly | inside_hull)

    def test_drift_term(self):
        dummy = make_net([2, 4, 1], seed=7)
        drift = np.array([0.5, -0.25])
        sys_model = LinearSystem(np.eye(2), np.zeros((2, 1)), dummy, 1, drift)
        box = Box(-np.ones(2) * 0.1, np.ones(2) * 0.1)
        poly, nxt = closed_loop_step(sys_model, box, None, 1e-6,
                                     next_rep="hull")
        assert np.allclose((nxt.lo + nxt.hi) / 2, drift, atol=1e-5)

    def test_unknown_next_rep_rejected_before_any_solve(self, monkeypatch,
                                                         di_controller):
        solves = []
        monkeypatch.setattr(reach.bnb, "solve",
                            lambda *args, **kw: solves.append(args))
        with pytest.raises(ValueError, match="'zonotope'"):
            closed_loop_step(di_system(di_controller), hexagon(), None, 1e-3,
                             next_rep="zonotope")
        assert solves == []

    @pytest.mark.parametrize("template", [None, uniform_directions(8)],
                             ids=["alone", "u8"])
    def test_hull_faces_are_the_axes(self, di_controller, template):
        # the template's own copies of the axes are dropped, and the hull's
        # faces close the stack, bit for bit those of the axes template
        poly, _ = closed_loop_step(di_system(di_controller), hexagon(),
                                   template, 1e-2, next_rep="hull")
        assert poly.normals.shape[0] == (4 if template is None else 8)
        assert (poly.normals[-4:].tobytes()
                == axes_directions(2).directions.tobytes())

    def test_dimension_mismatch(self, di_controller):
        sys_model = di_system(di_controller)
        with pytest.raises(ValueError):
            closed_loop_step(sys_model, Box(-np.ones(3), np.ones(3)), None,
                             1e-3)

    def test_template_width_mismatch(self, di_controller):
        # rejected before sampling, naming both widths
        sys_model = di_system(di_controller)
        template = DirectionTemplate(np.array([[1.0, 0.0, 0.0]]), "wide")
        with pytest.raises(ValueError, match="width 3.*dimension is 2"):
            closed_loop_step(sys_model, hexagon(), template, 1e-3)

    def test_pca_step_needs_more_samples_than_dims(self, di_controller):
        # pca_directions samples the step map; a closed-loop step draws none
        sys_model = di_system(di_controller)
        with pytest.raises(ValueError, match="more samples"):
            pca_directions(sys_model.step_map, hexagon(), n_samples=2)

    @pytest.mark.parametrize("count, cause", [
        (-5, "more samples"), (0, "more samples"), (2, "more samples"),
        (2.5, "an integer"), (True, "an integer"),
    ])
    def test_bad_pca_sample_count_names_it(self, di_controller, count,
                                           cause):
        sys_model = di_system(di_controller)
        with pytest.raises(ValueError, match=f"n_samples.*{cause}"):
            pca_directions(sys_model.step_map, hexagon(), n_samples=count)

    def test_sample_knobs_are_ignored(self, di_controller):
        # no step draws samples, so neither knob moves a bit of the output
        sys_model = di_system(di_controller)
        runs = [closed_loop_reach(sys_model, hexagon(), None, 1e-2, steps=3,
                                  pca_samples=samples, seed=seed)
                for samples, seed in ((10_000, 0), (3, 7))]
        dumped = [[dumps17(polytope_to_dict(poly)) for poly, _ in trace]
                  for trace in runs]
        assert dumped[0] == dumped[1]
        for (_, a), (_, b) in zip(*runs):
            assert a.G.tobytes() == b.G.tobytes()
            assert a.center.tobytes() == b.center.tobytes()

    def test_bad_step_count(self, di_controller):
        sys_model = di_system(di_controller)
        with pytest.raises(ValueError):
            closed_loop_reach(sys_model, hexagon(), None, 1e-3, steps=0)

    @pytest.mark.parametrize("steps", [1.5, 0.0, -1, np.inf, np.nan, True,
                                       "2"])
    def test_steps_must_be_a_whole_number(self, steps):
        sys_model = LinearSystem(np.eye(2), np.zeros((2, 1)),
                                 make_net([2, 4, 1], seed=6), 3)
        with pytest.raises(ValueError, match="steps must be a whole number"):
            closed_loop_reach(sys_model, Box(-np.ones(2), np.ones(2)), None,
                              1e-3, steps=steps, next_rep="hull")

    @pytest.mark.parametrize("steps", [2, 2.0, np.int64(2)])
    def test_whole_steps_of_any_number_type(self, steps):
        sys_model = LinearSystem(np.eye(2), np.zeros((2, 1)),
                                 make_net([2, 4, 1], seed=6), 3)
        trace = closed_loop_reach(sys_model, Box(-np.ones(2), np.ones(2)),
                                  None, 1e-3, steps=steps, next_rep="hull")
        assert len(trace) == 2


def fd_jacobian(sys_model, x, h=1e-6):
    """Central-difference Jacobian of the step map at x."""
    cols = [(sys_model.step_map(x + h * e) - sys_model.step_map(x - h * e))[0]
            / (2.0 * h) for e in np.eye(len(x))]
    return np.stack(cols, axis=1)


def linearized_cases(controller):
    """(system, input set, its center, its generators) for each case."""
    di = di_system(controller)
    box = Box(np.array([2.4, -0.1]), np.array([2.6, 0.1]))
    thin = Zonotope(np.array([[0.1], [0.05]]), np.array([2.5, 0.0]))
    # B = 0 and a singular A: J G has rank 1
    singular = LinearSystem(np.array([[1.0, 2.0], [0.5, 1.0]]),
                            np.zeros((2, 1)), controller, 1)
    return {
        "box": (di, box, np.array([2.5, 0.0]), np.diag([0.1, 0.1])),
        "zonotope": (di, hexagon(), hexagon().center, hexagon().G),
        "fewer-generators": (di, thin, thin.center, thin.G),
        "rank-deficient": (singular, box, np.array([2.5, 0.0]),
                           np.diag([0.1, 0.1])),
    }


class TestLinearizedAxes:
    CASES = ("box", "zonotope", "fewer-generators", "rank-deficient")

    @pytest.mark.parametrize("case", CASES)
    def test_left_singular_vectors_of_the_linearization(self, di_controller,
                                                        case):
        sys_model, input_set, center, G = linearized_cases(di_controller)[case]
        R = reach._rotation_from_linearization(sys_model, input_set)
        assert R.shape == (2, 2)
        assert np.abs(R.T @ R - np.eye(2)).max() <= 1e-12
        JG = fd_jacobian(sys_model, center) @ G
        U, sv, _ = np.linalg.svd(JG)
        rank = int((sv > 1e-8 * sv[0]).sum())
        assert rank == (1 if case in ("fewer-generators", "rank-deficient")
                        else 2)
        for k in range(rank):
            assert min(np.abs(R[:, k] - U[:, k]).max(),
                       np.abs(R[:, k] + U[:, k]).max()) <= 1e-6
        # the rest of the basis spans the complement of J G's range
        assert np.abs(JG.T @ R[:, rank:]).max(initial=0.0) <= 1e-8 * sv[0]

    @pytest.mark.parametrize("case", CASES)
    def test_step_holds_a_sampled_cloud(self, di_controller, case):
        sys_model, input_set, _, _ = linearized_cases(di_controller)[case]
        poly, nxt = closed_loop_step(sys_model, input_set, None, 1e-3)
        rng = np.random.default_rng(14)
        ys = sys_model.step_map(sample_inputs(input_set, 10_000, rng))
        assert poly.margins(ys).max() <= 1e-9
        # the propagated box, R diag(rad) z + R mid, holds it too
        R = reach._rotation_from_linearization(sys_model, input_set)
        rad = np.linalg.norm(nxt.G, axis=0)
        assert np.abs(nxt.G - R * rad).max() <= 1e-12
        assert (np.abs((ys - nxt.center) @ R) <= rad + 1e-9).all()

    @pytest.mark.parametrize("input_set", [
        Box(np.full(2, -1e300), np.full(2, 1e300)),
        Zonotope(np.full((2, 2), 1e300), np.zeros(2)),
    ], ids=["box", "zonotope"])
    def test_non_finite_linearization_is_refused(self, monkeypatch,
                                                 di_controller, input_set):
        # refused before any solve, and with no numpy warning on the way
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the linearization")

        monkeypatch.setattr(bnb, "solve", no_solve)
        sys_model = LinearSystem(1e10 * np.array([[1.0, 1.0], [0.0, 1.0]]),
                                 np.array([[0.5], [1.0]]), di_controller, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="linearized step map"):
                closed_loop_step(sys_model, input_set, None, 1e-3)


class TestSetOperations:
    def test_box_projection_and_distance(self):
        box = Box(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 3.0]))
        sub = box.project([0, 2])
        assert np.allclose(sub.lo, [0.0, 2.0])
        assert np.allclose(sub.hi, [1.0, 3.0])
        # certified distance along the center direction is a lower bound
        point = np.array([4.0, 0.0, 2.5])
        cert = box.distance_lower_bound(point)
        rng = np.random.default_rng(0)
        samples = box.lo + rng.random((20_000, 3)) * (box.hi - box.lo)
        true_min = np.linalg.norm(samples - point, axis=1).min()
        assert 0 < cert <= true_min + 1e-9

    def test_zonotope_distance_bound(self):
        zono = Zonotope(0.2 * np.eye(2), np.zeros(2))
        point = np.array([1.0, 0.0])
        cert = zono.distance_lower_bound(point)
        rng = np.random.default_rng(1)
        zs = rng.uniform(-1, 1, size=(20_000, 2))
        pts = zs @ zono.G.T + zono.center
        true_min = np.linalg.norm(pts - point, axis=1).min()
        assert 0 < cert <= true_min + 1e-9

    def test_inside_point_not_certified(self):
        zono = Zonotope(np.eye(2), np.zeros(2))
        assert zono.distance_lower_bound(np.array([0.2, 0.1])) <= 0


class TestSimulate:
    def test_shapes_and_recursion(self, di_controller):
        sys_model = di_system(di_controller)
        x0 = np.array([[2.5, 0.0], [2.4, 0.1]])
        cloud = simulate(sys_model, x0, 3)
        assert cloud.shape == (4, 2, 2)
        step1 = sys_model.step_map(x0)
        assert np.allclose(cloud[1], step1, atol=1e-12)

    def test_step_map_bit_for_bit(self, di_controller):
        # step_map accumulates in place: x A^T, then pi(x) B^T, then drift
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.5], [1.0]])
        drift = np.array([0.3, -0.2])
        sys_model = LinearSystem(A, B, di_controller, 5, drift=drift)
        cloud = sample_inputs(hexagon(), 50, np.random.default_rng(5))
        for xs in (cloud, cloud[:1]):
            expected = xs @ A.T + di_controller.preactivations(xs)[-1] @ B.T \
                + drift
            assert np.array_equal(sys_model.step_map(xs), expected)

    def test_sample_inputs_bit_for_bit(self):
        # sampling scales and shifts the draws in place
        box = Box(np.array([2.4, -0.1]), np.array([2.6, 0.3]))
        u = np.random.default_rng(6).random((50, 2))
        assert np.array_equal(sample_inputs(box, 50, np.random.default_rng(6)),
                              box.lo + u * (box.hi - box.lo))
        zono = hexagon()
        z = np.random.default_rng(6).uniform(-1.0, 1.0, size=(50, 3))
        assert np.array_equal(
            sample_inputs(zono, 50, np.random.default_rng(6)),
            z @ zono.G.T + zono.center)


def step_reference(sys_model, c):
    """c . (A x + B pi(x) + drift) built for one direction, as products of
    that direction alone."""
    return ScalarObjective(scalarize(sys_model.controller, sys_model.B.T @ c),
                           linear=sys_model.A.T @ c,
                           offset=float(c @ sys_model.drift))


def direction_stacks(n):
    """axes, uniform:16 on the plane, and a seeded random stack."""
    stacks = [axes_directions(n).directions,
              np.random.default_rng(26).standard_normal((12, n))]
    if n == 2:
        stacks.append(uniform_directions(16).directions)
    return stacks


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_objective(got, ref):
    """Every layer, the linear term and the offset, bit for bit."""
    assert len(got.net.layers) == len(ref.net.layers)
    for a, b in zip(got.net.layers, ref.net.layers):
        assert a.activation is b.activation
        assert_same_bits(a.weight, b.weight)
        assert_same_bits(a.bias, b.bias)
    assert (got.linear is None) == (ref.linear is None)
    if ref.linear is not None:
        assert_same_bits(got.linear, ref.linear)
    assert_same_bits(got.offset, ref.offset)


class TestFaceObjectives:
    """The objectives of a step's directions are built as one stack; each
    must be that direction's objective built alone, bit for bit."""

    SYSTEMS = ["di", "quad6"]

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_closed_loop_faces(self, name):
        sys_model = shipped_system(name)
        for dirs in direction_stacks(sys_model.dim):
            faces = reach._face_objectives(dirs, sys_model)
            assert len(faces) == len(dirs)
            for c, face in zip(dirs, faces):
                assert_same_objective(face, step_reference(sys_model, c))
                assert_same_objective(face, sys_model.step_objective(c))
                # the hidden layers are the controller's own
                assert all(a is b for a, b in zip(
                    face.net.layers[:-1], sys_model.controller.layers[:-1]))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_open_loop_faces(self, name):
        net = shipped_system(name).controller
        for dirs in direction_stacks(net.output_dim):
            faces = reach._face_objectives(dirs, net)
            for c, face in zip(dirs, faces):
                assert_same_objective(face, ScalarObjective(scalarize(net,
                                                                      c)))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_latent_faces_over_three_steps(self, name):
        # the zonotopes that three closed-loop steps propagate
        sys_model = shipped_system(name)
        trace = closed_loop_reach(sys_model, shipped_initial_set(name), None,
                                  1e-2, steps=3, pca_samples=2000)
        for _, zono in trace:
            for dirs in direction_stacks(sys_model.dim):
                faces = reach._face_objectives(dirs, sys_model, zono)
                for c, face in zip(dirs, faces):
                    assert_same_objective(face, bnb.latent_objective(
                        step_reference(sys_model, c), zono.G, zono.center))
                # the first layer is composed with G once for all of them
                assert len({id(face.net.layers[0]) for face in faces}) == 1

    @pytest.mark.parametrize("closed", [False, True], ids=["net", "system"])
    def test_latent_faces_without_a_hidden_layer(self, closed):
        # each direction's own output row takes the generators
        net = linear_net(np.array([[1.0, 2.0], [-0.5, 0.25]]),
                         b=np.array([0.1, -0.3]))
        sys_model = LinearSystem(np.array([[1.0, 0.1], [-0.2, 0.9]]),
                                 np.eye(2), net, 1, drift=np.array([0.3, 0.7]))
        zono = hexagon()
        dirs = np.random.default_rng(3).standard_normal((12, 2))
        faces = reach._face_objectives(dirs, sys_model if closed else net,
                                       zono)
        for c, face in zip(dirs, faces):
            ref = step_reference(sys_model, c) if closed \
                else ScalarObjective(scalarize(net, c))
            assert_same_objective(face, bnb.latent_objective(ref, zono.G,
                                                             zono.center))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_bounder_constants(self, name):
        # L_inf of a stack that holds every face over one box: each row is
        # the face's own loop-transformed ell_inf constant plus its linear
        # term's dual norm, bit for bit
        from curvreach.localize import bounds_for_box
        sys_model = shipped_system(name)
        init = shipped_initial_set(name)
        lo, hi = (init.lo, init.hi) if isinstance(init, Box) \
            else (init.center - 0.1, init.center + 0.1)
        for dirs in direction_stacks(sys_model.dim):
            for faces in (reach._face_objectives(dirs, sys_model),
                          reach._face_objectives(dirs @ sys_model.B,
                                                 sys_model.controller)):
                bounder = bnb._Bounder(faces, bnb.BnBConfig())
                k = len(faces)
                cert = bounder._certificate(np.tile(lo, (k, 1)),
                                            np.tile(hi, (k, 1)))
                local = bounds_for_box(faces[0].net, lo, hi)
                lt = lip.default_loop_transform(local)
                assert_same_bits(
                    bounder._full_l_inf(cert.slope_hi,
                                        bounder._stack(np.arange(k))),
                    [lip.liplt(face.net, local, lt, np.inf)
                     + face.linear_dual_norm(np.inf) for face in faces])

    OVERFLOWS = {
        # (system or net, zonotope or None, directions, the bad one's field)
        "weight": (linear_net(np.ones((2, 2))), None,
                   [[1.0, 0.0], [1e308, 1e308], [0.0, -1.0]]),
        "bias": (linear_net(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            b=np.full(2, 1e308)), None,
                 [[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]]),
        "linear term": ("A", None, [[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]),
        "offset": ("drift", None, [[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]),
        "latent linear term": ("A-latent",
                               Zonotope(np.array([[1e200, 0.1], [0.0, 0.1]]),
                                        np.zeros(2)),
                               [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]),
        "latent offset": ("A-latent", Zonotope(0.1 * np.eye(2),
                                               np.array([1e300, 0.0])),
                          [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]),
    }

    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_one_overflowing_direction(self, di_controller, case):
        # the second direction overflows: the stack raises the message that
        # building that direction alone raises
        what, zono, dirs = self.OVERFLOWS[case]
        dirs = np.array(dirs)
        B = np.array([[0.5], [1.0]])
        systems = {
            "A": LinearSystem(np.array([[1e308, 0.0], [1e308, 0.0]]), B,
                              di_controller, 1),
            "drift": LinearSystem(np.eye(2), B, di_controller, 1,
                                  drift=np.full(2, 1e308)),
            "A-latent": LinearSystem(np.array([[1e200, 0.0], [0.0, 1.0]]), B,
                                     di_controller, 1),
        }
        sys_model = systems.get(what) if isinstance(what, str) else None
        net = di_controller if sys_model else what

        def alone(c):
            ref = step_reference(sys_model, c) if sys_model \
                else ScalarObjective(scalarize(net, c))
            if zono is not None:
                ref = bnb.latent_objective(ref, zono.G, zono.center)
            return ref

        for c in dirs[[0, 2]]:
            alone(c)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as one:
            alone(dirs[1])
        field = case.removeprefix("latent ")
        assert str(one.value) == f"{field} has non-finite entries (NaN or inf)"
        with pytest.raises(ValueError) as stacked:
            reach._face_objectives(dirs, sys_model or net, zono)
        assert str(stacked.value) == str(one.value)
        if sys_model and zono is None:
            with pytest.raises(ValueError) as step:
                sys_model.step_objective(dirs[1])
            assert str(step.value) == str(one.value)
