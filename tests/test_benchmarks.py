"""Desk-scale closed-loop benchmarks with the shipped controllers."""

from pathlib import Path

import numpy as np
import pytest

from curvreach import reach
from curvreach.fileio import load_network, load_system, load_zonotope

DATA = Path(__file__).resolve().parents[1] / "src" / "curvreach" / "data"


@pytest.fixture(scope="module")
def di_setup():
    controller = load_network(DATA / "di_controller.json")
    sys_model = load_system(DATA / "di_system.json", controller)
    init = load_zonotope(DATA / "di_hexagon.json")
    return sys_model, init


@pytest.fixture(scope="module")
def quad6_setup():
    controller = load_network(DATA / "quad6_controller.json")
    sys_model = load_system(DATA / "quad6_system.json", controller)
    lo = np.array([4.69, 4.69, 2.99, 0.945, -0.005, -0.005])
    hi = np.array([4.71, 4.71, 3.01, 0.955, 0.005, 0.005])
    return sys_model, reach.Box(lo, hi)


class TestDoubleIntegrator:
    def test_five_step_containment_and_contraction(self, di_setup):
        sys_model, init = di_setup
        trace = reach.closed_loop_reach(sys_model, init, None, 1e-3,
                                        steps=5, seed=0)
        rng = np.random.default_rng(0)
        cloud = reach.simulate(sys_model,
                               reach.sample_inputs(init, 10_000, rng), 5)
        for t, (poly, _) in enumerate(trace, start=1):
            assert poly.margins(cloud[t]).max() <= 1e-9
        # the imitation-LQR controller contracts the reach sets
        def width(poly):
            k = poly.normals.shape[0] // 2
            return float(np.max(poly.offsets[:k] + poly.offsets[k:]))
        assert width(trace[-1][0]) < width(trace[0][0])

    def test_hull_representation_also_contains(self, di_setup):
        sys_model, init = di_setup
        trace = reach.closed_loop_reach(sys_model, init, None, 1e-3,
                                        steps=3, next_rep="hull", seed=0)
        rng = np.random.default_rng(1)
        cloud = reach.simulate(sys_model,
                               reach.sample_inputs(init, 5_000, rng), 3)
        for t, (poly, nxt) in enumerate(trace, start=1):
            assert poly.margins(cloud[t]).max() <= 1e-9
            assert isinstance(nxt, reach.Box)


class TestQuadrotor6D:
    OBSTACLES = (np.array([2.0, 4.0, 3.0]), np.array([4.0, 2.0, 3.0]))

    def test_four_steps_contain_and_avoid_obstacles(self, quad6_setup):
        sys_model, init = quad6_setup
        steps = 4
        trace = reach.closed_loop_reach(sys_model, init, None, 1e-2,
                                        steps=steps, pca_samples=2000, seed=0)
        rng = np.random.default_rng(2)
        cloud = reach.simulate(sys_model,
                               reach.sample_inputs(init, 2_000, rng), steps)
        for t, (poly, nxt) in enumerate(trace, start=1):
            assert poly.margins(cloud[t]).max() <= 1e-9
            # certified separation of the position projection from both
            # unit-sphere obstacles
            pos_set = nxt.project([0, 1, 2])
            for obstacle in self.OBSTACLES:
                assert pos_set.distance_lower_bound(obstacle) > 1.0

    def test_full_horizon_contains_and_stays_narrow(self, quad6_setup):
        # the box axes follow the linearized step map, so the boxes do not
        # wrap: the sampled PCA box reached a width of 0.0667 at step 10
        sys_model, init = quad6_setup
        trace = reach.closed_loop_reach(sys_model, init, None, 1e-2)
        assert len(trace) == sys_model.horizon == 10
        rng = np.random.default_rng(3)
        cloud = reach.simulate(sys_model,
                               reach.sample_inputs(init, 2_000, rng), 10)
        for t, (poly, _) in enumerate(trace, start=1):
            assert poly.margins(cloud[t]).max() <= 1e-9
        poly = trace[-1][0]
        k = poly.normals.shape[0] // 2
        assert np.abs(poly.normals[:k] + poly.normals[k:]).max() == 0.0
        assert float(np.mean(poly.offsets[:k] + poly.offsets[k:])) < 0.05

    def test_drift_is_active(self, quad6_setup):
        sys_model, _ = quad6_setup
        assert sys_model.drift[5] == pytest.approx(-0.981)
