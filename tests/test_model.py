import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvreach import oracle
from curvreach.model import (Activation, Layer, Network, ScalarObjective,
                             gradient, network_from_dict, network_to_dict,
                             prepend_affine, scalarize)
from conftest import linear_net, make_net


class TestForward:
    def test_identity_network(self):
        net = linear_net(np.eye(2))
        assert np.allclose(net.forward([1.0, 2.0]), [1.0, 2.0])

    def test_tanh_zero_fixed_point(self):
        net = Network((
            Layer([[1.0, 2.0], [1.0, 2.0]], np.zeros(2), Activation.TANH),
            Layer([[1.0, 1.0], [1.0, 2.0]], np.zeros(2), None),
        ))
        assert np.allclose(net.forward([0.0, 0.0]), [0.0, 0.0])

    def test_di_controller_matches_manual_forward(self, di_controller):
        x = np.array([2.5, 0.0])
        a = x
        for lay in di_controller.layers[:-1]:
            a = np.tanh(lay.weight @ a + lay.bias)
        last = di_controller.layers[-1]
        expected = last.weight @ a + last.bias
        assert np.allclose(di_controller.forward(x), expected, atol=1e-12)

    def test_batched_matches_single(self):
        net = make_net([3, 6, 2], seed=4)
        xs = np.random.default_rng(1).standard_normal((10, 3))
        batch = net.forward(xs)
        for i in range(10):
            assert np.allclose(batch[i], net.forward(xs[i]), atol=1e-12)

    @pytest.mark.parametrize("act", list(Activation))
    def test_matches_preactivations_bit_for_bit(self, act):
        # forward returns the last of the preactivations; read-only inputs
        # show that it never writes x
        net = make_net([3, 6, 5, 2], act=act, seed=17, scale=2.0)
        xs = np.random.default_rng(17).standard_normal((9, 3))
        xs.flags.writeable = False
        for x in (xs[0], xs):
            before = x.copy()
            out = net.forward(x)
            assert out.shape == x.shape[:-1] + (2,)
            assert np.array_equal(out, net.preactivations(x)[-1])
            assert np.array_equal(x, before)

    def test_dimension_mismatch(self):
        net = make_net([3, 4, 2], seed=1)
        with pytest.raises(ValueError):
            net.forward(np.zeros(2))

    def test_forward_deterministic(self):
        net = make_net([2, 8, 1], seed=9)
        x = np.array([0.3, -0.7])
        a = net.forward(x)
        for _ in range(5):
            assert np.array_equal(net.forward(x), a)


class TestGradient:
    def test_linear_gradient_constant(self):
        net = linear_net([[3.0, 4.0]])
        for x in ([0.0, 0.0], [5.0, -2.0]):
            assert np.allclose(gradient(net, np.array(x)), [3.0, 4.0])

    def test_tanh_slope_at_zero(self):
        net = Network((
            Layer([[1.0]], np.zeros(1), Activation.TANH),
            Layer([[1.0]], np.zeros(1), None),
        ))
        assert np.isclose(gradient(net, np.zeros(1))[0], 1.0)

    def test_matches_finite_differences(self):
        net = make_net([2, 10, 1], seed=11)
        obj = ScalarObjective(net)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(2)
            g = gradient(net, x)
            gfd = oracle.fd_gradient(obj.value, x)
            denom = max(np.abs(gfd).max(), 1e-8)
            assert np.abs(g - gfd).max() / denom < 1e-5

    def test_fd_agreement_100_random_pairs(self):
        rng = np.random.default_rng(21)
        for k in range(100):
            net = make_net([2, 6, 1], seed=100 + k)
            obj = ScalarObjective(net)
            x = rng.standard_normal(2)
            g = obj.grad(x)
            gfd = oracle.fd_gradient(obj.value, x, h=1e-5)
            denom = max(np.abs(gfd).max(), 1e-8)
            assert np.abs(g - gfd).max() / denom < 1e-5

    def test_rejects_vector_outputs(self):
        net = make_net([2, 4, 2], seed=2)
        with pytest.raises(ValueError):
            gradient(net, np.zeros(2))


class TestScalarize:
    def test_first_coordinate(self):
        net = make_net([3, 5, 2], seed=5)
        s = scalarize(net, np.array([1.0, 0.0]))
        x = np.array([0.2, -0.1, 0.4])
        assert np.isclose(s.forward(x)[0], net.forward(x)[0], atol=1e-12)

    def test_zero_direction(self):
        net = make_net([2, 4, 2], seed=6, bias_scale=0.0)
        s = scalarize(net, np.zeros(2))
        assert s.forward(np.array([0.5, 0.5]))[0] == 0.0

    def test_random_directions_match(self):
        rng = np.random.default_rng(8)
        net = make_net([3, 8, 4], seed=7)
        c = rng.standard_normal(4)
        s = scalarize(net, c)
        xs = rng.standard_normal((100, 3)) * 3.0
        assert np.abs(s.forward(xs)[:, 0] - net.forward(xs) @ c).max() <= 1e-12

    def test_dimension_mismatch(self):
        net = make_net([2, 4, 3], seed=1)
        with pytest.raises(ValueError):
            scalarize(net, np.zeros(2))


class TestPrependAffine:
    def test_identity_affine(self):
        net = make_net([2, 5, 1], seed=3)
        comp = prepend_affine(net, np.eye(2), np.zeros(2))
        xs = np.random.default_rng(0).standard_normal((20, 2))
        assert np.allclose(comp.forward(xs), net.forward(xs), atol=1e-12)

    def test_scaling_linear(self):
        net = linear_net([[1.0, -2.0], [0.5, 0.0]])
        comp = prepend_affine(net, 2.0 * np.eye(2), np.zeros(2))
        z = np.array([1.0, 1.0])
        assert np.allclose(comp.forward(z), 2.0 * net.forward(z))

    def test_hexagon_generators(self, di_controller):
        G = np.array([[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]])
        x_c = np.array([2.5, 0.0])
        comp = prepend_affine(di_controller, G, x_c)
        zs = np.random.default_rng(4).uniform(-1, 1, size=(50, 3))
        direct = di_controller.forward(zs @ G.T + x_c)
        assert np.abs(comp.forward(zs) - direct).max() <= 1e-12

    def test_composition(self):
        net = make_net([2, 6, 1], seed=12)
        rng = np.random.default_rng(13)
        G1, a1 = rng.standard_normal((2, 3)), rng.standard_normal(2)
        G2, a2 = rng.standard_normal((3, 2)), rng.standard_normal(3)
        comp = prepend_affine(prepend_affine(net, G1, a1), G2, a2)
        zs = rng.standard_normal((30, 2))
        direct = net.forward((zs @ G2.T + a2) @ G1.T + a1)
        assert np.abs(comp.forward(zs) - direct).max() <= 1e-12

    def test_row_mismatch(self):
        net = make_net([2, 4, 1], seed=1)
        with pytest.raises(ValueError):
            prepend_affine(net, np.eye(3), np.zeros(3))


class TestValidation:
    def test_broken_chain(self):
        with pytest.raises(ValueError):
            Network((
                Layer(np.ones((3, 2)), np.zeros(3), Activation.TANH),
                Layer(np.ones((1, 4)), np.zeros(1), None),
            ))

    def test_last_layer_activation_rejected(self):
        with pytest.raises(ValueError):
            Network((Layer(np.eye(2), np.zeros(2), Activation.TANH),))

    def test_hidden_layer_needs_activation(self):
        with pytest.raises(ValueError):
            Network((
                Layer(np.eye(2), np.zeros(2), None),
                Layer(np.ones((1, 2)), np.zeros(1), None),
            ))


class TestObjective:
    def test_linear_term_shifts_value_and_grad(self):
        net = make_net([2, 6, 1], seed=14)
        q = np.array([0.5, -1.5])
        obj = ScalarObjective(net, linear=q, offset=2.0)
        x = np.array([0.1, 0.2])
        base = ScalarObjective(net)
        assert np.isclose(obj.value(x), base.value(x) + q @ x + 2.0)
        assert np.allclose(obj.grad(x), base.grad(x) + q)

    def test_value_and_grad_consistent(self):
        net = make_net([3, 7, 4, 1], seed=15)
        obj = ScalarObjective(net, linear=np.array([1.0, 0.0, -2.0]), offset=-1.0)
        x = np.array([0.3, -0.4, 0.9])
        v, g = obj.value_and_grad(x)
        assert np.isclose(v, obj.value(x), atol=1e-12)
        assert np.allclose(g, obj.grad(x), atol=1e-12)

    def test_dual_norms(self):
        net = make_net([2, 4, 1], seed=16)
        obj = ScalarObjective(net, linear=np.array([3.0, -4.0]))
        assert np.isclose(obj.linear_dual_norm(2), 5.0)
        assert np.isclose(obj.linear_dual_norm(np.inf), 7.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("linear term", {"linear": [np.inf, 0.0]}),
        ("linear term", {"linear": [0.0, np.nan]}),
        ("offset", {"offset": np.nan}),
        ("offset", {"offset": -np.inf}),
    ])
    def test_non_finite_affine_part_rejected(self, di_controller, field,
                                             kwargs):
        # accepted, such a part made branch and bound report ub = -inf
        with pytest.raises(ValueError, match=f"^{field} has non-finite "
                                             r"entries \(NaN or inf\)$"):
            ScalarObjective(di_controller, **kwargs)


class TestJsonSchema:
    def test_round_trip(self):
        net = make_net([2, 5, 3], act=Activation.SIGMOID, seed=17)
        data = json.loads(json.dumps(network_to_dict(net)))
        back = network_from_dict(data)
        xs = np.random.default_rng(2).standard_normal((10, 2))
        assert np.allclose(back.forward(xs), net.forward(xs), atol=1e-15)

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            network_from_dict({"layers": [{"weight": [[1.0]]}]})
        with pytest.raises(ValueError):
            network_from_dict({})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 5))
def test_scalarize_property(seed, dim):
    net = make_net([dim, 4, 3], seed=seed)
    rng = np.random.default_rng(seed + 1)
    c = rng.standard_normal(3)
    s = scalarize(net, c)
    xs = rng.uniform(-10, 10, size=(20, dim))
    assert np.abs(s.forward(xs)[:, 0] - net.forward(xs) @ c).max() <= 1e-12


def test_activation_derivative_closed_forms():
    xs = np.linspace(-4, 4, 101)
    h = 1e-6
    from curvreach.model import act_deriv, act_second, act_value
    for kind in Activation:
        num1 = (act_value(kind, xs + h) - act_value(kind, xs - h)) / (2 * h)
        assert np.abs(num1 - act_deriv(kind, xs)).max() < 1e-8
        num2 = (act_deriv(kind, xs + h) - act_deriv(kind, xs - h)) / (2 * h)
        assert np.abs(num2 - act_second(kind, xs)).max() < 1e-7
