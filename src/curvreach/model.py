"""Fully-connected networks with smooth activations.

A network is an immutable stack of affine layers, each followed by an
elementwise activation except the last.  All arithmetic is float64; batched
evaluation accepts ``(n,)`` vectors or ``(N, n)`` row stacks.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels as K


class Activation(Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"
    SOFTPLUS = "softplus"
    IDENTITY = "identity"


# Global ranges of sigma' (slope) and sigma'' (curvature) per activation.
GLOBAL_SLOPE = {
    Activation.TANH: (0.0, 1.0),
    Activation.SIGMOID: (0.0, 0.25),
    Activation.SOFTPLUS: (0.0, 1.0),
    Activation.IDENTITY: (1.0, 1.0),
}
GLOBAL_CURVATURE = {
    Activation.TANH: (-K.TANH_CURV_MAX, K.TANH_CURV_MAX),
    Activation.SIGMOID: (-K.SIG_CURV_MAX, K.SIG_CURV_MAX),
    Activation.SOFTPLUS: (0.0, 0.25),
    Activation.IDENTITY: (0.0, 0.0),
}


def act_value(kind, x):
    x = np.asarray(x, dtype=float)
    if kind is Activation.TANH:
        return np.tanh(x)
    if kind is Activation.SIGMOID:
        return K.sigmoid(x)
    if kind is Activation.SOFTPLUS:
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    return x


def act_deriv(kind, x):
    x = np.asarray(x, dtype=float)
    if kind is Activation.TANH:
        return K.sech2(x)
    if kind is Activation.SIGMOID:
        return K.sig_deriv(x)
    if kind is Activation.SOFTPLUS:
        return K.sigmoid(x)
    return np.ones_like(x)


def act_second(kind, x):
    x = np.asarray(x, dtype=float)
    if kind is Activation.TANH:
        return K.tanh_second(x)
    if kind is Activation.SIGMOID:
        return K.sig_second(x)
    if kind is Activation.SOFTPLUS:
        return K.sig_deriv(x)
    return np.zeros_like(x)


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def require_finite(a, name):
    """Raise ValueError naming ``name`` when ``a`` holds a NaN or an inf."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: Activation | None

    def __post_init__(self):
        w = _freeze(self.weight)
        b = _freeze(self.bias)
        if w.ndim != 2:
            raise ValueError(f"layer weight must be 2-D, got shape {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError(
                f"bias shape {b.shape} incompatible with weight shape {w.shape}")
        require_finite(w, "weight")
        require_finite(b, "bias")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class Network:
    """Layer stack z -> Wz + b (-> activation) with no activation on the last layer."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if b.weight.shape[1] != a.weight.shape[0]:
                raise ValueError(
                    f"dimension chain broken: {a.weight.shape} -> {b.weight.shape}")
        if layers[-1].activation is not None:
            raise ValueError("last layer must have no activation")
        for lay in layers[:-1]:
            if lay.activation is None:
                raise ValueError("hidden layers must carry an activation")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self):
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self):
        return self.layers[-1].weight.shape[0]

    @property
    def depth(self):
        return len(self.layers)

    @property
    def is_scalar(self):
        return self.output_dim == 1

    def forward(self, x):
        """Network output; accepts a single input vector or a batch of rows."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"input dimension {x.shape[-1]} != network input {self.input_dim}")
        return self.preactivations(x)[-1]

    def preactivations(self, x):
        """List of z^(l) for hidden layers, plus the final output, at x."""
        zs = []
        a = np.asarray(x, dtype=float)
        for lay in self.layers:
            z = a @ lay.weight.T + lay.bias
            zs.append(z)
            a = act_value(lay.activation, z) if lay.activation is not None else z
        return zs


def _backward(net, zs):
    """Reverse-mode gradient of a scalar network of depth >= 2 from its
    preactivations; batched ``zs`` broadcast against the output row."""
    u = net.layers[-1].weight[0]
    for l in range(net.depth - 2, -1, -1):
        lay = net.layers[l]
        u = (u * act_deriv(lay.activation, zs[l])) @ lay.weight
    return u


def gradient(net, x):
    """Gradient of a scalar network, reverse-mode; batched like ``forward``."""
    if not net.is_scalar:
        raise ValueError("gradient is defined for scalar networks only")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.input_dim:
        raise ValueError(
            f"input dimension {x.shape[-1]} != network input {net.input_dim}")
    if net.depth == 1:
        return np.broadcast_to(net.layers[0].weight[0], x.shape).copy()
    return _backward(net, net.preactivations(x))


def scalarize(net, c):
    """Collapse an n_f-output network against a direction: out(x) = c . f(x)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (net.output_dim,):
        raise ValueError(f"direction shape {c.shape} != ({net.output_dim},)")
    last = net.layers[-1]
    new_last = Layer((c @ last.weight)[None, :], np.array([c @ last.bias]), None)
    return Network(net.layers[:-1] + (new_last,))


def prepend_affine(net, G, x_c):
    """Compose with z -> Gz + x_c by merging into the first layer."""
    G = np.asarray(G, dtype=float)
    x_c = np.asarray(x_c, dtype=float)
    if G.ndim != 2 or G.shape[0] != net.input_dim:
        raise ValueError(f"generator shape {G.shape} incompatible with input "
                         f"dimension {net.input_dim}")
    if x_c.shape != (net.input_dim,):
        raise ValueError(f"center shape {x_c.shape} != ({net.input_dim},)")
    first = net.layers[0]
    merged = Layer(first.weight @ G, first.weight @ x_c + first.bias,
                   first.activation)
    return Network((merged,) + net.layers[1:])


@dataclass(frozen=True)
class ScalarObjective:
    """J(x) = net(x) + linear . x + offset, for a scalar network.

    The affine part carries closed-loop skip terms exactly: it shifts the
    value and gradient, adds its dual norm to any Lipschitz constant, and
    leaves Hessian bounds untouched.
    """

    net: Network
    linear: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        if not self.net.is_scalar:
            raise ValueError("objective needs a scalar network")
        if self.linear is not None:
            q = _freeze(self.linear)
            if q.shape != (self.net.input_dim,):
                raise ValueError(
                    f"linear term shape {q.shape} != ({self.net.input_dim},)")
            object.__setattr__(self, "linear", q)

    @property
    def input_dim(self):
        return self.net.input_dim

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = self.net.forward(x)[..., 0] + self.offset
        if self.linear is not None:
            v = v + x @ self.linear
        return float(v) if v.ndim == 0 else v

    def grad(self, x):
        g = gradient(self.net, x)
        if self.linear is not None:
            g = g + self.linear
        return g

    def value_and_grad(self, x):
        """Single forward pass for both; the branch-and-bound hot path.

        ``x`` is a point ``(n,)``, giving a float and a gradient, or a stack
        of points ``(B, n)``, giving ``B`` values and ``B`` gradient rows."""
        x = np.asarray(x, dtype=float)
        net = self.net
        # each point its own one-row matrix: one matrix-vector product per
        # point, so a stacked call rounds as single ones do
        rows = x[..., None, :]
        zs = net.preactivations(rows)
        v = zs[-1][..., 0, 0] + self.offset
        if net.depth == 1:
            g = np.broadcast_to(net.layers[0].weight[0], x.shape).copy()
        else:
            g = _backward(net, zs)[..., 0, :]
        if self.linear is not None:
            v = v + (rows @ self.linear)[..., 0]
            g = g + self.linear
        return (float(v), g) if v.ndim == 0 else (v, g)

    def linear_dual_norm(self, p):
        """Lipschitz contribution of the affine part in the ell_p norm."""
        if self.linear is None:
            return 0.0
        if p == 2:
            return float(np.linalg.norm(self.linear))
        if np.isinf(p):
            return float(np.abs(self.linear).sum())
        raise ValueError(f"unsupported norm {p}")


# JSON schema: {"layers": [{"weight": [[...]], "bias": [...],
#               "activation": "tanh"|"sigmoid"|"softplus"|null}]}

def network_from_dict(data):
    try:
        raw_layers = data["layers"]
    except (KeyError, TypeError):
        raise ValueError("network JSON must contain a 'layers' list") from None
    layers = []
    for i, entry in enumerate(raw_layers):
        try:
            weight = entry["weight"]
            bias = entry["bias"]
            act = entry["activation"]
        except (KeyError, TypeError):
            raise ValueError(f"layer {i}: needs 'weight', 'bias', 'activation'") from None
        try:
            layers.append(Layer(np.asarray(weight, dtype=float),
                                np.asarray(bias, dtype=float),
                                None if act is None else Activation(act)))
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from None
    return Network(tuple(layers))


def network_to_dict(net):
    return {
        "layers": [
            {
                "weight": lay.weight.tolist(),
                "bias": lay.bias.tolist(),
                "activation": None if lay.activation is None else lay.activation.value,
            }
            for lay in net.layers
        ]
    }
