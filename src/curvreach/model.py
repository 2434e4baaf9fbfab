"""Fully-connected networks with smooth activations.

A network is an immutable stack of affine layers, each followed by an
elementwise activation except the last.  All arithmetic is float64; batched
evaluation accepts ``(n,)`` vectors or ``(N, n)`` row stacks.

Each activation is defined once, as a row of ``ACTIVATIONS``: sigma, sigma'
and sigma'', and the guarded ranges of sigma' (slope) and sigma'' (curvature)
over per-unit intervals ``[lo, hi]``.  The global ranges are those interval
ranges over the whole real line, which ``localize.global_bounds`` takes.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class Activation(Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"
    SOFTPLUS = "softplus"
    IDENTITY = "identity"


GUARD = 1e-12                                         # rounding guard on computed extrema
TANH_CURV_MAX = 4.0 / (3.0 * math.sqrt(3.0))          # at x = -arctanh(1/sqrt(3))
TANH_CURV_CRIT = 0.6584789484624084                   # arctanh(1/sqrt(3))
SIG_CURV_MAX = 1.0 / (6.0 * math.sqrt(3.0))           # at x = -log(2+sqrt(3))
SIG_CURV_CRIT = 1.3169578969248166                    # log(2+sqrt(3))


def _sech2(x):
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, stable for any magnitude
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def _sig_deriv(x):
    e = np.exp(-np.abs(x))
    return e / (1.0 + e) ** 2


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _tanh_second(x):
    return -2.0 * np.tanh(x) * _sech2(x)


def _sig_second(x):
    s = _sigmoid(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _even_peak_range(fun, peak):
    """Guarded range over [lo, hi] of an even function that peaks at 0 with
    value ``peak`` and decays in |x| towards 0."""
    def range_(lo, hi):
        near = np.where(np.sign(lo) != np.sign(hi), 0.0,
                        np.minimum(np.abs(lo), np.abs(hi)))
        far = np.maximum(np.abs(lo), np.abs(hi))
        f_near, amin = fun(np.array((near, far)))     # one call for both ends
        amax = np.where(near == 0.0, peak, f_near)
        return (np.maximum(amin - GUARD, 0.0), np.minimum(amax + GUARD, peak))
    return range_


def _odd_bump_range(fun, crit, extreme):
    """Guarded range over [lo, hi] of an odd function with its maximum
    ``extreme`` at -crit and its minimum ``-extreme`` at +crit."""
    def range_(lo, hi):
        vlo, vhi = fun(np.array((lo, hi)))            # one call for both ends
        cmin = np.minimum(vlo, vhi)
        cmax = np.maximum(vlo, vhi)
        cmax = np.where((lo < -crit) & (-crit < hi), extreme, cmax)
        cmin = np.where((lo < crit) & (crit < hi), -extreme, cmin)
        return (np.maximum(cmin - GUARD, -extreme),
                np.minimum(cmax + GUARD, extreme))
    return range_


@dataclass(frozen=True)
class ActivationDef:
    """sigma, sigma', sigma'' elementwise, and ``(min, max)`` arrays of sigma'
    and sigma'' over per-unit intervals ``[lo, hi]`` with ``lo <= hi``."""

    value: Callable
    deriv: Callable
    second: Callable
    slope_range: Callable
    curv_range: Callable


ACTIVATIONS = {
    Activation.TANH: ActivationDef(
        np.tanh, _sech2, _tanh_second,
        _even_peak_range(_sech2, 1.0),
        _odd_bump_range(_tanh_second, TANH_CURV_CRIT, TANH_CURV_MAX)),
    Activation.SIGMOID: ActivationDef(
        _sigmoid, _sig_deriv, _sig_second,
        _even_peak_range(_sig_deriv, 0.25),
        _odd_bump_range(_sig_second, SIG_CURV_CRIT, SIG_CURV_MAX)),
    # softplus' = sigmoid rises from 0 to 1; softplus'' = sigmoid' peaks at 0
    Activation.SOFTPLUS: ActivationDef(
        lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0),
        _sigmoid, _sig_deriv,
        lambda lo, hi: (np.maximum(_sigmoid(lo) - GUARD, 0.0),
                        np.minimum(_sigmoid(hi) + GUARD, 1.0)),
        _even_peak_range(_sig_deriv, 0.25)),
    Activation.IDENTITY: ActivationDef(
        lambda x: x, np.ones_like, np.zeros_like,
        lambda lo, hi: (np.ones_like(lo), np.ones_like(hi)),
        lambda lo, hi: (np.zeros_like(lo), np.zeros_like(hi))),
}


def act_value(kind, x):
    return ACTIVATIONS[kind].value(np.asarray(x, dtype=float))


def act_deriv(kind, x):
    return ACTIVATIONS[kind].deriv(np.asarray(x, dtype=float))


def act_second(kind, x):
    return ACTIVATIONS[kind].second(np.asarray(x, dtype=float))


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def require_finite(a, name):
    """Raise ValueError naming ``name`` when ``a`` holds a NaN or an inf."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")


def _unchecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values``, which
    its caller has already checked as ``cls.__post_init__`` would: made
    without running those checks again."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


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
        a = np.asarray(x, dtype=float)
        if a.shape[-1] != self.input_dim:
            raise ValueError(
                f"input dimension {a.shape[-1]} != network input {self.input_dim}")
        return self.preactivations(a)[-1]

    def preactivations(self, x):
        """List of z^(l) for hidden layers, plus the final output, at x.  It
        reads only ``layers``, whose last may be stacked per box: a ``(B, 1,
        h)`` weight and a ``(B, 1, 1)`` bias give each box of points ``(B,
        k, n)`` its own output."""
        zs = []
        a = np.asarray(x, dtype=float)
        for lay in self.layers:
            z = a @ lay.weight.swapaxes(-1, -2) + lay.bias
            zs.append(z)
            a = act_value(lay.activation, z) if lay.activation is not None else z
        return zs


def _backward(net, zs, u):
    """Reverse-mode gradient of a scalar network of depth >= 2 from its
    preactivations and its output row ``u``, against which batched ``zs``
    broadcast."""
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
    return _backward(net, net.preactivations(x), net.layers[-1].weight[0])


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
    G, x_c = _affine_map(G, x_c, net.input_dim)
    first = net.layers[0]
    merged = Layer(*_compose_affine(first.weight, first.bias, G, x_c),
                   first.activation)
    return Network((merged,) + net.layers[1:])


def _affine_map(G, x_c, n):
    """``G`` and ``x_c`` as float arrays, checked as the map z -> G z + x_c
    into R^n."""
    G = np.asarray(G, dtype=float)
    x_c = np.asarray(x_c, dtype=float)
    if G.ndim != 2 or G.shape[0] != n:
        raise ValueError(f"generator shape {G.shape} incompatible with input "
                         f"dimension {n}")
    if x_c.shape != (n,):
        raise ValueError(f"center shape {x_c.shape} != ({n},)")
    require_finite(G, "generator matrix G")
    require_finite(x_c, "center x_c")
    return G, x_c


def _compose_affine(weight, bias, G, x_c):
    """The weight and bias of z -> weight (G z + x_c) + bias.  A stack of
    one-row layers, weights ``(k, 1, h)`` and biases ``(k, 1)``, gives one
    vector-matrix product per row, so each row gets the bits it gets
    alone."""
    return weight @ G, weight @ x_c + bias


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
            require_finite(q, "linear term")
            object.__setattr__(self, "linear", q)
        # a NaN or an inf in the affine part leaves no sound bound
        require_finite(self.offset, "offset")

    @property
    def input_dim(self):
        return self.net.input_dim

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = Network.preactivations(self.net, x)[-1][..., 0] + self.offset
        if self.linear is not None:
            v = v + (x @ self.linear[..., None])[..., 0]
        return float(v) if v.ndim == 0 else v

    def grad(self, x):
        g = gradient(self.net, x)
        if self.linear is not None:
            g = g + self.linear
        return g

    def value_and_grad(self, x):
        """Single forward pass for both; the branch-and-bound hot path.

        ``x`` is a point ``(n,)``, giving a float and a gradient, or a stack
        of points ``(B, n)``, giving ``B`` values and ``B`` gradient rows.
        Like ``value`` it reads only ``net.layers``, ``net.depth``, ``linear``
        and ``offset``, so a stand-in gives each point its own output layer
        (see ``Network.preactivations``), linear term and offset ``(B, 1)``."""
        x = np.asarray(x, dtype=float)
        net = self.net
        # each point its own one-row matrix: one matrix-vector product per
        # point, so a stacked call rounds as single ones do
        rows = x[..., None, :]
        zs = Network.preactivations(net, rows)
        v = (zs[-1][..., 0] + self.offset)[..., 0]
        w = net.layers[-1].weight
        if net.depth == 1:
            g = np.broadcast_to(w[..., 0, :], x.shape).copy()
        else:
            g = _backward(net, zs, w)[..., 0, :]
        if self.linear is not None:
            v = v + (rows @ self.linear[..., None])[..., 0, 0]
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
    raw_layers = data.get("layers") if isinstance(data, dict) else None
    if not isinstance(raw_layers, list):
        raise ValueError("network JSON must contain a 'layers' list")
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
