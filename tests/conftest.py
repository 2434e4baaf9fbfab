from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from curvreach.model import Activation, Layer, Network


def quad_model(g, M):
    def fn(deltas):
        deltas = np.atleast_2d(deltas)
        return deltas @ g + 0.5 * np.einsum("ij,jk,ik->i", deltas, M, deltas)
    return fn


def ball_sup_oracle(g, M, eps, n_samples=100_000, seed=0):
    """Independent sup of the quadratic model over the ell_2 ball: dense
    sphere plus interior sampling, polished by projected gradient ascent from
    the best starts."""
    rng = np.random.default_rng(seed)
    n = g.shape[0]
    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        sphere = eps * np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        d = rng.standard_normal((n_samples, n))
        sphere = eps * d / np.linalg.norm(d, axis=1, keepdims=True)
    interior = sphere * rng.random((sphere.shape[0], 1))
    pts = np.concatenate([sphere, interior])
    fn = quad_model(g, M)
    vals = fn(pts)
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])
    lam_scale = max(1.0, float(np.abs(np.linalg.eigvalsh(M)).max()))
    step = 0.25 / lam_scale
    for k in order[:5]:
        x = pts[k].copy()
        for _ in range(4000):
            x = x + step * (g + M @ x)
            nn = np.linalg.norm(x)
            if nn > eps:
                x = x * (eps / nn)
        best = max(best, float(fn(x)[0]))
    return best


def make_net(dims, act=Activation.TANH, seed=0, scale=1.0, bias_scale=0.1):
    """Seeded random network with fan-in scaled weights."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i])) * scale / np.sqrt(dims[i])
        b = rng.standard_normal(dims[i + 1]) * bias_scale
        layers.append(Layer(w, b, act if i < len(dims) - 2 else None))
    return Network(tuple(layers))


def blind_to_input(net, i):
    """``net`` with input ``i`` cut from its first layer: J does not depend
    on x_i, so dJ/dx_i = 0 and no box is monotone along axis ``i``."""
    first = net.layers[0]
    w = first.weight.copy()
    w[:, i] = 0.0
    return Network((Layer(w, first.bias, first.activation),) + net.layers[1:])


def assert_same_result(a, b):
    """Every ``BnBResult`` field but the wall time, bit for bit."""
    from curvreach.bnb import BnBResult
    for f in fields(BnBResult):
        if f.name != "wall_time_s":
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), \
                f.name


def node_streams(monkeypatch):
    """The nodes bounded for each search of the runs that follow, in the
    order bounded, by the search's position in its run (0 for a lone
    solve): ``streams[i]`` lists the nodes of ``bnb._pass`` replies."""
    from curvreach import bnb
    real = bnb._pass
    streams = defaultdict(list)

    def recording(bounder, dirs, asks):
        replies = real(bounder, dirs, asks)
        for i, nodes in zip(dirs, replies):
            streams[i].extend(nodes)
        return replies

    monkeypatch.setattr(bnb, "_pass", recording)
    return streams


def node_rows(nodes):
    """``(index, lb, ub, witness, flagged)`` of each node, to compare bit
    for bit; a node keeps the number it is bounded under."""
    return [(n.index, n.lb, n.ub, n.witness.tolist(), n.flagged)
            for n in nodes]


def collapsed(nodes):
    """The nodes that the monotonicity test moved onto a face of their box:
    under a root box with no edge of zero width, those with one."""
    return [n for n in nodes if (n.hi == n.lo).any()]


def monotone_calls(monkeypatch):
    """Record ``(g, monotone axes)`` of each box that the monotonicity test
    (``bnb._monotone``) examines in the runs that follow, one per box."""
    from curvreach import bnb
    real, calls = bnb._monotone, []

    def recording(g, s, r):
        mono = real(g, s, r)
        calls.extend(zip(g.copy(), mono.copy()))
        return mono

    monkeypatch.setattr(bnb, "_monotone", recording)
    return calls


def linear_net(W, b=None):
    W = np.asarray(W, dtype=float)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=float)
    return Network((Layer(W, b, None),))


@pytest.fixture(scope="session")
def di_controller():
    from curvreach.fileio import load_network
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "src" / "curvreach" / "data" \
        / "di_controller.json"
    return load_network(path)


DATA = Path(__file__).resolve().parents[1] / "src" / "curvreach" / "data"


def shipped_system(name):
    """The shipped ``di`` or ``quad6`` system with its controller."""
    from curvreach.fileio import load_network, load_system
    controller = load_network(DATA / f"{name}_controller.json")
    return load_system(DATA / f"{name}_system.json", controller)


def shipped_initial_set(name):
    """The DI hexagon, or the quadrotor box of the benchmark."""
    from curvreach.fileio import load_zonotope
    from curvreach.reach import Box
    if name == "di":
        return load_zonotope(DATA / "di_hexagon.json")
    return Box(np.array([4.69, 4.69, 2.99, 0.945, -0.005, -0.005]),
               np.array([4.71, 4.71, 3.01, 0.955, 0.005, 0.005]))
