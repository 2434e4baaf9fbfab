"""Brute-force baselines: sampling maxima, finite differences, sampled slopes,
and the exact pointwise Hessian.

These live in the shipped library, not only in the test suite, so the CLI can
emit self-audit reports next to any certified bound.  Every oracle value is a
one-sided witness: sampling maxima and sampled slopes under-approximate,
finite differences approximate equalities.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .lipschitz import _golden_min
from .model import act_deriv, act_second


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    value: float
    samples: int
    seed: int

    def to_dict(self):
        return asdict(self)


def _start_points(lo, hi, n_per_axis, n_random, seed):
    """(lo, hi, points): a lattice of ``n_per_axis`` points per axis (the
    centre when 1), then ``n_random`` seeded uniform samples; the centre alone
    when both are 0."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")
    n = lo.shape[0]
    pts = []
    if n_per_axis >= 2:
        axes = [np.linspace(lo[i], hi[i], n_per_axis) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts.append(np.stack([m.ravel() for m in mesh], axis=1))
    elif n_per_axis == 1:
        pts.append(((lo + hi) / 2.0)[None, :])
    if n_random > 0:
        rng = np.random.default_rng(seed)
        pts.append(lo + rng.random((n_random, n)) * (hi - lo))
    if not pts:
        pts.append(((lo + hi) / 2.0)[None, :])
    return lo, hi, np.concatenate(pts, axis=0)


def grid_max(fn, lo, hi, n_per_axis=0, n_random=0, seed=0):
    """Max of exact evaluations over a lattice plus seeded uniform samples.

    ``fn`` maps a stack of row points to a value per row.  A valid lower
    bound on the true supremum over the box.
    """
    _, _, pts = _start_points(lo, hi, n_per_axis, n_random, seed)
    vals = np.asarray(fn(pts), dtype=float)
    k = int(np.argmax(vals))
    return float(vals[k]), pts[k]


def polished_max(fn, lo, hi, n_per_axis=0, n_random=0, seed=0, starts=5,
                 sweeps=3):
    """grid_max followed by in-box coordinate ascent from the best starts.

    Every polished point stays feasible and is evaluated exactly, so the
    result remains a valid lower bound on the supremum, but it localizes
    maxima far beyond the grid resolution.
    """
    lo, hi, pts = _start_points(lo, hi, n_per_axis, n_random, seed)
    n = lo.shape[0]
    vals = np.asarray(fn(pts), dtype=float)
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_arg = pts[order[0]]
    for k in order[:starts]:
        x = pts[k].copy()
        fx = float(fn(x[None, :])[0])
        for _ in range(sweeps):
            for i in range(n):
                def neg_slice(t, x=x, i=i):
                    y = x.copy()
                    y[i] = t
                    return -float(fn(y[None, :])[0])

                t, neg = _golden_min(neg_slice, lo[i], hi[i])
                if -neg > fx:  # never regress on non-unimodal slices
                    x, fx = x.copy(), -neg
                    x[i] = t
        if fx > best_val:
            best_val = fx
            best_arg = x
    return best_val, best_arg


def fd_gradient(fn, x, h=1e-5):
    """Central-difference gradient of a scalar function of a batch-capable fn."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    pts = np.repeat(x[None, :], 2 * n, axis=0)
    for i in range(n):
        pts[2 * i, i] += h
        pts[2 * i + 1, i] -= h
    vals = np.asarray(fn(pts), dtype=float)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def fd_hessian(fn, x, h=1e-4):
    """Central-difference Hessian, symmetrized as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    pts = []
    for i in range(n):
        for j in range(n):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = x.copy()
                p[i] += si * h
                p[j] += sj * h
                pts.append(p)
    vals = np.asarray(fn(np.stack(pts)), dtype=float).reshape(n, n, 4)
    H = (vals[:, :, 0] - vals[:, :, 1] - vals[:, :, 2] + vals[:, :, 3]) / (4.0 * h * h)
    return (H + H.T) / 2.0


def exact_hessian(net, x):
    """Hessian of a scalar network at the point ``x``, by the chain rule
    ``sum_l J_l^T diag(delta_l * sigma''(z_l)) J_l`` with ``J_l = dz^(l)/dx``
    and ``delta_l = dJ/da^(l)`` evaluated exactly at ``x``."""
    if not net.is_scalar:
        raise ValueError("exact Hessian needs a scalar network")
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"point must have shape ({net.input_dim},)")
    zs = net.preactivations(x)[:-1]
    hidden = net.layers[:-1]
    jacs = [net.layers[0].weight]
    for lay, prev, z in zip(hidden[1:], hidden, zs):
        jacs.append(lay.weight @ (act_deriv(prev.activation, z)[:, None]
                                  * jacs[-1]))
    H = np.zeros((x.shape[0], x.shape[0]))
    delta = net.layers[-1].weight[0]
    for l in range(len(hidden) - 1, -1, -1):
        act, z, J = hidden[l].activation, zs[l], jacs[l]
        H += J.T @ ((delta * act_second(act, z))[:, None] * J)
        delta = (delta * act_deriv(act, z)) @ hidden[l].weight
    return (H + H.T) / 2.0


def sampled_lipschitz(fn, lo, hi, n_pairs=10_000, p=2, seed=0):
    """Max slope ||f(x) - f(y)||_p / ||x - y||_p over seeded point pairs.

    A valid lower bound on the true Lipschitz constant over the box.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rng = np.random.default_rng(seed)
    n = lo.shape[0]
    xs = lo + rng.random((n_pairs, n)) * (hi - lo)
    # mix global pairs with short-range pairs, which probe the local slope
    ys = lo + rng.random((n_pairs, n)) * (hi - lo)
    short = xs + (ys - xs) * 1e-4
    ys = np.where((np.arange(n_pairs) % 2 == 0)[:, None], ys, np.clip(short, lo, hi))
    fx = np.asarray(fn(xs), dtype=float)
    fy = np.asarray(fn(ys), dtype=float)
    if fx.ndim == 1:
        num = np.abs(fx - fy)
    elif np.isinf(p):
        num = np.abs(fx - fy).max(axis=1)
    else:
        num = np.linalg.norm(fx - fy, ord=p, axis=1)
    if np.isinf(p):
        den = np.abs(xs - ys).max(axis=1)
    else:
        den = np.linalg.norm(xs - ys, ord=p, axis=1)
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))
