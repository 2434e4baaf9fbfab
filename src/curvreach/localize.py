"""Preactivation intervals over an input box and localized activation bounds.

Interval bound propagation pushes a center/radius box through each affine
layer (center ``Wc + b``, radius ``|W|r``) and through the monotone-increasing
activations.  The resulting per-unit intervals tighten the global slope and
curvature ranges of each activation, which is what makes the Lipschitz and
Hessian certificates local.

``ibp_intervals`` and ``bounds_for_box`` also take a stack of boxes, ``lo``
and ``hi`` of shape ``(B, n)``; every per-unit array then has a leading axis
of length ``B``, and each box's entries equal those of bounding it alone.
The slope and curvature ranges are those of ``model.ACTIVATIONS``.
"""

from dataclasses import dataclass

import numpy as np

from .model import ACTIVATIONS, act_value


@dataclass(frozen=True)
class LayerIntervals:
    """Sound preactivation bounds per hidden layer: lower[l] <= z^(l) <= upper[l]."""

    lower: tuple
    upper: tuple


@dataclass(frozen=True)
class LocalBounds:
    """Per-hidden-layer slope range [slope_lo, slope_hi] of sigma' and
    curvature range [curv_lo, curv_hi] of sigma''; curv_abs = max(|lo|, |hi|).
    [z_lo, z_hi] are the preactivation intervals that the ranges are taken
    over: IBP's for ``bounds_for_box``, and arrays of -inf and inf for
    ``global_bounds``; ranges built directly have none."""

    slope_lo: tuple
    slope_hi: tuple
    curv_lo: tuple
    curv_hi: tuple
    z_lo: tuple = ()
    z_hi: tuple = ()

    @property
    def curv_abs(self):
        return tuple(np.maximum(np.abs(a), np.abs(b))
                     for a, b in zip(self.curv_lo, self.curv_hi))

    @property
    def num_hidden(self):
        return len(self.slope_lo)


def interval_affine(W, b, c, r):
    """Push a center/radius interval through x -> Wx + b; ``c`` and ``r``
    are vectors or stacks of them (rows).  A stacked call rounds exactly as
    one call per row would."""
    # a trailing unit axis keeps one matrix-vector product per row
    return ((W @ c[..., None])[..., 0] + b,
            (np.abs(W) @ r[..., None])[..., 0])


def ibp_intervals(net, lo, hi):
    """Interval bound propagation of the box [lo, hi], or of a stack of
    boxes (rows), through the network."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim not in (1, 2) \
            or lo.shape[-1] != net.input_dim:
        raise ValueError(f"box dimension must be ({net.input_dim},)")
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")
    c = (lo + hi) / 2.0
    r = (hi - lo) / 2.0
    lowers, uppers = [], []
    hidden = net.layers[:-1]
    for l, lay in enumerate(hidden):
        c, r = interval_affine(lay.weight, lay.bias, c, r)
        zl, zu = c - r, c + r
        lowers.append(zl)
        uppers.append(zu)
        if l + 1 == len(hidden):
            break                      # the output layer's input is not needed
        # activations are monotone increasing, so the image is [act(zl), act(zu)]
        al, au = act_value(lay.activation, np.array((zl, zu)))
        c = (al + au) / 2.0
        r = (au - al) / 2.0
    return LayerIntervals(tuple(lowers), tuple(uppers))


def local_bounds(net, intervals):
    """LocalBounds for every hidden layer from its preactivation intervals,
    which it keeps.

    The intervals are taken as ``ibp_intervals`` builds them, ``c -+ r`` with
    ``r >= 0`` from a checked box, or as the whole line, so ``lo <= hi`` is
    not checked again."""
    s_lo, s_hi, c_lo, c_hi = [], [], [], []
    for lay, zl, zu in zip(net.layers[:-1], intervals.lower, intervals.upper):
        act = ACTIVATIONS[lay.activation]
        a, b = act.slope_range(zl, zu)
        ca, cb = act.curv_range(zl, zu)
        s_lo.append(a)
        s_hi.append(b)
        c_lo.append(ca)
        c_hi.append(cb)
    return LocalBounds(tuple(s_lo), tuple(s_hi), tuple(c_lo), tuple(c_hi),
                       intervals.lower, intervals.upper)


def global_bounds(net):
    """LocalBounds over the whole real line: ``local_bounds`` over the
    intervals ``(-inf, inf)`` of every hidden unit."""
    lower = tuple(np.full(lay.weight.shape[0], -np.inf)
                  for lay in net.layers[:-1])
    return local_bounds(net, LayerIntervals(lower, tuple(-z for z in lower)))


def bounds_for_box(net, lo, hi):
    """IBP then localized bounds, with the IBP intervals kept."""
    intervals = ibp_intervals(net, lo, hi)
    return local_bounds(net, intervals)
