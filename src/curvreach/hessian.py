"""Certified bounds on the Hessian of a scalar network over a localized region.

Three forms:

- the exact sandwich matrices (M, N) for one-hidden-layer networks;
- a spectral-norm scalar bound for arbitrary depth, built from subnetwork
  Lipschitz constants and elementwise Jacobian bounds;
- an entrywise interval ``[H_lo, H_hi]`` for arbitrary depth, from the
  Hessian chain rule ``hess J = sum_l J_l^T diag(delta_l * sigma''(z_l)) J_l``
  in midpoint-radius interval arithmetic (Moore, Kearfott and Cloud, 2009).
  Here ``J_l = dz^(l)/dx`` runs forward from ``J_1 = W_1``, ``delta_l =
  dJ/da^(l)`` runs backward from the output row, and sigma' and sigma'' range
  over the localized slope and curvature intervals.

Branch and bound reads the last two at every depth, the sandwich nowhere;
the ``hessian`` command reports it for one-hidden-layer networks.  The
interval form rounds to nearest, as ``localize`` does; outward rounding is
an open item of the roadmap (item 8).
"""

from dataclasses import dataclass, field

import numpy as np

from . import lipschitz as lip
from .model import _unchecked


@dataclass(frozen=True)
class MatrixHessianBound:
    """Symmetric M, N with N <= hess J(x) <= M on the certified region.
    Public construction checks that M and N are finite square matrices of
    one shape with M - N PSD; ``two_layer_matrix_bounds`` builds its pair
    with ``model._unchecked``, which skips the check."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if M.shape != N.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M and N must be square matrices of equal shape")
        if not (np.isfinite(M).all() and np.isfinite(N).all()):
            raise ValueError("M and N must be finite")
        if np.linalg.eigvalsh(M - N).min() < -1e-9:
            raise ValueError("upper matrix does not dominate lower matrix")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)


@dataclass(frozen=True)
class ScalarHessianBound:
    """lam >= 0 with ||hess J(x)||_2 <= lam, i.e. M = lam I, N = -lam I; a
    stack of regions has an array with one entry per region.  ``terms``, from
    ``hessian_norm_bound``, holds its per-layer factors ``w_l``, so that
    ``_spectral_sum(subnet, terms)`` gives lam for any subnetwork constants."""

    lam: float
    terms: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if np.any(self.lam < 0.0):
            raise ValueError("scalar Hessian bound must be nonnegative")


def two_layer_matrix_bounds(net, local):
    """Sandwich matrices for a one-hidden-layer scalar network over the one
    box that ``local`` localizes.

    Each hidden unit j contributes w1_j w1_j^T scaled by the worst-case signed
    curvature of its activation times the output weight.  With curv_hi >=
    curv_lo, ``M - N = W1^T diag((curv_hi - curv_lo) |w2|) W1`` is PSD by
    construction, unchecked; an empty curvature range, or curvature ranges
    stacked over several boxes, raise ValueError.
    """
    if net.depth != 2:
        raise ValueError("matrix Hessian bounds need exactly one hidden layer")
    if not net.is_scalar:
        raise ValueError("matrix Hessian bounds need a scalar network")
    ca, cb = local.curv_lo[0], local.curv_hi[0]
    if np.ndim(ca) != 1:
        raise ValueError("matrix Hessian bounds take the ranges of one box")
    if (cb < ca).any():
        raise ValueError("empty curvature range: curv_hi < curv_lo")
    w2 = net.layers[1].weight[0]
    pos, neg = np.maximum(w2, 0.0), np.minimum(w2, 0.0)
    W1 = net.layers[0].weight

    def sandwich(coeff):
        """W1^T diag(coeff) W1, symmetrized."""
        G = (W1 * coeff[:, None]).T @ W1
        return (G + G.T) / 2.0
    return _unchecked(MatrixHessianBound, M=sandwich(cb * pos + ca * neg),
                      N=sandwich(ca * pos + cb * neg))


def _weighted_suffix_liplt(weights, slope_his, l, h):
    """Second estimate of max_j h_j |d z^(L) / d a^(l)_j|: a loop-
    transformed Lipschitz bound, in the ell_1 norm, of the tail network with
    its first weight scaled column-wise by h, per box when h is stacked."""
    w_suffix = [weights[l] * h[..., None, :]] + list(weights[l + 1:])
    s_his = list(slope_his[l:])
    ds = [b / 2.0 for b in s_his]
    return lip._total_raw(w_suffix, s_his, ds, 1)


def _spectral_sum(subnet, terms):
    """lam = max(sum_l c_l^2 w_l, 0), summed in layer order, from the ell_2
    subnetwork constants ``c_l`` and the factors ``w_l`` of
    ``ScalarHessianBound.terms``; stacked factors give an array."""
    lam = 0.0
    for c, w in zip(subnet, terms):
        # c * c: a float's c ** 2 calls the C pow, which may round otherwise
        lam = lam + c * c * w
    return lip._unbox(np.maximum(lam, 0.0))


def hessian_norm_bound(net, local, report, jac_bounds):
    """Spectral bound: sum over hidden layers of (ell_2 subnet constant)^2
    times the worst h-weighted entry of the output-side Jacobian bound.
    Inputs stacked over boxes, the last weight too (``(B, 1, h)``), give an
    array ``lam``, each box's entry bit-identical to its float alone.

    The result keeps each layer's factor ``w_l`` in ``terms``.  Every term
    is nonnegative, so a partial report, with ``c_1`` alone and zeros after
    it, gives ``c_1^2 w_1``, which is at most the full lam in floating point
    too, and is all of it at one hidden layer.  Branch and bound takes that
    partial lam first, and sums the full lam with ``_spectral_sum`` only for
    the boxes where the partial lam's model stays below the interval
    Hessian's model; on the shipped double-integrator and quadrotor runs no
    box needs it."""
    if not net.is_scalar:
        raise ValueError("Hessian norm bound needs a scalar network")
    if report.p != 2:
        raise ValueError("subnetwork constants must be in the ell_2 norm")
    hidden = net.depth - 1
    if len(report.subnet) < hidden:
        raise ValueError("missing subnetwork Lipschitz constants")
    habs = local.curv_abs
    weights = [lay.weight for lay in net.layers]
    terms = []
    for l in range(1, hidden + 1):
        if l not in jac_bounds:
            raise ValueError(f"missing Jacobian bound for layer {l}")
        h = habs[l - 1]
        w = np.max(h * jac_bounds[l], axis=-1, initial=0.0)
        if (w > 0.0).any():
            # fmin keeps w where the suffix bound is NaN
            w = np.where(w > 0.0, np.fmin(w, _weighted_suffix_liplt(
                weights, local.slope_hi, l, h)), w)
        terms.append(w)
    terms = tuple(terms)
    return ScalarHessianBound(_spectral_sum(report.subnet, terms), terms)


def _jacobian_intervals(weights, slope_lo, slope_hi):
    """Midpoint-radius intervals ``(mids, rads)`` of ``J_l = dz^(l)/dx`` for
    the hidden layers ``l >= 2``, entry ``l - 2`` each; ``J_1 = W_1`` is exact
    and not listed.  ``J_{l+1} = W_{l+1} diag(s) J_l`` with ``s`` in
    ``[slope_lo, slope_hi]`` of layer ``l``.  Slope rows stacked on a leading
    axis give stacked intervals, each box's bit-identical to it alone."""
    mids, rads = [], []
    jm, jr = weights[0], None
    for l in range(1, len(weights) - 1):
        s_lo, s_hi = slope_lo[l - 1][..., :, None], slope_hi[l - 1][..., :, None]
        # diag(s) J: slopes are nonnegative, so |s| <= s_hi
        pm = (s_lo + s_hi) / 2.0 * jm
        pr = (s_hi - s_lo) / 2.0 * np.abs(jm)
        if jr is not None:
            pr = pr + s_hi * jr
        jm = weights[l] @ pm
        jr = np.abs(weights[l]) @ pr
        mids.append(jm)
        rads.append(jr)
    return tuple(mids), tuple(rads)


def _interval_hessian_raw(weights, jac_mid, jac_rad, local):
    """``(H_lo, H_hi)``: the symmetric interval Hessian of the scalar
    network with these weights, given ``_jacobian_intervals`` and the slope
    and curvature ranges of ``local``; no validation, hot path.

    Per layer, ``t = delta * sigma''`` and then ``J^T diag(t) J`` in
    midpoint-radius form: with ``a = |J_mid|``, ``R = J_rad`` and ``T = |t_mid|
    + t_rad``, the radius is ``a^T diag(t_rad) a + sym(R^T diag(T) (2a + R))``.
    Stacked ranges, and a last weight stacked as ``(B, 1, h)``, give stacked
    matrices, each box's bit-identical to it alone."""
    n = weights[0].shape[1]
    shape = local.slope_hi[0].shape[:-1] if local.slope_hi else ()
    mid = np.zeros(shape + (n, n))
    rad = np.zeros(shape + (n, n))
    dm, dr = weights[-1][..., 0, :], None  # delta_{L-1}: the output row, exact
    for l in range(len(weights) - 1, 0, -1):
        c_lo, c_hi = local.curv_lo[l - 1], local.curv_hi[l - 1]
        cm = (c_lo + c_hi) / 2.0
        cr = (c_hi - c_lo) / 2.0
        tm = dm * cm
        tr = np.abs(dm) * cr
        if dr is not None:
            tr = tr + dr * (np.abs(cm) + cr)
        if l == 1:
            # J_1 = W_1 is exact: sum_k t_k w_k w_k^T over the rows w_k of
            # W_1, one product per box with their outer products, which no
            # box changes
            w = weights[0]
            outer = (w[:, :, None] * w[:, None, :]).reshape(len(w), n * n)
            mid = mid + lip._rows_times(tm, outer).reshape(mid.shape)
            rad = rad + lip._rows_times(tr, np.abs(outer)).reshape(mid.shape)
            break
        jm, jr = jac_mid[l - 2], jac_rad[l - 2]
        a = np.abs(jm)
        mid = mid + (jm * tm[..., :, None]).swapaxes(-1, -2) @ jm
        rad = rad + (a * tr[..., :, None]).swapaxes(-1, -2) @ a
        if jr is not None:
            y = (jr * (np.abs(tm) + tr)[..., :, None]).swapaxes(-1, -2) \
                @ (2.0 * a + jr)
            rad = rad + (y + y.swapaxes(-1, -2)) / 2.0
        # delta_{l-1} = (delta_l * sigma'(z_l)) W_l; slopes are nonnegative
        s_lo, s_hi = local.slope_lo[l - 1], local.slope_hi[l - 1]
        qr = np.abs(dm) * ((s_hi - s_lo) / 2.0)
        if dr is not None:
            qr = qr + dr * s_hi
        dm = lip._rows_times(dm * ((s_lo + s_hi) / 2.0), weights[l - 1])
        dr = lip._rows_times(qr, np.abs(weights[l - 1]))
    mid = (mid + mid.swapaxes(-1, -2)) / 2.0
    rad = np.maximum(rad, rad.swapaxes(-1, -2))
    return mid - rad, mid + rad


def interval_hessian(net, local):
    """``(H_lo, H_hi)`` with ``H_lo <= hess J(x) <= H_hi`` entrywise at every
    ``x`` of the box that ``local`` localizes, for a scalar network of any
    depth; ``local`` stacked over boxes gives stacked matrices."""
    if not net.is_scalar:
        raise ValueError("interval Hessian needs a scalar network")
    if local.num_hidden != net.depth - 1:
        raise ValueError("local bounds do not match network depth")
    weights = [lay.weight for lay in net.layers]
    jac = _jacobian_intervals(weights, local.slope_lo, local.slope_hi)
    return _interval_hessian_raw(weights, *jac, local)
