"""Certified bounds on the Hessian of a scalar network over a localized region.

Two forms: the exact sandwich matrices (M, N) for one-hidden-layer networks,
and a spectral-norm scalar bound for arbitrary depth built from subnetwork
Lipschitz constants and elementwise Jacobian bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import lipschitz as lip


@dataclass(frozen=True)
class MatrixHessianBound:
    """Symmetric M, N with N <= hess J(x) <= M on the certified region; a
    stack of regions has one pair per entry of a leading axis."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if M.shape != N.shape or M.ndim not in (2, 3) \
                or M.shape[-1] != M.shape[-2]:
            raise ValueError("M and N must be square matrices of equal shape")
        if np.linalg.eigvalsh(M - N).min() < -1e-9:
            raise ValueError("upper matrix does not dominate lower matrix")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)


@dataclass(frozen=True)
class ScalarHessianBound:
    """lam >= 0 with ||hess J(x)||_2 <= lam, i.e. M = lam I, N = -lam I."""

    lam: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("scalar Hessian bound must be nonnegative")


def two_layer_matrix_bounds(net, local):
    """Sandwich matrices for a one-hidden-layer scalar network.

    Each hidden unit j contributes w1_j w1_j^T scaled by the worst-case signed
    curvature of its activation times the output weight.  Curvature ranges
    stacked on a leading axis, one row per box, give stacked matrices.
    """
    if net.depth != 2:
        raise ValueError("matrix Hessian bounds need exactly one hidden layer")
    if not net.is_scalar:
        raise ValueError("matrix Hessian bounds need a scalar network")
    w2 = net.layers[1].weight[0]
    ca, cb = local.curv_lo[0], local.curv_hi[0]
    pos = np.maximum(w2, 0.0)
    neg = np.minimum(w2, 0.0)
    m_coeff = cb * pos + ca * neg
    n_coeff = ca * pos + cb * neg
    W1 = net.layers[0].weight
    # W1^T diag(coeff) W1 for both coefficient vectors at once, symmetrized
    coeff = np.array((m_coeff, n_coeff))
    G = (W1 * coeff[..., :, None]).swapaxes(-1, -2) @ W1
    M, N = (G + G.swapaxes(-1, -2)) / 2.0
    return MatrixHessianBound(M, N)


def _weighted_suffix_liplt(weights, slope_his, l, h):
    """Second estimate of max_j h_j |d z^(L) / d a^(l)_j|: a loop-
    transformed Lipschitz bound, in the ell_1 norm, of the tail network with
    its first weight scaled column-wise by h."""
    w_suffix = [weights[l] * h[None, :]] + list(weights[l + 1:])
    s_his = list(slope_his[l:])
    ds = [b / 2.0 for b in s_his]
    return lip._total_raw(w_suffix, s_his, ds, 1)


def hessian_norm_bound(net, local, report, jac_bounds):
    """Spectral bound: sum over hidden layers of (ell_2 subnet constant)^2
    times the worst h-weighted entry of the output-side Jacobian bound."""
    if not net.is_scalar:
        raise ValueError("Hessian norm bound needs a scalar network")
    if report.p != 2:
        raise ValueError("subnetwork constants must be in the ell_2 norm")
    hidden = net.depth - 1
    if len(report.subnet) < hidden:
        raise ValueError("missing subnetwork Lipschitz constants")
    habs = local.curv_abs
    weights = [lay.weight for lay in net.layers]
    lam = 0.0
    for l in range(1, hidden + 1):
        if l not in jac_bounds:
            raise ValueError(f"missing Jacobian bound for layer {l}")
        h = habs[l - 1]
        w = float(np.max(h * jac_bounds[l], initial=0.0))
        if w > 0.0:
            w = min(w, _weighted_suffix_liplt(weights, local.slope_hi, l, h))
        lam += report.subnet[l - 1] ** 2 * w
    return ScalarHessianBound(max(lam, 0.0))
