"""Hot numeric kernels, in numpy.

The branch-and-bound solver calls these once or more per node, across
thousands to millions of nodes, so they are the runtime hot spots:

* elementwise slope/curvature ranges of activations over preactivation
  intervals,
* fused interval propagation through an affine layer,
* the inf-norm (maximum absolute row sum) of small matrices.

Each kernel also takes stacked inputs with a leading batch axis, one box or
one matrix per entry, as the branch-and-bound solver bounds the two children
of a split in one pass.  A stacked call rounds exactly as one call per entry
would: matrix-vector products keep one BLAS call per vector, never merging
the stack into one matrix product.

The activation helpers (``sigmoid``, ``sech2`` and the derivatives) are also
the forward and derivative maps of ``model.py``.

Spectral norms are not here: ``lipschitz.operator_norm`` takes them from
LAPACK's SVD with an explicit rounding margin.
"""

import math

import numpy as np

# Activation constants.  Slope = range of sigma', curvature = range of sigma''.
TANH_CURV_MAX = 4.0 / (3.0 * math.sqrt(3.0))          # at x = -arctanh(1/sqrt(3))
TANH_CURV_CRIT = 0.6584789484624084                   # arctanh(1/sqrt(3))
SIG_CURV_MAX = 1.0 / (6.0 * math.sqrt(3.0))           # at x = -log(2+sqrt(3))
SIG_CURV_CRIT = 1.3169578969248166                    # log(2+sqrt(3))
GUARD = 1e-12                                         # rounding guard on computed extrema


def sech2(x):
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, stable for any magnitude
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def sig_deriv(x):
    e = np.exp(-np.abs(x))
    return e / (1.0 + e) ** 2


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh_second(x):
    return -2.0 * np.tanh(x) * sech2(x)


def sig_second(x):
    s = sigmoid(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _even_peak_range(lo, hi, fun, peak):
    """Range of an even function that peaks at 0 and decays in |x|."""
    near = np.where(np.sign(lo) != np.sign(hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    far = np.maximum(np.abs(lo), np.abs(hi))
    f_near, amin = fun(np.array((near, far)))     # one call for both ends
    amax = np.where(near == 0.0, peak, f_near)
    return amin, amax


def slope_range_tanh(lo, hi):
    amin, amax = _even_peak_range(lo, hi, sech2, 1.0)
    return (np.maximum(amin - GUARD, 0.0), np.minimum(amax + GUARD, 1.0))


def slope_range_sigmoid(lo, hi):
    amin, amax = _even_peak_range(lo, hi, sig_deriv, 0.25)
    return (np.maximum(amin - GUARD, 0.0), np.minimum(amax + GUARD, 0.25))


def slope_range_softplus(lo, hi):
    # softplus' = sigmoid, monotone increasing
    return (np.maximum(sigmoid(lo) - GUARD, 0.0),
            np.minimum(sigmoid(hi) + GUARD, 1.0))


def _odd_bump_range(lo, hi, fun, crit, extreme):
    """Range of an odd function with a max at -crit and a min at +crit."""
    vlo, vhi = fun(np.array((lo, hi)))            # one call for both ends
    cmin = np.minimum(vlo, vhi)
    cmax = np.maximum(vlo, vhi)
    cmax = np.where((lo < -crit) & (-crit < hi), extreme, cmax)
    cmin = np.where((lo < crit) & (crit < hi), -extreme, cmin)
    return cmin, cmax


def curv_range_tanh(lo, hi):
    cmin, cmax = _odd_bump_range(lo, hi, tanh_second, TANH_CURV_CRIT, TANH_CURV_MAX)
    return (np.maximum(cmin - GUARD, -TANH_CURV_MAX),
            np.minimum(cmax + GUARD, TANH_CURV_MAX))


def curv_range_sigmoid(lo, hi):
    cmin, cmax = _odd_bump_range(lo, hi, sig_second, SIG_CURV_CRIT, SIG_CURV_MAX)
    return (np.maximum(cmin - GUARD, -SIG_CURV_MAX),
            np.minimum(cmax + GUARD, SIG_CURV_MAX))


def curv_range_softplus(lo, hi):
    # softplus'' = sigmoid', even with peak 1/4 at 0
    cmin, cmax = _even_peak_range(lo, hi, sig_deriv, 0.25)
    return (np.maximum(cmin - GUARD, 0.0), np.minimum(cmax + GUARD, 0.25))


def interval_affine(W, b, c, r):
    """Push a center/radius interval through x -> Wx + b; ``c`` and ``r``
    are vectors or stacks of them (rows)."""
    # a trailing unit axis keeps one matrix-vector product per row
    return ((W @ c[..., None])[..., 0] + b,
            (np.abs(W) @ r[..., None])[..., 0])


def op_norm_inf(A):
    """Maximum absolute row sum: a float for one matrix, an array for a
    stack of them."""
    norm = np.abs(A).sum(axis=-1).max(axis=-1, initial=0.0)
    return float(norm) if norm.ndim == 0 else norm
