"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The branch-and-bound solver calls these once or more per node, across
thousands to millions of nodes, so they are the runtime hot spots:

* elementwise slope/curvature ranges of activations over preactivation
  intervals,
* fused interval propagation through an affine layer,
* the inf-norm (maximum absolute row sum) of small matrices.

Spectral norms are not here: ``lipschitz.operator_norm`` takes them from
LAPACK's SVD with an explicit rounding margin.

Set ``CURVREACH_NO_NUMBA=1`` to force the numpy fallback (also used
automatically when numba is not importable).
"""

import math
import os

import numpy as np

_FLAG = os.environ.get("CURVREACH_NO_NUMBA", "").strip().lower()
NUMBA_REQUESTED = _FLAG not in {"1", "true", "yes", "on"}

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    HAVE_NUMBA = False

NUMBA_ENABLED = HAVE_NUMBA and NUMBA_REQUESTED

# Activation constants.  Slope = range of sigma', curvature = range of sigma''.
TANH_CURV_MAX = 4.0 / (3.0 * math.sqrt(3.0))          # at x = -arctanh(1/sqrt(3))
TANH_CURV_CRIT = 0.6584789484624084                   # arctanh(1/sqrt(3))
SIG_CURV_MAX = 1.0 / (6.0 * math.sqrt(3.0))           # at x = -log(2+sqrt(3))
SIG_CURV_CRIT = 1.3169578969248166                    # log(2+sqrt(3))
GUARD = 1e-12                                         # rounding guard on computed extrema


# ---------------------------------------------------------------------------
# numpy fallback implementations
# ---------------------------------------------------------------------------

def _sech2_np(x):
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, stable for any magnitude
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def _sig_deriv_np(x):
    e = np.exp(-np.abs(x))
    return e / (1.0 + e) ** 2


def _sigmoid_np(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _tanh_second_np(x):
    return -2.0 * np.tanh(x) * _sech2_np(x)


def _sig_second_np(x):
    s = _sigmoid_np(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _even_peak_range_np(lo, hi, fun, peak):
    """Range of an even function that peaks at 0 and decays in |x|."""
    near = np.where(np.sign(lo) != np.sign(hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    far = np.maximum(np.abs(lo), np.abs(hi))
    amax = np.where(near == 0.0, peak, fun(near))
    amin = fun(far)
    return amin, amax


def _slope_range_tanh_np(lo, hi):
    amin, amax = _even_peak_range_np(lo, hi, _sech2_np, 1.0)
    return (np.maximum(amin - GUARD, 0.0), np.minimum(amax + GUARD, 1.0))


def _slope_range_sigmoid_np(lo, hi):
    amin, amax = _even_peak_range_np(lo, hi, _sig_deriv_np, 0.25)
    return (np.maximum(amin - GUARD, 0.0), np.minimum(amax + GUARD, 0.25))


def _slope_range_softplus_np(lo, hi):
    # softplus' = sigmoid, monotone increasing
    return (np.maximum(_sigmoid_np(lo) - GUARD, 0.0),
            np.minimum(_sigmoid_np(hi) + GUARD, 1.0))


def _odd_bump_range_np(lo, hi, fun, crit, extreme):
    """Range of an odd function with a max at -crit and a min at +crit."""
    vlo = fun(lo)
    vhi = fun(hi)
    cmin = np.minimum(vlo, vhi)
    cmax = np.maximum(vlo, vhi)
    cmax = np.where((lo < -crit) & (-crit < hi), extreme, cmax)
    cmin = np.where((lo < crit) & (crit < hi), -extreme, cmin)
    return cmin, cmax


def _curv_range_tanh_np(lo, hi):
    cmin, cmax = _odd_bump_range_np(lo, hi, _tanh_second_np, TANH_CURV_CRIT, TANH_CURV_MAX)
    return (np.maximum(cmin - GUARD, -TANH_CURV_MAX),
            np.minimum(cmax + GUARD, TANH_CURV_MAX))


def _curv_range_sigmoid_np(lo, hi):
    cmin, cmax = _odd_bump_range_np(lo, hi, _sig_second_np, SIG_CURV_CRIT, SIG_CURV_MAX)
    return (np.maximum(cmin - GUARD, -SIG_CURV_MAX),
            np.minimum(cmax + GUARD, SIG_CURV_MAX))


def _curv_range_softplus_np(lo, hi):
    # softplus'' = sigmoid', even with peak 1/4 at 0
    cmin, cmax = _even_peak_range_np(lo, hi, _sig_deriv_np, 0.25)
    return (np.maximum(cmin - GUARD, 0.0), np.minimum(cmax + GUARD, 0.25))


def _interval_affine_np(W, b, c, r):
    """Push a center/radius interval through x -> Wx + b."""
    return W @ c + b, np.abs(W) @ r


def _op_norm_inf_np(A):
    return float(np.abs(A).sum(axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# numba fast paths
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _sech2(x):
        e = math.exp(-2.0 * abs(x))
        return 4.0 * e / ((1.0 + e) * (1.0 + e))

    @njit(cache=True)
    def _sigd(x):
        e = math.exp(-abs(x))
        return e / ((1.0 + e) * (1.0 + e))

    @njit(cache=True)
    def _sig(x):
        e = math.exp(-abs(x))
        if x >= 0.0:
            return 1.0 / (1.0 + e)
        return e / (1.0 + e)

    @njit(cache=True)
    def _slope_range_tanh_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            l, h = lo[i], hi[i]
            if l <= 0.0 <= h:
                top = 1.0
            else:
                top = _sech2(min(abs(l), abs(h)))
            bot = _sech2(max(abs(l), abs(h)))
            a[i] = max(bot - GUARD, 0.0)
            b[i] = min(top + GUARD, 1.0)
        return a, b

    @njit(cache=True)
    def _slope_range_sigmoid_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            l, h = lo[i], hi[i]
            if l <= 0.0 <= h:
                top = 0.25
            else:
                top = _sigd(min(abs(l), abs(h)))
            bot = _sigd(max(abs(l), abs(h)))
            a[i] = max(bot - GUARD, 0.0)
            b[i] = min(top + GUARD, 0.25)
        return a, b

    @njit(cache=True)
    def _slope_range_softplus_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            a[i] = max(_sig(lo[i]) - GUARD, 0.0)
            b[i] = min(_sig(hi[i]) + GUARD, 1.0)
        return a, b

    @njit(cache=True)
    def _curv_range_tanh_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            l, h = lo[i], hi[i]
            vl = -2.0 * math.tanh(l) * _sech2(l)
            vh = -2.0 * math.tanh(h) * _sech2(h)
            cmin = min(vl, vh)
            cmax = max(vl, vh)
            if l < -TANH_CURV_CRIT < h:
                cmax = TANH_CURV_MAX
            if l < TANH_CURV_CRIT < h:
                cmin = -TANH_CURV_MAX
            a[i] = max(cmin - GUARD, -TANH_CURV_MAX)
            b[i] = min(cmax + GUARD, TANH_CURV_MAX)
        return a, b

    @njit(cache=True)
    def _curv_range_sigmoid_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            l, h = lo[i], hi[i]
            sl = _sig(l)
            sh = _sig(h)
            vl = sl * (1.0 - sl) * (1.0 - 2.0 * sl)
            vh = sh * (1.0 - sh) * (1.0 - 2.0 * sh)
            cmin = min(vl, vh)
            cmax = max(vl, vh)
            if l < -SIG_CURV_CRIT < h:
                cmax = SIG_CURV_MAX
            if l < SIG_CURV_CRIT < h:
                cmin = -SIG_CURV_MAX
            a[i] = max(cmin - GUARD, -SIG_CURV_MAX)
            b[i] = min(cmax + GUARD, SIG_CURV_MAX)
        return a, b

    @njit(cache=True)
    def _curv_range_softplus_nb(lo, hi):
        n = lo.shape[0]
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            l, h = lo[i], hi[i]
            if l <= 0.0 <= h:
                top = 0.25
            else:
                top = _sigd(min(abs(l), abs(h)))
            bot = _sigd(max(abs(l), abs(h)))
            a[i] = max(bot - GUARD, 0.0)
            b[i] = min(top + GUARD, 0.25)
        return a, b

    @njit(cache=True)
    def _interval_affine_nb(W, b, c, r):
        m, n = W.shape
        c2 = np.empty(m)
        r2 = np.empty(m)
        for i in range(m):
            s = b[i]
            t = 0.0
            for j in range(n):
                w = W[i, j]
                s += w * c[j]
                t += abs(w) * r[j]
            c2[i] = s
            r2[i] = t
        return c2, r2

    @njit(cache=True)
    def _op_norm_inf_nb(A):
        m, n = A.shape
        best = 0.0
        for i in range(m):
            s = 0.0
            for j in range(n):
                s += abs(A[i, j])
            if s > best:
                best = s
        return best

    slope_range_tanh = _slope_range_tanh_nb
    slope_range_sigmoid = _slope_range_sigmoid_nb
    slope_range_softplus = _slope_range_softplus_nb
    curv_range_tanh = _curv_range_tanh_nb
    curv_range_sigmoid = _curv_range_sigmoid_nb
    curv_range_softplus = _curv_range_softplus_nb
    interval_affine = _interval_affine_nb
    op_norm_inf = _op_norm_inf_nb
else:
    slope_range_tanh = _slope_range_tanh_np
    slope_range_sigmoid = _slope_range_sigmoid_np
    slope_range_softplus = _slope_range_softplus_np
    curv_range_tanh = _curv_range_tanh_np
    curv_range_sigmoid = _curv_range_sigmoid_np
    curv_range_softplus = _curv_range_softplus_np
    interval_affine = _interval_affine_np
    op_norm_inf = _op_norm_inf_np


def warmup():
    """Trigger jit compilation of every kernel (no-op on the numpy path)."""
    lo = np.array([-1.0, 0.5])
    hi = np.array([0.5, 2.0])
    for fn in (slope_range_tanh, slope_range_sigmoid, slope_range_softplus,
               curv_range_tanh, curv_range_sigmoid, curv_range_softplus):
        fn(lo, hi)
    W = np.array([[1.0, -2.0], [0.5, 3.0]])
    interval_affine(W, np.zeros(2), np.zeros(2), np.ones(2))
    op_norm_inf(W)
