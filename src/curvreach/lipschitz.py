"""Upper bounds on local Lipschitz constants of layered networks.

The parameterized bound rewrites each activation as a slope-reduced residual
plus a linear feed-through ``diag(d) z`` (a loop transformation).  Chaining
the per-layer constants gives the recursion

    m(1) = || diag(b1 - d1) W1 ||
    m(l) = || C_0 || + sum_{j<l} || C_j || m(j),
    C_j  = D'_l W_l (D_{l-1} W_{l-1}) ... (D_{j+1} W_{j+1}),

with ``D'_l = diag(b_l - d_l)`` for internal stages and the identity for the
final stage.  ``d = 0`` collapses it to the naive product of layer norms, and
``d = b/2`` provably tightens the naive bound.

Spectral norms are LAPACK singular values inflated by an explicit rounding
margin (see ``operator_norm``), never estimates from below.

The raw recursion (``_memo_raw``, ``_total_raw``, ``_report_raw``) also takes
per-layer slope and transform vectors stacked on a leading batch axis, one
row per box; its constants are then arrays with one entry per box, each equal
to what the box alone gives.
"""

from dataclasses import dataclass

import numpy as np

# Rounding margin of the spectral norm, relative to max(m, n) * eps.  LAPACK
# computes singular values by a backward-stable reduction, so the computed
# sigma_1 is within p(m, n) * eps * sigma_1 of the true one, where p(m, n) is a
# modestly growing function of the shape (LAPACK Users' Guide, section 4.9).
# The guide's own error-bound code takes p(m, n) = 1; worst-case analyses of
# Householder bidiagonalization grow linearly in the dimension.  Taking
# p(m, n) = 8 max(m, n) exceeds the guide's estimate at least 16-fold, covers
# the final rounding of the product, and costs about 6e-14 relative on 32x32.
# These bounds hold in the normal range only.  Below it every rounding adds
# an absolute error of up to half the smallest subnormal, LAPACK scales or
# flushes values under its safe minimum (the smallest normal number), and a
# relative margin rounds away: a 1x4 row of 2.2e-313 gives the subnormal just
# below its true sigma_1.  So the margin also adds 8 max(m, n) smallest
# normals, which covers those absolute errors and is below half an ulp of
# any sigma_1 above max(m, n) * 2e-291, where results come out as before.
_SVD_MARGIN_C = 8.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_normal)


def op_norm_inf(A):
    """Maximum absolute row sum: a float for one matrix, an array for a
    stack of them."""
    norm = np.abs(A).sum(axis=-1).max(axis=-1, initial=0.0)
    return float(norm) if norm.ndim == 0 else norm


def check_chain(weights):
    """Refuse weights that overflow the Lipschitz chain: raise ValueError
    when the ell_inf norms of ``weights`` multiply to a non-finite number,
    with no numpy warning on the way.  The last weight may be a stack of
    output rows ``(B, 1, h)``, each of whose chains must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        chain = op_norm_inf(weights[-1]) * np.prod(
            [op_norm_inf(w) for w in weights[:-1]])
    if not np.isfinite(chain).all():
        raise ValueError("the weights overflow the Lipschitz chain: the "
                         "product of the layer norms is non-finite")


def check_curvature_chain(weights):
    """Refuse weights that overflow the Hessian bounds: raise ValueError
    when, at some hidden layer l, ``4 L`` times the squared chain of layers
    1 .. l times the chain of the layers above it is non-finite, with no
    numpy warning on the way.  A layer enters by the sum of its absolute
    entries, which bounds its ell_1, ell_2 and ell_inf norms; slopes and
    curvatures are at most 1, and ``4 L`` covers the sums over layers and
    the midpoint-radius forms.  The last weight may be a stack of output
    rows ``(B, 1, h)``, each of whose chains must be finite."""
    sums = [np.abs(w).sum(axis=(-2, -1)) for w in weights]
    with np.errstate(over="ignore", invalid="ignore"):
        head = 1.0
        for l in range(1, len(weights)):
            head = head * sums[l - 1]
            chain = 4.0 * len(weights) * head * head \
                * np.prod(sums[l:-1]) * sums[-1]
            if not np.isfinite(chain).all():
                raise ValueError("the weights overflow the curvature chain: "
                                 "the squared layer norms up to hidden layer "
                                 f"{l} times the norms above it are "
                                 "non-finite")


def operator_norm(A, p):
    """Certified upper bound on the operator p->p norm; p in {2, inf}.

    The inf-norm is the maximum absolute row sum.  The spectral norm is
    the largest singular value from LAPACK's SVD, inflated by the rounding
    margin ``1 + 8 max(m, n) eps`` plus ``8 max(m, n)`` smallest normal
    numbers for underflow, so it never falls below the true norm.
    A stack of matrices ``(B, m, n)`` gives an array of ``B`` norms.
    Raises ValueError on an empty, non-2-D or non-finite matrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.size == 0:
        raise ValueError("operator_norm needs a nonempty 2-D matrix or a "
                         "stack of them")
    if not np.isfinite(A).all():
        raise ValueError("operator_norm got a matrix with non-finite entries "
                         "(NaN or inf)")
    if np.isinf(p):
        return op_norm_inf(A)
    if p == 2:
        sigma = np.linalg.svd(A, compute_uv=False)[..., 0]
        sigma = float(sigma) if sigma.ndim == 0 else sigma
        k = _SVD_MARGIN_C * max(A.shape[-2:])
        return sigma * (1.0 + k * _EPS) + k * _TINY
    raise ValueError(f"unsupported norm {p}")


def _norm(A, p):
    # internal: also serves p=1 (max column sum) for the weighted suffix bound
    if p == 1:
        return op_norm_inf(np.ascontiguousarray(A.swapaxes(-1, -2)))
    return operator_norm(A, p)


@dataclass(frozen=True)
class LoopTransform:
    """Per-hidden-layer loop transformation vectors d >= 0."""

    d: tuple

    @property
    def num_hidden(self):
        return len(self.d)


def default_loop_transform(local):
    """d = slope_hi / 2, clamped into [0, (slope_lo + slope_hi)/2]."""
    ds = []
    for a, b in zip(local.slope_lo, local.slope_hi):
        ds.append(np.minimum(b / 2.0, (a + b) / 2.0))
    return LoopTransform(tuple(ds))


def zero_loop_transform(local):
    return LoopTransform(tuple(np.zeros_like(b) for b in local.slope_hi))


def _check_transform(net, local, lt):
    if lt.num_hidden != net.depth - 1:
        raise ValueError("loop transform does not match network depth")
    for l, (d, a, b) in enumerate(zip(lt.d, local.slope_lo, local.slope_hi), start=1):
        if d.shape != a.shape:
            raise ValueError(f"loop transform shape mismatch at layer {l}")
        if np.any(d < -1e-12) or np.any(d > (a + b) / 2.0 + 1e-12):
            raise ValueError(
                f"loop transform at layer {l} violates 0 <= d <= (slope_lo+slope_hi)/2")


def _stage(P0, top, memo, weights, ds, p):
    """One recursion stage: norm of the x-chain plus the memoized tail terms."""
    norm = _norm(P0, p)
    total = 0.0
    P = P0
    for j in range(top, 0, -1):
        total += norm * memo[j]
        # columns scaled by d, per box when d is stacked
        P = (P * ds[j - 1][..., None, :]) @ weights[j - 1]
        norm = _norm(P, p)
    return total + norm


def _unbox(c):
    """A float for one constant; the array as is for a stack of boxes."""
    return c if isinstance(c, np.ndarray) and c.ndim else float(c)


def _memo_raw(weights, slope_his, ds, p):
    """memo[l] bounds x -> diag(b_l - d_l) z^(l); no validation, hot path."""
    memo = [0.0] * len(weights)
    for l in range(1, len(weights)):
        dprime = slope_his[l - 1] - ds[l - 1]
        P0 = dprime[..., :, None] * weights[l - 1]
        memo[l] = _stage(P0, l - 1, memo, weights, ds, p)
    return memo


def _total_raw(weights, slope_his, ds, p, memo=None):
    """Whole-network constant."""
    if memo is None:
        memo = _memo_raw(weights, slope_his, ds, p)
    total = _stage(weights[-1], len(weights) - 1, memo, weights, ds, p)
    return _unbox(total)


def _report_raw(weights, slope_his, ds, p, memo=None):
    """Subnetwork constants; entry l-1 bounds x -> z^(l)."""
    if memo is None:
        memo = _memo_raw(weights, slope_his, ds, p)
    subnet = (_stage(weights[l - 1], l - 1, memo, weights, ds, p)
              for l in range(1, len(weights)))
    return tuple(_unbox(c) for c in subnet)


def naive_lipschitz(net, local, p):
    """Product bound: ||W_L|| * prod_l ||diag(slope_hi_l) W_l||."""
    if local.num_hidden != net.depth - 1:
        raise ValueError("local bounds do not match network depth")
    total = _norm(net.layers[-1].weight, p)
    for lay, b in zip(net.layers[:-1], local.slope_hi):
        total *= _norm(b[:, None] * lay.weight, p)
    return float(total)


def liplt(net, local, lt, p):
    """Loop-transformed Lipschitz bound of the whole network."""
    _check_transform(net, local, lt)
    return _total_raw([lay.weight for lay in net.layers], local.slope_hi,
                      list(lt.d), p)


@dataclass(frozen=True)
class LipschitzReport:
    """Full-network constant plus per-layer subnetwork constants, in ell_p."""

    total: float
    subnet: tuple  # subnet[l-1] bounds x -> z^(l)
    p: float


def lipschitz_report(net, local, lt, p):
    """Total and all subnetwork constants in one memoized pass."""
    _check_transform(net, local, lt)
    weights = [lay.weight for lay in net.layers]
    ds = list(lt.d)
    memo = _memo_raw(weights, local.slope_hi, ds, p)
    total = _total_raw(weights, local.slope_hi, ds, p, memo)
    subnet = _report_raw(weights, local.slope_hi, ds, p, memo)
    return LipschitzReport(total, subnet, p)


def _golden_min(f, lo, hi):
    """60 golden-section steps for a minimum of f on [lo, hi]; (t, f(t)) at
    the last bracket's midpoint t."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def refine_loop_transform(net, local, p, sweeps=50):
    """Coordinate descent on the loop transformation, projected onto the
    admissible box [0, (slope_lo + slope_hi)/2].  Starts at d = slope_hi/2."""
    ds = [d.copy() for d in default_loop_transform(local).d]
    caps = [(a + b) / 2.0 for a, b in zip(local.slope_lo, local.slope_hi)]
    best = liplt(net, local, LoopTransform(tuple(ds)), p)
    for _ in range(sweeps):
        prev = best
        for l, cap in enumerate(caps):
            for i in range(ds[l].shape[0]):
                if cap[i] <= 0.0:
                    continue
                orig = ds[l][i]

                def f(t, l=l, i=i):
                    ds[l][i] = t
                    return liplt(net, local, LoopTransform(tuple(ds)), p)

                t_star, val = _golden_min(f, 0.0, float(cap[i]))
                if val < best:
                    ds[l][i] = t_star
                    best = val
                else:
                    ds[l][i] = orig
        if prev - best < 1e-10 * max(1.0, abs(prev)):
            break
    return LoopTransform(tuple(ds))


def _rows_times(v, W):
    """Each row of ``v`` times ``W``, one vector-matrix product per row, so
    that a stacked row gets the bits it gets alone."""
    return (v[..., None, :] @ W)[..., 0, :]


def _jacobian_rows(abs_weights, slope_his):
    """The rows of ``jacobian_elementwise_bounds`` from |W_1| .. |W_L|; no
    validation, hot path.  Slope rows stacked on a leading axis give stacked
    Jacobian rows, and so does a stacked last weight ``(B, 1, h)``, one
    output row per box."""
    s = abs_weights[-1][..., 0, :]
    rows = {len(abs_weights) - 1: s}
    for k in range(len(abs_weights) - 1, 1, -1):
        s = _rows_times(s * slope_his[k - 1], abs_weights[k - 1])
        rows[k - 1] = s
    return rows


def jacobian_elementwise_bounds(net, local):
    """Row vectors S(l) with |d z^(L) / d a^(l)| <= S(l) elementwise, for all
    hidden layers l of a scalar network; dict keyed by l."""
    if not net.is_scalar:
        raise ValueError("elementwise Jacobian bounds need a scalar network")
    if net.depth < 2:
        return {}
    return _jacobian_rows([np.abs(lay.weight) for lay in net.layers],
                          local.slope_hi)

