"""Sound upper bounds on sup J over a norm ball or a box from Hessian
certificates.

The first-order bound expands J around a point y, bounds the remainder with a
Hessian certificate, and maximizes the resulting quadratic model exactly
(closed form for the ell_2 ball, separable for the ell_inf ball and for a box
given by per-coordinate radii).  With a matrix bound M, ``vertex_upper``
enumerates the vertices of one box, exact whenever M's diagonal is
nonnegative (the model is then convex along each axis): the vertex values
are products of a sign table, built per block of vertices on each call,
with the model's coefficients.  The dual bisection bounds the model over an
ell_2 ball for any M.  Branch and bound uses neither: its nodes take the
isotropic maximizer of ``optimal_perturbation`` and the model values of
``_model_value``.

``optimal_perturbation`` (for p=inf) also takes a stack of boxes, every
argument with a leading batch axis, and returns one result per box, each
equal to what the box alone gives.
"""

import math
from dataclasses import dataclass

import numpy as np


class DualBisectionError(RuntimeError):
    """Raised when the dual solve cannot produce a certified value."""


@dataclass(frozen=True)
class BallRegion:
    """{x : ||x - center||_p <= radius} with p in {2, inf}."""

    center: np.ndarray
    radius: float
    p: float

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise ValueError("region center must be a vector")
        if not self.radius > 0.0:
            raise ValueError("region radius must be positive")
        if self.p != 2 and not np.isinf(self.p):
            raise ValueError(f"unsupported norm {self.p}")
        object.__setattr__(self, "center", c)

    @property
    def dim(self):
        return self.center.shape[0]

    def contains(self, x, tol=1e-12):
        d = np.asarray(x, dtype=float) - self.center
        if np.isinf(self.p):
            return bool(np.all(np.abs(d) <= self.radius + tol))
        return bool(np.linalg.norm(d) <= self.radius + tol)


def _sign_pos(v):
    # sign with sign(0) resolved to +1
    return np.where(v >= 0.0, 1.0, -1.0)


def optimal_perturbation(center, eps, p, grad_y, lam, y):
    """Maximizer of the quadratic model grad_y . (x-y) + lam/2 ||x-y||_2^2
    over the ball; for p=2 the normalized steering vector, for p=inf the
    per-coordinate endpoint choice.  For p=inf, ``eps`` may be an array of
    per-coordinate radii r: the maximizer over the box center +- r, where
    the model at y = center peaks at sum(|g_i| r_i + lam/2 r_i^2).  For p=inf
    the vectors may also be stacks of rows, with one ``lam`` per row."""
    center = np.asarray(center, dtype=float)
    grad_y = np.asarray(grad_y, dtype=float)
    y = np.asarray(y, dtype=float)
    u = grad_y - np.asarray(lam)[..., None] * (y - center)
    if np.isinf(p):
        return center + eps * _sign_pos(u)
    if u.ndim != 1:
        raise ValueError("the ell_2 maximizer takes a single vector")
    if p == 2:
        nn = np.linalg.norm(u)
        if nn == 0.0:
            tie = np.zeros_like(center)
            tie[0] = eps
            return center + tie
        return center + eps * u / nn
    raise ValueError(f"unsupported norm {p}")


def _dot(a, b):
    """Row-wise dot product; one BLAS dot per row, as for single vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _model_value(value_y, grad_y, lam, x, y):
    """The model at x; rows of stacked arguments give an array of values."""
    d = x - y
    v = value_y + _dot(grad_y, d) + 0.5 * lam * _dot(d, d)
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def first_upper_from(value_y, grad_y, region, lam, y):
    """First-order upper bound from cached J(y), grad J(y)."""
    if lam < 0.0:
        raise ValueError("Hessian norm bound must be nonnegative")
    if not region.contains(y, tol=1e-9):
        raise ValueError("expansion point lies outside the region")
    # the model maximizer is exact for both norms: closed form on the ell_2
    # sphere, per-coordinate endpoint choice on the ell_inf box
    x_star = optimal_perturbation(region.center, region.radius, region.p,
                                  grad_y, lam, y)
    return _model_value(value_y, grad_y, lam, x_star, y)


def first_upper(obj, region, lam, y=None):
    """Upper bound from a first-order expansion at y (default: the center)."""
    y = region.center if y is None else np.asarray(y, dtype=float)
    return first_upper_from(float(obj.value(y)), obj.grad(y), region, lam, y)


def shifted_center(center, eps, grad_c, lam):
    """Expansion point on the segment toward the model maximizer that
    provably does not worsen the ell_inf first-order upper bound."""
    center = np.asarray(center, dtype=float)
    grad_c = np.asarray(grad_c, dtype=float)
    if lam <= 0.0:
        return center.copy()
    delta = eps * _sign_pos(grad_c)
    nrm = np.linalg.norm(delta)
    eta = min(1.0, float(np.min(np.abs(grad_c) / (lam * (nrm + np.abs(delta))))))
    return center + eta * delta


def epsilon_crossover(L, grad_dual, lam, p, n0):
    """Largest radius at which the first-order upper bound still beats the
    zeroth-order one (at formula level)."""
    if lam < 0.0:
        raise ValueError("Hessian norm bound must be nonnegative")
    if lam == 0.0:
        return math.inf
    scale = n0 ** (-max(0.0, 1.0 - 2.0 / p))
    return max(0.0, (2.0 / lam) * scale * (L - grad_dual))


def _checked(name, a, shape):
    """``a`` as a float array, refused unless it has ``shape`` and is finite."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def two_layer_dual_upper(grad, M, eps, p=2):
    """Exact sup of grad . delta + 1/2 delta^T M delta over the ell_2 ball
    (strong duality; bisection on the single dual variable).  For p != 2 the
    ball is relaxed to its enclosing ell_2 ball first.

    Returns the quadratic part only; the caller adds J at the center.  Only
    sym(M) = (M + M^T) / 2 enters the model, so an asymmetric M is read
    through it.  Raises ValueError unless the radius ``eps`` is positive and
    ``grad`` and ``M`` are a finite vector and a finite matrix of one size.
    """
    if not eps > 0.0:
        raise ValueError(f"dual bound needs a positive radius eps, got {eps}")
    n = np.shape(grad)[0]
    g = _checked("grad", grad, (n,))
    M = _checked("M", M, (n, n))
    if p != 2:
        eps = eps * n ** max(0.0, 0.5 - 1.0 / p)
    # eigh reads one triangle only: decompose sym(M), equal to M if symmetric
    mu, Q = np.linalg.eigh((M + M.T) / 2.0)
    gt = Q.T @ g
    lam_lo = max(0.0, mu[-1] / 2.0)
    cut = 1e-12 * max(1.0, float(np.linalg.norm(gt)))

    def radius_sq(lam):
        den = 2.0 * lam - mu
        live = den > 0.0
        if np.any(~live & (np.abs(gt) > cut)):
            return math.inf
        with np.errstate(over="ignore"):
            d = gt[live] / den[live]
            return float(d @ d)

    def dual_value(lam):
        # evaluates the dual at lam + 1e-12 (always feasible), a valid upper
        # bound by weak duality
        shift = 1e-12
        den = np.maximum(2.0 * lam - mu, 0.0) + 2.0 * shift
        val = lam * eps * eps + 0.5 * float(np.sum(gt * gt / den))
        return val + shift * eps * eps

    r2 = eps * eps
    if radius_sq(lam_lo + 1e-300) <= r2 or radius_sq(lam_lo + 1e-14) <= r2:
        return dual_value(lam_lo)
    lo = lam_lo
    hi = (mu[-1] + float(np.linalg.norm(gt)) / eps) / 2.0 + 1.0
    if not radius_sq(hi) <= r2:
        raise DualBisectionError("failed to bracket the dual variable")
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            break  # float resolution reached before the absolute tolerance
        if radius_sq(mid) > r2:
            lo = mid
        else:
            hi = mid
    return dual_value(hi)


_BLOCK = 1 << 12                       # most vertex rows per product


def _sign_rows(n, start, stop):
    """Rows ``start`` .. ``stop`` of the sign table ``[S | S (x) S]`` of the
    vertices of an n-box: vertex i takes s_j = +1 (its upper bound) where bit
    j of i is set, else -1, followed by every product s_j s_k."""
    s = np.where((np.arange(start, stop)[:, None] >> np.arange(n)) & 1,
                 1.0, -1.0)
    return np.hstack([s, (s[:, :, None] * s[:, None, :]).reshape(len(s), -1)])


def vertex_upper(grad, M, lo, hi, center=None, return_witness=False):
    """Exact max of the quadratic model g . d + d^T M d / 2, d = x - center,
    over the box [lo, hi] when every M_ii >= 0 (center defaults to the box
    mid-point).

    Why the vertices suffice: along axis i, with the other coordinates held,
    the model is a quadratic in x_i with leading coefficient M_ii / 2 >= 0,
    so it is convex there and peaks at an endpoint.  Starting from a
    maximizer and moving one coordinate at a time to its better endpoint
    never lowers the model, so some vertex attains the box maximum; M need
    not be PSD.  A diagonal entry in [-1e-9, 0) is accepted, and the bound
    adds 1/2 sum_i max(-M_ii, 0) * max(hi_i - c_i, c_i - lo_i)^2, the most by
    which the model with those entries raised to 0 lies above it on the box;
    an entry below -1e-9 raises ValueError.

    With delta = m + s * h over the vertices (m, h the mid-point and half-
    width of the box around c, s in {-1, 1}^n), the model is g . m + m^T M m
    / 2 + sum_j s_j L_j + sum_jk s_j s_k Q_jk, with L = h * (g + sym(M) m)
    and Q = (h h^T) * M / 2, so the vertex values are products of the sign
    table ``[S | S (x) S]`` with ``[L, vec Q]``, in blocks of at most 2**12
    vertices, each block's rows built when it is reached
    (``_sign_rows``).  Vertex i takes hi_j where bit j of i is set, and
    ties go to the first vertex.  Arguments that are not finite, not of one
    box's shapes, or with lo > hi raise ValueError.
    """
    lo = np.asarray(lo, dtype=float)
    if lo.ndim != 1:
        raise ValueError(f"lo must be a vector, got shape {lo.shape}")
    n = lo.shape[0]
    if n > 20:
        raise ValueError(f"vertex enumeration unsupported beyond 20 dims (got {n})")
    lo = _checked("lo", lo, (n,))
    hi = _checked("hi", hi, (n,))
    g = _checked("grad", grad, (n,))
    M = _checked("M", M, (n, n))
    if (lo > hi).any():
        raise ValueError("lo must not exceed hi")
    center = (lo + hi) / 2.0 if center is None \
        else _checked("center", center, (n,))
    tau = np.maximum(-np.diag(M), 0.0)
    if (tau > 1e-9).any():
        raise ValueError("vertex bound needs M_ii >= -1e-9 on M's diagonal")
    up, down = hi - center, lo - center
    m, h = (up + down) / 2.0, (up - down) / 2.0
    sym_m = (M + M.T) / 2.0 @ m
    coef = np.concatenate([h * (g + sym_m), (0.5 * np.outer(h, h) * M).ravel()])
    total = 1 << n
    for start in range(0, total, _BLOCK):
        table = _sign_rows(n, start, min(start + _BLOCK, total))
        vals = table @ coef
        k = int(np.argmax(vals))
        if start == 0 or vals[k] > best:
            best, best_v = vals[k], np.where(table[k, :n] > 0.0, hi, lo)
    far = np.maximum(up, -down)
    best = float(best + (g @ m + 0.5 * (m @ sym_m)) + 0.5 * (tau @ (far * far)))
    if return_witness:
        return best, best_v
    return best
