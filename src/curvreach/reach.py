"""Polyhedral reachable sets from per-direction support bounds, plus
closed-loop stepping of linear systems driven by network controllers.

Each template direction c turns into one branch-and-bound solve of
sup c . f(x); the resulting offsets define half-spaces whose intersection
over-approximates the image set.  Closed-loop steps keep the linear part
c . A x of the step map analytic: it shifts the objective's value and
gradient and adds its dual norm to the Lipschitz constant, with no effect on
curvature.

The objectives of all directions of a step are built as one stack
(``_face_objectives``): each direction's output row and bias, linear term
and offset are per-row products over the direction stack, checked once per
stack, and bit for bit those of the direction built alone.
``LinearSystem.step_objective`` is the stack of one row.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import bnb
from . import lipschitz as lip
from .model import (Layer, Network, ScalarObjective, _affine_map, _backward,
                    _compose_affine, _unchecked, require_finite)


def _support_separation(center, generators, point):
    """Certified lower bound on dist(point, set) along the center-to-point
    direction, set = {center + G z : ||z||_inf <= 1}; LP-free."""
    u = np.asarray(point, dtype=float) - center
    nn = float(np.linalg.norm(u))
    if nn == 0.0:
        return 0.0
    u = u / nn
    return nn - float(np.abs(u @ generators).sum())


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be equal-length vectors")
        require_finite(lo, "box lo")
        require_finite(hi, "box hi")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def project(self, dims):
        dims = list(dims)
        return Box(self.lo[dims], self.hi[dims])

    def distance_lower_bound(self, point):
        center = (self.lo + self.hi) / 2.0
        return _support_separation(center, np.diag((self.hi - self.lo) / 2.0),
                                   point)


@dataclass(frozen=True)
class Zonotope:
    """{G z + center : ||z||_inf <= 1}."""

    G: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        c = np.asarray(self.center, dtype=float)
        if G.ndim != 2 or c.ndim != 1 or G.shape[0] != c.shape[0]:
            raise ValueError("generator matrix rows must match center length")
        if G.shape[1] == 0:
            raise ValueError(f"zonotope G of shape {G.shape} has no "
                             "generator columns")
        require_finite(G, "zonotope G")
        require_finite(c, "zonotope center")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "center", c)

    @property
    def dim(self):
        return self.center.shape[0]

    def project(self, dims):
        dims = list(dims)
        return Zonotope(self.G[dims, :], self.center[dims])

    def distance_lower_bound(self, point):
        return _support_separation(self.center, self.G, point)


def sample_inputs(input_set, n, rng):
    if isinstance(input_set, Box):
        xs = rng.random((n, input_set.dim))
        xs *= input_set.hi - input_set.lo
        xs += input_set.lo
        return xs
    z = rng.uniform(-1.0, 1.0, size=(n, input_set.G.shape[1]))
    xs = z @ input_set.G.T
    xs += input_set.center
    return xs


@dataclass(frozen=True)
class DirectionTemplate:
    directions: np.ndarray  # (k, n_f) unit rows
    tag: str

    def __post_init__(self):
        try:
            d = np.asarray(self.directions, dtype=float)
        except ValueError:
            d = None                   # rows of unequal length
        if d is None or d.ndim != 2:
            raise ValueError(f"template {self.tag!r}: directions must be a "
                             "(k, n_f) array of equal-length rows")
        bad = np.flatnonzero(~np.isfinite(d).all(axis=1))
        if bad.size:
            raise ValueError(f"template {self.tag!r}: direction {bad[0]} has "
                             "non-finite entries (NaN or inf)")
        object.__setattr__(self, "directions", d)

    @property
    def count(self):
        return self.directions.shape[0]


def axes_directions(n_f):
    eye = np.eye(n_f)
    return DirectionTemplate(np.concatenate([eye, -eye], axis=0), "axes")


def uniform_directions(k):
    """k uniformly spaced unit vectors on the plane (2-D outputs only)."""
    if k < 3:
        raise ValueError("need at least 3 directions")
    ang = 2.0 * np.pi * np.arange(k) / k
    return DirectionTemplate(np.stack([np.cos(ang), np.sin(ang)], axis=1),
                             f"uniform{k}")


def _rotation_from_pca(fwd, input_set, n_samples, seed):
    """Principal axes of the pushed-forward sample cloud: an orthonormal
    rotation whose columns run by decreasing variance, and those variances."""
    if (not isinstance(n_samples, numbers.Integral)
            or isinstance(n_samples, bool)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    too_few = (f"n_samples = {n_samples}: need more samples than output "
               "dimensions")
    # every output has a dimension, so fewer than 2 never do; rejected
    # before sampling, which fails on a negative count
    if n_samples < 2:
        raise ValueError(too_few)
    rng = np.random.default_rng(seed)
    xs = sample_inputs(input_set, n_samples, rng)
    ys = np.asarray(fwd(xs), dtype=float)
    if n_samples < ys.shape[1] + 1:
        raise ValueError(too_few)
    evals, evecs = np.linalg.eigh(np.atleast_2d(np.cov(ys.T)))
    order = np.argsort(evals)[::-1]
    return evecs[:, order], evals[order]


def pca_directions(map_or_net, input_set, n_samples=10_000, seed=0):
    """Principal directions of the pushed-forward sample cloud, as a
    +/- eigenvector template ordered by decreasing variance.  Degenerate
    covariance pads the template with axis directions."""
    fwd = map_or_net.forward if isinstance(map_or_net, Network) else map_or_net
    R, evals = _rotation_from_pca(fwd, input_set, n_samples, seed)
    dirs = np.concatenate([R.T, -R.T], axis=0)
    if evals.min() < 1e-12 * max(evals.max(), 1.0):
        dirs = np.concatenate([dirs, axes_directions(R.shape[0]).directions],
                              axis=0)
    return DirectionTemplate(dirs, "pca")


@dataclass(frozen=True)
class Polytope:
    """Intersection of half-spaces normals[i] . y <= offsets[i].  ``flagged``
    holds the faces whose solve flagged a node, which kept its parent's upper
    bound, and ``unconverged`` those whose solve ended with a status other
    than ``Converged``; each offset is still sound."""

    normals: np.ndarray
    offsets: np.ndarray
    lbs: np.ndarray | None = None
    flagged: tuple = ()
    unconverged: tuple = ()

    def __post_init__(self):
        nr = np.asarray(self.normals, dtype=float)
        off = np.asarray(self.offsets, dtype=float)
        if nr.ndim != 2 or off.shape != (nr.shape[0],):
            raise ValueError("normals and offsets are inconsistent")
        object.__setattr__(self, "normals", nr)
        object.__setattr__(self, "offsets", off)

    def margins(self, points):
        """Per-point max face violation; <= 0 means inside."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (points @ self.normals.T - self.offsets).max(axis=1)

    def contains(self, points, tol=1e-9):
        return bool(np.all(self.margins(points) <= tol))


def _checked_stack(a, name):
    """``a``, frozen, after the finiteness check that names it ``name``."""
    require_finite(a, name)
    a.flags.writeable = False
    return a


# an overflow or a NaN in a product fails the finiteness check that follows
@np.errstate(over="ignore", invalid="ignore")
def _face_objectives(dirs, f, zono=None):
    """The objective x -> c . f(x) of each row c of the direction stack
    ``dirs``, where ``f`` is a network or the step map x -> A x + B pi(x) +
    drift of a ``LinearSystem``; with a zonotope ``zono``, composed with
    z -> G z + center, over the latent unit box.

    Each direction's output row and bias, linear term and offset is one
    vector-matrix product per row of a stack, as in ``lip._rows_times``,
    so each gets the bits it gets alone.  The directions share the hidden
    layers and, on a zonotope, the first hidden layer composed with G, which
    is computed once.  Each stack passes the checks of the objects made of
    it once, with their messages; the ``Layer``, ``Network`` and
    ``ScalarObjective`` of each direction are then made unchecked."""
    system = f if isinstance(f, LinearSystem) else None
    net, width = (f, f.output_dim) if system is None \
        else (system.controller, system.dim)
    if dirs.shape[1:] != (width,):
        raise ValueError(f"direction shape {dirs.shape[1:]} != ({width},)")
    out = dirs if system is None else lip._rows_times(dirs, system.B)
    last = net.layers[-1]
    # one-row output layers: weights (k, 1, h) and biases (k, 1)
    weight = _checked_stack(out[:, None, :] @ last.weight, "weight")
    bias = _checked_stack(out[:, None, :] @ last.bias, "bias")
    linear, offset = None, np.zeros(len(dirs))
    if system is not None:
        linear = _checked_stack(lip._rows_times(dirs, system.A),
                                "linear term")
        offset = _checked_stack(
            lip._rows_times(dirs, system.drift[:, None])[:, 0], "offset")
    hidden = net.layers[:-1]
    if zono is not None:
        G, x_c = _affine_map(zono.G, zono.center, net.input_dim)
        if hidden:
            first = hidden[0]
            hidden = (Layer(*_compose_affine(first.weight, first.bias, G,
                                             x_c), first.activation),) \
                + hidden[1:]
        else:
            weight, bias = _compose_affine(weight, bias, G, x_c)
            weight = _checked_stack(weight, "weight")
            bias = _checked_stack(bias, "bias")
        if linear is not None:
            shifted = offset + lip._rows_times(linear, x_c[:, None])[:, 0]
            linear = _checked_stack(lip._rows_times(linear, G),
                                    "linear term")
            offset = _checked_stack(shifted, "offset")
    return [_unchecked(ScalarObjective,
                       net=_unchecked(Network, layers=hidden + (_unchecked(
                           Layer, weight=weight[i], bias=bias[i],
                           activation=None),)),
                       linear=None if linear is None else linear[i],
                       offset=c)
            for i, c in enumerate(offset.tolist())]


def _support_polytope(dirs, input_set, cfg, f):
    """One face per row c of dirs, offset by the solve of sup c . f over the
    input set, a zonotope solved over its latent unit box, where ``f`` is a
    network or the step map of a ``LinearSystem``.  All directions'
    objectives come from one ``_face_objectives`` stack and form one
    lockstep group, so the first solve runs them all with one stacked bound
    pass per round, in which a box that several directions carry gets its
    box-level certificates, which do not depend on c, once.  Each result is
    that of solving its direction alone, and fills the polytope's ``flagged``
    and ``unconverged``; an exception of a solve propagates."""
    box = input_set
    zono = None
    if isinstance(input_set, Zonotope):
        zono = input_set
        m = input_set.G.shape[1]
        box = Box(-np.ones(m), np.ones(m))
    objectives = _face_objectives(dirs, f, zono)
    lockstep = bnb.Lockstep(objectives)
    results = [bnb.solve(objective, box.lo, box.hi, cfg=cfg,
                         lockstep=lockstep) for objective in objectives]
    offsets = np.array([res.ub for res in results])
    lbs = np.array([res.lb for res in results])
    flagged = tuple(i for i, res in enumerate(results) if res.flagged_nodes)
    unconverged = tuple(i for i, res in enumerate(results)
                        if res.status != "Converged")
    return Polytope(dirs.copy(), offsets, lbs, flagged, unconverged), results


def reach_polytope(net, input_set, template, eps_t, cfg=None):
    """Sound polyhedral over-approximation of {f(x) : x in the input set}."""
    if template.count == 0:
        raise ValueError("direction template is empty")
    cfg = replace(cfg or bnb.BnBConfig(), eps_t=eps_t)
    return _support_polytope(template.directions, input_set, cfg, net)


@dataclass(frozen=True)
class LinearSystem:
    """x+ = A x + B pi(x) + drift."""

    A: np.ndarray
    B: np.ndarray
    controller: Network
    horizon: int
    drift: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"state matrix must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape != (n, self.controller.output_dim):
            raise ValueError("input matrix incompatible with controller "
                             f"outputs: shape {B.shape}, expected "
                             f"{(n, self.controller.output_dim)}")
        if self.controller.input_dim != n:
            raise ValueError("controller input must match state dimension")
        drift = np.zeros(n) if self.drift is None else \
            np.asarray(self.drift, dtype=float)
        if drift.shape != (n,):
            raise ValueError("drift must be a state-sized vector")
        require_finite(A, "system A")
        require_finite(B, "system B")
        require_finite(drift, "system drift")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "drift", drift)

    @property
    def dim(self):
        return self.A.shape[0]

    def step_map(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = xs @ self.A.T
        out += self.controller.forward(xs) @ self.B.T
        out += self.drift
        return out

    def step_objective(self, c):
        """Scalar objective x -> c . (A x + B pi(x) + drift): the one-row
        case of the faces that ``closed_loop_step`` builds."""
        c = np.asarray(c, dtype=float)
        objective, = _face_objectives(c[None], self)
        return objective


def simulate(sys, x0s, steps):
    """Trajectory cloud: array of shape (steps+1, N, n_x)."""
    xs = np.atleast_2d(np.asarray(x0s, dtype=float))
    out = [xs]
    for _ in range(steps):
        xs = sys.step_map(xs)
        out.append(xs)
    return np.stack(out)


# a NaN or an inf in the Jacobian or in J G fails the check that follows
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rotation_from_linearization(sys, input_set):
    """Principal axes of the first-order image of the input set under the
    step map: the left singular vectors of J G, by decreasing singular value.
    G holds the set's generators (a box's are its half-widths on the
    diagonal), and J = A + B dpi/dx(c) is the step map's Jacobian at the
    set's center c, from one forward and one backward pass of the
    controller.  The basis is complete, so a G with fewer columns than
    states, or a rank-deficient J G, still gives an orthonormal rotation."""
    if isinstance(input_set, Box):
        center = (input_set.lo + input_set.hi) / 2.0
        G = np.diag((input_set.hi - input_set.lo) / 2.0)
    else:
        center, G = input_set.center, input_set.G
    net = sys.controller
    jac = net.layers[-1].weight
    if net.depth > 1:
        jac = _backward(net, net.preactivations(center), jac)
    JG = (sys.A + sys.B @ jac) @ G
    if not np.isfinite(JG).all():
        raise ValueError("the linearized step map J G of the input set has "
                         "non-finite entries (NaN or inf), so it gives no "
                         "axes for the PCA box")
    return np.linalg.svd(JG)[0]


def closed_loop_step(sys, input_set, template, eps_t, cfg=None,
                     next_rep="pca"):
    """One reachability step: polytope for the image of the step map, plus the
    propagated set.  With ``next_rep="hull"`` that set is the axis-aligned
    interval hull of the faces; with ``"pca"`` it is the box whose axes are
    the principal axes of the step map's first-order image of the input set
    (``_rotation_from_linearization``; no sampling), which cuts the wrapping
    effect of re-enclosing a rotated image in a box.  Any orthonormal axes
    are sound, since each face offset is a certified solve.  The faces +/- each
    column of the axes R (R = I for the hull) join the template's rows."""
    if input_set.dim != sys.dim:
        raise ValueError("input set dimension does not match the system")
    if template is not None and template.directions.shape[1] != sys.dim:
        raise ValueError(f"template {template.tag!r} has width "
                         f"{template.directions.shape[1]}, but the state "
                         f"dimension is {sys.dim}")
    cfg = replace(cfg or bnb.BnBConfig(), eps_t=eps_t)
    n = sys.dim
    if next_rep not in ("pca", "hull"):
        raise ValueError(f"unknown set representation {next_rep!r}")
    R = np.eye(n) if next_rep == "hull" \
        else _rotation_from_linearization(sys, input_set)
    rep_dirs = np.concatenate([R.T, -R.T], axis=0)

    if template is None:
        dirs = rep_dirs
    else:
        # drop template rows duplicating a propagation direction
        fresh = [c for c in template.directions
                 if np.abs(rep_dirs - c).max(axis=1).min() > 1e-12]
        dirs = np.concatenate([np.asarray(fresh).reshape(-1, n), rep_dirs],
                              axis=0)
    poly, _ = _support_polytope(dirs, input_set, cfg, sys)

    # slab extents along the rotation's columns give the propagated box
    offsets = poly.offsets
    k = rep_dirs.shape[0] // 2
    base = dirs.shape[0] - rep_dirs.shape[0]
    hi_t = offsets[base:base + k]
    lo_t = -offsets[base + k:base + 2 * k]
    mid = (lo_t + hi_t) / 2.0
    rad = (hi_t - lo_t) / 2.0
    if next_rep == "hull":
        return poly, Box(mid - rad, mid + rad)
    return poly, Zonotope(R * rad[None, :], R @ mid)


def whole_steps(steps, name):
    """``steps`` as an int if it is a whole number >= 1, else ValueError
    naming it ``name``.  A bool is refused, and so are inf and NaN, for
    which ``steps % 1`` is NaN, which is truthy."""
    if (not isinstance(steps, numbers.Real) or isinstance(steps, bool)
            or steps % 1 or steps < 1):
        raise ValueError(f"{name} must be a whole number >= 1 (at least one "
                         f"step), got {steps!r}")
    return int(steps)


def closed_loop_reach(sys, initial_set, template, eps_t, steps=None, cfg=None,
                      next_rep="pca", pca_samples=10_000, seed=0):
    """Iterate closed_loop_step, feeding the propagated set forward.
    ``pca_samples`` and ``seed`` are ignored: no step draws samples."""
    steps = whole_steps(sys.horizon if steps is None else steps, "steps")
    current = initial_set
    out = []
    for _ in range(steps):
        poly, current = closed_loop_step(sys, current, template, eps_t,
                                         cfg=cfg, next_rep=next_rep)
        out.append((poly, current))
    return out
