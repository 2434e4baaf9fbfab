"""Best-first branch and bound for sup of a scalar objective over a box.

Each node computes fresh localized Lipschitz and Hessian certificates for its
own sub-rectangle, reusing none from the root or its parent, and takes one
first-order bound over the box itself, the same at every depth, with the
zeroth-order bound (the ell_inf loop-transformed Lipschitz constant, with
``d = slope_hi / 2``, times half the longest edge) as its fallback.  The
first-order bound is the smallest of three bounds:

- the isotropic model with the spectral bound ``lam >= ||hess J||_2``;
- the interval Hessian's model: with the interval ``[H_lo, H_hi]`` over the
  box (``hessian.interval_hessian``) and half-edges ``r``, ``J(c) + sum |g_i|
  r_i + r^T A r / 2``, where ``A_ij = max(|H_lo,ij|, |H_hi,ij|)`` off the
  diagonal and ``A_ii = max(H_hi,ii, 0)``;
- the linear-relaxation bound (CROWN; Zhang et al., 2018), which needs no
  expansion point: each hidden unit's activation lies between two parallel
  lines over its IBP interval, and a backward pass from the output row
  carries a linear upper bound on the objective down to the input.

Both models peak at ``c + r * sign(g)``.  The interval is tighter on small
boxes, ``lam`` near the root of wide deep nets, and the linear bound on wide
boxes, where the models' quadratic terms grow; a net without a hidden layer
is linear, and the linear bound is exact there and taken alone.  The
interval rounds to nearest, as localization does.  ``lam = sum_l c_l^2
w_l`` is summed in full only for the boxes where its first term,
``||W_1||_2^2 w_1``, leaves the ``lam`` model below the interval model: the
model grows with ``lam``, so elsewhere the interval model wins whatever the
other terms, and their ell_2 subnetwork constants ``c_l`` are never
computed.  At one hidden layer the first term is all of ``lam``.  On the
shipped double-integrator and quadrotor runs no box needs them; the first
term reads ``||W_1||_2``, taken once per solve or lockstep run.

On a net with one hidden layer a box assembles the ``n x n`` interval
Hessian only where a floor of its model can beat the linear bound
(``_interval_floor``).

Once a stack is bounded, the monotonicity test of interval branch and bound
(Hansen and Walster, 2004; ``_Bounder._collapse``) examines each box that
assembled the interval Hessian and whose own gap ``ub - lb`` exceeds
``eps_t``, so a solve that converges at its root is never touched.  With
``g = grad J(c)``, half-edges ``r`` and ``|H| = max(|H_lo|, |H_hi|)``, the
derivative ``dJ/dx_i`` keeps the sign of ``g_i`` over the box where ``|g_i|
> (|H| r)_i`` (``_monotone``), and then the supremum lies on the face
``x_i = hi_i`` if ``g_i > 0``, else ``x_i = lo_i``.  The node moves onto the
face of each such axis: it takes the face's center and split axis, and the
better of J at the face's center and at ``x_iso`` clipped to the face as its
lower bound and witness, while its upper bound stays the full box's.  A face
that is a point is a point node, with ``lb = ub = J(point)``.  Later splits
never spend nodes on a collapsed axis.  Nothing is bounded again in the same
pass, and the zeroth-order ablation tests no box.

The zeroth-order bound is the fallback of a failed first-order
certificate.  A box keeps its first-order bound unless the linear bound, the
``lam`` model or the interval model is NaN or inf; only those boxes run the
ell_inf recursion, and take the smaller of the first-order bound and
``J(c) + L_inf * eps``.  No box of the shipped double-integrator and
quadrotor runs, nor of the seeded two-layer budget runs, needs it; without
first-order bounds (``use_first_order=False``) every box takes the
zeroth-order bound alone.  A net whose layer norms multiply to an inf
overflows the recursion, and one whose squared layer norms do overflows the
Hessian bounds (``lipschitz.check_curvature_chain``); either solve is
refused before any box is bounded.

Nodes are expanded best first, in order of largest upper bound: a node is
popped, its longest edge halved (the smallest axis on ties), both children
bounded, the best lower bound updated over them and those above it pushed; a
box too small to split is finalized.  Each node's split axis, or -1 for no
split, is decided where the node is bounded, in one step over its stack in
``_Bounder.bound``.  Each round pops up to ``_BATCH`` top nodes, as parallel
best-first search does (Gendron and Crainic, 1994), bounds the children of
those it splits in one stacked pass (``_halves``), and counts and numbers
every child in pass order, so ``branches_processed`` is the number of boxes
bounded.  A round holds at most as many nodes as were expanded before it, as
the budget leaves room for, and as stay above the termination gap, so short
solves stay sequential and a solve bounds at most ``max_branches + 1`` boxes.
The result is that of this batched loop: it can expand a node that the
one-node loop (``_BATCH = 1``) would have pruned or never reached, so its
bracket may differ from that loop's, and every bracket is sound.

Each child gets the bounds it would get alone, bit for bit, and never a
looser upper bound than its parent.  A node's box-level certificates
(localization, the Jacobian intervals of the interval Hessian and the
intercepts of the relaxation lines) read the box and the hidden layers only,
so within one stacked pass each distinct box gets them once, however many
directions carry it; the per-direction finish reads the output layer and the
linear term.  The few boxes that need the ell_inf Lipschitz constant or the
ell_2 subnetwork constants compute them row by row of the stack, with
nothing shared.  The objective is evaluated once per pass, with the hidden
layers run once and each box's output row and bias, linear term and offset
gathered by direction.  A point box, with no edge to split, is bounded in the
same pass and takes its center value as its upper bound.

One failure rule holds: a numerical failure (``_FAILURES``) anywhere in a
stack's certificate-and-model stage bounds the stack again one box at a
time, and a box that fails alone is flagged, with its parent's upper bound
and its center value as lower bound.  Every other exception propagates to
the caller with its own type, and so does any failed evaluation of the
objective at a point of a box, which leaves no finite bound to fall back
to; in a lockstep run it ends the run of every direction.

The directions of a ``Lockstep`` group, given when it is built, run in
lockstep.  The node loop is a generator, ``_search``, that yields each
round's stack of children and is sent their nodes; ``_lockstep`` runs one
search per direction of a ``_Bounder`` and concatenates the stacks of all
live searches into one ``_Bounder.bound`` pass, whose per-direction parts are
gathered by direction for each box, and a lone solve drives a list of one
search.  Each search still sees exactly the nodes it would bound alone.
"""

import heapq
import numbers
import time
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from . import hessian as hs
from . import lipschitz as lip
from . import localize as loc
from . import taylor
from .model import Network, ScalarObjective, act_value, prepend_affine

_PRUNE_SLACK = 1e-12
_DEGENERATE = 1e-13
# most nodes whose children share a pass.  At 32 the gaps of the seeded
# two-layer budget runs stay within 0.03% of the one-node loop's, where 64
# loosens them, and a pass's (2, B, h) endpoint stacks stay below glibc's
# default 128 KiB heap-trim threshold, which 64 reaches; 16 takes 68% more
# passes
_BATCH = 32
# numerical failures of a stack's certificate-and-model stage
_FAILURES = (np.linalg.LinAlgError, FloatingPointError)


@dataclass
class BnBConfig:
    eps_t: float = 1e-2
    max_branches: int = 1_000_000
    use_first_order: bool = True

    def __post_init__(self):
        # not > 0 also rejects NaN; inf stops at the root
        if not self.eps_t > 0.0:
            raise ValueError("termination gap eps_t must be positive, got "
                             f"{self.eps_t!r}")
        if (not isinstance(self.max_branches, numbers.Integral)
                or isinstance(self.max_branches, bool)
                or self.max_branches < 1):
            raise ValueError("max_branches must be an integer >= 1, got "
                             f"{self.max_branches!r}")


@dataclass(slots=True)
class BnBNode:
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    lb: float
    ub: float
    witness: np.ndarray
    index: int
    axis: int                          # split axis, -1 if too small to split
    flagged: bool = False


@dataclass
class BnBResult:
    lb: float
    ub: float
    witness: np.ndarray
    branches_processed: int            # boxes bounded, the root included
    max_active: int                    # most nodes on the heap after a round
    wall_time_s: float                 # from the start of its (lockstep) run
    # Converged; BranchLimit, the budget spent with nodes left; or
    # Exhausted, the heap emptied with the gap above eps_t, as when the
    # nodes left were all too small to split
    status: str
    flagged_nodes: int = 0


def _same_layers(a, b):
    """Bit-identical layer stacks."""
    return len(a) == len(b) and all(
        x is y or (x.activation is y.activation
                   and x.weight.shape == y.weight.shape
                   and x.weight.tobytes() == y.weight.tobytes()
                   and x.bias.tobytes() == y.bias.tobytes())
        for x, y in zip(a, b))


class Lockstep:
    """The directions ``objectives`` (``ScalarObjective``s sharing their
    hidden layers) of one input set, solved in lockstep.

    The first ``solve`` with the group runs the searches of all its
    directions together, over that solve's box and config: each round bounds
    the stacks of all live searches in one stacked pass, in which a box that
    several directions carry gets its box-level certificates once.  The group
    keeps each direction's result by position, and every ``solve`` with it
    returns its own direction's result; an exception that ends the run
    propagates out of the solve that runs it.  A solve of a direction
    outside the group, or over another box or with another config, raises
    ``ValueError``.  Each result is that of solving its direction alone, bit
    for bit.
    """

    def __init__(self, objectives):
        self.objs = list(objectives)
        self._key = self._results = None

    def _result(self, obj, lo, hi, cfg, start):
        """The result of solving ``obj`` over [lo, hi] with ``cfg``."""
        k = next((k for k, q in enumerate(self.objs) if q is obj), None)
        if k is None:
            raise ValueError("the direction is not in its lockstep group")
        key = (lo.tobytes(), hi.tobytes(), cfg)
        if self._results is None:
            self._results = _lockstep(_Bounder(self.objs, cfg), lo, hi, cfg,
                                      start)
            self._key = key
        elif key != self._key:
            raise ValueError("a lockstep group is solved over one box with "
                             "one config")
        return self._results[k]


@dataclass(slots=True)
class _BoxCertificate:
    """What the per-direction finish reads of a box's certificates.  It
    stands in for ``LocalBounds`` in the Hessian calls: the scalar bound reads
    ``slope_hi`` and ``curv_abs``, the interval Hessian the slope and
    curvature ranges and the Jacobian intervals ``jac_mid``, ``jac_rad`` of
    layers ``l >= 2``.  The linear-relaxation bound reads ``slope_lo``, the
    lines' slope, and the intercepts ``line_lo``, ``line_hi`` of the lines
    below and above each unit's activation.  Each field holds one entry per
    layer, and every entry has a leading axis over the boxes of the stack.
    Without first-order bounds the certificate is ``slope_hi`` alone, which
    the zeroth-order bound reads (``_full_l_inf``)."""

    slope_hi: tuple
    curv_lo: tuple = ()
    curv_hi: tuple = ()
    curv_abs: tuple = ()
    slope_lo: tuple = ()
    jac_mid: tuple = ()
    jac_rad: tuple = ()
    line_lo: tuple = ()
    line_hi: tuple = ()

    def rows(self, sel):
        """The certificate of the boxes that the index ``sel`` picks."""
        return _BoxCertificate(*(tuple(a[sel] for a in getattr(self, f.name))
                                 for f in fields(self)))


def _select(mask):
    """Index of the boxes that ``mask`` picks: a plain slice when it picks
    all of them, so that nothing is copied, and None when it picks none."""
    if mask.all():
        return slice(None)
    return np.flatnonzero(mask) if mask.any() else None


def _failed(bounds):
    """The boxes of a stack whose first-order bounds ``bounds``, one array
    per bound, are not all finite: those whose certificate failed
    numerically, which take the zeroth-order bound as fallback."""
    return ~np.isfinite(bounds).all(axis=0)


def _interval_quad(weights, cert, ad):
    """``(|d|^T A |d|, A, diag)`` of each box of a stack, from its interval
    Hessian ``[H_lo, H_hi]`` and ``ad = |d|``, where ``A_ij = max(|H_lo,ij|,
    |H_hi,ij|)`` off the diagonal and ``A_ii = max(H_hi,ii, 0)``: ``A``
    bounds ``|H_ij|`` off the diagonal and ``H_ii`` on it.  ``diag`` holds
    the ``max(|H_lo,ii|, |H_hi,ii|)`` that ``A_ii`` replaced, which the
    monotonicity test reads (``_Bounder._collapse``)."""
    h_lo, h_hi = hs._interval_hessian_raw(weights, cert.jac_mid, cert.jac_rad,
                                          cert)
    A = np.maximum(np.abs(h_lo), np.abs(h_hi))
    i = np.arange(A.shape[-1])
    diag = A[:, i, i]
    A[:, i, i] = np.maximum(h_hi[:, i, i], 0.0)
    return taylor._dot(ad, (A @ ad[..., None])[..., 0]), A, diag


def _monotone(g, s, r):
    """The monotone axes of each box ``center +- r`` of a stack, from its
    gradient ``g`` at the center and ``s = |H| r``, which bounds ``|dJ/dx_i
    - g_i|`` over the box: ``r_i > 0`` and ``|g_i|`` above ``s_i`` by a
    relative margin of 1e-12, so that ``dJ/dx_i`` keeps the sign of ``g_i``
    on the whole box."""
    ag = np.abs(g)
    return (r > 0.0) & (ag - s > 1e-12 * (ag + s))


def _split_axes(center, r):
    """``(eps, axes)`` of each box ``center +- r`` of a stack: its longest
    half-edge, and the axis to halve (the longest edge, the smallest axis on
    ties), or -1 where the longest edge, ``2 * eps``, does not exceed
    ``_DEGENERATE`` times the box's scale."""
    eps = r.max(axis=1)
    scale = np.max(np.abs(center), axis=1, initial=1.0)
    return eps, np.where(eps > _DEGENERATE / 2.0 * scale, r.argmax(axis=1),
                         -1)


def _interval_floor(abs_w1, sq_w1, v, cert, ad, base):
    """``(floor, slack)`` of the interval model ``base + |d|^T A |d| / 2``
    (``_interval_quad``) on a net with one hidden layer, for each box of a
    stack with output row ``v``, ``ad = |d|`` and ``base = J(c) + g.d``,
    from ``abs_w1 = |W_1|^T`` and ``sq_w1 = (W_1 o W_1)^T``.

    There the interval Hessian is ``sum_k t_k w_k w_k^T`` over the rows
    ``w_k`` of ``W_1``, with ``t_k`` in ``v_k [curv_lo_k, curv_hi_k]``; with
    that range's midpoint ``cm`` and radius ``cr``, its midpoint-radius form
    gives ``A_ij >= rad_ij`` off the diagonal and ``A_ii >= mid_ii + rad_ii``
    on it.  So ``|d|^T A |d| >= sum_k |v_k| cr_k p_k^2 + sum_k v_k cm_k q_k``
    with ``p = |W_1| |d|`` and ``q = (W_1 o W_1)(d o d)``, which costs two
    vector-matrix products per box in place of the ``n x n`` assembly.
    ``slack`` covers the rounding of the floor and of the assembled model,
    not that of the bound they are compared with: ``sum_k (|v_k cm_k| +
    |v_k| cr_k) p_k^2`` is at least the sum of the magnitudes that both
    round (``q_k <= p_k^2``).

    ``_Bounder._taylor_model`` assembles the model only for the boxes whose
    floor, less ``slack`` and the linear bound's rounding, does not beat the
    linear bound, NaN included; every other box takes its floor, which the
    node's ``fmin`` then never picks, so every bound is the assembled
    model's.  Deeper nets assemble every box: a floor there would read every
    layer's Jacobian intervals, and every box of the shipped closed loops
    takes the interval model, so it would be spent for nothing."""
    c_lo, c_hi = cert.curv_lo[0], cert.curv_hi[0]
    tm = v * ((c_lo + c_hi) / 2.0)
    tr = np.abs(v) * ((c_hi - c_lo) / 2.0)
    p = lip._rows_times(ad, abs_w1)
    pp = p * p
    rad = taylor._dot(tr, pp)
    quad = rad + taylor._dot(tm, lip._rows_times(ad * ad, sq_w1))
    scale = rad + taylor._dot(np.abs(tm), pp)
    return base + 0.5 * quad, 1e-9 * (np.abs(base) + 0.5 * scale)


def as_objective(obj_or_net):
    if isinstance(obj_or_net, ScalarObjective):
        return obj_or_net
    if isinstance(obj_or_net, Network):
        return ScalarObjective(obj_or_net)
    raise ValueError("expected a scalar Network or ScalarObjective")


def _halves(nodes, first):
    """The stack ``(lo, hi, index, parent_ub)`` of the two halves of each of
    ``nodes`` along its split axis, the lower half first: numbered from
    ``first`` in node order, the numbers they keep, and capped by their
    node's upper bound."""
    lo = np.array([node.lo for node in nodes]).repeat(2, axis=0)
    hi = np.array([node.hi for node in nodes]).repeat(2, axis=0)
    n = lo.shape[1]
    # the flat index of node k's split axis in row 2k, its lower half
    at = [2 * n * k + node.axis for k, node in enumerate(nodes)]
    mid = [node.center[node.axis] for node in nodes]   # (lo + hi) / 2
    hi.put(at, mid)
    lo.put([a + n for a in at], mid)
    return (lo, hi, np.arange(first, first + len(lo)),
            np.array([node.ub for node in nodes]).repeat(2))


class _Bounder:
    """Bound engine of one solve, or of the directions of one lockstep run.
    Every box gets fresh certificates of its own.  Box-level certificates
    read the hidden layers only, which the directions share; the
    per-direction parts (the output row and bias, the linear term and
    offset) are kept as stacks with one row per direction and gathered by
    direction for each box of a stack, in which one call evaluates the
    objective.  ``head2`` holds ``||W_1||_2``, which the first term of
    ``lam`` reads.  Direction i is ``objs[i]``."""

    def __init__(self, objs, cfg):
        self.objs = objs
        self.net = objs[0].net         # localization reads its hidden layers
        if any(not _same_layers(self.net.layers[:-1], obj.net.layers[:-1])
               or (obj.linear is None) != (objs[0].linear is None)
               for obj in objs):
            raise ValueError("directions solved in lockstep must share their "
                             "hidden layers, and all have a linear term or "
                             "none")
        self.cfg = cfg
        # the Hessian models need a hidden layer
        self.curved = self.net.depth >= 2 and cfg.use_first_order
        self.weights = [lay.weight for lay in self.net.layers]
        self.abs_hidden = [np.abs(w) for w in self.weights[:-1]]
        lasts = [obj.net.layers[-1] for obj in objs]
        self.rows = np.array([last.weight for last in lasts])
        self.bias = np.array([last.bias[None] for last in lasts])
        self.linear = None if objs[0].linear is None \
            else np.array([obj.linear for obj in objs])
        self.offset = np.array([[obj.offset] for obj in objs])
        lip.check_chain(self.weights[:-1] + [self.rows])
        if self.curved:
            lip.check_curvature_chain(self.weights[:-1] + [self.rows])
        # the first term of lam reads ||W_1||_2, which depends on neither
        # the box nor the direction
        self.head2 = lip._norm(self.weights[0], 2) if self.curved else None
        # with one hidden layer, |W_1|^T and (W_1 o W_1)^T, which the floor
        # of the interval model reads (_interval_floor)
        w = self.weights[0]
        self.floor_w = (np.ascontiguousarray(np.abs(w).T),
                        np.ascontiguousarray((w * w).T)) \
            if self.curved and self.net.depth == 2 else None

    def _stack(self, dirs):
        """The objectives of a stack's boxes as one ``ScalarObjective``
        stand-in, whose ``net`` the Hessian bounds read too: each box's output
        row and bias, linear term and offset, gathered by its direction."""
        last = SimpleNamespace(weight=self.rows[dirs], bias=self.bias[dirs],
                               activation=None)
        layers = self.net.layers[:-1] + (last,)
        net = SimpleNamespace(layers=layers, depth=len(layers), is_scalar=True)
        linear = None if self.linear is None else self.linear[dirs]
        return SimpleNamespace(net=net, linear=linear,
                               offset=self.offset[dirs])

    def _ds(self, slope_hi):
        return [b / 2.0 for b in slope_hi]

    def _certificate(self, lo, hi):
        """Box-level certificates of a stack of boxes, computed once for each
        distinct box.  Boxes are told apart by the exact bytes of their
        bounds; the boxes of one direction are distinct."""
        if len(self.objs) > 1:
            ids = {}
            inverse = [ids.setdefault(a.tobytes() + b.tobytes(), len(ids))
                       for a, b in zip(lo, hi)]
            if len(ids) < len(lo):
                _, first = np.unique(inverse, return_index=True)
                return self._fresh_certificate(lo[first],
                                               hi[first]).rows(inverse)
        return self._fresh_certificate(lo, hi)

    def _fresh_certificate(self, lo, hi):
        local = loc.bounds_for_box(self.net, lo, hi)
        slope_hi = local.slope_hi
        if not self.cfg.use_first_order:
            # the zeroth-order bound is the only one
            return _BoxCertificate(slope_hi)
        # sigma(z) - k z is nondecreasing on [l, u] for k = slope_lo, which
        # sigma' never falls below there, so sigma lies between the lines of
        # slope k through the interval's ends: below k z + sigma(u) - k u,
        # above k z + sigma(l) - k l
        line_lo, line_hi = [], []
        for lay, k, l, u in zip(self.net.layers, local.slope_lo, local.z_lo,
                                local.z_hi):
            at_l, at_u = act_value(lay.activation, np.array((l, u)))
            line_lo.append(at_l - k * l)
            line_hi.append(at_u - k * u)
        return _BoxCertificate(
            slope_hi, local.curv_lo, local.curv_hi, local.curv_abs,
            local.slope_lo,
            *hs._jacobian_intervals(self.weights, local.slope_lo, slope_hi),
            tuple(line_lo), tuple(line_hi))

    def _linear_bound(self, obj, cert, center, r):
        """The linear-relaxation bound of each box of a stack: from the
        output row, a backward pass bounds each hidden unit's activation by
        its line above where the unit's coefficient is positive, else by its
        line below, and carries the lines' slopes through the layer, so
        that ``J(x) <= a . x + const`` on the box; the bound is then
        ``const + a . c + |a| . r``.  ``obj`` is the stack's stand-in
        (``_stack``); every product is one per box."""
        net = obj.net
        a = net.layers[-1].weight[:, 0, :]
        const = net.layers[-1].bias[:, 0, 0] + obj.offset[:, 0]
        for l in range(len(self.weights) - 2, -1, -1):
            const = const + taylor._dot(
                a, np.where(a > 0.0, cert.line_hi[l], cert.line_lo[l]))
            a = a * cert.slope_lo[l]
            const = const + taylor._dot(a, net.layers[l].bias)
            a = lip._rows_times(a, self.weights[l])
        if obj.linear is not None:
            a = a + obj.linear
        return const + taylor._dot(a, center) + taylor._dot(np.abs(a), r)

    def _taylor_model(self, net, cert, value_c, grad_c, x_iso, center, linear):
        """The Taylor-model bounds ``(lam model, interval model)`` of each
        box of a stack on a net with a hidden layer: the isotropic model with
        the spectral bound ``lam >= ||hess J||_2`` and the interval Hessian's
        model, both at their maximizer ``x_iso``.  ``lam`` is summed in full
        only for the boxes where its first term ``c_1^2 w_1``, which is at
        most ``lam``, leaves the ``lam`` model below the interval model, and
        elsewhere the ``lam`` model is its first term's; at one hidden layer
        the first term is all of ``lam``.  ``net`` is the network of the
        stack's stand-in (``_stack``).

        ``linear`` holds the stack's linear-relaxation bounds; at one hidden
        layer only the boxes whose interval model can beat them assemble it
        (``_interval_floor``).  The third entry returned is ``(rows, A,
        diag)`` of ``_interval_quad`` for the boxes that assembled it, which
        the index ``rows`` picks, or None where none did."""
        weights = self.weights[:-1] + [net.layers[-1].weight]
        # only the subnetwork constants of the report are read: ||W_1||_2,
        # one for all boxes, and zeros, which leave the first term of lam
        report = lip.LipschitzReport(
            0.0, (self.head2,) + (0.0,) * (len(weights) - 2), 2)
        jac = lip._jacobian_rows(self.abs_hidden + [np.abs(weights[-1])],
                                 cert.slope_hi)
        spectral = hs.hessian_norm_bound(net, cert, report, jac)
        # the interval Hessian's model, J(c) + g.d + |d|^T A |d| / 2 with
        # d = x_iso - c, which is J(c) + sum |g_i| r_i + r^T A r / 2
        d = x_iso - center
        ad = np.abs(d)
        base = value_c + taylor._dot(grad_c, d)
        if self.floor_w is None:
            quad, *hess = _interval_quad(weights, cert, ad)
            ub2 = base + 0.5 * quad
            hess = (slice(None), *hess)
        else:
            ub2, slack = _interval_floor(*self.floor_w, weights[-1][:, 0, :],
                                         cert, ad, base)
            sel = _select(~(ub2 - (slack + 1e-9 * np.abs(linear)) >= linear))
            hess = None
            if sel is not None:
                quad, *hess = _interval_quad([weights[0], weights[-1][sel]],
                                             cert.rows(sel), ad[sel])
                ub2[sel] = base[sel] + 0.5 * quad
                hess = (sel, *hess)
        ub1 = taylor._model_value(value_c, grad_c, spectral.lam, x_iso, center)
        # the model grows with lam: where its first term already reaches
        # ub2, so does the full lam, and ub2 wins.  Elsewhere, NaN included,
        # the full lam's model is taken
        full = _select(~(ub1 >= ub2)) if len(weights) > 2 else None
        if full is not None:
            lam = self._full_lam([s[full] for s in cert.slope_hi],
                                 [w[full] for w in spectral.terms])
            ub1[full] = taylor._model_value(value_c[full], grad_c[full], lam,
                                            x_iso[full], center[full])
        return ub1, ub2, hess

    def _full_l_inf(self, slope_hi, obj):
        """The ell_inf Lipschitz constant L_inf of each box of a stack from
        its slopes, with the linear term's dual norm; ``obj`` is the stack's
        stand-in (``_stack``)."""
        weights = self.weights[:-1] + [obj.net.layers[-1].weight]
        l_inf = lip._total_raw(weights, slope_hi, self._ds(slope_hi), np.inf)
        if obj.linear is None:
            return l_inf
        return l_inf + np.abs(obj.linear).sum(axis=1)

    def _full_lam(self, slope_hi, terms):
        """The spectral bound lam of a stack of boxes, from their slopes and
        the per-layer factors ``terms`` of ``hessian_norm_bound``."""
        return hs._spectral_sum(
            lip._report_raw(self.weights, slope_hi, self._ds(slope_hi), 2),
            terms)

    def _one_by_one(self, lo, hi, index, parent_ub, dirs):
        """``bound`` on each box of a stack as a stack of one."""
        return [node for k in range(len(lo))
                for node in self.bound(lo[k:k + 1], hi[k:k + 1],
                                       index[k:k + 1], parent_ub[k:k + 1],
                                       dirs[k:k + 1])]

    def bound(self, lo, hi, index, parent_ub, dirs):
        """Bound each box of the stack ``lo``, ``hi`` (shape ``(B, n)``) and
        return its ``B`` nodes, with fresh certificates for every box.
        ``index``, ``parent_ub`` and ``dirs`` hold one entry per box: its
        node number, the cap on its upper bound and its direction.

        The objective is evaluated on the whole stack at once (``_stack``).
        Each box gets the bounds it would get alone, bit for bit; a point
        box's upper bound is its center value.  A stack whose certificates
        or model bounds fail numerically is bounded one box at a time, so
        only a failing box is flagged."""
        center = (lo + hi) / 2.0
        r = (hi - lo) / 2.0            # half-edges; a box is center +- r
        eps, axes = _split_axes(center, r)
        obj = self._stack(dirs)
        value_c, grad_c = ScalarObjective.value_and_grad(obj, center)
        first_order = self.cfg.use_first_order
        hess = None
        try:
            cert = self._certificate(lo, hi)

            def zeroth(sel):
                """The zeroth-order bound J(c) + L_inf * eps of the boxes
                that the index ``sel`` picks."""
                l_inf = self._full_l_inf([s[sel] for s in cert.slope_hi],
                                         self._stack(dirs[sel]))
                return value_c[sel] + l_inf * eps[sel]

            if first_order:
                # the isotropic model's maximizer over the box itself: the
                # segment from the center to any point of the box stays in
                # the box, on which lam is certified.  Expanded at the
                # center, it is c + r * sign(g) whatever lam
                x_iso = taylor.optimal_perturbation(center, r, np.inf, grad_c,
                                                    0.0, center)
                bounds = [self._linear_bound(obj, cert, center, r)]
                ub = bounds[0]
                if self.curved:
                    *models, hess = self._taylor_model(obj.net, cert, value_c,
                                                       grad_c, x_iso, center,
                                                       ub)
                    bounds += models
                    # an overflowed bound (NaN) leaves the others
                    ub = np.fmin(ub, np.fmin(bounds[1], bounds[2]))
                # the zeroth-order bound is the fallback of the boxes whose
                # first-order certificate failed numerically
                failed = _select(_failed(bounds))
                if failed is not None:
                    ub[failed] = np.fmin(ub[failed], zeroth(failed))
            else:
                ub = zeroth(slice(None))
        except _FAILURES:
            if len(lo) > 1:
                return self._one_by_one(lo, hi, index, parent_ub, dirs)
            # sound fallback: inherit the parent's upper bound, keep the
            # center evaluation as the lower bound
            return [BnBNode(lo[0], hi[0], center[0], float(value_c[0]),
                            parent_ub.item(), center[0], int(index[0]),
                            int(axes[0]), flagged=True)]
        # a point box holds its center alone, where J is known exactly
        ub = np.where(eps > 0.0, ub, value_c)
        lb, witness = value_c, center
        if first_order:
            # the lower-bound candidate: the isotropic maximizer, clipped to
            # its box and evaluated exactly, one row per box
            cand = np.clip(x_iso, lo, hi)[:, None, :]
            vals = ScalarObjective.value(obj, cand)[:, 0]
            up = vals > lb
            lb = np.where(up, vals, lb)
            witness = np.where(up[:, None], cand[:, 0], witness)
        ub = np.maximum(np.minimum(ub, parent_ub), lb)
        if hess is not None:
            lo, hi, center, lb, ub, witness = self._collapse(
                hess, dirs, lo, hi, center, r, grad_c, x_iso, lb, ub,
                witness, axes)
        return [BnBNode(*row) for row in zip(
            list(lo), list(hi), list(center), lb.tolist(), ub.tolist(),
            list(witness), index.tolist(), axes.tolist())]

    def _collapse(self, hess, dirs, lo, hi, center, r, grad_c, x_iso, lb, ub,
                  witness, axes):
        """The monotonicity test, and the faces it moves boxes onto.  Only
        the boxes that assembled the interval Hessian (``hess``, from
        ``_taylor_model``) and whose own gap ``ub - lb`` exceeds ``eps_t``
        are tested.  On such a box ``|dJ/dx_i(x) - g_i| <= s_i`` with ``g =
        grad J(c)`` and ``s = |H| r``, ``|H| = max(|H_lo|, |H_hi|)`` diagonal
        included, so axis ``i`` is monotone where ``r_i > 0`` and ``|g_i| -
        s_i > 1e-12 (|g_i| + s_i)``: the supremum over the box lies on its
        face ``x_i = hi_i`` where ``g_i > 0``, else ``x_i = lo_i``.

        A box with monotone axes becomes that face, with the face's center
        and split axis (``axes`` is updated in place).  Its lower bound and
        witness are the better of J at the face's center and J at ``x_iso``
        clipped to the face; its upper bound stays the full box's, and a face
        that is a point takes ``lb = ub = J(point)``.  Returns ``(lo, hi,
        center, lb, ub, witness)``, with every other box's rows unchanged."""
        rows, A, diag = hess
        pos = np.flatnonzero(ub[rows] - lb[rows] > self.cfg.eps_t)
        if not len(pos):
            return lo, hi, center, lb, ub, witness
        q = np.arange(len(lb))[rows][pos]
        H = A[pos]
        i = np.arange(H.shape[-1])
        H[:, i, i] = diag[pos]
        g = grad_c[q]
        mono = _monotone(g, (H @ r[q][..., None])[..., 0], r[q])
        hit = mono.any(axis=1)
        if not hit.any():
            return lo, hi, center, lb, ub, witness
        q, mono, g = q[hit], mono[hit], g[hit]
        lo_f = np.where(mono & (g > 0.0), hi[q], lo[q])
        hi_f = np.where(mono & (g < 0.0), lo[q], hi[q])
        c_f = (lo_f + hi_f) / 2.0
        eps_f, axes[q] = _split_axes(c_f, (hi_f - lo_f) / 2.0)
        # J at the face's centers, then at its clipped candidates, each
        # point a row of its own
        cand = np.clip(x_iso[q], lo_f, hi_f)
        vals = ScalarObjective.value(self._stack(np.tile(dirs[q], 2)),
                                     np.concatenate((c_f, cand))[:, None, :])
        v_c, v_x = vals[:len(q), 0], vals[len(q):, 0]
        up = v_x > v_c
        lb_f = np.where(up, v_x, v_c)
        lo, hi = lo.copy(), hi.copy()
        lo[q], hi[q], center[q] = lo_f, hi_f, c_f
        witness[q] = np.where(up[:, None], cand, c_f)
        ub[q] = np.where(eps_f > 0.0, np.maximum(ub[q], lb_f), lb_f)
        lb[q] = lb_f
        return lo, hi, center, lb, ub, witness


def solve(obj_or_net, lo, hi, eps_t=None, cfg=None, lockstep=None):
    """Branch and bound over the box [lo, hi] until ub - lb <= eps_t.

    ``lockstep`` (internal) is a ``Lockstep`` group that holds the direction;
    it changes no result.  The group's first solve runs all its directions in
    lockstep, and each solve returns its own direction's result; its
    ``wall_time_s`` runs from the start of that lockstep run to the end of its
    own search.  A numerical failure of a box's certificates or model bounds
    flags that box (``BnBResult.flagged_nodes``); every other exception
    propagates."""
    obj = as_objective(obj_or_net)
    cfg = cfg or BnBConfig()
    if eps_t is not None:
        cfg = replace(cfg, eps_t=eps_t)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (obj.input_dim,) or hi.shape != (obj.input_dim,):
        raise ValueError(f"box dimension must be ({obj.input_dim},)")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box bounds must be finite")
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")

    start = time.perf_counter()
    if lockstep is None:
        result, = _lockstep(_Bounder([obj], cfg), lo, hi, cfg, start)
        return result
    return lockstep._result(obj, lo, hi, cfg, start)


def _pass(bounder, dirs, asks):
    """Bound the stacks ``asks`` of the searches of directions ``dirs`` in
    one stacked pass; returns each stack's nodes."""
    counts = [len(ask[0]) for ask in asks]
    nodes = bounder.bound(*(np.concatenate(part) for part in zip(*asks)),
                          np.repeat(dirs, counts))
    cuts = np.cumsum([0] + counts).tolist()
    return [nodes[a:b] for a, b in zip(cuts, cuts[1:])]


def _lockstep(bounder, lo, hi, cfg, start):
    """One search over [lo, hi] per direction of ``bounder``, run together:
    each round bounds the stacks of all live searches in one stacked pass.
    Returns each search's ``BnBResult``."""
    searches = [_search(lo, hi, cfg, start) for _ in bounder.objs]
    asks = {i: next(search) for i, search in enumerate(searches)}
    results = [None] * len(searches)
    while asks:
        live = list(asks)
        replies = _pass(bounder, live, [asks[i] for i in live])
        for i, nodes in zip(live, replies):
            try:
                asks[i] = searches[i].send(nodes)
            except StopIteration as stop:
                results[i] = stop.value
                del asks[i]
    return results


def _search(lo, hi, cfg, start):
    """The node loop of one solve over [lo, hi], as a generator.  It yields
    each stack of boxes to bound as ``(lo, hi, index, parent_ub)``, with one
    node number and one parent upper bound per box, is sent the stack's
    nodes, and returns the ``BnBResult``."""
    root, = yield lo[None], hi[None], np.arange(1), np.full(1, np.inf)
    best_lb = root.lb
    witness = root.witness
    heap = [(-root.ub, root.index, root)]
    finalized_ub = -np.inf
    branches = 1                       # nodes bounded, and the next number
    max_active = 1
    expanded = 0
    flagged = 1 if root.flagged else 0
    while True:
        top_ub = heap[0][2].ub if heap else -np.inf
        if max(top_ub, finalized_ub, best_lb) - best_lb <= cfg.eps_t:
            status = "Converged"
            break
        if not heap:
            status = "Exhausted"
            break
        if branches >= cfg.max_branches:
            status = "BranchLimit"
            break
        # pop the top nodes, at most as many as were expanded before and as
        # the budget leaves room for, stopping at one the gap already meets
        size = min(_BATCH, max(expanded, 1),
                   (cfg.max_branches - branches + 1) // 2)
        batch = []
        while heap and len(batch) < size:
            if batch and heap[0][2].ub - best_lb <= cfg.eps_t:
                break
            batch.append(heapq.heappop(heap)[2])
        expanded += len(batch)
        split = []
        for node in batch:
            if node.axis < 0:
                finalized_ub = max(finalized_ub, node.ub)
            else:
                split.append(node)
        if not split:
            continue
        children = yield _halves(split, branches)
        branches += len(children)
        for child in children:
            flagged += child.flagged
            if child.lb > best_lb:
                best_lb = child.lb
                witness = child.witness
        for child in children:
            if child.ub > best_lb - _PRUNE_SLACK:
                heapq.heappush(heap, (-child.ub, child.index, child))
        max_active = max(max_active, len(heap))

    cur_ub = max(heap[0][2].ub if heap else -np.inf, finalized_ub, best_lb)
    return BnBResult(best_lb, cur_ub, witness, branches, max_active,
                     time.perf_counter() - start, status, flagged)


def latent_objective(obj, G, x_c):
    """``obj`` composed with z -> G z + x_c, an objective over the latent
    unit box."""
    G = np.asarray(G, dtype=float)
    x_c = np.asarray(x_c, dtype=float)
    net = prepend_affine(obj.net, G, x_c)
    linear = None
    offset = obj.offset
    if obj.linear is not None:
        linear = G.T @ obj.linear
        offset = offset + float(obj.linear @ x_c)
    return ScalarObjective(net, linear, offset)


def solve_zonotope(obj_or_net, G, x_c, eps_t=None, cfg=None):
    """sup over the zonotope {G z + x_c : ||z||_inf <= 1} by solving the
    composed objective over the latent unit box."""
    m = np.shape(G)[1]
    return solve(latent_objective(as_objective(obj_or_net), G, x_c),
                 -np.ones(m), np.ones(m), eps_t=eps_t, cfg=cfg)
