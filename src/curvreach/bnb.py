"""Best-first branch and bound for sup of a scalar objective over a box.

Each node computes localized Lipschitz and Hessian certificates for its
sub-rectangle and takes the better of the zeroth-order bound (the ell_inf
loop-transformed Lipschitz constant, with ``d = slope_hi / 2``, times half
the longest edge) and one first-order model bound over the box itself: the
exact vertex maximum when the Hessian upper bound is a PSD matrix (one hidden
layer, at most ``_VERTEX_CAP`` inputs), else the exact maximum of the
isotropic model over the box, with a matrix bound also the dual bound over
the ell_2 ball of radius ``||(hi - lo)/2||_2`` when smaller.  Nodes are
expanded in order of largest upper bound, one at a time: each step pops one
node, halves its longest edge, bounds the two children, updates the best
lower bound over both and pushes them.  Children never report a looser upper
bound than their parent.

A node's certificates split into a box-level part (localization, the ell_inf
internal Lipschitz memo and the ell_2 subnetwork constants), which depends on
the box and the hidden layers only, and a per-direction finish that reads the
output layer and the linear term.  Solves of several directions over one input
set may share the box-level part through a ``BoxCertificates`` store.
"""

import heapq
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import hessian as hs
from . import lipschitz as lip
from . import localize as loc
from . import taylor
from .model import Network, ScalarObjective, prepend_affine

_PRUNE_SLACK = 1e-12
_DEGENERATE = 1e-13
_VERTEX_CAP = 12                       # vertex enumeration up to this dimension
_CERT_CAP = 1024                       # box certificates kept per store


@dataclass
class BnBConfig:
    eps_t: float = 1e-2
    max_branches: int = 1_000_000
    recompute_local: bool = True       # fresh certificates per node vs root reuse
    use_first_order: bool = True
    collect_stats: bool = False


@dataclass
class BnBNode:
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    lb: float
    ub: float
    witness: np.ndarray
    index: int
    flagged: bool = False
    first_won: bool = False


@dataclass
class BnBResult:
    lb: float
    ub: float
    witness: np.ndarray
    branches_processed: int
    max_active: int
    wall_time_s: float
    status: str                        # Converged | BranchLimit
    flagged_nodes: int = 0
    stats: list = field(default_factory=list)


class StoreMismatchError(ValueError):
    """A certificate store was handed to a solve it cannot serve soundly."""


def _same_layers(a, b):
    """Bit-identical layer stacks."""
    return len(a) == len(b) and all(
        x is y or (x.activation is y.activation
                   and x.weight.shape == y.weight.shape
                   and x.weight.tobytes() == y.weight.tobytes()
                   and x.bias.tobytes() == y.bias.tobytes())
        for x, y in zip(a, b))


class BoxCertificates:
    """Box-level certificates shared by the solves of one input set.

    Entries are keyed by the exact bytes of a box and are valid only for the
    hidden layers and the ``use_first_order`` they were computed with; the
    first solve fixes these, and a later solve that differs raises
    ``StoreMismatchError``.  At most ``_CERT_CAP`` entries are kept; the
    oldest goes first.
    """

    def __init__(self):
        self.entries = {}
        self._owner = None

    def bind(self, net, cfg):
        """Fix the owner on first use; refuse any other owner after that."""
        hidden = net.layers[:-1]
        if self._owner is None:
            self._owner = (hidden, cfg.use_first_order)
            return
        if self._owner[1] != cfg.use_first_order:
            raise StoreMismatchError(
                "certificate store was filled with use_first_order = "
                f"{self._owner[1]}, not {cfg.use_first_order}")
        if not _same_layers(self._owner[0], hidden):
            raise StoreMismatchError(
                "certificate store was filled for different hidden layers")

    def put(self, key, cert):
        if len(self.entries) >= _CERT_CAP:
            del self.entries[next(iter(self.entries))]
        self.entries[key] = cert


@dataclass(slots=True)
class _BoxCertificate:
    """What the per-direction finish reads of a box's certificates.  It
    stands in for ``LocalBounds`` in the Hessian calls: the scalar bound reads
    ``slope_hi`` and ``curv_abs``, the two-layer matrices ``curv_lo`` and
    ``curv_hi``."""

    slope_hi: tuple
    memo: list                         # ell_inf internal Lipschitz memo
    curv_lo: tuple = ()
    curv_hi: tuple = ()
    curv_abs: tuple = ()
    subnet2: tuple = ()


def as_objective(obj_or_net):
    if isinstance(obj_or_net, ScalarObjective):
        return obj_or_net
    if isinstance(obj_or_net, Network):
        return ScalarObjective(obj_or_net)
    raise ValueError("expected a scalar Network or ScalarObjective")


def maxlen_axis(lo, hi):
    """Longest-edge axis, smallest index on ties."""
    return int(np.argmax(hi - lo))


def split_box(lo, hi, axis):
    mid = (lo[axis] + hi[axis]) / 2.0
    hi_l = hi.copy()
    hi_l[axis] = mid
    lo_r = lo.copy()
    lo_r[axis] = mid
    return (lo.copy(), hi_l), (lo_r, hi.copy())


class _Bounder:
    """Per-solve bound engine; caches root certificates when configured and
    takes box-level certificates from ``certs`` when given one."""

    def __init__(self, obj, cfg, certs=None):
        self.obj = obj
        self.net = obj.net
        self.cfg = cfg
        self.certs = certs
        if certs is not None:
            certs.bind(self.net, cfg)
        self.lin_inf = obj.linear_dual_norm(np.inf)
        self.two_layer = self.net.depth == 2 and cfg.use_first_order
        self.weights = [lay.weight for lay in self.net.layers]
        self.abs_weights = [np.abs(w) for w in self.weights]
        # the ell_inf total stage opens with ||W_L||, the ell_2 subnetwork
        # stages with ||W_1|| .. ||W_{L-1}||; none depends on the box
        self.head_inf = lip._norm(self.weights[-1], np.inf)
        self.heads2 = (lip._head_norms(self.weights, 2)
                       if cfg.use_first_order and not self.two_layer else None)
        self.root_consts = None

    def _ds(self, slope_hi):
        return [b / 2.0 for b in slope_hi]

    def _certificate(self, lo, hi):
        """Box-level certificates on [lo, hi], from the store when it has them."""
        if self.certs is not None:
            key = lo.tobytes() + hi.tobytes()
            cert = self.certs.entries.get(key)
            if cert is not None:
                return cert
        local = loc.bounds_for_box(self.net, lo, hi)
        slope_hi = local.slope_hi
        ds = self._ds(slope_hi)
        cert = _BoxCertificate(
            slope_hi, lip._memo_raw(self.weights, slope_hi, ds, np.inf))
        if self.two_layer:
            cert.curv_lo, cert.curv_hi = local.curv_lo, local.curv_hi
        elif self.cfg.use_first_order:
            cert.curv_abs = local.curv_abs
            cert.subnet2 = lip._report_raw(self.weights, slope_hi, ds, 2,
                                           self.heads2)
        if self.certs is not None:
            self.certs.put(key, cert)
        return cert

    def _constants(self, lo, hi):
        """(L_inf, hessian bound) certified on the box [lo, hi]."""
        cert = self._certificate(lo, hi)
        slope_hi = cert.slope_hi
        l_inf = lip._total_raw(self.weights, slope_hi, self._ds(slope_hi),
                               np.inf, cert.memo, self.head_inf) + self.lin_inf
        if not self.cfg.use_first_order:
            return l_inf, None
        if self.two_layer:
            return l_inf, hs.two_layer_matrix_bounds(self.net, cert)
        jac = lip._jacobian_rows(self.abs_weights, slope_hi)
        report = lip.LipschitzReport(0.0, cert.subnet2, 2)
        return l_inf, hs.hessian_norm_bound(self.net, cert, report, jac)

    def bound(self, lo, hi, index, parent_ub=np.inf):
        cfg = self.cfg
        center = (lo + hi) / 2.0
        r = (hi - lo) / 2.0            # half-edges; the box is center +- r
        eps = float(r.max())
        value_c, grad_c = self.obj.value_and_grad(center)
        flagged = False
        if eps <= 0.0:
            return BnBNode(lo, hi, center, value_c, min(value_c, parent_ub),
                           center, index)
        if cfg.recompute_local or self.root_consts is None:
            try:
                consts = self._constants(lo, hi)
            except (taylor.DualBisectionError, np.linalg.LinAlgError,
                    FloatingPointError):
                # sound fallback: inherit the parent's upper bound, keep the
                # center evaluation as the lower bound
                return BnBNode(lo, hi, center, value_c, parent_ub, center,
                               index, flagged=True)
            if self.root_consts is None:
                self.root_consts = consts
        else:
            consts = self.root_consts
        l_inf, hess = consts

        ub0 = value_c + l_inf * eps
        ub = ub0
        first_won = False
        candidates = []
        if cfg.use_first_order and hess is not None:
            n = center.shape[0]
            matrix = isinstance(hess, hs.MatrixHessianBound)
            if matrix:
                eig = np.linalg.eigvalsh(hess.M)
                lam = max(float(eig[-1]), 0.0)
            else:
                lam = hess.lam
            # the isotropic model's maximizer over the box itself: the
            # segment from the center to any point of the box stays in the
            # box, on which lam is certified
            x_iso = taylor.optimal_perturbation(center, r, np.inf, grad_c,
                                                lam, center)
            candidates.append(x_iso)
            if matrix and float(eig[0]) >= -1e-9 and n <= _VERTEX_CAP:
                # convex model: exact at a vertex, never above the others
                v, vert = taylor.vertex_upper(grad_c, hess.M, lo, hi, center,
                                              return_witness=True)
                ub1 = value_c + v
                candidates.append(vert)
            else:
                ub1 = taylor._model_value(value_c, grad_c, lam, x_iso, center)
                if matrix:
                    try:
                        ub1 = min(ub1, value_c + taylor.two_layer_dual_upper(
                            grad_c, hess.M, float(np.linalg.norm(r)), p=2))
                    except taylor.DualBisectionError:
                        flagged = True
            first_won = ub1 < ub0
            ub = min(ub0, ub1)

        lb = value_c
        witness = center
        if candidates:
            pts = np.clip(np.stack(candidates), lo, hi)
            vals = self.obj.value(pts)
            k = int(np.argmax(vals))
            if float(vals[k]) > lb:
                lb = float(vals[k])
                witness = pts[k]
        ub = min(ub, parent_ub)
        ub = max(ub, lb)
        return BnBNode(lo, hi, center, lb, ub, witness, index,
                       flagged=flagged, first_won=first_won)


def solve(obj_or_net, lo, hi, eps_t=None, cfg=None, certs=None):
    """Branch and bound over the box [lo, hi] until ub - lb <= eps_t.

    ``certs`` (internal) is a ``BoxCertificates`` store shared with other
    solves over the same box and hidden layers; it changes no result."""
    obj = as_objective(obj_or_net)
    cfg = cfg or BnBConfig()
    if eps_t is not None:
        cfg = replace(cfg, eps_t=eps_t)
    if not cfg.eps_t > 0.0:
        raise ValueError("termination gap must be positive")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (obj.input_dim,) or hi.shape != (obj.input_dim,):
        raise ValueError(f"box dimension must be ({obj.input_dim},)")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box bounds must be finite")
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")

    start = time.perf_counter()
    bounder = _Bounder(obj, cfg, certs)
    root = bounder.bound(lo, hi, 0)
    best_lb = root.lb
    witness = root.witness
    heap = [(-root.ub, root.index, root)]
    finalized_ub = -np.inf
    branches = 1
    max_active = 1
    next_index = 1
    flagged = 1 if root.flagged else 0
    stats = [(float(np.max(root.hi - root.lo)), root.first_won)] \
        if cfg.collect_stats else []

    while True:
        cur_ub = max(heap[0][2].ub if heap else -np.inf, finalized_ub, best_lb)
        if cur_ub - best_lb <= cfg.eps_t:
            status = "Converged"
            break
        if branches >= cfg.max_branches or not heap:
            status = "BranchLimit"
            break

        node = heapq.heappop(heap)[2]
        scale = max(1.0, float(np.max(np.abs(node.center))))
        if float(np.max(node.hi - node.lo)) <= _DEGENERATE * scale:
            finalized_ub = max(finalized_ub, node.ub)
            continue
        (lo1, hi1), (lo2, hi2) = split_box(node.lo, node.hi,
                                           maxlen_axis(node.lo, node.hi))
        children = (bounder.bound(lo1, hi1, next_index, node.ub),
                    bounder.bound(lo2, hi2, next_index + 1, node.ub))
        next_index += 2
        for child in children:
            branches += 1
            if child.flagged:
                flagged += 1
            if cfg.collect_stats:
                stats.append((float(np.max(child.hi - child.lo)),
                              child.first_won))
            if child.lb > best_lb:
                best_lb = child.lb
                witness = child.witness
        for child in children:
            if child.ub > best_lb - _PRUNE_SLACK:
                heapq.heappush(heap, (-child.ub, child.index, child))
        max_active = max(max_active, len(heap))

    cur_ub = max(heap[0][2].ub if heap else -np.inf, finalized_ub, best_lb)
    return BnBResult(best_lb, cur_ub, witness, branches, max_active,
                     time.perf_counter() - start, status, flagged, stats)


def solve_zonotope(obj_or_net, G, x_c, eps_t=None, cfg=None, certs=None):
    """sup over the zonotope {G z + x_c : ||z||_inf <= 1} by solving the
    composed objective over the latent unit box."""
    obj = as_objective(obj_or_net)
    G = np.asarray(G, dtype=float)
    x_c = np.asarray(x_c, dtype=float)
    net2 = prepend_affine(obj.net, G, x_c)
    linear2 = None
    offset2 = obj.offset
    if obj.linear is not None:
        linear2 = G.T @ obj.linear
        offset2 = offset2 + float(obj.linear @ x_c)
    composed = ScalarObjective(net2, linear2, offset2)
    m = G.shape[1]
    return solve(composed, -np.ones(m), np.ones(m), eps_t=eps_t, cfg=cfg,
                 certs=certs)
