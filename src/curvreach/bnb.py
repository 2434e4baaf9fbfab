"""Best-first branch and bound for sup of a scalar objective over a box.

Each node views its sub-rectangle as an ell_inf ball of radius half the
longest edge around the midpoint, computes localized Lipschitz and Hessian
certificates for it, and takes the better of the zeroth- and first-order
bounds on each side.  Nodes are expanded in order of largest upper bound,
one at a time: each step pops one node, bounds its two children, updates the
best lower bound over both and pushes them.  Children never report a looser
upper bound than their parent.
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


@dataclass
class BnBConfig:
    eps_t: float = 1e-2
    heuristic: str = "maxlen"          # maxlen | bestub
    max_branches: int = 1_000_000
    max_active: int = 1_000_000
    time_limit: float | None = None
    lipschitz_method: str = "liplt"    # naive | liplt
    recompute_local: bool = True       # fresh certificates per node vs root reuse
    use_first_order: bool = True
    collect_stats: bool = False


@dataclass
class BnBNode:
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    value_c: float
    grad_c: np.ndarray
    lb: float
    ub: float
    witness: np.ndarray
    depth: int
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
    status: str                        # Converged | BranchLimit | TimeLimit
    flagged_nodes: int = 0
    stats: list = field(default_factory=list)


def as_objective(obj_or_net):
    if isinstance(obj_or_net, ScalarObjective):
        return obj_or_net
    if isinstance(obj_or_net, Network):
        return ScalarObjective(obj_or_net)
    raise ValueError("expected a scalar Network or ScalarObjective")


def select_node(pool):
    """Node with the largest upper bound; ties go to the earliest created."""
    if not pool:
        raise RuntimeError("cannot select from an empty pool")
    return min(pool, key=lambda nd: (-nd.ub, nd.index))


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
    """Per-solve bound engine; caches root certificates when configured."""

    def __init__(self, obj, cfg):
        self.obj = obj
        self.net = obj.net
        self.cfg = cfg
        self.lin_inf = obj.linear_dual_norm(np.inf)
        self.two_layer = self.net.depth == 2 and cfg.use_first_order
        self.weights = [lay.weight for lay in self.net.layers]
        self.abs_weights = [np.abs(w) for w in self.weights]
        # the ell_2 subnetwork stages open with these box-independent norms
        self.heads2 = (lip._head_norms(self.weights, 2)
                       if cfg.use_first_order and not self.two_layer else None)
        self.root_consts = None

    def _constants(self, lo, hi):
        """(L_inf, hessian bound) certified on the box [lo, hi]."""
        cfg = self.cfg
        local = loc.bounds_for_box(self.net, lo, hi)
        slope_hi = local.slope_hi
        if cfg.lipschitz_method == "naive":
            ds = [np.zeros_like(b) for b in slope_hi]
        else:
            ds = [b / 2.0 for b in slope_hi]
        l_inf = lip._total_raw(self.weights, slope_hi, ds, np.inf) + self.lin_inf
        if not cfg.use_first_order:
            return l_inf, None
        if self.two_layer:
            return l_inf, hs.two_layer_matrix_bounds(self.net, local)
        subnet2 = lip._report_raw(self.weights, slope_hi, ds, 2, self.heads2)
        jac = {}
        s = self.abs_weights[-1][0]
        jac[self.net.depth - 1] = s
        for k in range(self.net.depth - 1, 1, -1):
            s = (s * slope_hi[k - 1]) @ self.abs_weights[k - 1]
            jac[k - 1] = s
        report = lip.LipschitzReport(0.0, subnet2, 2)
        return l_inf, hs.hessian_norm_bound(self.net, local, report, jac)

    def bound(self, lo, hi, depth, index, parent_ub=np.inf):
        cfg = self.cfg
        center = (lo + hi) / 2.0
        eps = float(np.max(hi - lo)) / 2.0
        value_c, grad_c = self.obj.value_and_grad(center)
        flagged = False
        if eps <= 0.0:
            return BnBNode(lo, hi, center, value_c, grad_c, value_c,
                           min(value_c, parent_ub), center, depth, index)
        if cfg.recompute_local or self.root_consts is None:
            try:
                consts = self._constants(lo, hi)
            except Exception:
                # sound fallback: inherit the parent's upper bound, keep the
                # center evaluation as the lower bound
                return BnBNode(lo, hi, center, value_c, grad_c, value_c,
                               parent_ub, center, depth, index, flagged=True)
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
            region = taylor.BallRegion(center, eps, np.inf)
            n = center.shape[0]
            if isinstance(hess, hs.MatrixHessianBound):
                eig = np.linalg.eigvalsh(hess.M)
                lam_iso = max(float(eig[-1]), 0.0)
                ub1 = taylor.first_upper_from(value_c, grad_c, region, lam_iso,
                                              center)
                candidates.append(taylor.optimal_perturbation(
                    center, eps, np.inf, grad_c, lam_iso, center))
                try:
                    q = taylor.two_layer_dual_upper(grad_c, hess.M,
                                                    eps * np.sqrt(n), p=2)
                    ub1 = min(ub1, value_c + q)
                except taylor.DualBisectionError:
                    flagged = True
                if float(eig[0]) >= -1e-9 and n <= _VERTEX_CAP:
                    v, vert = taylor.vertex_upper(grad_c, hess.M, lo, hi,
                                                  center, return_witness=True)
                    ub1 = min(ub1, value_c + v)
                    candidates.append(vert)
            else:
                lam = hess.lam
                ub1 = taylor.first_upper_from(value_c, grad_c, region, lam,
                                              center)
                candidates.append(taylor.optimal_perturbation(
                    center, eps, np.inf, grad_c, lam, center))
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
        return BnBNode(lo, hi, center, value_c, grad_c, lb, ub, witness,
                       depth, index, flagged=flagged, first_won=first_won)


def _choose_axis(node, bounder, cfg, next_index):
    """Split axis and its two bounded children, as (axis, (c1, c2)).

    maxlen tries the longest edge only; bestub tries every non-flat axis and
    keeps the one whose worse child has the smallest upper bound, the first
    such axis on ties."""
    if cfg.heuristic == "maxlen":
        axes = [maxlen_axis(node.lo, node.hi)]
    elif cfg.heuristic == "bestub":
        axes = np.flatnonzero(node.hi - node.lo > 0.0)
    else:
        raise ValueError(f"unknown branching heuristic {cfg.heuristic!r}")
    best = None
    for j in axes:
        (lo1, hi1), (lo2, hi2) = split_box(node.lo, node.hi, j)
        c1 = bounder.bound(lo1, hi1, node.depth + 1, next_index, node.ub)
        c2 = bounder.bound(lo2, hi2, node.depth + 1, next_index + 1, node.ub)
        key = max(c1.ub, c2.ub)
        if best is None or key < best[0]:
            best = (key, int(j), (c1, c2))
    return best[1], best[2]


def solve(obj_or_net, lo, hi, eps_t=None, cfg=None):
    """Branch and bound over the box [lo, hi] until ub - lb <= eps_t."""
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
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")

    start = time.perf_counter()
    bounder = _Bounder(obj, cfg)
    root = bounder.bound(lo, hi, 0, 0)
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
    status = None

    while True:
        cur_ub = max(heap[0][2].ub if heap else -np.inf, finalized_ub, best_lb)
        if cur_ub - best_lb <= cfg.eps_t:
            status = "Converged"
            break
        if branches >= cfg.max_branches or len(heap) >= cfg.max_active:
            status = "BranchLimit"
            break
        if cfg.time_limit is not None and \
                time.perf_counter() - start > cfg.time_limit:
            status = "TimeLimit"
            break
        if not heap:
            status = "BranchLimit"
            break

        node = heapq.heappop(heap)[2]
        scale = max(1.0, float(np.max(np.abs(node.center))))
        if float(np.max(node.hi - node.lo)) <= _DEGENERATE * scale:
            finalized_ub = max(finalized_ub, node.ub)
            continue
        _, children = _choose_axis(node, bounder, cfg, next_index)
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


def solve_zonotope(obj_or_net, G, x_c, eps_t=None, cfg=None):
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
    return solve(composed, -np.ones(m), np.ones(m), eps_t=eps_t, cfg=cfg)
