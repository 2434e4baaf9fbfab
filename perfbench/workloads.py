"""The benchmark's workloads: inputs made from a seed, one timed run, and the
soundness gate, digest and bound-width figure of its output.

Every workload calls the library with the default ``BnBConfig`` apart from the
termination gap and, for the budgeted solve, the node budget.  The soundness
gate uses its own forward pass, independent of ``curvreach.model``.
"""

import hashlib
from pathlib import Path

import numpy as np

import curvreach
from curvreach import bnb, fileio, oracle, reach
from curvreach.model import Activation, Layer, Network, ScalarObjective

DATA = Path(curvreach.__file__).resolve().parent / "data"
MARGIN = 1e-9          # face containment tolerance, as in the test suite
CLOUD = 10_000         # simulated trajectories per soundness check
PCA_SEED = 0           # the library's own PCA sampling seed; see Closed loop


def _act(kind, z):
    if kind is None or kind is Activation.IDENTITY:
        return z
    if kind is Activation.TANH:
        return np.tanh(z)
    if kind is Activation.SIGMOID:
        return 0.5 * (1.0 + np.tanh(0.5 * z))
    return np.logaddexp(0.0, z)


def forward(net, xs):
    """Reference forward pass on row stacks, from the raw layer weights."""
    a = np.atleast_2d(xs)
    for lay in net.layers:
        a = _act(lay.activation, a @ lay.weight.T + lay.bias)
    return a


def _sha256(data):
    return hashlib.sha256(fileio.dumps17(data).encode()).hexdigest()


class ClosedLoop:
    """A shipped closed-loop run, stepped ``steps`` times.

    The seed draws the soundness cloud.  The library's PCA rotation keeps its
    own fixed seed: it shapes the propagated sets, and a seeded rotation would
    change the work done by up to 2x between seeds.
    """

    expected_layers = ("localize", "lipschitz", "hessian", "taylor", "model",
                       "bnb", "reach")

    def __init__(self, name, prefix, initial, template, eps_t, steps,
                 pca_samples):
        self.name = name
        self.prefix = prefix
        self.initial = initial
        self.template = template
        self.eps_t = eps_t
        self.steps = steps
        self.pca_samples = pca_samples

    def load(self, seed):
        controller = fileio.load_network(DATA / f"{self.prefix}_controller.json")
        system = fileio.load_system(DATA / f"{self.prefix}_system.json",
                                    controller)
        return system, self.initial()

    def root_bound(self, inputs):
        """Bound the root node of the first face of the first step."""
        system, init = inputs
        c = np.zeros(system.dim)
        c[0] = 1.0
        obj = system.step_objective(c)
        cfg = bnb.BnBConfig(max_branches=1)
        if isinstance(init, reach.Box):
            return bnb.solve(obj, init.lo, init.hi, cfg=cfg)
        return bnb.solve_zonotope(obj, init.G, init.center, cfg=cfg)

    def run(self, inputs):
        system, init = inputs
        template = self.template() if self.template else None
        trace = reach.closed_loop_reach(
            system, init, template, self.eps_t, steps=self.steps,
            pca_samples=self.pca_samples, seed=PCA_SEED)
        return [poly for poly, _ in trace]

    def reference(self, inputs, seed):
        """Seeded trajectory cloud, simulated without the library."""
        system, init = inputs
        rng = np.random.default_rng(seed)
        if isinstance(init, reach.Box):
            xs = init.lo + rng.random((CLOUD, init.dim)) * (init.hi - init.lo)
        else:
            z = rng.uniform(-1.0, 1.0, size=(CLOUD, init.G.shape[1]))
            xs = z @ init.G.T + init.center
        cloud = [xs]
        for _ in range(self.steps):
            us = forward(system.controller, xs)
            xs = xs @ system.A.T + us @ system.B.T + system.drift
            cloud.append(xs)
        return cloud

    def check(self, inputs, polys, cloud):
        """(faces attempted, faces failed): fallback or not containing the cloud."""
        attempted = failed = 0
        for t, poly in enumerate(polys, start=1):
            excess = (cloud[t] @ poly.normals.T - poly.offsets).max(axis=0)
            bad = excess > MARGIN
            bad[list(poly.flagged)] = True
            attempted += bad.size
            failed += int(bad.sum())
        return attempted, failed

    def digest(self, polys):
        return _sha256([fileio.polytope_to_dict(p) for p in polys])

    def bound_width(self, polys):
        """Final step: mean of offset(c) + offset(-c) over antipodal faces."""
        poly = polys[-1]
        n = poly.normals
        widths = []
        for i in range(n.shape[0]):
            for j in range(i + 1, n.shape[0]):
                if np.abs(n[i] + n[j]).max() <= 1e-12:
                    widths.append(poly.offsets[i] + poly.offsets[j])
        return float(np.mean(widths))


class TwoLayerBudget:
    """Budgeted solves over [-1, 1]^6 for tanh networks drawn from the seed.

    Each network is 6 -> 64 -> 1; the gap at a budget varies a lot between
    single networks, so the workload solves several and reports their mean.
    """

    expected_layers = ("localize", "lipschitz", "hessian", "taylor", "model",
                       "bnb")
    name = "twolayer_bnb_budget"
    dim, hidden, networks, budget = 6, 64, 8, 1000
    scale = 3.0        # first-layer gain; steep enough that no solve converges
    eps_t = 1e-9

    def load(self, seed):
        rng = np.random.default_rng(seed)
        nets = []
        for _ in range(self.networks):
            w1 = self.scale * rng.standard_normal((self.hidden, self.dim)) \
                / np.sqrt(self.dim)
            b1 = 0.5 * self.scale * rng.standard_normal(self.hidden)
            w2 = rng.standard_normal((1, self.hidden)) / np.sqrt(self.hidden)
            nets.append(Network((Layer(w1, b1, Activation.TANH),
                                 Layer(w2, np.zeros(1), None))))
        return nets

    @property
    def box(self):
        return -np.ones(self.dim), np.ones(self.dim)

    def root_bound(self, nets):
        lo, hi = self.box
        return bnb.solve(ScalarObjective(nets[0]), lo, hi,
                         cfg=bnb.BnBConfig(max_branches=1))

    def run(self, nets):
        lo, hi = self.box
        cfg = bnb.BnBConfig(eps_t=self.eps_t, max_branches=self.budget)
        return [bnb.solve(ScalarObjective(net), lo, hi, cfg=cfg) for net in nets]

    def reference(self, nets, seed):
        """Polished sampling maxima: lower bounds on each true supremum."""
        lo, hi = self.box
        return [oracle.polished_max(lambda x, net=net: forward(net, x)[:, 0],
                                    lo, hi, n_random=2000, seed=seed + k)[0]
                for k, net in enumerate(nets)]

    def check(self, nets, results, maxima):
        """(solves attempted, solves failed): lb not attained at the witness,
        witness outside the box, or ub below the sampled maximum."""
        lo, hi = self.box
        failed = 0
        for res, best, net in zip(results, maxima, nets):
            w = np.asarray(res.witness)
            attained = float(forward(net, w)[0, 0])
            ok = (np.all((lo <= w) & (w <= hi))
                  and abs(attained - res.lb) <= 1e-12 * max(1.0, abs(res.lb))
                  and res.ub >= best)
            failed += not ok
        return len(results), failed

    def digest(self, results):
        return _sha256([{"lb": r.lb, "ub": r.ub, "witness": r.witness}
                        for r in results])

    def bound_width(self, results):
        """Mean gap ub - lb at the node budget."""
        return float(np.mean([r.ub - r.lb for r in results]))


def _quad6_box():
    return reach.Box(np.array([4.69, 4.69, 2.99, 0.945, -0.005, -0.005]),
                     np.array([4.71, 4.71, 3.01, 0.955, 0.005, 0.005]))


def _di_hexagon():
    return fileio.load_zonotope(DATA / "di_hexagon.json")


WORKLOADS = {
    w.name: w for w in (
        ClosedLoop("quad6_closedloop", "quad6", _quad6_box, None,
                   eps_t=1e-2, steps=4, pca_samples=2000),
        ClosedLoop("di_closedloop_u16", "di", _di_hexagon,
                   lambda: reach.uniform_directions(16),
                   eps_t=1e-3, steps=5, pca_samples=10_000),
        TwoLayerBudget(),
    )
}
