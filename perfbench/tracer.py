"""Per-layer self time and work counts, measured from outside the library.

The tracer replaces the module-level functions through which ``bnb`` and
``reach`` enter each pipeline layer with thin wrappers, runs one workload, and
restores the originals.  Each wrapper opens a span; a span stack subtracts
child spans from their parent, so nested calls (``hessian`` calling into
``lipschitz``, ``solve_zonotope`` calling ``solve``) are never counted twice.
Time outside every span is reported as ``trace.unattributed_s``, so layer self
times plus that remainder equal the traced wall time exactly.
"""

import functools
import time

from curvreach import bnb, hessian, lipschitz, localize, model, reach, taylor

LAYERS = ("localize", "lipschitz", "hessian", "taylor", "model", "bnb", "reach")


class MissingEntryPoint(RuntimeError):
    """A traced entry point is gone, so its layer would silently read 0 s."""


# (layer, owner, attribute, counter bumped per call besides "<layer>.calls")
_SPANS = (
    ("localize", localize, "bounds_for_box", None),
    ("lipschitz", lipschitz, "_total_raw", None),
    ("lipschitz", lipschitz, "_report_raw", None),
    ("hessian", hessian, "two_layer_matrix_bounds", None),
    ("hessian", hessian, "hessian_norm_bound", None),
    ("taylor", taylor, "first_upper_from", None),
    ("taylor", taylor, "first_upper", None),
    ("taylor", taylor, "optimal_perturbation", None),
    ("taylor", taylor, "shifted_center", None),
    ("taylor", taylor, "two_layer_dual_upper", "taylor.dual_calls"),
    ("taylor", taylor, "vertex_upper", "taylor.vertex_calls"),
    ("model", model.ScalarObjective, "value", None),
    ("model", model.ScalarObjective, "value_and_grad", None),
    ("bnb", bnb, "solve", None),
    ("bnb", bnb, "solve_zonotope", None),
    ("reach", reach, "closed_loop_reach", None),
    ("reach", reach, "closed_loop_step", "reach.steps"),
    ("reach", reach, "reach_polytope", None),
)
# counted but not timed: too small and too frequent for a span of their own
_COUNTS = (
    ("lipschitz.norm_calls", lipschitz, "operator_norm"),
)


def _qualname(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__name__}.{attr}"
    return f"{owner.__name__}.{attr}"


def check_entry_points():
    """Raise MissingEntryPoint naming every wrapped function that is gone."""
    targets = [(o, a) for _, o, a, _ in _SPANS] + [(o, a) for _, o, a in _COUNTS]
    missing = [_qualname(owner, attr) for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    if missing:
        raise MissingEntryPoint(
            "traced entry points not found: " + ", ".join(missing))


class Tracer:
    """Collects self time per layer and work counters for one traced run."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.boxes = set()
        self.stack = [[0.0]]       # child time accumulated by each open span
        self._saved = []

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, layer, fn, counter):
        stack, self_s, bump = self.stack, self.self_s, self.bump
        calls = f"{layer}.calls"
        # optional per-function hooks, e.g. _after_solve reads the BnBResult
        hook = getattr(self, f"_after_{fn.__name__}", None)
        failures = "taylor.dual_failures" \
            if fn.__name__ == "two_layer_dual_upper" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(calls)
            if counter is not None:
                bump(counter)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except taylor.DualBisectionError:
                if failures is not None:
                    bump(failures)
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _counter(self, key, fn):
        bump = self.bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(key)
            return fn(*args, **kwargs)

        return wrapper

    def _after_solve(self, args, res):
        self.bump("bnb.solves")
        self.bump("bnb.nodes", res.branches_processed)
        self.bump("bnb.flagged_nodes", res.flagged_nodes)
        self.counts["bnb.max_active"] = max(self.counts.get("bnb.max_active", 0),
                                            res.max_active)

    def _after_bounds_for_box(self, args, out):
        # a box certificate depends on the box and on the network's hidden
        # layers; directions over one input set share the first layer, while
        # each closed-loop step or generated network has its own
        net, lo, hi = args[0], args[1], args[2]
        first = net.layers[0]
        self.boxes.add(hash((first.weight.tobytes(), first.bias.tobytes(),
                             lo.tobytes(), hi.tobytes())))

    def install(self):
        check_entry_points()
        for layer, owner, attr, counter in _SPANS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(layer, fn, counter))
        for key, owner, attr in _COUNTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(key, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run(self, fn):
        """Trace one call of fn(); returns (its result, traced wall seconds)."""
        self.install()
        try:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
        finally:
            self.uninstall()
        return out, wall

    def metrics(self, wall, untraced_raw, untraced_ref, expected_layers):
        """Per-layer metric values; raises if an expected layer saw no call.

        ``untraced_raw`` and ``untraced_ref`` are the median untraced wall
        times, raw and at reference speed."""
        silent = [layer for layer in expected_layers
                  if not self.counts.get(f"{layer}.calls")]
        if silent:
            raise MissingEntryPoint(
                "no traced calls into layer(s) " + ", ".join(silent)
                + "; their entry points may have moved")
        c = self.counts
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for key in ("lipschitz.calls", "lipschitz.norm_calls", "taylor.calls",
                    "taylor.dual_calls", "taylor.vertex_calls",
                    "taylor.dual_failures", "localize.calls", "hessian.calls",
                    "bnb.nodes", "bnb.solves", "bnb.flagged_nodes",
                    "bnb.max_active", "reach.steps"):
            out[key] = c.get(key, 0)
        out["model.evals"] = c.get("model.calls", 0)
        out["localize.distinct_box_frac"] = \
            len(self.boxes) / max(c.get("localize.calls", 0), 1)
        out["bnb.us_per_node"] = untraced_ref / max(c.get("bnb.nodes", 0), 1) * 1e6
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - sum(self.self_s.values())
        out["trace.overhead_frac"] = wall / untraced_raw - 1.0
        return out
