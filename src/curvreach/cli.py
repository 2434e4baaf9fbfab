"""Command-line interface.

Subcommands: lipschitz | hessian | bnb | reach | closedloop | audit.
Results print to stdout as JSON (including wall time); ``--out`` additionally
writes the same JSON minus volatile timing fields, so identical configs and
seeds produce byte-identical files.

Exit codes: 0 success, 1 input error, 2 an incomplete run whose written
bracket is still valid, in three cases: a budget stop (``BranchLimit``), a
heap that emptied because every node left was too small to split
(``Exhausted``), or, for ``reach`` and ``closedloop``, a face whose solve
flagged a node or did not converge (``flagged_faces``, ``unconverged_faces``).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import bnb, fileio, hessian as hs, lipschitz as lip, localize as loc
from . import oracle, reach
from .model import ScalarObjective, scalarize

_VOLATILE = {"wall_time_s"}


def _bnb_config(args):
    return bnb.BnBConfig(eps_t=args.eps_t, max_branches=args.max_branches)


def _strip_volatile(data):
    if isinstance(data, dict):
        return {k: _strip_volatile(v) for k, v in data.items()
                if k not in _VOLATILE}
    if isinstance(data, list):
        return [_strip_volatile(v) for v in data]
    return data


def _emit(data, out_path):
    print(fileio.dumps17(data))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(fileio.dumps17(_strip_volatile(data)))
            fh.write("\n")


def _parse_norm(text):
    if text in ("inf", "Inf", "INF"):
        return np.inf
    if text == "2":
        return 2.0
    raise ValueError(f"unsupported norm {text!r}; use 2 or inf")


def _template_count(text):
    """The K of ``--dirs uniform:K`` or the N of ``--dirs pca:N``."""
    kind, _, count = text.partition(":")
    try:
        value = int(count)
    except ValueError:
        raise ValueError(f"--dirs {text!r}: {kind} needs an integer count, "
                         f"got {count!r}") from None
    if value < 0:
        raise ValueError(f"--dirs {text!r}: {kind} needs a nonnegative count")
    return value


def _parse_template(text, n_f):
    if text == "axes":
        return reach.axes_directions(n_f), None
    if text.startswith("uniform:"):
        count = _template_count(text)
        if n_f != 2:
            raise ValueError("uniform templates need a 2-D output space")
        return reach.uniform_directions(count), None
    if text.startswith("pca:"):
        return None, _template_count(text)
    raise ValueError(f"unknown template {text!r}; use axes|uniform:K|pca:N")


def _closedloop_template(args, n):
    """The template of ``closedloop --dirs``: ``pca`` gives none, so the
    faces are the PCA box's own."""
    if args.dirs.startswith("pca:"):
        raise ValueError(f"--dirs {args.dirs}: closedloop takes the PCA box's "
                         "axes from the linearized step map and draws no "
                         "samples, so pca takes no count; give --dirs pca "
                         "for the box's faces alone")
    if args.dirs != "pca":
        return _parse_template(args.dirs, n)[0]
    if args.hull:
        raise ValueError("--dirs pca asks for the PCA box's faces alone, "
                         "and --hull replaces that box by the interval hull; "
                         "drop one of the two")
    return None


def _input_set(args, dim):
    if bool(args.box) == bool(args.zonotope):
        raise ValueError("provide exactly one of --box and --zonotope")
    if args.box:
        return fileio.parse_box(args.box, dim)
    zono = fileio.load_zonotope(args.zonotope)
    if zono.dim != dim:
        raise ValueError(f"zonotope has {zono.dim} dims, expected {dim}")
    return zono


def _cmd_lipschitz(args):
    if args.sweeps < 0:
        raise ValueError(f"--sweeps must be nonnegative, got {args.sweeps}")
    net = fileio.load_network(args.network)
    box = fileio.parse_box(args.box, net.input_dim)
    p = _parse_norm(args.norm)
    lip.check_chain([lay.weight for lay in net.layers])
    t0 = time.perf_counter()
    local = loc.bounds_for_box(net, box.lo, box.hi)
    if args.method == "naive":
        lt = lip.zero_loop_transform(local)
    elif args.method == "liplt":
        lt = lip.default_loop_transform(local)
    elif args.method == "liplt-refine":
        lt = lip.refine_loop_transform(net, local, p, sweeps=args.sweeps)
    else:
        raise ValueError(f"unknown method {args.method!r}")
    report = lip.lipschitz_report(net, local, lt, p)
    total = lip.naive_lipschitz(net, local, p) if args.method == "naive" \
        else report.total
    _emit({
        "method": args.method,
        "p": "inf" if np.isinf(p) else 2,
        "L_total": float(total),
        "L_subnet": [float(v) for v in report.subnet],
        "wall_time_s": time.perf_counter() - t0,
    }, args.out)
    return 0


def _cmd_hessian(args):
    net = fileio.load_network(args.network)
    box = fileio.parse_box(args.box, net.input_dim)
    c = fileio.parse_vector(args.direction, net.output_dim)
    scalar = scalarize(net, c)
    weights = [lay.weight for lay in scalar.layers]
    lip.check_chain(weights)
    lip.check_curvature_chain(weights)
    t0 = time.perf_counter()
    local = loc.bounds_for_box(scalar, box.lo, box.hi)
    if scalar.depth == 2 and not args.scalar_only:
        bound = hs.two_layer_matrix_bounds(scalar, local)
        data = {"kind": "matrix", "M": bound.M.tolist(), "N": bound.N.tolist()}
    else:
        lt = lip.default_loop_transform(local)
        report = lip.lipschitz_report(scalar, local, lt, 2)
        jac = lip.jacobian_elementwise_bounds(scalar, local)
        bound = hs.hessian_norm_bound(scalar, local, report, jac)
        data = {"kind": "scalar", "lambda": bound.lam}
        if scalar.depth >= 3:
            h_lo, h_hi = hs.interval_hessian(scalar, local)
            data["H_lo"] = h_lo.tolist()
            data["H_hi"] = h_hi.tolist()
    data["wall_time_s"] = time.perf_counter() - t0
    _emit(data, args.out)
    return 0


def _result_dict(res):
    return {
        "lb": res.lb,
        "ub": res.ub,
        "witness": res.witness.tolist(),
        "branches_processed": res.branches_processed,
        "max_active": res.max_active,
        "status": res.status,
        "flagged_nodes": res.flagged_nodes,
        "wall_time_s": res.wall_time_s,
    }


def _cmd_bnb(args):
    cfg = _bnb_config(args)
    net = fileio.load_network(args.network)
    c = fileio.parse_vector(args.direction, net.output_dim)
    objective = ScalarObjective(scalarize(net, c))
    input_set = _input_set(args, net.input_dim)
    if isinstance(input_set, reach.Box):
        res = bnb.solve(objective, input_set.lo, input_set.hi, cfg=cfg)
    else:
        res = bnb.solve_zonotope(objective, input_set.G, input_set.center,
                                 cfg=cfg)
    _emit(_result_dict(res), args.out)
    print(f"bnb: status={res.status} lb={res.lb:.6g} ub={res.ub:.6g} "
          f"branches={res.branches_processed}", file=sys.stderr)
    return 0 if res.status == "Converged" else 2


def _polytopes_exit(polys):
    """2 when a face of any polytope is flagged or unconverged, else 0."""
    return 2 if any(p.flagged or p.unconverged for p in polys) else 0


def _cmd_reach(args):
    cfg = _bnb_config(args)
    net = fileio.load_network(args.network)
    input_set = _input_set(args, net.input_dim)
    template, pca_n = _parse_template(args.dirs, net.output_dim)
    if template is None:
        template = reach.pca_directions(net, input_set, pca_n, seed=args.seed)
    t0 = time.perf_counter()
    poly, _ = reach.reach_polytope(net, input_set, template, args.eps_t, cfg)
    data = fileio.polytope_to_dict(poly)
    data["flagged_faces"] = list(poly.flagged)
    data["unconverged_faces"] = list(poly.unconverged)
    data["wall_time_s"] = time.perf_counter() - t0
    _emit(data, args.out)
    return _polytopes_exit([poly])


def _cmd_closedloop(args):
    cfg = _bnb_config(args)
    controller = fileio.load_network(args.controller)
    sys_model = fileio.load_system(args.system, controller)
    steps = sys_model.horizon if args.steps is None else args.steps
    if args.sim_points < 0:
        raise ValueError("--sim-points must be nonnegative, got "
                         f"{args.sim_points}")
    input_set = _input_set(args, sys_model.dim)
    template = _closedloop_template(args, sys_model.dim)
    next_rep = "hull" if args.hull else "pca"
    t0 = time.perf_counter()
    trace = reach.closed_loop_reach(sys_model, input_set, template,
                                    args.eps_t, steps=steps, cfg=cfg,
                                    next_rep=next_rep)
    polys = [poly for poly, _ in trace]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, poly in enumerate(polys, start=1):
        with open(out_dir / f"step{t:03d}.json", "w") as fh:
            fh.write(fileio.dumps17(fileio.polytope_to_dict(poly)))
            fh.write("\n")
    fileio.write_faces_csv(out_dir / "faces.csv", polys)
    rng = np.random.default_rng(args.seed)
    cloud = reach.simulate(sys_model,
                           reach.sample_inputs(input_set, args.sim_points, rng),
                           steps)
    fileio.write_trajectories_csv(out_dir / "trajectories.csv", cloud)
    summary = {
        "steps": steps,
        "faces_per_step": int(polys[0].normals.shape[0]),
        "out_dir": str(out_dir),
        "flagged_faces": [[t, i] for t, poly in enumerate(polys, start=1)
                          for i in poly.flagged],
        "unconverged_faces": [[t, i] for t, poly in enumerate(polys, start=1)
                              for i in poly.unconverged],
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(summary, args.out)
    return _polytopes_exit(polys)


def _cmd_audit(args):
    cfg = _bnb_config(args)
    net = fileio.load_network(args.network)
    c = fileio.parse_vector(args.direction, net.output_dim)
    box = fileio.parse_box(args.box, net.input_dim)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    objective = ScalarObjective(scalarize(net, c))
    res = bnb.solve(objective, box.lo, box.hi, cfg=cfg)
    per_axis = max(2, int(round(args.samples ** (1.0 / box.dim))))
    sampled_max, _ = oracle.grid_max(objective.value, box.lo, box.hi,
                                     n_per_axis=min(per_axis, 64),
                                     n_random=args.samples, seed=args.seed)
    local = loc.bounds_for_box(objective.net, box.lo, box.hi)
    lt = lip.default_loop_transform(local)
    l_inf = lip.liplt(objective.net, local, lt, np.inf)
    slope = oracle.sampled_lipschitz(objective.value, box.lo, box.hi,
                                     n_pairs=args.samples, p=np.inf,
                                     seed=args.seed)
    reports = [
        oracle.OracleReport("grid_max", sampled_max, args.samples,
                            args.seed).to_dict(),
        oracle.OracleReport("sampled_lipschitz", slope, args.samples,
                            args.seed).to_dict(),
    ]
    witness_ok = abs(float(objective.value(np.asarray(res.witness)))
                     - res.lb) <= 1e-9
    sound = sampled_max <= res.ub + 1e-9 and witness_ok \
        and res.lb <= res.ub + 1e-12 and slope <= l_inf + 1e-7
    _emit({
        "bounds": _result_dict(res),
        "lipschitz_inf": l_inf,
        "oracle_reports": reports,
        "sound": bool(sound),
    }, args.out)
    if not sound:
        print("audit: soundness violation detected", file=sys.stderr)
        return 1
    return 0 if res.status == "Converged" else 2


def _add_common(sub, direction=False, zonotope=True):
    sub.add_argument("--network", required=True)
    if zonotope:
        sub.add_argument("--box")
        sub.add_argument("--zonotope")
    else:
        sub.add_argument("--box", required=True)
    if direction:
        sub.add_argument("--direction", required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")


def _add_solver(sub):
    sub.add_argument("--eps-t", dest="eps_t", type=float, default=1e-2)
    sub.add_argument("--max-branches", dest="max_branches", type=int,
                     default=1_000_000)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvreach",
        description="Polyhedral reachability certificates for smooth networks")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lipschitz", help="local Lipschitz bounds over a box")
    p.add_argument("--network", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--norm", default="2")
    p.add_argument("--method", choices=["naive", "liplt", "liplt-refine"],
                   default="liplt")
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_lipschitz)

    p = subs.add_parser("hessian", help="Hessian bound for one direction")
    p.add_argument("--network", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--scalar-only", dest="scalar_only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_hessian)

    p = subs.add_parser("bnb", help="maximize one output direction over a set")
    _add_common(p, direction=True)
    _add_solver(p)
    p.set_defaults(fn=_cmd_bnb)

    p = subs.add_parser("reach", help="polyhedral image over-approximation")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--dirs", default="axes")
    p.set_defaults(fn=_cmd_reach)

    p = subs.add_parser("closedloop", help="closed-loop reachability")
    p.add_argument("--system", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--box")
    p.add_argument("--zonotope")
    p.add_argument("--dirs", default="axes",
                   help="axes | uniform:K, joined by the PCA box's faces; "
                        "pca for those faces alone")
    p.add_argument("--steps", type=int)
    p.add_argument("--hull", action="store_true",
                   help="axis-aligned interval hull instead of a PCA box")
    p.add_argument("--sim-points", dest="sim_points", type=int, default=1000)
    p.add_argument("--out-dir", dest="out_dir", default="closedloop-out")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the simulated trajectories")
    p.add_argument("--out")
    _add_solver(p)
    p.set_defaults(fn=_cmd_closedloop)

    p = subs.add_parser("audit", help="bound plus brute-force audit report")
    _add_common(p, direction=True, zonotope=False)
    _add_solver(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(fn=_cmd_audit)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are input errors here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
