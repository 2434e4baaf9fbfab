#!/usr/bin/env python3
"""curvreach benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the workload runs untraced, repeatedly, until ``--seconds``
have passed; the run reports the median wall time, the output's bound width,
the median set-up time over fresh processes, and the peak resident memory.
Both times are rescaled to a reference machine speed (see ``speed.py`` and
``setup_probe.py``); the raw times are in the record line.
With ``--trace 1`` it runs untraced for half the time, then once traced, and
reports per-layer self times and work counts (see ``tracer.py``).

Every run's output passes the soundness gate of its workload; ``attempted``
and ``failed`` count the faces or solves checked.  The line before the result
records the output digest and the environment, for information only.  The last
line of stdout is the result JSON.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import common

import numpy as np  # noqa: E402  (after common pins BLAS threads)

import curvreach  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "setup_probe.py")


def setup_seconds(name, seed):
    """Raw and rescaled set-up time of each of several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, PROBE, name, str(seed)],
                             cwd=common.ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": common.BLAS_THREADS,
        "numba_enabled": getattr(curvreach, "NUMBA_ENABLED", None),
        "seed": seed,
        # machine-speed context; not a gated metric
        "probe_ms": statistics.median(speed.probe() for _ in range(9)) * 1e3,
    }


class Runner:
    """Times workload runs and passes each output through the soundness gate."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.inputs = wl.load(seed)
        self.reference = wl.reference(self.inputs, seed)
        self.attempted = self.failed = 0
        self.digests = set()
        self.last = None
        wl.root_bound(self.inputs)     # warm lazy numpy and library set-up

    def gate(self, out):
        attempted, failed = self.wl.check(self.inputs, out, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.digests.add(self.wl.digest(out))
        self.last = out

    def untraced(self, seconds):
        """Raw and reference-speed wall times of runs for about ``seconds``."""
        walls = {"raw": [], "ref": []}
        start = time.perf_counter()
        while not walls["raw"] or time.perf_counter() - start < seconds:
            out, raw, ref = speed.timed(lambda: self.wl.run(self.inputs))
            walls["raw"].append(raw)
            walls["ref"].append(ref)
            self.gate(out)
        return walls

    def traced(self, untraced_raw, untraced_ref):
        tracer = Tracer()
        out, wall = tracer.run(lambda: self.wl.run(self.inputs))
        self.gate(out)
        return tracer.metrics(wall, untraced_raw, untraced_ref,
                              self.wl.expected_layers)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    record = {"workload": wl.name, "trace": args.trace,
              "env": environment(args.seed)}
    runner = Runner(wl, args.seed)
    if args.trace:
        # layer self times are raw seconds: probes would land inside spans
        walls = runner.untraced(args.seconds / 2.0)
        traced = runner.traced(statistics.median(walls["raw"]),
                               statistics.median(walls["ref"]))
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in traced.items()}
    else:
        setups = setup_seconds(wl.name, args.seed)
        walls = runner.untraced(args.seconds)
        record["setup_s"] = setups
        metrics = {
            "wall_ref_s": {"value": statistics.median(walls["ref"]),
                           "unit": "s"},
            "bound_width": {"value": wl.bound_width(runner.last), "unit": "1"},
            "setup_s": {"value": statistics.median(s["ref"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    record["walls_s"] = walls
    record["digest"] = sorted(runner.digests)
    print(json.dumps({"record": record}))
    # one digest across reps: the outputs are deterministic for a given seed
    correct = runner.failed == 0 and len(runner.digests) == 1
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    if metric == "bnb.us_per_node":
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
