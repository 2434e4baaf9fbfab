"""Set-up time of one workload in a fresh process.

Times importing curvreach, making the workload's inputs from the seed, and
bounding one root node.  A pure-Python probe runs before and after, because
numpy is not loaded yet at the start; the set-up time is rescaled by
``REF_PROBE_S`` over their mean, like the run times in ``speed.py``.  On a
2-vCPU x86-64 VM this halved the spread of set-up times.  Prints a JSON
object with the raw and the rescaled seconds; ``run.py`` starts this script
several times and reports the median rescaled time as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

REF_PROBE_S = 3e-3     # probe duration that defines reference speed


def probe():
    """Fastest of three runs of a fixed integer and dict loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += (i * i) % 7
        table = {}
        for i in range(3_000):
            table[str(i)] = i
        best = min(best, time.perf_counter() - t0)
    return best


BEFORE = probe()
T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402, F401  (puts the checkout's src/ on the path)

from workloads import WORKLOADS  # noqa: E402


def main():
    wl = WORKLOADS[sys.argv[1]]
    wl.root_bound(wl.load(int(sys.argv[2])))
    raw = time.perf_counter() - T0
    probe_s = (BEFORE + probe()) / 2.0
    print(json.dumps({"raw": raw, "ref": raw * REF_PROBE_S / probe_s}))


if __name__ == "__main__":
    main()
