"""Wall time rescaled to a fixed reference machine speed.

On the 2-vCPU x86-64 VM where this benchmark was defined, the speed of one
vCPU drifts by up to 2x within a few seconds, independently on each vCPU, so
raw run times of identical work spread by 20-40%.  A fixed kernel that needs
neither the library nor its inputs is timed at the start and end of a run
and, from a SIGALRM handler, every ``INTERVAL_S`` in between.  Each stretch of
the run between two probes is rescaled by ``REF_PROBE_S`` over the mean
duration of the two probes around it.  Probe time is left out of both the raw
and the rescaled figure.  On that VM the rescaled times spread 3-6x less than
the raw ones.
"""

import signal
import time

import numpy as np

REF_PROBE_S = 5e-3     # probe duration that defines reference speed
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 6))
_X = _rng.standard_normal(6)
_A = _rng.standard_normal((32, 32))


def probe():
    """Seconds taken by a fixed mix of small numpy calls and Python loops,
    like the per-node work of the solver."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200):
        z = np.tanh(_W @ _X + 0.01 * i)
        m = (_W * z[:, None]).T @ _W
        v = _A @ _A[i % 32]
        s += float(np.linalg.eigvalsh(m)[-1]) + float(np.abs(v).max())
        s += sum(range(40)) * 1e-9
    return time.perf_counter() - t0


def timed(fn):
    """Run fn(); return (result, raw seconds, seconds at reference speed)."""
    marks = []          # (start, end) of each probe

    def take():
        t0 = time.perf_counter()
        probe()
        marks.append((t0, time.perf_counter()))

    def on_alarm(signum, frame):
        take()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    take()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    take()
    raw = ref = 0.0
    for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
        stretch = b0 - a1
        raw += stretch
        ref += stretch * REF_PROBE_S / (((a1 - a0) + (b1 - b0)) / 2.0)
    return out, raw, ref
