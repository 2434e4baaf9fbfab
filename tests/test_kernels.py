import numpy as np

from curvreach import _kernels as K


def test_guard_widening_present():
    # computed extrema are widened by the rounding guard, never narrowed
    lo = np.array([0.5])
    hi = np.array([0.5])
    a, b = K.slope_range_tanh(lo, hi)
    exact = 1.0 / np.cosh(0.5) ** 2
    assert a[0] <= exact <= b[0]
    assert b[0] - a[0] >= 1e-12
