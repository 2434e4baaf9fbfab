import os
import subprocess
import sys

import numpy as np
import pytest

from curvreach import _kernels as K


KINDS = [
    (K.slope_range_tanh, K._slope_range_tanh_np),
    (K.slope_range_sigmoid, K._slope_range_sigmoid_np),
    (K.slope_range_softplus, K._slope_range_softplus_np),
    (K.curv_range_tanh, K._curv_range_tanh_np),
    (K.curv_range_sigmoid, K._curv_range_sigmoid_np),
    (K.curv_range_softplus, K._curv_range_softplus_np),
]


@pytest.mark.parametrize("active,fallback", KINDS)
def test_active_path_matches_numpy_fallback(active, fallback):
    rng = np.random.default_rng(0)
    lo = rng.uniform(-6, 6, size=500)
    hi = lo + rng.uniform(0, 6, size=500)
    a1, b1 = active(lo, hi)
    a2, b2 = fallback(lo, hi)
    assert np.abs(a1 - a2).max() < 1e-14
    assert np.abs(b1 - b2).max() < 1e-14


def test_interval_affine_paths_agree():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    c = rng.standard_normal(4)
    r = rng.random(4)
    c1, r1 = K.interval_affine(W, b, c, r)
    c2, r2 = K._interval_affine_np(W, b, c, r)
    assert np.abs(c1 - c2).max() < 1e-12
    assert np.abs(r1 - r2).max() < 1e-12


def test_op_norm_inf_paths_agree():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 9))
    assert K.op_norm_inf(A) == pytest.approx(K._op_norm_inf_np(A), abs=1e-12)


def test_env_flag_forces_numpy_fallback():
    code = (
        "from curvreach import _kernels as K;"
        "assert not K.NUMBA_ENABLED;"
        "assert K.interval_affine is K._interval_affine_np"
    )
    env = dict(os.environ, CURVREACH_NO_NUMBA="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_guard_widening_present():
    # computed extrema are widened by the rounding guard, never narrowed
    lo = np.array([0.5])
    hi = np.array([0.5])
    a, b = K.slope_range_tanh(lo, hi)
    exact = 1.0 / np.cosh(0.5) ** 2
    assert a[0] <= exact <= b[0]
    assert b[0] - a[0] >= 1e-12
