"""Environment shared by the runner and the set-up probe.

Importing this module pins BLAS to one thread before numpy loads and puts the
checkout's ``src/`` first on ``sys.path``, so the benchmark measures the
library in the checkout it lives in.  It exits with status 2 when that source
tree is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

if not (SRC / "curvreach" / "__init__.py").is_file():
    sys.exit(f"perfbench: no curvreach package under {SRC}")
sys.path.insert(0, str(SRC))
