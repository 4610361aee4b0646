"""Run the suite on one BLAS thread unless the environment says otherwise.

A threaded BLAS may sum in another order, so some fits move in their last
bits with the thread count; on one thread they are the same on any
machine, and on a small one the suite runs faster. pytest imports this
file before any test module, so before NumPy loads its BLAS; a value
already exported wins.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
