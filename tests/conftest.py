"""Pin the BLAS and OpenMP pools to one thread before numpy loads.

OpenBLAS reads its thread count once, when numpy is first imported, and
the key-lemma counts are BLAS matrix products whose wall time under the
default threading swings several-fold on a small host.  pytest imports
this file before any test module, so the settings take effect; a value
already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
