"""Suite-wide setup: one BLAS thread, as perfbench/run.py sets, so that the
eigensolves do not thrash a host with few cores.  pytest loads this file
before any test module imports numpy, which reads these variables once."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
