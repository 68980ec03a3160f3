"""Pin BLAS to one thread for the test session unless the environment
already sets a count.

numpy reads these variables when it is first imported, which happens
after this file runs.  With the BLAS default of one thread per CPU, the
paper-width tests slow down many times over when another process keeps a
CPU busy, since the BLAS threads then wait on each other.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
