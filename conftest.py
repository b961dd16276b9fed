"""Pin the BLAS kernel that the tests' goldens and digests were recorded under.

numpy's OpenBLAS, built for many CPUs at once, picks a kernel for the CPU it
loads on, and kernels round the Gram products differently in the last bit,
which the golden files and the block digests hold.  Haswell's kernel runs on
every x86-64 CPU with AVX2, so the tests pin it for their own process and
for the CLI processes they start, unless ``OPENBLAS_CORETYPE`` is already
set.  OpenBLAS reads the variable once, when numpy first loads it, so this
file refuses to run after numpy has been imported.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could set OPENBLAS_CORETYPE")
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
