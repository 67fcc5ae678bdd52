"""Process set-up shared by the benchmark's scripts; import it first.

Pins BLAS to one thread, which only takes effect before numpy loads, and
puts the checkout's ``src`` and this directory first on ``sys.path`` so
that ``cnpcurv`` is imported from the checkout being measured.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

os.environ.update(BLAS_ENV)
sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
