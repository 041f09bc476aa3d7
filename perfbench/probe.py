"""Time one set-up of quantcs: import the package and finish a tiny warm-up run.

Usage: ``python3 perfbench/probe.py ROOT PLAN CSV``. Prints the seconds from
before the import to the end of the warm-up, so BLAS start-up and lazy
imports are counted; the interpreter's own start-up is not.
"""

import time

t0 = time.perf_counter()

import io  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

root, plan, out = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))
from quantcs.cli import main  # noqa: E402

with redirect_stdout(io.StringIO()):
    rc = main(["run", "--config", plan, "--out", out])
if rc != 0:
    sys.exit(rc)
print(repr(time.perf_counter() - t0))
