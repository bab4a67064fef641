"""Print the seconds a fresh process takes to import lrusim and make its
first call (`workloads.warm_up`). `run.py` runs it several times per run and
reports the median as `setup_s`; the interpreter's own start is excluded.

Usage: python3 lrubench/setup_probe.py
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lrusim  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up()
print(perf_counter() - START)
