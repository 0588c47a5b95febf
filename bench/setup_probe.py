"""Set-up time of a fresh interpreter, and the machine's speed around it.

Times ``import confhad`` (through its command-line module) and building,
building verified and deriving every catalog entry.  Prints the set-up
seconds and the median calibration-kernel seconds of three kernel runs, one
just before the set-up and two just after it.  ``run.py`` starts this script
several times per run and reports the median scaled set-up as ``setup_s``.
"""

import sys
import time
from pathlib import Path

from calibration import kernel_seconds

before = kernel_seconds()
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports confhad and confhad.cli)

workloads.warm_catalog()
setup = time.perf_counter() - start
kernels = sorted([before, kernel_seconds(), kernel_seconds()])
print(setup, kernels[1])
