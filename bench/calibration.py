"""The calibration kernel: a fixed pure-Python loop that gauges the machine's
speed at the moment it runs.  It imports nothing but ``time``, so that
``setup_probe.py`` can run it next to the set-up it times without loading
anything the set-up would load."""

from time import perf_counter

# The kernel's time on the machine that defined the benchmark (2-vCPU Xeon
# VM, Python 3.11.7, at its fastest).  Times are scaled to it.
KERNEL_REF_S = 0.006


def kernel_seconds() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(30000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += len((k, i, acc & 0xFF))
    return perf_counter() - start
