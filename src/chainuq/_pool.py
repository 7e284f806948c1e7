"""Independent work units mapped over the CPUs the process may run on.

The process's CPU affinity (``taskset``, a cgroup cpuset) is the only
control: with one CPU, or one unit, the units run inline.
"""

from __future__ import annotations

import os

import numpy as np


def cpu_count() -> int:
    """CPUs this process may run on; ``os.cpu_count()`` where no affinity mask exists."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_units(fn, units) -> list:
    """``[fn(u) for u in units]`` on min(CPUs, number of units) threads.

    Results come back in input order. The first exception in input order is
    raised after the queued units are cancelled and the running ones finish,
    so a caller sees the exception the serial loop would raise. Worker threads
    start with numpy's default error state, so each unit runs under the
    caller's ``np.geterr()``.
    """
    units = list(units)
    workers = min(cpu_count(), len(units))
    if workers <= 1:
        return [fn(unit) for unit in units]
    from concurrent.futures import ThreadPoolExecutor  # loaded only when a pool starts

    errstate = np.geterr()

    def run(unit):
        with np.errstate(**errstate):
            return fn(unit)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, units))
