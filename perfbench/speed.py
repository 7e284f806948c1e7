"""Machine-speed calibration for the end-to-end time metrics.

A shared virtual machine changes speed by a third and more over minutes as
its neighbours' load comes and goes, and that moves every timing alike:
back-to-back runs of identical code differ more than the benchmark's bounds.
A fixed kernel, timed in short batches between the operations all through a
run, measures that speed. A time ``t`` is then reported as
``t * kernel.reference_s / k``, with ``k`` the median of all the kernel's
times in the same run: the seconds it would take on a machine where the
kernel takes ``reference_s``. One kernel time is noisy (it varies by a third
from one second to the next, and so would a scale taken next to each
operation); the median over the run follows the slower drift that moves
whole runs. A change to the package moves the scaled times as it moves the
raw ones; a change of machine speed moves the kernel with them and cancels
out.

Each kind of operation has a kernel that resembles it, because the kinds
respond differently to the machine's load: ``WARM`` (interpreter work and
the small numpy calls, gamma draws and 3x3 solves, of the package's hot
paths) for operations inside the benchmark's process, and ``COLD`` (a fresh
interpreter that imports numpy and parses CSV text with the standard
library) for operations that start an interpreter. Neither calls the
package, so no change to the package can move them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MATRIX = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
_SHAPE = np.array([1.5, 2.5, 0.5])
_COLD_CODE = """
import csv, io
import numpy
text = "iteration,label\\n" + "".join(f"{i},m{(i * 7919) % 50}\\n" for i in range(20000))
chains = {}
for row in csv.DictReader(io.StringIO(text)):
    chains.setdefault(row["label"], []).append(int(row["iteration"]))
"""


def _warm() -> None:
    total, table = 0, {}
    for i in range(30_000):
        total += i * i
        table[i & 255] = total
    rng = np.random.default_rng(1)
    for _ in range(300):
        np.linalg.solve(_MATRIX, rng.gamma(_SHAPE))


def _cold() -> None:
    # -I: the interpreter ignores PYTHONPATH, so it cannot see the package
    subprocess.run([sys.executable, "-I", "-c", _COLD_CODE], check=True, timeout=60,
                   stdin=subprocess.DEVNULL)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    repeats: int  # runs per batch
    # a round figure near the kernel's time on a 2-vCPU x86-64 VM (Python
    # 3.11, numpy 2); a fixed unit, not a target
    reference_s: float


WARM = Kernel(_warm, 5, 0.010)  # ran in 7.5-14 ms
COLD = Kernel(_cold, 1, 0.25)  # ran in 0.23-0.31 s


class SpeedLog:
    """The times of one kernel over one run."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        kernel.run()  # warm-up of the kernel itself
        self.times = []

    def measure(self) -> None:
        """Time one batch of the kernel now."""
        for _ in range(self.kernel.repeats):
            t0 = time.perf_counter()
            self.kernel.run()
            self.times.append(time.perf_counter() - t0)

    def spent(self) -> float:
        return sum(self.times)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the speed where the kernel's median time is its reference."""
        return seconds * self.kernel.reference_s / statistics.median(self.times)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.times)
