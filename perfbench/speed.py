"""Scale measured times to a reference CPU speed.

The machines this benchmark runs on change speed for tens of seconds at a
time, by up to a third, while the process keeps its CPU (thread time
tracks wall time): other tenants load the shared core. Every time the
benchmark measures in its own process is therefore multiplied by
``REFERENCE_S / k``, where ``k`` is the mean time of a fixed
interpreter-bound kernel sampled throughout the same run. A change to the
library moves the measured times but not the kernel, so it shows in full;
a change in machine speed moves both and cancels. The run report keeps the
unscaled times and the factor.

The kernel mixes float arithmetic, a strided walk over a list of float
objects and string building, so that it loses speed to a busy neighbour on
the shared core in about the same proportion as the library's searches and
writers do; a pure arithmetic loop loses less. It allocates one list per
call and otherwise only objects the garbage collector does not track. The
library can still slow it through the caches and the heap it leaves
behind, or through a thread of its own, and so hide part of its own cost.

Set-up time is spent in fresh interpreters, mostly importing and loading;
over 150 set-up children it moved with about the square root of the
kernel's time, so the kernel over-corrects it. It is scaled instead by a
reference child of the same kind, run right before and after each set-up
child: a fresh interpreter that imports numpy and runs the kernel
(``python3 perfbench/speed.py``). The reference child never imports the
library, so its kernel times also give a library-free speed factor. The
run sets it beside the factor sampled among the library's operations; the
two are taken over the same stretch of the run, so a gap between them
comes from the library rather than the machine.
"""
from __future__ import annotations

import math
import statistics
import time

#: About the kernel's mean time in seconds on a 2-core x86-64 machine (Python 3.11).
REFERENCE_S = 0.7e-3
#: Seconds of measured work between two kernel samples.
SAMPLE_EVERY_S = 0.05
#: Kernel calls in one reference child.
REFERENCE_CHILD_KERNELS = 120
#: About the reference child's wall time in seconds on the same machine.
REFERENCE_CHILD_S = 0.25


_DATA = [1.5 * i for i in range(10500)]


def kernel() -> float:
    acc, x, parts = 0.0, 1.0, []
    for j in range(0, len(_DATA), 7):
        x = math.sqrt(x * 1.0001 + _DATA[j]) - 0.5 * x / (1.0 + x)
        acc += x
        if j % 5 == 0:
            parts.append(str(x))
    return acc + len("".join(parts))


class SpeedSampler:
    """Kernel times sampled at even intervals of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Take a sample if enough time passed since the last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiplier from measured times to times at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)


def reference_child() -> None:
    """Body of a reference child: import numpy, print the kernel's times."""
    import json
    import numpy  # noqa: F401  the set-up children import it too

    times = []
    for _ in range(REFERENCE_CHILD_KERNELS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    print(json.dumps(times[1:]))   # the first call runs on cold caches


if __name__ == "__main__":
    reference_child()
