"""Machine-speed calibration.

On a shared 2-vCPU virtual machine (CPython 3.11.7) the speed changed by up
to ±40 % from one few-second stretch to the next, so raw times spread by
20-40 % between runs of the same work.  A pass therefore times a fixed
reference kernel every PERIOD_S, from a SIGALRM handler, and the benchmark
reports each time in reference seconds:

    reference seconds = seconds of benchmark work x mean kernel speed,

where the kernel speed is REFERENCE_S / kernel time (1.0 at the speed the
constant was taken at) and the mean is over the kernels run during the
timed stretch.  The kernel's own time is taken out of the work time first.
Raw times are reported next to the reference ones.  The kernel touches no
bmlab code and allocates no tracked objects, so it cannot trigger garbage
collection of the workload's heap.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
# a unit's speed averages the kernels this close to it: single kernels vary
# by about 20 %, while the machine's speed holds for seconds at a time
WINDOW_S = 0.25
KERNEL_STEPS = 8000
REFERENCE_S = 0.0011  # typical kernel time on that 2-vCPU machine

_TABLE = {i: (i * 7919 + 13) % 4096 for i in range(4096)}


def kernel():
    t, x = _TABLE, 1
    for i in range(KERNEL_STEPS):
        x = t[x ^ (i & 4095)]
    return x


class Speedometer:
    """Kernel samples as (start time, relative speed), and the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, REFERENCE_S / (t1 - t0)))
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_clock(self):
        """perf_counter() less the time spent in kernels."""
        return time.perf_counter() - self.spent

    def speed(self, t0=float("-inf"), t1=float("inf")):
        """Mean speed of the kernels started within WINDOW_S of [t0, t1],
        or of the one nearest to that stretch when none was."""
        inside = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if inside:
            return statistics.mean(inside)
        return min(self.samples, key=lambda ts: min(abs(ts[0] - t0), abs(ts[0] - t1)))[1]
