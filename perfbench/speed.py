"""Speed of the machine while a call runs, and call times rescaled by it.

On a shared host the same job's wall time swings by up to 2x, within a
second and from one minute to the next, as other tenants load the cores.
Fixed probe kernels slow down with it.  ``factor()`` times them against
their reference times, and ``Meter`` divides a call's wall time by the
factor before, during and after the call, raised to ``SENSITIVITY``: a
reference time, the time the call would take on the reference machine at
its median speed.

The kernels are in the styles the program's time goes to: integer
bytecode, small objects in a dict, and small numpy calls.  The program
slows more than they do: over 75 passes of the four workloads, at factors
from 1.03 to 2.61, its wall time went as the factor to the power 1.27
(least squares on the logs, one intercept per workload).  With the power
1.25 the pass-to-pass spread of the reference time (standard deviation of
its log) fell from 0.04-0.08 to 0.03-0.04 on every workload.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

#: a call is probed from a timer signal this long (s) after it starts and
#: then at every INTERVAL_S of wall time: the speed changes within a second
FIRST_S = 0.02
INTERVAL_S = 0.05
#: the probe inside a call runs this share of the full kernels
IN_CALL_SHARE = 0.125
#: power of the speed factor by which the program's wall time grows
SENSITIVITY = 1.25


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _integers(n: int):
    s = 0
    for i in range(n):
        s += i * i
    return s


def _objects(n: int):
    table = {i: _Node(i, 0.0) for i in range(1024)}
    for i in range(n):
        node = _Node(i, float(i))
        table[i & 1023] = node
        node.value = node.value * 1.0001 + table[(i * 7) & 1023].key
    return len(table)


_BUFFER = np.linspace(0.0, 1.0, 1 << 20)


def _small_numpy(n: int):
    x = 0.0
    for i in range(n):
        part = _BUFFER[(i % 1024) * 1024:(i % 1024 + 1) * 1024]
        x += float(np.dot(part, part))
    return x


#: (kernel, size, time in s at that size) with each time the kernel's
#: median on the 2-vCPU VM the benchmark was tuned on
PROBES = ((_integers, 100000, 0.0070), (_objects, 20000, 0.0110),
          (_small_numpy, 2048, 0.0042))


def factor(share: float = 1.0) -> float:
    """Geometric mean of the probe kernels' time over their reference
    time, each run at ``share`` of its size: 1 on the reference machine at
    its median speed, above 1 when the machine runs slower."""
    logs = []
    for kernel, size, reference_s in PROBES:
        n = max(1, round(size * share))
        t0 = perf_counter()
        kernel(n)
        logs.append(math.log((perf_counter() - t0) / (reference_s * n / size)))
    return math.exp(sum(logs) / len(logs))


def rescale(speeds, power: float = SENSITIVITY) -> float:
    """Wall time over reference time at the given speed factors: their
    geometric mean to ``power``."""
    mean_log = sum(math.log(f) for f in speeds) / len(speeds)
    return math.exp(power * mean_log)


class Meter:
    """Times calls one after another in wall and reference seconds.

    The probe runs before the first call and after each call; during a
    call a timer signal runs a short probe every ``INTERVAL_S`` unless
    ``in_call`` is false (a traced pass, whose spans would count the
    probes).  The time the in-call probes take is taken off the call's wall
    time.  No thread is started.
    """

    def __init__(self, in_call: bool = True):
        self.in_call = in_call
        self.last = factor()
        self.wall_s = self.ref_s = 0.0

    def call(self, fn, *args):
        """``fn(*args)``; sets ``wall_s`` and ``ref_s`` also when it raises."""
        samples = []
        spent = 0.0

        def on_alarm(signum, frame):
            nonlocal spent
            t0 = perf_counter()
            samples.append(factor(IN_CALL_SHARE))
            spent += perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        if self.in_call:
            signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            after = factor()
            speeds = [self.last, *samples, after]
            self.last = after
            self.wall_s = elapsed - spent
            self.ref_s = self.wall_s / rescale(speeds)
