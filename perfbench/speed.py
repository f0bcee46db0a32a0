"""Machine-speed calibration for the end-to-end timings.

On a host whose cores are shared, the speed of a vCPU flips between a fast
and a slow state. On a shared 2-vCPU Xeon host (2.1 GHz), the slow state
ran at about 0.6x, over spans from a fraction of a second to
minutes. The two vCPUs flip independently, so a monitor on the other vCPU
cannot stand in. Raw wall times of one flow spread by 30-50% from run to
run there.

So while a timed block runs, a SIGALRM timer interrupts it every 10 ms and
times a small fixed kernel of numpy and interpreter work, the mix the
package's hot paths are made of. The block's time at reference speed is
its wall time less the kernel time, times ``reference_s`` over the mean
kernel time during the block. The kernel never touches the package, so a
slower program still reads slower. Only a change in the host's speed is
divided out.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.01
_VEC = np.arange(16.0)


def _kernel() -> None:
    vec = _VEC
    for _ in range(30):
        vec = np.unique(vec * 1.0000001)
    acc = 0
    for i in range(300):
        acc += i * i % 7


@dataclass
class Watch:
    seconds: float = 0.0  # wall time of the block, less any kernel time inside it
    ref_s: float = 0.0  # the same at the reference speed


@contextmanager
def plain_stopwatch():
    """Wall time only, for runs without calibration."""
    watch = Watch()
    t0 = time.perf_counter()
    yield watch
    watch.seconds = watch.ref_s = time.perf_counter() - t0


class Calibrator:
    reference_s = 0.0004  # kernel time inside a flow at the reference speed; a scale only

    def __init__(self):
        self.factors: list[float] = []  # one per timed block, for the details file

    def tick(self, ticks: list) -> None:
        t0 = time.perf_counter()
        _kernel()
        ticks.append(time.perf_counter() - t0)

    def factor(self, ticks: list) -> float:
        """reference_s over the mean kernel time; kernel runs slowed more
        than threefold by a context switch are left out."""
        typical = statistics.median(ticks)
        kept = [t for t in ticks if t <= 3 * typical]
        factor = self.reference_s / statistics.fmean(kept)
        self.factors.append(factor)
        return factor

    @contextmanager
    def stopwatch(self):
        """Time the block while sampling the speed; not reentrant."""
        ticks: list[float] = []
        watch = Watch()
        self.tick(ticks)
        previous = signal.signal(signal.SIGALRM, lambda *_: self.tick(ticks))
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield watch
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        inside = sum(ticks[1:])
        self.tick(ticks)
        watch.seconds = wall - inside
        watch.ref_s = watch.seconds * self.factor(ticks)
