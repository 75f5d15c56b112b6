"""Phase timing scaled to a reference machine speed.

A shared CPU changes speed by up to 2x over minutes, and fedtier slows in
proportion to a fixed kernel of the same kind of work: small numpy products
and interpreter-bound bookkeeping. The kernel does not touch fedtier, so a
change to the program cannot move it; only the machine does.

A ``Clock`` built with the kernel runs it before the first phase and after
each one, and scales the phase's times by ``REFERENCE_S`` over the mean of
the two kernel times around it. Scaled times read as seconds at the machine
speed where the kernel takes ``REFERENCE_S``. A ``Clock`` built without the
kernel gives raw seconds.

A phase that keeps a thread pool busy is bracketed by the kernel run on as
many threads at once, against ``threads x REFERENCE_S``. Both threads
contend for the interpreter lock as the pool's workers do, and that cost
changes with whether the shared host leaves the second core free, which a
single-threaded kernel cannot see: with it, the CLI workload's
``--workers 2`` protocol times spread about twice as wide from run to run.
"""

import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.011     # the kernel's time on the idle 2-core baseline box
_A, _B = (np.random.default_rng(0).standard_normal(shape) for shape in ((12, 32), (32, 8)))


def _kernel_loop():
    acc = 0.0
    for i in range(4000):
        acc += float((_A @ _B).sum())
        cell = {"i": i}
        acc += cell["i"] * 0.5


def reference_kernel_s(threads: int = 1) -> float:
    """Wall time of the fixed reference kernel, run once on each of
    ``threads`` threads at the same time."""
    pool = [threading.Thread(target=_kernel_loop) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for th in pool:
        th.start()
    _kernel_loop()
    for th in pool:
        th.join()
    return time.perf_counter() - t0


@dataclass
class Phase:
    t0: float = 0.0          # perf_counter when the phase began
    raw_s: float = 0.0       # wall seconds
    factor: float = 1.0      # machine-speed scale for times taken inside the phase

    @property
    def s(self) -> float:
        return self.raw_s * self.factor


class Clock:
    def __init__(self, kernel=None):
        self.kernel = kernel
        self.last = (1, kernel(1)) if kernel else None   # (threads, kernel time)
        self.phases: list[Phase] = []

    @contextmanager
    def phase(self, threads: int = 1):
        """Time the block; the returned Phase is filled in when it ends.
        ``threads`` is how many threads the block keeps busy: the kernel
        around it runs on as many, so that it sees the same contention."""
        if self.kernel and self.last[0] != threads:
            self.last = (threads, self.kernel(threads))
        ph = Phase(t0=time.perf_counter())
        yield ph
        ph.raw_s = time.perf_counter() - ph.t0
        if self.kernel:
            after = self.kernel(threads)
            ph.factor = threads * REFERENCE_S / statistics.fmean([self.last[1], after])
            self.last = (threads, after)
        self.phases.append(ph)

    def factor_at(self, t: float) -> float:
        """The factor of the phase that was running at perf_counter ``t``."""
        return next(ph.factor for ph in reversed(self.phases) if ph.t0 <= t)
