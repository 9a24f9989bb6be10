"""Host speed, measured on the thread that runs the program.

On a shared host the same code runs up to 1.6 times slower for stretches of
seconds to minutes, so raw times from runs minutes apart differ by more than
any bound worth setting.  This module times a fixed kernel (a BLAS product,
an elementwise pass and an interpreter loop, about 2 ms) on the measuring
thread, close in time to the program's own work, and reports the program's
time at a fixed reference speed: each stretch of program time is multiplied
by ``REF_S`` over the kernel time measured next to it.  A change that makes
the program slower still raises the result in proportion; a host that slows
everything down changes it far less.

Two ways to sample:

* ``kernel_s()`` between operations that the caller times itself;
* ``Sampler``, a SIGALRM timer that runs the kernel every ``PERIOD`` seconds
  inside a long in-process run.  The handler runs between bytecodes, so a
  long C call delays the next sample until it returns.
"""

import signal
import time

import numpy as np

REF_S = 0.002       # kernel time that defines the reference speed
PERIOD = 0.05       # seconds between timer samples

_A = np.random.default_rng(1).standard_normal((256, 256))
_B = np.random.default_rng(2).standard_normal((256, 448))


def _kernel():
    x = _A @ _B
    y = np.sqrt(np.abs(x)) * 0.5 + x
    s = 0.0
    for i in range(1000):
        s += i * 0.5
    return float(y[0, 0]) + s


def kernel_s():
    """Thread CPU time of one kernel run, in seconds."""
    c0 = time.thread_time()
    _kernel()
    return time.thread_time() - c0


class Sampler:
    """Timer samples ``(t_end, wall_s, kernel_s)``: when the kernel ended
    (``time.monotonic``), the wall time the sample took from the program,
    and the kernel's thread CPU time."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        w0 = time.perf_counter()
        k = kernel_s()
        self.samples.append((time.monotonic(), time.perf_counter() - w0, k))

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        """Stop the timer and take one last sample, which closes the final
        stretch; its time is not program time."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        t_end = time.monotonic()
        self.samples.append((time.monotonic(), 0.0, kernel_s()))
        return t_end

    def times(self, t0, t1):
        """(raw, normalized) program seconds from ``t0`` to ``t1``: the
        interval less the samples' own time, and the same at reference
        speed, each stretch scaled by the kernel time that ends it."""
        raw = norm = 0.0
        prev = t0
        for t_end, wall, k in self.samples:
            if t_end <= t0:
                continue
            stretch = max(0.0, min(t_end - wall, t1) - prev)
            raw += stretch
            norm += stretch * REF_S / k
            prev = t_end
            if prev >= t1:
                break
        return raw, norm
