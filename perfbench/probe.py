"""A fixed reference task that measures how fast the machine runs right now.

The benchmark host is a small VM on a shared machine.  Its speed for the
same code drifts by up to about 1.7x, in stretches of seconds to minutes,
in CPU time as much as in wall time, so the process runs slower rather
than waits.  A run's median cannot average a drift that lasts longer than
the run.

So the timed loop runs this probe just before every operation and every
set-up, and scales that operation's time by ``REFERENCE_S / probe
seconds``: a time is reported as it would read on the machine running at
the reference speed.  The probe is fixed code in this directory, so no
change to the library can change it; it mixes the kinds of work the
library does (interpreted Python, many small numpy calls, matmul and exp
at the attention's sizes, and reads from memory past the per-core cache),
because each kind slows by a different amount when the host is busy.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's median time on the 2-vCPU VM the baseline was taken on;
# a scaled time equals the raw time when the probe runs in this long
REFERENCE_S = 0.07


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((512, 16))
        self.b = rng.standard_normal((16, 128))
        self.w = rng.standard_normal((32, 32)) * 0.1
        self.x = rng.standard_normal(32)
        self.buf = np.ones(4_000_000)  # 32 MB, past the per-core L2 cache

    def __call__(self) -> float:
        """Seconds the reference task takes now."""
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(100_000):
            acc += (i * 0.5) % 7.0
            table[i & 255] = acc
        h = np.zeros(32)
        for _ in range(4_000):
            h = np.tanh(self.w @ self.x + h * 0.5)
        for _ in range(60):
            np.exp(self.a @ self.b * 0.01).sum(axis=0)
        for _ in range(4):
            self.buf.sum()
        return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a raw time taken after this probe into a reference time."""
    return REFERENCE_S / probe_s
