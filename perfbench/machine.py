"""Machine speed, measured with a fixed kernel that does not call splitstream.

On a shared host the cores this benchmark gets change speed by 20% and more
within seconds, and by several times for a while now and then, with nothing
in the program changing. A fixed kernel timed between the phases of a run
slows and speeds up with them. The benchmark scales every end-to-end timing
of a run to reference speed: it multiplies the time by REFERENCE_S over the
median kernel time of the run. The program's own speed is what remains;
changes of speed within a run are left to the medians over its phases. The
kernel does the kinds of work splitstream does, on a working set of several
MB: an im2col copy, a float32 BLAS matrix product, float64 and float32
`einsum` reductions and a Python loop over small arrays. It is part of the
benchmark, so a change to the program cannot move it. It keeps one core
busy, so it does not see another process on the same machine take the
other core: the benchmark must run alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median sample (the fastest of REPS kernel runs) on the reference machine
# (2 cores, Python 3.11, numpy 2.4.6, OpenBLAS). Scaled timings read as if
# measured there.
REFERENCE_S = 0.062
REPS = 5  # kernel runs per sample; a sample is the fastest, which interruptions do not reach


class SpeedProbe:
    """Times the fixed kernel; `sample()` returns seconds per kernel run."""

    def __init__(self):
        rng = np.random.default_rng(20240913)
        self.x = rng.standard_normal((4, 32, 34, 34)).astype(np.float32)
        self.w = rng.standard_normal((32, 32 * 9)).astype(np.float32)
        self.g = rng.standard_normal((4, 32, 32 * 32)).astype(np.float32)
        self.small = [rng.standard_normal((4, 8)).astype(np.float32) for _ in range(64)]
        self.samples: list[float] = []
        for _ in range(REPS):  # the first runs in a process can be several times slower
            self.kernel()

    def kernel(self) -> float:
        """A 3x3 conv over a 4x32x32x32 map, forward and backward, in the
        way tensor.conv2d computes it, then small-array Python work."""
        win = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(2, 3))
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(4, 32 * 9, 32 * 32).copy()
        y = self.w @ cols
        gw = np.einsum("nol,nkl->ok", self.g, cols, dtype=np.float64)
        gc = np.einsum("ok,nol->nkl", self.w, self.g)
        acc = float(y[0, 0, 0]) + float(gw[0, 0]) + float(gc[0, 0, 0])
        for a in self.small:
            acc += float((a * 0.5 + 1.0).sum())
        return acc

    def sample(self) -> float:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        s = min(times)
        self.samples.append(s)
        return s


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured among these kernel samples to
    reference speed."""
    return REFERENCE_S / statistics.median(samples)
