"""A fixed calibration kernel that tracks the machine's speed during a run.

On a shared virtual machine the same code runs at speeds that differ by up
to 2x for tens of seconds at a time, so raw wall times of whole runs spread
more than any useful regression bound.  The kernel does fixed work of the
kinds the workloads do, in about equal shares (sparse LU solves with four
right-hand sides, small dense and vector numpy operations, interpreted
Python with dicts and strings), without calling the package.  It runs between consecutive timed blocks, and each block's
timings are multiplied by ``REF_KERNEL_S`` over the mean of the two kernel
times around it: seconds at a reference speed at which one kernel takes
``REF_KERNEL_S``.  A change to the package moves the timings but not the
kernel; the raw timings are recorded with every run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REF_KERNEL_S = 0.15
GRID_SIDE = 44  # 1936 unknowns, about the size of the tiled Newton matrix
REPEATS = 72
SMALL_OPS = 12  # numpy and Python steps per LU solve
VECTOR = 1500


class Calibration:
    def __init__(self):
        lap = sp.diags([-1.0, 4.5, -1.0], [-1, 0, 1], shape=(GRID_SIDE, GRID_SIDE))
        eye = sp.eye(GRID_SIDE)
        matrix = (sp.kron(eye, lap) + sp.kron(sp.diags([-1.0, -1.0], [-1, 1], shape=lap.shape), eye)).tocsc()
        self._lu = splu(matrix)
        rng = np.random.default_rng(0)
        self._rhs = rng.standard_normal((matrix.shape[0], 4))
        self._v = rng.standard_normal(VECTOR) + 1j * rng.standard_normal(VECTOR)
        self._t = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        self.samples: list[float] = []

    def _work(self) -> float:
        acc = 0.0
        for _ in range(REPEATS):
            x = self._lu.solve(self._rhs)
            acc += float(x[0, 0])
            for _ in range(SMALL_OPS):
                y = np.abs(self._v * np.conj(self._v[::-1]))
                acc += float(y.max()) + float(np.linalg.cond(self._t))
                table = {i: (i * 7) % 101 for i in range(150)}
                acc += sum(table[i] + len(str(i)) for i in range(150))
        return acc

    def tick(self) -> float:
        """Time one kernel run; return the scale for the block since the previous run."""
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)
        return REF_KERNEL_S / statistics.mean(self.samples[-2:])

    def scale(self) -> float:
        """One scale for the whole run, from the median kernel time."""
        return REF_KERNEL_S / statistics.median(self.samples)
