"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a core shifts by tens of percent, in
levels that last seconds, as neighbours come and go.  Timing this
kernel on the same CPU just before and just after a piece of timed work
gives the host's speed during that piece: the benchmark reports the
piece's wall time scaled by ``REFERENCE_S`` over the median of those
kernel times, i.e. in seconds of a host on which the kernel takes
``REFERENCE_S``.

The kernel uses numpy only, never ``algebroids``, so a change to the
program cannot move it.  It mixes what the workloads do: many small
array operations driven from Python (the expression evaluator and RK4
steps) and transcendental functions over an array larger than a core's
cache (the sphere grids).

Import this module only after the thread pools are pinned.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of one kernel call on the 2-vCPU VM the
# benchmark was written on; it only sets the scale of the times.
REFERENCE_S = 0.015
# Kernel time kept at this share of the timed work it accompanies.
SHARE = 0.1

_SMALL = np.linspace(0.0, 1.0, 50)
_LARGE = np.linspace(0.0, 1.0, 1 << 20)
_LARGE_OUT = np.empty_like(_LARGE)  # no allocation, so no page faults, in the kernel


def kernel() -> float:
    acc = 0.0
    for k in range(600):
        v = np.sin(_SMALL * k) + _SMALL
        acc += float(np.stack([v, _SMALL]).sum())
        acc += len(str({"k": k, "pair": [k, k + 1]}))
    np.add(_LARGE, acc * 1e-9, out=_LARGE_OUT)
    acc += float(np.sin(_LARGE_OUT, out=_LARGE_OUT).sum())
    return acc


class Speed:
    """Kernel times taken around each timed piece of work in one stream.

    The host's speed shifts between levels that last seconds: longer
    than one piece of work, shorter than a timed window.  So each piece
    is scaled by kernel times taken on the same CPU just before and just
    after it, each set lasting at least SHARE / 2 of the piece.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_times: list[list[float]] = []
        self._pending: list[float] = []

    def before(self) -> None:
        """Time the kernel before a piece of work."""
        guess = self.times[-1] if self.times else 0.0
        self._pending = self._kernels(guess)

    def after(self, elapsed: float) -> None:
        """Record a piece of work of ``elapsed`` wall seconds, then time the kernel."""
        self.times.append(elapsed)
        self.kernel_times.append(self._pending + self._kernels(elapsed))

    def referenced(self) -> list[float]:
        """Each piece's wall time in reference seconds."""
        return [
            t * REFERENCE_S / statistics.median(k) for t, k in zip(self.times, self.kernel_times)
        ]

    @staticmethod
    def _kernels(elapsed: float) -> list[float]:
        out: list[float] = []
        while not out or sum(out) < SHARE / 2 * elapsed:
            start = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - start)
        return out
