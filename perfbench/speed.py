"""Machine-speed probe: a fixed block of work timed next to every command.

On a shared machine the speed one process gets drifts by tens of percent,
over seconds to minutes, as neighbours load the same cores; the commands'
wall times drift with it.  Dividing a command's wall time by the mean of
the probes timed right before and right after it cancels most of that
drift; :class:`ReferenceClock` applies it to the ``ref_*`` metrics and
``setup_s`` of ``bench.py``.

The probe mixes the three kinds of code the commands run: Python-level
CSV formatting of floats (the writer), numpy sweeps over a large array
(the kernel) and many numpy calls on small arrays (the census merge).  It
never calls the package, so no change to the package can move it.
"""

from __future__ import annotations

import csv
import gc
import io
import time

import numpy as np

#: Probe time on the reference machine (2 vCPUs, Python 3.11.7, numpy
#: 2.4.6, quiet).  It only sets the scale of the scaled metrics and must
#: stay fixed, or every scaled figure moves with it.
REFERENCE_S = 0.15


class SpeedProbe:
    """Callable returning the wall time of one fixed block of work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.random(20_000).tolist()
        self.array = rng.random(250_000)
        self.small = [rng.random((10, 8)) for _ in range(40)]

    def __call__(self) -> float:
        gc.collect()
        start = time.perf_counter()
        writer = csv.writer(io.StringIO())
        for i, v in enumerate(self.values):
            writer.writerow([i, repr(v), repr(0.5 * v)])
        x = self.array
        for _ in range(40):
            y = 4.0 * x * (1.0 - x)
            x = np.where(y > 0.9, 0.9, y)
        for a in self.small:
            for b in self.small:
                d = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
                max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
        return time.perf_counter() - start


class ReferenceClock:
    """Scales wall times to reference machine speed.

    Construction times one probe; each :meth:`scale` call times the next
    and divides by the mean of the two probes around the measured span.
    """

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        self.probes = [self.probe()]

    def scale(self, wall: float) -> float:
        """Scale a wall time measured since the previous probe."""
        self.probes.append(self.probe())
        return wall * 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
