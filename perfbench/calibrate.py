"""A fixed unit of work that measures how fast the host runs right now.

The benchmark's hosts are shared: their vCPUs get slower and faster by
tens of per cent over minutes, CPU time slows with them, and two
invocations of the same code can differ by a quarter.  ``run.py`` times
this unit between the timed runs and reports their wall and CPU times
scaled to the speed at which the unit takes :data:`REFERENCE_S` (see
``NOTES.md``).

The unit uses no ``repro`` code, so a change to the program cannot change
it.  It mixes the two kinds of work the workloads do in about equal time:
FFTs, products and magnitudes on a tile-sized complex grid (imaging) and
plain-Python loops over integer tuples, lists and dicts (geometry).  Its
arrays are allocated once and the cyclic garbage collector is paused
while it runs, so its time does not depend on the heap the workload left
behind.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: Seconds one unit takes at the reference speed, a fixed scale: units
#: took 0.13-0.30 s in the benchmark's processes on a 2-vCPU Xeon host
#: (python 3.11, numpy 2.4).  No comparison depends on its value.
REFERENCE_S = 0.200

_GRID = 256
_KERNELS = 4
_PASSES = 16
_EDGES = 3000


class Calibration:
    """Preallocated inputs and buffers of the calibration unit."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2001)
        self.grid = (rng.random((_GRID, _GRID)) > 0.5).astype(complex)
        self.kernels = rng.standard_normal((_KERNELS, _GRID, _GRID)) + 0j
        self.spectrum = np.empty((_GRID, _GRID), dtype=complex)
        self.product = np.empty((_GRID, _GRID), dtype=complex)
        self.field = np.empty((_GRID, _GRID), dtype=complex)
        self.magnitude = np.empty((_GRID, _GRID))
        self.intensity = np.empty((_GRID, _GRID))
        self.edges = []
        for x, y, w, h in rng.integers(0, 4000, size=(_EDGES // 2, 4)).tolist():
            self.edges.append((x, y, y + h // 8 + 40, 1))
            self.edges.append((x + w // 8 + 40, y, y + h // 8 + 40, -1))

    def _imaging(self) -> None:
        np.fft.fft2(self.grid, out=self.spectrum)
        self.intensity.fill(0.0)
        for _ in range(_PASSES):
            for kernel in self.kernels:
                np.multiply(self.spectrum, kernel, out=self.product)
                np.fft.ifft2(self.product, out=self.field)
                np.abs(self.field, out=self.magnitude)
                np.square(self.magnitude, out=self.magnitude)
                self.intensity += self.magnitude

    def _geometry(self) -> int:
        # A scanline over axis-parallel edges: sort, bucket by x, sweep.
        columns: dict = {}
        for x, y1, y2, sign in sorted(self.edges):
            columns.setdefault(x, []).append((y1, y2, sign))
        depth: dict = {}
        covered = 0
        for x in sorted(columns):
            for y1, y2, sign in columns[x]:
                for y in range(y1, y2, 120):
                    depth[y] = depth.get(y, 0) + sign
            covered += sum(1 for value in depth.values() if value > 0)
        return covered

    def seconds(self) -> float:
        """Wall seconds one calibration unit takes now."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._imaging()
            self._geometry()
            return perf_counter() - start
        finally:
            if collecting:
                gc.enable()
