"""Ablation A2: SOCS kernel count -- accuracy vs speed.

The Hopkins/SOCS decomposition keeps only the dominant coherent kernels.
The ablation measures the image error against the Abbe reference and the
per-image evaluation time as the kernel budget grows.

Expected shape: error falls steeply with the first handful of kernels
(the TCC spectrum decays fast) while time grows only slowly with kernel
count: the kernel fields run on a small band-limited grid, so the
full-size mask FFT and the one upsample dominate.
"""

import time

import numpy as np

from repro.flow import print_table
from repro.geometry import Rect, Region
from repro.litho import AbbeEngine, Grid, SOCSEngine, binary_mask, krf_annular

KERNELS = (2, 6, 12, 24, 48)


def run_experiment():
    optics = krf_annular()
    grid = Grid(-960, -960, 8.0, 240, 240)
    lines = Region.from_rects(
        [Rect(x, -960, x + 180, 960) for x in range(-920, 920, 460)]
    )
    field = binary_mask(lines).field(grid)
    reference = AbbeEngine(optics).image(field, grid)
    rows = []
    for count in KERNELS:
        engine = SOCSEngine(optics, max_kernels=count, eigen_cutoff=0.0)
        engine.kernel_set(grid, 0.0)  # build outside the timed region
        start = time.perf_counter()
        image = engine.image(field, grid)
        elapsed = time.perf_counter() - start
        error = float(np.abs(image - reference).max())
        energy = engine.kernel_set(grid, 0.0).truncation_energy
        rows.append([count, energy, error, elapsed * 1000])
    return rows


def test_a02_kernel_count_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print_table(
        ["kernels", "TCC energy kept", "max |err| vs Abbe", "image time (ms)"],
        rows,
        title="A2: SOCS kernel-count ablation (dense 180 nm lines)",
    )
    errors = [r[2] for r in rows]
    energies = [r[1] for r in rows]
    # Shape: error monotonically non-increasing, energy increasing, and 24
    # kernels already land below 1% intensity error.
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))
    assert dict(zip(KERNELS, errors))[24] < 0.01
