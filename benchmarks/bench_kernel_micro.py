"""Micro-benchmarks of the hot kernels (multi-round, statistical).

Unlike the experiment benches (single-shot table regenerators), these run
the pytest-benchmark protocol properly -- many rounds, statistics -- so
kernel performance regressions show up as timing shifts in CI history.
"""

import pytest

from repro import obs
from repro.geometry import Rect, Region, fracture_array, smooth_jogs
from repro.litho import (
    Grid,
    KernelStore,
    SOCSEngine,
    binary_mask,
    krf_annular,
    rasterize,
)

#: Grid of the kernel cold/warm micro-benchmarks (a typical OPC tile).
KERNEL_GRID = Grid(0, 0, 8.0, 256, 256)


@pytest.fixture(scope="module")
def dense_region():
    rects = [
        Rect(x, y, x + 180, y + 1800)
        for x in range(0, 9200, 460)
        for y in range(0, 8000, 2200)
    ]
    return Region.from_rects(rects)


@pytest.fixture(scope="module")
def second_region():
    rects = [
        Rect(x, y, x + 300, y + 300)
        for x in range(100, 9000, 700)
        for y in range(100, 8000, 700)
    ]
    return Region.from_rects(rects)


def test_micro_boolean_union(benchmark, dense_region, second_region):
    result = benchmark(lambda: dense_region | second_region)
    assert not result.is_empty


def test_micro_boolean_difference(benchmark, dense_region, second_region):
    result = benchmark(lambda: dense_region - second_region)
    assert not result.is_empty


def test_micro_sizing(benchmark, dense_region):
    result = benchmark(lambda: dense_region.sized(20))
    assert result.area > dense_region.area


def test_micro_erosion(benchmark, dense_region):
    result = benchmark(lambda: dense_region.sized(-20))
    assert 0 < result.area < dense_region.area


def test_micro_rasterize(benchmark, dense_region):
    grid = Grid(0, 0, 8.0, 512, 512)
    coverage = benchmark(lambda: rasterize(dense_region, grid))
    assert coverage.max() > 0.99


def test_micro_socs_image(benchmark, dense_region):
    """One band-limited SOCS image on a 256x256 tile grid, kernels warm."""
    grid = Grid(0, 0, 8.0, 256, 256)
    engine = SOCSEngine(krf_annular())
    field = binary_mask(dense_region).field(grid)
    engine.image(field, grid)  # build kernels outside the timed loop
    image = benchmark(lambda: engine.image(field, grid))
    assert image.max() > 0.5


def test_micro_kernel_build_cold(benchmark):
    """A full kernel build: the kernel cache's miss path.

    A fresh engine per call defeats the process-local memo, so every
    round pays the pupil sampling and the thin SVD of the source-pupil
    amplitude matrix.  The mean lands in the run ledger as
    ``quality.kernel_build_cold_s`` for ``repro runs check`` gating.
    """
    kernels = benchmark(
        lambda: SOCSEngine(krf_annular()).kernel_set(KERNEL_GRID, 0.0)
    )
    assert len(kernels.eigenvalues) > 0
    obs.registry().gauge("quality.kernel_build_cold_s").set(
        benchmark.stats.stats.mean
    )


def test_micro_kernel_cache_warm(benchmark, tmp_path):
    """mmap-loading a stored decomposition: the kernel cache's hit path.

    One engine publishes the entry; every timed round then loads it into
    a fresh engine, which is exactly what each multiprocessing OPC worker
    does on its first simulation.  Gated as
    ``quality.kernel_cache_warm_s``.
    """
    store = KernelStore(tmp_path)
    SOCSEngine(krf_annular(), kernel_store=store).kernel_set(KERNEL_GRID, 0.0)

    def load():
        engine = SOCSEngine(krf_annular(), kernel_store=store)
        return engine.kernel_set(KERNEL_GRID, 0.0)

    kernels = benchmark(load)
    assert len(kernels.eigenvalues) > 0
    obs.registry().gauge("quality.kernel_cache_warm_s").set(
        benchmark.stats.stats.mean
    )


def test_micro_fracture(benchmark, dense_region):
    figures = benchmark(lambda: fracture_array(dense_region, 2000))
    assert len(figures) > 50


def test_micro_smooth_jogs(benchmark):
    from repro.geometry import Polygon

    # A wide bar whose top boundary carries a 3 nm sawtooth of jogs.
    points = [(0, 0), (5000, 0), (5000, 400)]
    y = 400
    for x in range(4900, -1, -100):
        points.append((x, y))
        y = 403 if y == 400 else 400
        points.append((x, y))
    staircase = Region(Polygon(points))
    assert staircase.merged().num_vertices > 80
    result = benchmark(lambda: smooth_jogs(staircase, 8))
    assert result.merged().num_vertices < staircase.merged().num_vertices
