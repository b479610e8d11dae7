"""Parity regression suite: parallel tiled OPC == serial tiled OPC.

The whole value of the multiprocessing execution layer rests on one
guarantee: fanning tiles out over workers and stitching the outcomes
back changes *nothing* about the result.  For several generated layouts
the suite asserts the stitched geometry is byte-identical (same loops,
same vertex order), the per-iteration EPE stats match exactly, and the
mask figure counts agree, across worker counts.  The telemetry the
workers send back folds into the same counters and tile spans the
serial loop records in-process.
"""

import pytest

from repro import obs
from repro.design import (
    BlockSpec,
    line_space_array,
    node_180nm,
    random_logic_block,
    sram_array,
)
from repro.layout import POLY, layout_stats
from repro.mask import mask_data_stats
from repro.geometry import Rect, Region
from repro.opc import ModelOPCRecipe, ParallelSpec, TilingSpec, model_opc_tiled

RECIPE = ModelOPCRecipe(max_iterations=1)
TILING = TilingSpec(tile_nm=1500, halo_nm=600)


@pytest.fixture(scope="module")
def layouts(mixed_lines):
    """Named (target, window, tiling) cases: test pattern, SRAM, routed block."""
    rules = node_180nm()
    sram = sram_array(rules, cols=2, rows=2)
    sram_poly = sram.top_cells()[0].flat_region(POLY)
    block = random_logic_block(rules, BlockSpec(rows=1, row_width=4000, seed=3))
    top = max(block.top_cells(), key=lambda c: layout_stats(c).flat_figures)
    block_poly = top.flat_region(POLY)
    return {
        "lines": (mixed_lines, Rect(-1200, -1600, 1400, 1600), TILING),
        "sram": (sram_poly, None, TilingSpec(tile_nm=2400, halo_nm=600)),
        "block": (block_poly, None, TilingSpec(tile_nm=2400, halo_nm=600)),
    }


@pytest.fixture(scope="module")
def serial_results(layouts, simulator, anchor_dose):
    return {
        name: model_opc_tiled(
            target, simulator, window, RECIPE, tiling=tiling, dose=anchor_dose
        )
        for name, (target, window, tiling) in layouts.items()
    }


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("name", ["lines", "sram", "block"])
def test_parallel_matches_serial(
    name, n_workers, layouts, serial_results, simulator, anchor_dose
):
    target, window, tiling = layouts[name]
    serial = serial_results[name]
    parallel = model_opc_tiled(
        target, simulator, window, RECIPE, tiling=tiling, dose=anchor_dose,
        parallel=ParallelSpec(n_workers=n_workers),
    )
    # Byte-identical stitched geometry: same loops in the same order.
    assert parallel.corrected.loops == serial.corrected.loops
    # Identical EPE statistics, iteration by iteration.
    assert parallel.history == serial.history
    assert parallel.converged == serial.converged
    assert parallel.fragment_count == serial.fragment_count
    # Identical mask data: figure and vertex counts agree.
    serial_data = mask_data_stats(serial.corrected)
    parallel_data = mask_data_stats(parallel.corrected)
    assert parallel_data.figures == serial_data.figures
    assert parallel_data.vertices == serial_data.vertices


def test_single_tile_parallel_degenerates_to_serial(
    simulator, anchor_dose, iso_line
):
    """One tile never pays pool overhead and still matches serial exactly."""
    window = Rect(-600, -600, 800, 600)
    serial = model_opc_tiled(
        iso_line, simulator, window, RECIPE,
        tiling=TilingSpec(tile_nm=5000), dose=anchor_dose,
    )
    parallel = model_opc_tiled(
        iso_line, simulator, window, RECIPE,
        tiling=TilingSpec(tile_nm=5000), dose=anchor_dose,
        parallel=ParallelSpec(n_workers=4),
    )
    assert parallel.corrected.loops == serial.corrected.loops


def test_empty_target_with_parallel_spec(simulator):
    result = model_opc_tiled(
        Region(), simulator, parallel=ParallelSpec(n_workers=2)
    )
    assert result.corrected.is_empty


def test_telemetry_is_the_same_at_any_worker_count(simulator):
    """Counter totals, histogram counts and ``opc.tile`` span attributes
    do not depend on how many workers corrected the tiles.  Kernel-cache
    counters do: every worker process warms its own cache."""
    target = line_space_array(180, 280, count=7, length=2400).region
    recipe = ModelOPCRecipe(max_iterations=2)

    def telemetry(n_workers):
        with obs.capture() as cap:
            model_opc_tiled(
                target, simulator, target.bbox(), recipe, tiling=TILING,
                parallel=ParallelSpec(n_workers=n_workers),
            )
        counts = {
            name: record["value"] if record["kind"] == "counter" else record["count"]
            for name, record in obs.registry().snapshot().items()
            if record["kind"] in ("counter", "histogram")
            and not name.startswith("sim.kernel_cache_")
        }
        tiles = sorted(
            (span.attrs for root in cap.roots for span in root.find_all("opc.tile")),
            key=lambda attrs: attrs["tile"],
        )
        return counts, tiles

    serial = telemetry(1)
    assert len(serial[1]) == 4 and serial[0]["opc.tiles"] == 4
    for n_workers in (2, 4):
        assert telemetry(n_workers) == serial, f"{n_workers} workers"
