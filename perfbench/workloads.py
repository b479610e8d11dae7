"""The benchmark's seeded workloads, driven through the public ``repro`` API.

Each workload has a *setup* (layout generation, dose-to-size calibration
and SOCS kernel builds into the empty private kernel store the caller
points ``REPRO_KERNEL_CACHE_DIR`` at) and a *run* (the timed user call).
The program sees only the generated layout; the seed picks the layout.

* ``tapeout_block`` -- the one-call ``tapeout_region`` flow on the E10
  "small" poly block with a 2-worker tile pool, then a GDS round trip of
  the shipped mask.
* ``rule_dataprep`` -- rule OPC on poly, metal1 and metal2 of a routed
  three-row block, then GDS round trips of the corrected library and of
  the source hierarchy.
* ``e10_model`` -- serial tiled model OPC on the E10 "medium" poly block;
  runnable by name, not among the workloads ``BENCHMARK.json`` gates.

See ``NOTES.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.design import (
    BlockSpec,
    StdCellGenerator,
    fill_row,
    line_space_array,
    node_180nm,
    random_logic_block,
)
from repro.flow import CorrectionLevel, TapeoutRecipe, correct_cell_layer, tapeout_region
from repro.geometry import Region, Transform, fragment_region
from repro.layout import (
    METAL1,
    METAL2,
    POLY,
    Cell,
    Library,
    opc_layer,
    read_gds,
    write_gds,
)
from repro.litho import LithoConfig, LithoSimulator, binary_mask, krf_annular
from repro.mask import mask_data_stats
from repro.opc import (
    ModelOPCRecipe,
    OPCResult,
    ParallelSpec,
    RuleOPCRecipe,
    TilingSpec,
    calibrate_bias_table,
    model_opc_tiled,
    plan_tiles,
)
from repro.verify import MRCRules, check_mask_region

#: Drawn poly CD the process is anchored to (dose-to-size target, nm).
ANCHOR_CD = 180

#: Space of the dense anchor grating (180/280 line/space, nm).
ANCHOR_SPACE = 280

#: Grating spaces the rule-OPC bias table is calibrated on (nm).
BIAS_SPACES = (260, 360, 540, 900, 1400)


def litho_config() -> LithoConfig:
    """The KrF annular process every benchmark simulator uses."""
    return LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)


def anchored_simulator():
    """A fresh simulator plus its dose-to-size on the anchor grating.

    A new :class:`LithoSimulator` has empty in-process kernel caches and
    attaches to whatever store ``REPRO_KERNEL_CACHE_DIR`` names now.
    """
    simulator = LithoSimulator(litho_config())
    anchor = line_space_array(ANCHOR_CD, ANCHOR_SPACE)
    dose = simulator.dose_to_size(
        binary_mask(anchor.region),
        anchor.window,
        anchor.site("center"),
        float(ANCHOR_CD),
    )
    return simulator, dose


def arranged_block(spec: BlockSpec, seed: int, name: str) -> Library:
    """The cells of the unrouted block ``spec``, arranged by ``seed``.

    The cells are drawn exactly as :func:`random_logic_block` draws them
    from ``spec.seed``; ``seed`` then shuffles each row and mirrors each
    cell about its vertical axis or not.  Every seed keeps the cell set,
    the bounding box and so the tile count, and changes the proximity
    context at every cell boundary: different geometry, the same work.
    """
    rng = random.Random(spec.seed)
    library = StdCellGenerator(node_180nm()).library(name=f"{name}_lib")
    rows = [fill_row(library.cells, spec.row_width, rng) for _ in range(spec.rows)]
    arrange = random.Random(seed)
    top = Cell(f"{name}_top")
    height = rows[0][0].bbox(recursive=False).height
    for index, row in enumerate(rows):
        arrange.shuffle(row)
        # Odd rows are mirrored about x to share rails, as place_rows does.
        flipped_row = index % 2 == 1
        y = (index + 1) * height if flipped_row else index * height
        x = 0
        for cell in row:
            box = cell.bbox(recursive=False)
            if arrange.random() < 0.5:
                # A half turn after the row's x-mirror state mirrors the
                # cell about its vertical axis in place.
                transform = Transform(
                    dx=x + box.x1 + box.x2, dy=y, rotation=2,
                    mirror_x=not flipped_row,
                )
            else:
                transform = Transform(dx=x, dy=y, mirror_x=flipped_row)
            top.place(cell, transform)
            x += box.width
    library.add_tree(top)
    return library


#: Orientations that keep edges axis-parallel and horizontal edges
#: horizontal: (rotation, mirror_x) for identity, mirror about x, mirror
#: about y, and a half turn.
AXIS_ORIENTATIONS = ((0, False), (0, True), (2, True), (2, False))


def placed_block(spec: BlockSpec, seed: int, name: str) -> Library:
    """The routed block ``spec``, placed in a new top cell by ``seed``.

    The block is generated from ``spec.seed`` as :func:`random_logic_block`
    generates it; ``seed`` then places its top cell at an offset of whole
    microns and in one of the :data:`AXIS_ORIENTATIONS`.  Every seed keeps
    the drawn geometry up to that motion, so the rule OPC and repair work
    stay the same; a new ``spec.seed`` changes both the block and the
    number of repair passes, which moved run time by a factor of two
    across seeds 1-6.
    """
    library = random_logic_block(node_180nm(), spec, name=name)
    block = library[f"{name}_top"]
    arrange = random.Random(seed)
    rotation, mirror_x = arrange.choice(AXIS_ORIENTATIONS)
    top = Cell(f"{name}_chip")
    top.place(block, Transform(
        dx=1000 * arrange.randrange(-50, 51),
        dy=1000 * arrange.randrange(-50, 51),
        rotation=rotation,
        mirror_x=mirror_x,
    ))
    library.add_tree(top)
    return library


def region_digest(regions: Iterable[Region]) -> str:
    """SHA-256 over the canonical loops of ``regions``, in order."""
    digest = hashlib.sha256()
    for region in regions:
        loops = region.merged().loops
        digest.update(json.dumps(loops, separators=(",", ":")).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


def block_epe(opc: OPCResult, tile_sites: List[int]) -> Dict[str, float]:
    """RMS and max EPE over every tile's final iterate of a tiled result.

    A tiled :class:`OPCResult` concatenates per-tile histories, so its
    ``final_rms_epe_nm`` is the *last tile's* value only.  The history is
    split where ``iteration`` restarts at 1; each tile's last entry is its
    final iterate.  Tile RMS values combine weighted by the number of
    sites each tile measured (``tile_sites`` minus its missing edges), so
    the result is the RMS over all sites of the block.
    """
    finals = []
    for stats in opc.history:
        if stats.iteration == 1:
            finals.append(stats)
        else:
            finals[-1] = stats
    if len(finals) != len(tile_sites):
        raise ValueError(
            f"{len(finals)} tile histories for {len(tile_sites)} planned tiles"
        )
    square_sum = 0.0
    measured = 0
    worst = 0.0
    for stats, sites in zip(finals, tile_sites):
        counted = sites - stats.missing_edges
        if counted <= 0:
            continue
        square_sum += stats.rms_epe_nm ** 2 * counted
        measured += counted
        worst = max(worst, stats.max_epe_nm)
    return {
        "epe_rms_nm": math.sqrt(square_sum / measured) if measured else 0.0,
        "epe_max_nm": worst,
    }


@dataclass
class Output:
    """What one run produced: the masks to digest plus their verdicts."""

    masks: List[Region]
    #: False when a sign-off verdict failed (gates that raise count too).
    ok: bool = True
    result: object = None
    #: The same masks as read back from the run's GDS output.
    read_back: List[Region] = field(default_factory=list)

    def digest(self) -> str:
        return region_digest(self.masks)

    def problems(self) -> List[str]:
        """Why this output fails its checks (empty when it passes)."""
        found = []
        if not self.ok:
            found.append("sign-off verdict failed")
        if self.read_back and region_digest(self.read_back) != self.digest():
            found.append("GDS read-back differs from the written mask")
        return found


@dataclass
class State:
    """Everything setup built; runs only read it."""

    seed: int
    workdir: Path
    simulator: LithoSimulator
    dose: float
    library: Library
    extra: Dict[str, object] = field(default_factory=dict)


class Workload:
    """One seeded workload; subclasses define setup, run and quality."""

    name = ""
    default_seed = 0
    #: A seed kept out of tuning, for checking claims on unseen input.
    held_out_seed = 0
    #: In-process setups per invocation (``setup_s`` is their median).
    setups = 1
    #: Runs discarded after the first run and before the timed runs.
    warmups = 1

    def setup(self, seed: int, workdir: Path) -> State:
        raise NotImplementedError

    def run(self, state: State) -> Output:
        raise NotImplementedError

    def reference(self, state: State) -> Optional[Output]:
        """An independently built output the runs must match, or None."""
        return None

    def quality(self, state: State, output: Output) -> Dict[str, float]:
        raise NotImplementedError


def _tile_sites(state: State, target: Region, window, recipe, tiling) -> List[int]:
    """Fragment (= EPE site) count of every planned tile, in tile order."""
    plans = plan_tiles(
        target.merged(), window, tiling, state.simulator.config.ambit_nm
    )
    return [
        sum(len(loop) for loop in fragment_region(plan.context, recipe.fragmentation))
        for plan in plans
    ]


class E10Model(Workload):
    """Serial tiled model OPC on the E10 "medium" poly block."""

    name = "e10_model"
    default_seed = 5
    held_out_seed = 11
    setups = 2
    warmups = 1
    recipe = ModelOPCRecipe(max_iterations=3)
    tiling = TilingSpec(tile_nm=2400, halo_nm=600)

    block = BlockSpec(rows=2, row_width=7000, nets=0, seed=5)

    def setup(self, seed, workdir):
        library = arranged_block(self.block, seed, "medium")
        top = library["medium_top"]
        target = top.flat_region(POLY)
        window = top.bbox()
        simulator, dose = anchored_simulator()
        plans = plan_tiles(
            target.merged(), window, self.tiling, simulator.config.ambit_nm
        )
        simulator.warm_kernels(plan.tile for plan in plans)
        return State(
            seed, workdir, simulator, dose, library,
            {"target": target, "window": window},
        )

    def run(self, state):
        result = model_opc_tiled(
            state.extra["target"],
            state.simulator,
            state.extra["window"],
            self.recipe,
            tiling=self.tiling,
            dose=state.dose,
        )
        return Output([result.corrected], result=result)

    def quality(self, state, output):
        result = output.result
        sites = _tile_sites(
            state, state.extra["target"], state.extra["window"],
            self.recipe, self.tiling,
        )
        data = mask_data_stats(result.corrected)
        report = check_mask_region(result.corrected, MRCRules(), with_stats=False)
        return {
            **block_epe(result, sites),
            "shot_count": data.shots,
            "mask_vertices": data.vertices,
            "mrc_violations": len(report.violations),
        }


class TapeoutBlock(Workload):
    """``tapeout_region`` on the E10 "small" block, 2 pool workers."""

    name = "tapeout_block"
    default_seed = 5
    held_out_seed = 12
    setups = 2
    # The serial reference and the first run come before the timed runs.
    warmups = 0
    workers = 2

    block = BlockSpec(rows=1, row_width=5000, nets=0, seed=5)

    def setup(self, seed, workdir):
        library = arranged_block(self.block, seed, "small")
        top = library["small_top"]
        drawn = top.flat_region(POLY)
        simulator, dose = anchored_simulator()
        # tapeout_region's default window: the drawn bbox plus 200 nm.
        # Its tiles and its ORC image both need kernels.
        window = drawn.merged().bbox().expanded(200)
        recipe = TapeoutRecipe()
        plans = plan_tiles(
            drawn.merged(), window, recipe.tiling, simulator.config.ambit_nm
        )
        simulator.warm_kernels([plan.tile for plan in plans] + [window])
        return State(
            seed, workdir, simulator, dose, library,
            {"top": top, "drawn": drawn, "window": window},
        )

    def _tapeout(self, state: State, parallel: Optional[ParallelSpec]) -> Output:
        result = tapeout_region(
            state.extra["drawn"],
            state.simulator,
            state.dose,
            TapeoutRecipe(parallel=parallel),
            verify=True,
            source_cell=state.extra["top"],
        )
        shipped = result.mask_geometry
        if not result.correction.srafs.is_empty:
            shipped = shipped | result.correction.srafs
        out = Library("tapeout")
        out.new_cell("mask").set_region(opc_layer(POLY), shipped)
        path = state.workdir / "tapeout_mask.gds"
        write_gds(out, path)
        read_back = read_gds(path).top_cell().flat_region(opc_layer(POLY))
        return Output(
            [shipped], ok=result.signoff_ok, result=result,
            read_back=[read_back],
        )

    def run(self, state):
        return self._tapeout(state, ParallelSpec(n_workers=self.workers))

    def reference(self, state):
        return self._tapeout(state, None)

    def quality(self, state, output):
        result = output.result
        recipe = TapeoutRecipe()
        sites = _tile_sites(
            state, result.target, state.extra["window"],
            recipe.model_recipe, recipe.tiling,
        )
        return {
            **block_epe(result.correction.opc, sites),
            "orc_epe_rms_nm": result.orc.epe.rms_nm,
            "shot_count": result.data.shots,
            "mask_vertices": result.data.vertices,
            "mrc_violations": len(result.mrc_report.violations),
        }


class RuleDataprep(Workload):
    """Rule OPC on three layers of a routed three-row block, plus GDS."""

    name = "rule_dataprep"
    default_seed = 7
    held_out_seed = 13
    setups = 3
    warmups = 0
    layers = (POLY, METAL1, METAL2)

    # Half the rows of the default block, so that a measurement holds
    # more than ten runs on a 2-core host.
    block = BlockSpec(rows=3, seed=7)

    def setup(self, seed, workdir):
        library = placed_block(self.block, seed, "block")
        simulator, dose = anchored_simulator()
        table = calibrate_bias_table(simulator, ANCHOR_CD, BIAS_SPACES, dose=dose)
        return State(
            seed, workdir, simulator, dose, library,
            {"top": library["block_chip"], "recipe": RuleOPCRecipe(bias_table=table)},
        )

    def run(self, state):
        top = state.extra["top"]
        results = [
            correct_cell_layer(
                top, layer, CorrectionLevel.RULE,
                rule_recipe=state.extra["recipe"],
            )
            for layer in self.layers
        ]
        out = Library("dataprep")
        cell = out.new_cell("block_opc")
        for layer, result in zip(self.layers, results):
            cell.set_region(opc_layer(layer), result.corrected)
        corrected_path = state.workdir / "dataprep_opc.gds"
        source_path = state.workdir / "dataprep_source.gds"
        write_gds(out, corrected_path)
        write_gds(state.library, source_path)
        read_back = read_gds(corrected_path).top_cell()
        source = read_gds(source_path)
        return Output(
            [result.corrected for result in results],
            ok=len(source) == len(state.library),
            result=results,
            read_back=[read_back.flat_region(opc_layer(layer)) for layer in self.layers],
        )

    def quality(self, state, output):
        results = output.result
        return {
            "shot_count": sum(r.data.shots for r in results),
            "mask_vertices": sum(r.data.vertices for r in results),
            "mrc_violations": sum(len(r.mrc_report.violations) for r in results),
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (E10Model(), TapeoutBlock(), RuleDataprep())
}
