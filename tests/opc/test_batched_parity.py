"""Parity layer: vectorized EPE sites and parallel fan-out change nothing.

The batched gather (`edge_offsets_batch`), the persistent kernel cache,
and the worker pool are all pure performance layers.  Every test here
pins the same invariant: against a scalar oracle that probes each site
on its own with the public `edge_offset_state`, with the kernel store
on or switched off (`REPRO_KERNEL_CACHE=0`), at any worker count, with
the workers sharing the store's memory-mapped kernel tables or each
building its own, and under every multiprocessing start method, the EPE
tables, printed contours, and stitched OPC masks are byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.geometry import Rect, Region
from repro.litho import (
    LithoSimulator,
    binary_mask,
    edge_offset_state,
    edge_offsets_batch,
)
from repro.litho.kernel_cache import CACHE_DIR_ENV, CACHE_ENABLE_ENV, SUFFIX
from repro.opc import (
    ModelOPCRecipe,
    ParallelSpec,
    TilingSpec,
    model_opc,
    model_opc_tiled,
)

RECIPE = ModelOPCRecipe(max_iterations=2)
TILING = TilingSpec(tile_nm=1500, halo_nm=600)
WINDOW = Rect(-1200, -1600, 1400, 1600)


class ScalarSimulator(LithoSimulator):
    """The EPE oracle: every site probed on its own, no vectorized gather."""

    def edge_placement_errors_with_state(
        self, mask, window, sites, defocus_nm=0.0, dose=1.0, search_nm=80.0
    ):
        grid, latent = self.latent_image(mask, window, defocus_nm)
        threshold = self.config.resist.effective_threshold(dose)
        return [
            edge_offset_state(
                latent, grid, anchor, normal, threshold, search_nm=search_nm
            )
            for anchor, normal in sites
        ]


def _scalar_twin(simulator):
    """The same model with the scalar per-probe EPE path."""
    return ScalarSimulator(simulator.config)


def _uncached_scalar_twin(simulator):
    """The scalar twin built with the kernel store switched off.

    The store is resolved once, when a simulator is built, so only the
    construction needs the kill switch.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENABLE_ENV, "0")
        twin = _scalar_twin(simulator)
    assert twin.kernel_store is None
    return twin


def _random_layout(seed):
    """A seeded random Manhattan line pattern (the property-test input)."""
    rng = np.random.default_rng(seed)
    rects = []
    x = -1400
    while x < 1200:
        width = int(rng.integers(140, 260))
        rects.append(Rect(x, -1500, x + width, 1500))
        x += width + int(rng.integers(220, 420))
    return Region.from_rects(rects)


def _random_sites(seed, count=40):
    """Seeded probe sites: mixed anchors and normals, many off-edge."""
    rng = np.random.default_rng(seed + 1000)
    sites = []
    for _ in range(count):
        anchor = (float(rng.uniform(-400, 400)), float(rng.uniform(-400, 400)))
        angle = float(rng.uniform(0, 2 * np.pi))
        sites.append((anchor, (float(np.cos(angle)), float(np.sin(angle)))))
    return sites


@pytest.fixture(scope="module")
def latent(simulator):
    """One resist-diffused image of the dense anchor pattern, measured a
    lot: every probe-parity case below samples this same array."""
    lines = Region.from_rects(
        [Rect(x, -1500, x + 180, 1500) for x in range(-1380, 1381, 460)]
    )
    grid, image = simulator.latent_image(
        binary_mask(lines), Rect(-500, -500, 500, 500)
    )
    return grid, image, simulator.config.resist.threshold


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_layouts_byte_identical(self, simulator, seed):
        """Property over seeded layouts: batched EPE tables == scalar's."""
        layout = _random_layout(seed)
        mask = binary_mask(layout)
        window = Rect(-500, -500, 500, 500)
        sites = _random_sites(seed)
        batched = simulator.edge_placement_errors_with_state(mask, window, sites)
        scalar = _scalar_twin(simulator).edge_placement_errors_with_state(
            mask, window, sites
        )
        assert batched == scalar  # exact float equality, not approx

    def test_degenerate_sites(self, latent):
        """Sites that never cross report identical (None, state) pairs."""
        grid, image, threshold = latent
        sites = [
            ((90.0, 0.0), (1.0, 0.0)),  # mid-line: all resist -> dark
            ((-140.0, 0.0), (1.0, 0.0)),  # mid-space: all clear -> bright
            ((90.0, 0.0), (0.0, 1.0)),  # along the line: never crosses
            ((0.0, 0.0), (0.6, 0.8)),  # oblique normal through an edge
        ]
        # A 40 nm span keeps the first two sites away from any printed
        # edge (the nearest crossing sits ~74 nm out).
        batched = edge_offsets_batch(image, grid, sites, threshold,
                                     search_nm=40.0)
        scalar = [
            edge_offset_state(image, grid, anchor, normal, threshold,
                              search_nm=40.0)
            for anchor, normal in sites
        ]
        assert batched == scalar
        assert batched[0][1] == "dark" and batched[1][1] == "bright"
        assert batched[2][1] == "dark" and batched[3][1] == "found"

    def test_empty_site_list(self, latent):
        grid, image, threshold = latent
        assert edge_offsets_batch(image, grid, [], threshold) == []

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(-300, 300),
        y=st.floats(-300, 300),
        dx=st.floats(-1, 1),
        dy=st.floats(-1, 1),
        step=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_single_site_property(self, latent, x, y, dx, dy, step):
        """Any anchor, any direction, any step: batch of one == scalar."""
        if float(np.hypot(dx, dy)) < 0.1:
            return
        grid, image, threshold = latent
        site = ((x, y), (dx, dy))
        batched = edge_offsets_batch(
            image, grid, [site], threshold, step_nm=step
        )
        scalar = edge_offset_state(
            image, grid, site[0], site[1], threshold, step_nm=step
        )
        assert batched == [scalar]


class TestOPCParity:
    def test_model_opc_corrected_loops(self, simulator, anchor_dose,
                                       mixed_lines):
        batched = model_opc(
            mixed_lines, simulator, WINDOW, RECIPE, dose=anchor_dose
        )
        scalar = model_opc(
            mixed_lines, _scalar_twin(simulator), WINDOW, RECIPE,
            dose=anchor_dose,
        )
        assert batched.corrected == scalar.corrected
        assert [
            (s.iteration, s.rms_epe_nm, s.max_epe_nm, s.moved_fragments)
            for s in batched.history
        ] == [
            (s.iteration, s.rms_epe_nm, s.max_epe_nm, s.moved_fragments)
            for s in scalar.history
        ]

    def test_printed_contours(self, simulator, anchor_dose, mixed_lines):
        """Contours (printed regions) agree with the kernel cache off."""
        no_cache = _uncached_scalar_twin(simulator)
        window = Rect(-1200, -1500, 1400, 1500)
        mask = binary_mask(mixed_lines)
        assert simulator.printed(mask, window, dose=anchor_dose) == \
            no_cache.printed(mask, window, dose=anchor_dose)


class TestTiledParity:
    @pytest.fixture(scope="class")
    def serial(self, simulator, anchor_dose, mixed_lines):
        return model_opc_tiled(
            mixed_lines, simulator, WINDOW,
            ModelOPCRecipe(max_iterations=1), tiling=TILING, dose=anchor_dose,
        )

    @staticmethod
    def _assert_matches(result, serial):
        assert result.corrected == serial.corrected
        assert result.fragment_count == serial.fragment_count
        assert [
            (s.iteration, s.rms_epe_nm, s.max_epe_nm) for s in result.history
        ] == [
            (s.iteration, s.rms_epe_nm, s.max_epe_nm) for s in serial.history
        ]

    @pytest.mark.parametrize(
        "n_workers,use_shm",
        [(1, True), (1, False), (2, True), (2, False), (4, True), (4, False)],
    )
    def test_worker_counts_and_shm_modes(self, simulator, anchor_dose,
                                         mixed_lines, serial, n_workers,
                                         use_shm, monkeypatch, tmp_path):
        """Stitched masks are byte-identical at every worker count, with the
        SOCS kernel tables in shared memory or private to each process.

        Shared: the parent seeds a fresh kernel store and every worker maps
        the same page-cache copy of its tables (``np.memmap``).  Private:
        ``REPRO_KERNEL_CACHE=0``, inherited by the workers, so each one
        decomposes its own kernels in process memory.
        """
        if use_shm:
            monkeypatch.delenv(CACHE_ENABLE_ENV, raising=False)
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        else:
            monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        twin = LithoSimulator(simulator.config)
        assert (twin.kernel_store is not None) == use_shm
        with obs.capture():
            result = model_opc_tiled(
                mixed_lines, twin, WINDOW,
                ModelOPCRecipe(max_iterations=1), tiling=TILING,
                dose=anchor_dose,
                parallel=ParallelSpec(n_workers=n_workers),
            )
            counts = obs.registry().snapshot()
        self._assert_matches(result, serial)
        hits = counts.get("sim.kernel_cache_hits", {}).get("value", 0)
        misses = counts.get("sim.kernel_cache_misses", {}).get("value", 0)
        if not use_shm:
            assert hits == misses == 0
            return
        assert list(tmp_path.glob(f"*{SUFFIX}"))
        if n_workers > 1:
            # The parent's warm-up built every tile grid, so the workers
            # only ever map what it published.
            assert hits >= 1
            assert misses == len(list(tmp_path.glob(f"*{SUFFIX}")))

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_start_methods(self, simulator, anchor_dose, mixed_lines, serial,
                           start_method):
        """Stitched masks are byte-identical under the non-fork start
        methods: workers rebuild their simulator from the pickled config,
        so none depends on state inherited by fork."""
        result = model_opc_tiled(
            mixed_lines, simulator, WINDOW,
            ModelOPCRecipe(max_iterations=1), tiling=TILING, dose=anchor_dose,
            parallel=ParallelSpec(n_workers=2, start_method=start_method),
        )
        self._assert_matches(result, serial)

    def test_scalar_serial_matches_batched_parallel(self, simulator,
                                                    anchor_dose, mixed_lines,
                                                    serial):
        """The strongest cross-check: scalar probes, serial execution, no
        kernel cache -- against batched probes on a worker pool."""
        reference = model_opc_tiled(
            mixed_lines, _uncached_scalar_twin(simulator),
            WINDOW, ModelOPCRecipe(max_iterations=1), tiling=TILING,
            dose=anchor_dose,
        )
        parallel = model_opc_tiled(
            mixed_lines, simulator, WINDOW,
            ModelOPCRecipe(max_iterations=1), tiling=TILING, dose=anchor_dose,
            parallel=ParallelSpec(n_workers=2),
        )
        assert reference.corrected == parallel.corrected
