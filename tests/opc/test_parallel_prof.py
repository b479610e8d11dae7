"""Worker profiles crossing the pool boundary during parallel tiled OPC.

The pool contract of :mod:`repro.obs.prof`: when the parent has an
active sampling profiler, every worker samples its own tile at the
inherited rate, ships the profile back on the :class:`TileOutcome`, and
the parent folds them under ``opc.parallel`` with the deterministic
merge -- so ``cpu_s`` totals agree across worker counts and none of it
changes the corrected geometry.
"""

import pytest

from repro import obs
from repro.geometry import Rect
from repro.obs import prof
from repro.opc import ModelOPCRecipe, ParallelSpec, TilingSpec, model_opc_tiled

RECIPE = ModelOPCRecipe(max_iterations=1)
TILING = TilingSpec(tile_nm=1500, halo_nm=600)
WINDOW = Rect(-1200, -1600, 1400, 1600)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.take_finished()
    yield
    obs.disable()
    obs.take_finished()


def _run(simulator, dose, pattern, spec):
    return model_opc_tiled(
        pattern, simulator, WINDOW, RECIPE, tiling=TILING,
        dose=dose, parallel=spec,
    )


class TestWorkerProfilePropagation:
    def test_worker_samples_fold_under_pool_prefix(
        self, simulator, anchor_dose, mixed_lines
    ):
        obs.enable()
        with prof.SamplingProfiler(hz=300) as profiler:
            _run(simulator, anchor_dose, mixed_lines, ParallelSpec(n_workers=2))
        profile = profiler.profile
        pool_keys = [
            key for key in profile.samples if key.startswith("opc.parallel")
        ]
        assert pool_keys, "no worker samples crossed the pool boundary"
        # worker stacks carry worker span tags grafted under the pool span
        assert any("opc.tile" in key for key in pool_keys)
        assert profile.cpu_s.get("opc.parallel", 0.0) > 0.0
        assert profile.peak_rss_bytes > 0

    def test_no_active_profiler_means_no_worker_sampling(
        self, simulator, anchor_dose, mixed_lines
    ):
        obs.enable()
        result = _run(
            simulator, anchor_dose, mixed_lines, ParallelSpec(n_workers=2)
        )
        assert result.corrected is not None
        assert prof.active_profiler() is None

    def test_kill_switch_blocks_worker_profiles_too(
        self, simulator, anchor_dose, mixed_lines, monkeypatch
    ):
        monkeypatch.setenv(prof.PROF_ENV, "0")
        obs.enable()
        with prof.SamplingProfiler(hz=300) as profiler:
            _run(simulator, anchor_dose, mixed_lines, ParallelSpec(n_workers=2))
        assert profiler.profile.sample_count == 0

    def test_profiled_run_matches_unprofiled_geometry(
        self, simulator, anchor_dose, mixed_lines
    ):
        plain = _run(
            simulator, anchor_dose, mixed_lines, ParallelSpec(n_workers=2)
        ).corrected.loops
        obs.enable()
        with prof.SamplingProfiler(hz=300):
            sampled = _run(
                simulator, anchor_dose, mixed_lines, ParallelSpec(n_workers=2)
            ).corrected.loops
        assert sampled == plain
