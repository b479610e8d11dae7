"""Persistent SOCS kernel cache: format, corruption, races, eviction, parity.

The cache is a pure performance layer, so the invariant every test here
defends is the same: with the store on, off, warm, cold, corrupted, or
racing, the simulated images are byte-identical and nothing ever crashes.
"""

import json
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.geometry import Rect, Region
from repro.litho import (
    KernelSet,
    KernelStore,
    LithoConfig,
    LithoSimulator,
    binary_mask,
    kernel_fingerprint,
    krf_annular,
)
from repro.litho.kernel_cache import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    FORMAT_VERSION,
    MAGIC,
    RUNS_DIR_ENV,
    SUFFIX,
)

GRID_SHAPE = (128, 128)
PIXEL_NM = 8.0


def _fingerprint(optics, defocus_nm=0.0, grid_shape=GRID_SHAPE):
    from repro.litho import Aberrations

    return kernel_fingerprint(
        optics, Aberrations(), 24, 1e-4, grid_shape, PIXEL_NM, defocus_nm
    )


def _tiny_kernels(seed=7):
    rng = np.random.default_rng(seed)
    return KernelSet(
        eigenvalues=rng.random(3),
        eigenvectors=(rng.random((3, 11)) + 1j * rng.random((3, 11))),
        support_iy=rng.integers(0, 64, 11),
        support_ix=rng.integers(0, 64, 11),
        truncation_energy=0.987,
    )


def _assert_same_kernels(a, b):
    assert np.array_equal(np.asarray(a.eigenvalues), np.asarray(b.eigenvalues))
    assert np.array_equal(np.asarray(a.eigenvectors), np.asarray(b.eigenvectors))
    assert np.array_equal(np.asarray(a.support_iy), np.asarray(b.support_iy))
    assert np.array_equal(np.asarray(a.support_ix), np.asarray(b.support_ix))
    assert a.truncation_energy == pytest.approx(b.truncation_energy)


class TestFingerprint:
    def test_stable_for_equal_configs(self, optics):
        assert _fingerprint(optics) == _fingerprint(krf_annular())

    def test_sensitive_to_each_input(self, optics):
        nominal = _fingerprint(optics)
        assert _fingerprint(optics, defocus_nm=100.0) != nominal
        assert _fingerprint(optics, grid_shape=(128, 160)) != nominal

    def test_stable_across_process_restart(self, optics):
        """The on-disk key survives interpreter restarts (no salted hashes)."""
        code = (
            "from repro.litho import Aberrations, kernel_fingerprint, "
            "krf_annular\n"
            "print(kernel_fingerprint(krf_annular(), Aberrations(), 24, "
            f"1e-4, {GRID_SHAPE!r}, {PIXEL_NM!r}, 0.0))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == _fingerprint(optics)


class TestOnDiskFormat:
    def test_golden_layout(self, tmp_path, optics):
        """Magic + LE header length + canonical JSON header + aligned arrays."""
        store = KernelStore(tmp_path)
        kernels = _tiny_kernels()
        fp = _fingerprint(optics)
        path = store.store(fp, kernels)
        assert path == tmp_path / f"{fp}{SUFFIX}"
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
        assert header["format"] == FORMAT_VERSION
        assert header["fingerprint"] == fp
        for name in ("eigenvalues", "eigenvectors", "support_iy", "support_ix"):
            spec = header["arrays"][name]
            assert spec["offset"] % 64 == 0
            array = np.frombuffer(
                raw, dtype=spec["dtype"], count=int(np.prod(spec["shape"])),
                offset=spec["offset"],
            ).reshape(spec["shape"])
            assert np.array_equal(array, np.asarray(getattr(kernels, name)))

    def test_store_is_deterministic(self, tmp_path, optics):
        """Equal kernels serialize to identical bytes (what makes the
        write race benign)."""
        fp = _fingerprint(optics)
        a = KernelStore(tmp_path / "a")
        b = KernelStore(tmp_path / "b")
        first = a.store(fp, _tiny_kernels())
        second = b.store(fp, _tiny_kernels())
        assert first.read_bytes() == second.read_bytes()

    def test_roundtrip(self, tmp_path, optics):
        store = KernelStore(tmp_path)
        kernels = _tiny_kernels()
        fp = _fingerprint(optics)
        store.store(fp, kernels)
        loaded = store.load(fp)
        assert loaded is not None
        _assert_same_kernels(loaded, kernels)

    def test_miss_returns_none(self, tmp_path, optics):
        assert KernelStore(tmp_path).load(_fingerprint(optics)) is None


class TestCorruption:
    @pytest.fixture
    def stored(self, tmp_path, optics):
        store = KernelStore(tmp_path)
        fp = _fingerprint(optics)
        path = store.store(fp, _tiny_kernels())
        return store, fp, path

    def _assert_invalid(self, store, fp, path):
        with obs.capture():
            assert store.load(fp) is None
            snapshot = obs.registry().snapshot()
        assert snapshot["sim.kernel_cache_invalid"]["value"] == 1
        assert not path.exists()  # bad entries are dropped, then rebuilt

    def test_truncated_entry(self, stored):
        store, fp, path = stored
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        self._assert_invalid(store, fp, path)

    def test_bad_magic(self, stored):
        store, fp, path = stored
        raw = path.read_bytes()
        path.write_bytes(b"GARBAGE!" + raw[8:])
        self._assert_invalid(store, fp, path)

    def test_foreign_format_version(self, stored):
        store, fp, path = stored
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        header = json.loads(bytes(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len]))
        header["format"] = FORMAT_VERSION + 1
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        blob = blob.ljust(header_len, b" ")[:header_len]
        raw[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len] = blob
        path.write_bytes(bytes(raw))
        self._assert_invalid(store, fp, path)

    def test_fingerprint_mismatch(self, stored, tmp_path, optics):
        store, fp, path = stored
        imposter = _fingerprint(optics, defocus_nm=50.0)
        path.rename(store.path_for(imposter))
        with obs.capture():
            assert store.load(imposter) is None

    def test_corrupt_entry_never_breaks_simulation(self, tmp_path, monkeypatch,
                                                   optics, dense_mask, window):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        config = LithoConfig(optics=optics, pixel_nm=PIXEL_NM, ambit_nm=600)
        _, reference = LithoSimulator(config).aerial_image(dense_mask, window)
        entries = list(tmp_path.glob(f"*{SUFFIX}"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"\x00" * 100)
        _, rebuilt = LithoSimulator(config).aerial_image(dense_mask, window)
        assert reference.tobytes() == rebuilt.tobytes()


def _racing_store(directory, results, slot):
    """Process target: build tiny kernels and publish them (same content)."""
    store = KernelStore(directory)
    optics = krf_annular()
    fp = _fingerprint(optics)
    path = store.store(fp, _tiny_kernels())
    results[slot] = str(path) if path else None


class TestConcurrency:
    def test_racing_writers_leave_one_valid_entry(self, tmp_path, optics):
        manager = multiprocessing.Manager()
        results = manager.dict()
        workers = [
            multiprocessing.Process(
                target=_racing_store, args=(str(tmp_path), results, slot)
            )
            for slot in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert results[0] is not None and results[1] is not None
        entries = list(tmp_path.glob(f"*{SUFFIX}"))
        assert len(entries) == 1
        loaded = KernelStore(tmp_path).load(_fingerprint(optics))
        assert loaded is not None
        _assert_same_kernels(loaded, _tiny_kernels())


class TestEviction:
    def _fill(self, tmp_path, optics, count=3):
        store = KernelStore(tmp_path)
        fingerprints = [
            _fingerprint(optics, defocus_nm=100.0 * k) for k in range(count)
        ]
        for age, fp in enumerate(fingerprints):
            path = store.store(fp, _tiny_kernels())
            stamp = 1_000_000_000 + age  # deterministic LRU order
            os.utime(path, (stamp, stamp))
        return store, fingerprints

    def test_trim_drops_stalest_first(self, tmp_path, optics):
        store, fingerprints = self._fill(tmp_path, optics)
        entry_size = store.path_for(fingerprints[0]).stat().st_size
        budget_mb = (2 * entry_size + 1) / (1024 * 1024)
        with obs.capture():
            evicted = KernelStore(tmp_path, max_mb=budget_mb).trim()
            snapshot = obs.registry().snapshot()
        assert evicted == 1
        assert snapshot["sim.kernel_cache_evicted"]["value"] == 1
        assert not store.path_for(fingerprints[0]).exists()  # oldest gone
        assert store.path_for(fingerprints[1]).exists()
        assert store.path_for(fingerprints[2]).exists()

    def test_newest_entry_survives_any_budget(self, tmp_path, optics):
        store, fingerprints = self._fill(tmp_path, optics)
        tiny = KernelStore(tmp_path, max_mb=1e-6)
        assert tiny.trim() == 2
        assert store.path_for(fingerprints[2]).exists()

    def test_load_refreshes_lru_rank(self, tmp_path, optics):
        store, fingerprints = self._fill(tmp_path, optics)
        store.load(fingerprints[0])  # touch the oldest: now the freshest
        entry_size = store.path_for(fingerprints[0]).stat().st_size
        budget_mb = (2 * entry_size + 1) / (1024 * 1024)
        KernelStore(tmp_path, max_mb=budget_mb).trim()
        assert store.path_for(fingerprints[0]).exists()
        assert not store.path_for(fingerprints[1]).exists()

    def test_store_trims_inline(self, tmp_path, optics):
        store = KernelStore(tmp_path, max_mb=1e-6)
        for k in range(2):
            store.store(_fingerprint(optics, defocus_nm=100.0 * k),
                        _tiny_kernels())
        assert len(list(tmp_path.glob(f"*{SUFFIX}"))) == 1


class TestEnvWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.delenv(RUNS_DIR_ENV, raising=False)
        assert KernelStore.from_env() is None

    def test_explicit_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "explicit"))
        monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path / "runs"))
        store = KernelStore.from_env()
        assert store.directory == tmp_path / "explicit"

    def test_runs_dir_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path))
        store = KernelStore.from_env()
        assert store.directory == tmp_path / "kernels"

    def test_kill_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        assert KernelStore.from_env() is None


class TestSimulationParity:
    def test_cold_warm_and_off_are_byte_identical(self, tmp_path, monkeypatch,
                                                  optics, dense_mask, window):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        config = LithoConfig(optics=optics, pixel_nm=PIXEL_NM, ambit_nm=600)
        with obs.capture():
            _, cold = LithoSimulator(config).aerial_image(dense_mask, window)
            cold_counts = obs.registry().snapshot()
        with obs.capture():
            _, warm = LithoSimulator(config).aerial_image(dense_mask, window)
            warm_counts = obs.registry().snapshot()
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        _, off = LithoSimulator(config).aerial_image(dense_mask, window)
        assert cold.tobytes() == warm.tobytes() == off.tobytes()
        assert cold_counts["sim.kernel_cache_misses"]["value"] == 1
        assert warm_counts["sim.kernel_cache_hits"]["value"] == 1

    def test_warm_kernels_precomputes_tile_grids(self, tmp_path, monkeypatch,
                                                 optics):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        config = LithoConfig(optics=optics, pixel_nm=PIXEL_NM, ambit_nm=600)
        simulator = LithoSimulator(config)
        tiles = [Rect(0, 0, 1000, 1000), Rect(1000, 0, 2000, 1000),
                 Rect(0, 0, 1800, 1000)]
        warmed = simulator.warm_kernels(tiles)
        assert warmed == 2  # first two tiles quantise to the same grid
        assert len(list(tmp_path.glob(f"*{SUFFIX}"))) == 2
