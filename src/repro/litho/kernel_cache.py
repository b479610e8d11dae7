"""Persistent fingerprint-keyed SOCS kernel cache.

Building a SOCS kernel set costs tens of milliseconds per (grid shape,
defocus) combination, up to about 0.2 s on the largest windows, and it
is a pure function of the optical configuration -- nothing about a
particular mask enters it.  Before this module every process rebuilt
its own kernels: each multiprocessing worker of a tiled OPC run, every
CLI invocation, every benchmark round.

:class:`KernelStore` amortises that cost across processes and runs:

* kernels are keyed by :func:`kernel_fingerprint`, a canonical SHA-256
  over (optics, aberrations, truncation settings, grid shape, defocus)
  that is stable across process restarts;
* entries are single files with a versioned magic header followed by the
  raw little-endian array payloads, written atomically (temp file +
  ``os.replace``) so two processes racing to publish the same
  fingerprint both end with one valid file;
* loads are ``np.memmap``-backed, so parallel OPC workers share one
  page-cache copy of the eigenvector tables instead of each rebuilding
  (or even each copying) them;
* a corrupt entry (truncated, bad magic, wrong version) is counted under
  ``sim.kernel_cache_invalid``, deleted best-effort, and rebuilt -- it
  never crashes a run;
* ``REPRO_KERNEL_CACHE_MAX_MB`` bounds the store with LRU trimming
  (loads bump an entry's mtime; eviction drops the stalest entries and
  counts ``sim.kernel_cache_evicted``).

The store directory resolves from ``$REPRO_KERNEL_CACHE_DIR``, falling
back to ``$REPRO_RUNS_DIR/kernels`` next to the run ledger; with neither
set (or ``REPRO_KERNEL_CACHE=0``) the cache is disabled and engines keep
their process-local behaviour.  Serialization is deterministic by
construction -- canonical JSON headers, fixed dtypes, fixed array order
-- which the repo lint enforces (rule R004).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import LithoError
from ..obs import count as _obs_count

#: File magic of a kernel-cache entry (8 bytes, version-free; the header
#: carries the format number so future formats keep the same magic).
MAGIC = b"RPROKC\x01\n"

#: On-disk format version written into (and required from) the header.
#: Version 2 stores the Hopkins kernels (the conjugated TCC
#: eigenvectors); version-1 entries held the unconjugated ones.
FORMAT_VERSION = 2

#: Filename suffix of cache entries.
SUFFIX = ".kc"

#: Explicit cache directory (highest-priority source).
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: Master switch: set to ``0`` to disable the persistent cache entirely.
CACHE_ENABLE_ENV = "REPRO_KERNEL_CACHE"

#: Store size budget in MiB; entries are LRU-trimmed above it.
CACHE_MAX_MB_ENV = "REPRO_KERNEL_CACHE_MAX_MB"

#: Run-ledger directory; ``<dir>/kernels`` is the default store location.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Array payload alignment inside an entry file (bytes).
_ALIGN = 64

#: The serialized arrays, in canonical order, with their fixed dtypes.
_ARRAY_DTYPES = (
    ("eigenvalues", "<f8"),
    ("eigenvectors", "<c16"),
    ("support_iy", "<i8"),
    ("support_ix", "<i8"),
)


@dataclass
class KernelSet:
    """SOCS kernels for one (optics, grid shape, defocus) combination.

    Arrays may be ``np.memmap`` views into a cache entry (read-only) or
    plain in-memory arrays from a fresh build; imaging treats both the
    same.
    """

    eigenvalues: np.ndarray  # (n_kernels,), descending
    eigenvectors: np.ndarray  # (n_kernels, K) kernel spectra on the support
    support_iy: np.ndarray  # (K,)
    support_ix: np.ndarray  # (K,)
    truncation_energy: float  # fraction of TCC trace retained


def kernel_fingerprint(
    optics,
    aberrations,
    max_kernels: int,
    eigen_cutoff: float,
    grid_shape: Tuple[int, int],
    pixel_nm: float,
    defocus_nm: float,
) -> str:
    """A stable hex digest identifying one kernel decomposition.

    Covers everything :meth:`SOCSEngine._build` reads: the projection
    optics (wavelength, NA, every discretised source point), the Zernike
    aberration coefficients, the truncation settings, the grid shape and
    pixel size, and the defocus.  Float values serialize via JSON's
    ``repr`` round-trip, so equal configurations fingerprint identically
    in any process on any run.
    """
    ab = aberrations
    payload = {
        "format": FORMAT_VERSION,
        "wavelength_nm": float(optics.wavelength_nm),
        "na": float(optics.na),
        "source": [list(map(float, point)) for point in optics.source.points],
        "aberrations": [
            float(ab.astigmatism_0),
            float(ab.astigmatism_45),
            float(ab.coma_x),
            float(ab.coma_y),
            float(ab.spherical),
        ],
        "max_kernels": int(max_kernels),
        "eigen_cutoff": float(eigen_cutoff),
        "grid": [int(grid_shape[0]), int(grid_shape[1]), float(pixel_nm)],
        "defocus_nm": float(defocus_nm),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class KernelStore:
    """A directory of fingerprint-keyed, mmap-loadable kernel entries."""

    def __init__(self, directory, max_mb: Optional[float] = None):
        self.directory = Path(directory)
        if max_mb is None:
            raw = os.environ.get(CACHE_MAX_MB_ENV)
            max_mb = float(raw) if raw else None
        if max_mb is not None and max_mb <= 0:
            raise LithoError(f"cache budget must be positive, got {max_mb}")
        self.max_mb = max_mb

    @classmethod
    def from_env(cls) -> Optional["KernelStore"]:
        """The store named by the environment, or ``None`` when disabled.

        Resolution order: ``REPRO_KERNEL_CACHE=0`` disables outright;
        ``$REPRO_KERNEL_CACHE_DIR`` names the directory explicitly;
        otherwise ``$REPRO_RUNS_DIR/kernels`` rides along with the run
        ledger; with neither variable the cache is off.
        """
        if os.environ.get(CACHE_ENABLE_ENV, "1") == "0":
            return None
        explicit = os.environ.get(CACHE_DIR_ENV)
        if explicit:
            return cls(explicit)
        runs_dir = os.environ.get(RUNS_DIR_ENV)
        if runs_dir:
            return cls(Path(runs_dir) / "kernels")
        return None

    def path_for(self, fingerprint: str) -> Path:
        """The entry file a fingerprint maps to (existing or not)."""
        return self.directory / f"{fingerprint}{SUFFIX}"

    # -- load -----------------------------------------------------------------

    def load(self, fingerprint: str) -> Optional[KernelSet]:
        """The cached kernels under ``fingerprint``, or ``None`` on a miss.

        A present-but-invalid entry (truncated file, bad magic, foreign
        format version, fingerprint mismatch) counts under
        ``sim.kernel_cache_invalid``, is deleted best-effort, and reads
        as a miss -- the caller rebuilds and overwrites it.
        """
        path = self.path_for(fingerprint)
        try:
            header = self._read_header(path, fingerprint)
        except FileNotFoundError:
            return None
        except (LithoError, OSError, ValueError):
            _obs_count("sim.kernel_cache_invalid")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype in _ARRAY_DTYPES:
            spec = header["arrays"][name]
            arrays[name] = np.memmap(
                path,
                dtype=np.dtype(dtype),
                mode="r",
                offset=int(spec["offset"]),
                shape=tuple(spec["shape"]),
            )
        try:
            os.utime(path)  # LRU bookkeeping: a hit refreshes the entry
        except OSError:
            pass
        return KernelSet(
            eigenvalues=arrays["eigenvalues"],
            eigenvectors=arrays["eigenvectors"],
            support_iy=arrays["support_iy"],
            support_ix=arrays["support_ix"],
            truncation_energy=float(header["truncation_energy"]),
        )

    def _read_header(self, path: Path, fingerprint: str) -> dict:
        """Parse and validate an entry's header; raise on anything off."""
        size = path.stat().st_size
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise LithoError(f"bad kernel-cache magic in {path.name}")
            (header_len,) = struct.unpack("<I", self._exact(handle, 4, path))
            if header_len <= 0 or header_len > size:
                raise LithoError(f"kernel-cache header length corrupt in {path.name}")
            header = json.loads(self._exact(handle, header_len, path))
        if header.get("format") != FORMAT_VERSION:
            raise LithoError(
                f"kernel-cache format {header.get('format')!r} != {FORMAT_VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise LithoError(f"kernel-cache fingerprint mismatch in {path.name}")
        arrays = header.get("arrays")
        if not isinstance(arrays, dict):
            raise LithoError(f"kernel-cache header missing arrays in {path.name}")
        for name, dtype in _ARRAY_DTYPES:
            spec = arrays.get(name)
            if spec is None:
                raise LithoError(f"kernel-cache entry missing array {name!r}")
            end = int(spec["offset"]) + int(
                np.prod(spec["shape"], dtype=np.int64)
            ) * np.dtype(dtype).itemsize
            if end > size:
                raise LithoError(f"kernel-cache entry truncated: {path.name}")
        return header

    @staticmethod
    def _exact(handle, n: int, path: Path) -> bytes:
        data = handle.read(n)
        if len(data) != n:
            raise LithoError(f"kernel-cache entry truncated: {path.name}")
        return data

    # -- store ----------------------------------------------------------------

    def store(self, fingerprint: str, kernels: KernelSet) -> Optional[Path]:
        """Persist ``kernels`` under ``fingerprint``; atomic and race-safe.

        The entry is written to a temp file in the store directory and
        published with ``os.replace``: concurrent writers of the same
        fingerprint produce byte-identical content (the decomposition is
        deterministic), so whichever rename lands last leaves a valid
        file and the loser simply reuses it.  Returns the entry path, or
        ``None`` when the filesystem refused (cache failures never fail
        the simulation).
        """
        arrays = {
            "eigenvalues": np.ascontiguousarray(kernels.eigenvalues, dtype="<f8"),
            "eigenvectors": np.ascontiguousarray(kernels.eigenvectors, dtype="<c16"),
            "support_iy": np.ascontiguousarray(kernels.support_iy, dtype="<i8"),
            "support_ix": np.ascontiguousarray(kernels.support_ix, dtype="<i8"),
        }
        header = {
            "format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "truncation_energy": float(kernels.truncation_energy),
            "arrays": {},
        }
        # Lay the payload out twice: a probe pass sizes the header (the
        # offsets appear inside it), then offsets are fixed up against
        # the real header length.  Header length is padded to _ALIGN so
        # the first array starts aligned.
        probe = dict(header)
        probe["arrays"] = {
            name: {"dtype": dtype, "shape": list(arrays[name].shape), "offset": 0}
            for name, dtype in _ARRAY_DTYPES
        }
        probe_blob = json.dumps(probe, sort_keys=True, separators=(",", ":"))
        base = len(MAGIC) + 4 + len(probe_blob)
        # Offsets are fixed-width zero-padded in the JSON (same digit
        # count as the probe's "0" plus slack), so re-serialising with
        # real offsets cannot change the header length: pad the header
        # to the next alignment boundary and compute offsets from there.
        cursor = _aligned(base + _ALIGN)  # room for offset digits
        specs = {}
        for name, dtype in _ARRAY_DTYPES:
            array = arrays[name]
            specs[name] = {
                "dtype": dtype,
                "shape": list(array.shape),
                "offset": cursor,
            }
            cursor = _aligned(cursor + array.nbytes)
        header["arrays"] = specs
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        header_room = specs[_ARRAY_DTYPES[0][0]]["offset"] - len(MAGIC) - 4
        if len(blob) > header_room:  # pragma: no cover - offsets add few digits
            raise LithoError("kernel-cache header overflow")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f".{fingerprint}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(MAGIC)
                    handle.write(struct.pack("<I", len(blob)))
                    handle.write(blob)
                    handle.write(b"\x00" * (header_room - len(blob)))
                    position = len(MAGIC) + 4 + header_room
                    for name, _dtype in _ARRAY_DTYPES:
                        pad = specs[name]["offset"] - position
                        handle.write(b"\x00" * pad)
                        data = arrays[name].tobytes()
                        handle.write(data)
                        position = specs[name]["offset"] + len(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                path = self.path_for(fingerprint)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        self.trim()
        return path

    # -- eviction -------------------------------------------------------------

    def trim(self) -> int:
        """Drop least-recently-used entries until under the size budget.

        Returns the number of entries evicted (0 with no budget set).
        Loads refresh mtimes, so mtime order is LRU order.
        """
        if self.max_mb is None:
            return 0
        budget = self.max_mb * 1024 * 1024
        try:
            entries = [
                (path, path.stat())
                for path in self.directory.glob(f"*{SUFFIX}")
            ]
        except OSError:
            return 0
        entries.sort(key=lambda item: item[1].st_mtime, reverse=True)
        kept = 0.0
        evicted = 0
        # The newest entry always survives (a budget below one entry's
        # size must not evict what was just written).
        for position, (path, stat) in enumerate(entries):
            kept += stat.st_size
            if position > 0 and kept > budget:
                try:
                    path.unlink()
                    evicted += 1
                except OSError:
                    pass
        if evicted:
            _obs_count("sim.kernel_cache_evicted", evicted)
        return evicted


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN
