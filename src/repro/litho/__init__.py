"""First-principles partially-coherent optical lithography simulation.

Public surface:

* optics presets (:func:`krf_conventional`, :func:`krf_annular`,
  :func:`i_line`) and :class:`OpticalSettings`;
* illumination shapes (:func:`conventional`, :func:`annular`,
  :func:`quadrupole`, :func:`dipole`, :func:`coherent`);
* mask models (:func:`binary_mask`, :func:`attpsm_mask`,
  :func:`altpsm_mask`, :class:`MaskSpec`);
* imaging engines (:class:`AbbeEngine`, :class:`SOCSEngine`) and the
  :class:`LithoSimulator` facade with :class:`LithoConfig`;
* resist (:class:`ThresholdResist`), measurement primitives
  (:func:`edge_offset`, :func:`cutline_cd`, :func:`printed_region`),
  image metrics (:func:`nils`, :func:`image_log_slope`, :func:`meef`),
  and process-window analysis (:func:`run_fem`,
  :func:`exposure_latitude_curve`, :func:`dof_at_exposure_latitude`).
"""

from .contour import (
    cutline_cd,
    edge_offset,
    edge_offset_state,
    edge_offsets_batch,
    printed_region,
)
from .export import ascii_art, to_pgm
from .imaging import AbbeEngine, SOCSEngine
from .kernel_cache import KernelSet, KernelStore, kernel_fingerprint
from .masks import (
    ATTPSM_TRANSMISSION,
    BinaryMaskBuilder,
    MaskSpec,
    altpsm_mask,
    attpsm_mask,
    binary_mask,
)
from .metrics import image_contrast, image_log_slope, meef, nils
from .optics import OpticalSettings, i_line, krf_annular, krf_conventional
from .process_window import (
    FocusExposureMatrix,
    dof_at_exposure_latitude,
    dose_bounds,
    exposure_latitude_curve,
    run_fem,
)
from .pupil import Aberrations, Pupil
from .raster import Grid, rasterize
from .resist import ThresholdResist
from .simulator import LithoConfig, LithoSimulator
from .source import SourceSpec, annular, coherent, conventional, dipole, quadrupole

__all__ = [
    "ATTPSM_TRANSMISSION",
    "Aberrations",
    "AbbeEngine",
    "BinaryMaskBuilder",
    "FocusExposureMatrix",
    "Grid",
    "KernelSet",
    "KernelStore",
    "LithoConfig",
    "LithoSimulator",
    "MaskSpec",
    "OpticalSettings",
    "Pupil",
    "SOCSEngine",
    "SourceSpec",
    "ThresholdResist",
    "altpsm_mask",
    "annular",
    "ascii_art",
    "attpsm_mask",
    "binary_mask",
    "coherent",
    "conventional",
    "cutline_cd",
    "dipole",
    "dof_at_exposure_latitude",
    "dose_bounds",
    "edge_offset",
    "edge_offset_state",
    "edge_offsets_batch",
    "exposure_latitude_curve",
    "i_line",
    "image_contrast",
    "image_log_slope",
    "kernel_fingerprint",
    "krf_annular",
    "krf_conventional",
    "meef",
    "nils",
    "printed_region",
    "quadrupole",
    "rasterize",
    "run_fem",
    "to_pgm",
]
