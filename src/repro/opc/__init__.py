"""OPC and RET engines -- the paper's core subject.

Public surface:

* rule-based OPC: :func:`rule_opc`, :class:`RuleOPCRecipe`,
  :class:`BiasTable`, :func:`add_serifs`;
* model-based OPC: :func:`model_opc`, :class:`ModelOPCRecipe`,
  :class:`OPCResult`, :class:`IterationStats`;
* parallel tiled execution: :class:`ParallelSpec`, :class:`TileJob`,
  :class:`TileOutcome`, :class:`TileCorrectionError`,
  :func:`run_tile_jobs` (the multiprocessing farm behind
  ``model_opc_tiled(..., parallel=...)``);
* assist features: :func:`insert_srafs`, :class:`SRAFRecipe`;
* alternating-PSM phase assignment: :func:`assign_phases`,
  :class:`PSMRecipe`, :class:`PhaseAssignment`;
* mask rule checks: :class:`MRCRules`, :func:`repair_mask` (from
  :mod:`repro.verify.mrc`) and the deprecated count-only
  :func:`check_mask` / :class:`MRCReport`.
"""

from .hierarchical import HierarchicalOPCResult, hierarchical_model_opc
from .model_opc import DEFAULT_MODEL_FRAGMENTATION, ModelOPCRecipe, model_opc
from .parallel import (
    ParallelSpec,
    TileCorrectionError,
    TileJob,
    TileOutcome,
    run_tile_jobs,
)
from .tiling import TilePlan, TilingSpec, model_opc_tiled, plan_tiles
from .mrc import MRCReport, MRCRules, check_mask, repair_mask
from .psm import PhaseAssignment, PSMRecipe, assign_phases, trim_mask_chrome
from .report import IterationStats, OPCResult
from .retarget import RetargetRules, retarget
from .rule_opc import (
    DEFAULT_RULE_FRAGMENTATION,
    RuleOPCRecipe,
    add_serifs,
    rule_opc,
)
from .rules import (
    ISOLATED,
    BiasRule,
    BiasTable,
    calibrate_bias_table,
    default_bias_table_180nm,
)
from .sraf import SRAFRecipe, calibrate_sraf_offset, insert_srafs

__all__ = [
    "BiasRule",
    "BiasTable",
    "DEFAULT_MODEL_FRAGMENTATION",
    "DEFAULT_RULE_FRAGMENTATION",
    "HierarchicalOPCResult",
    "ISOLATED",
    "IterationStats",
    "MRCReport",
    "MRCRules",
    "ModelOPCRecipe",
    "OPCResult",
    "PSMRecipe",
    "ParallelSpec",
    "PhaseAssignment",
    "RetargetRules",
    "RuleOPCRecipe",
    "SRAFRecipe",
    "TileCorrectionError",
    "TileJob",
    "TileOutcome",
    "TilePlan",
    "TilingSpec",
    "add_serifs",
    "assign_phases",
    "calibrate_bias_table",
    "calibrate_sraf_offset",
    "check_mask",
    "default_bias_table_180nm",
    "hierarchical_model_opc",
    "insert_srafs",
    "model_opc",
    "model_opc_tiled",
    "plan_tiles",
    "repair_mask",
    "retarget",
    "rule_opc",
    "run_tile_jobs",
    "trim_mask_chrome",
]
