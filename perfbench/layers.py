"""Per-layer self times, measured from outside the program.

A traced run wraps the public entry points of each layer with a timer.
The wrappers share one call stack, so a layer's *self* time is its wall
time minus the time of traced layers nested inside it, and the self times
of one run add up to at most its wall time.  Wrapping rebinds a function
wherever a module imported it by name (``from .contour import
edge_offsets_batch`` binds a second reference), and :meth:`LayerTracer.remove`
restores every binding, so untraced runs execute the original code.

:data:`TARGETS` is the benchmark's layer map: metric prefix, the public
call it times, and what extra work count it records.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class LayerStats:
    """Accumulated timings of one layer over a traced run."""

    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    #: Extra work units (EPE sites probed, GDS bytes written, ...).
    work: int = 0
    #: Per-call wall times, kept only for layers that report percentiles.
    samples: List[float] = field(default_factory=list)


#: Work counters: ``(args, kwargs, result) -> units``.
Work = Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Target:
    """One traced entry point: a module function or a class method."""

    layer: str
    module: str
    name: str
    #: Class holding the method, or ``None`` for a module-level function.
    owner: Optional[str] = None
    #: Rebind only inside this module (``None`` = every importer).
    only_in: Optional[str] = None
    per_call: bool = False
    work: Optional[Work] = None
    #: Whether the layer's self time counts as attributed wall time.
    #: Scopes that are timed only to subtract from (the tiled-OPC entry point,
    #: whose remainder is stitching) are not attributed.
    attributed: bool = True


def _sites(args: tuple, kwargs: dict, _result: object) -> int:
    sites = args[2] if len(args) > 2 else kwargs["sites"]
    return len(sites)


def _returned_bytes(_args: tuple, _kwargs: dict, result: object) -> int:
    return int(result)


TARGETS: Tuple[Target, ...] = (
    Target("litho.mask_field", "repro.litho.masks", "field", owner="MaskSpec"),
    Target(
        "litho.socs_image", "repro.litho.imaging", "image",
        owner="SOCSEngine", per_call=True,
    ),
    Target("litho.abbe_image", "repro.litho.imaging", "image", owner="AbbeEngine"),
    Target(
        "litho.resist_blur", "repro.litho.resist", "latent_image",
        owner="ThresholdResist",
    ),
    Target(
        "litho.epe_probe", "repro.litho.contour", "edge_offsets_batch",
        work=_sites,
    ),
    Target("litho.contour", "repro.litho.contour", "printed_region"),
    Target(
        "litho.kernel_set", "repro.litho.imaging", "kernel_set",
        owner="SOCSEngine",
    ),
    Target("geometry.fragment", "repro.geometry.fragment", "fragment_region"),
    Target("geometry.apply_biases", "repro.geometry.fragment", "apply_biases"),
    Target(
        "geometry.boolean", "repro.geometry.booleans", "boolean_loops",
        only_in="repro.geometry.region",
    ),
    Target("geometry.sized", "repro.geometry.region", "sized", owner="Region"),
    Target("geometry.smooth", "repro.geometry.smooth", "smooth_jogs"),
    Target("opc.plan_tiles", "repro.opc.tiling", "plan_tiles"),
    Target("opc.pool", "repro.opc.parallel", "run_tile_jobs"),
    Target(
        "opc.tiled", "repro.opc.tiling", "model_opc_tiled", attributed=False
    ),
    Target("opc.rule_opc", "repro.opc.rule_opc", "rule_opc"),
    Target("opc.repair", "repro.opc.mrc", "repair_mask"),
    Target("opc.check_mask", "repro.opc.mrc", "check_mask"),
    Target("verify.mrc", "repro.verify.mrc", "check_mask_region"),
    Target("verify.mrc", "repro.lint.postflight", "postflight_mask"),
    Target("verify.orc", "repro.verify.orc", "run_orc"),
    Target("verify.epe_sites", "repro.verify.epe", "measure_epe_sites"),
    Target("lint.preflight", "repro.lint.preflight", "preflight_tapeout"),
    Target("lint.preflight", "repro.lint.preflight", "preflight_correction"),
    Target("mask.data_stats", "repro.mask.datavolume", "mask_data_stats"),
    Target(
        "layout.gds_write", "repro.layout.gds", "write_gds",
        work=_returned_bytes,
    ),
    Target("layout.gds_read", "repro.layout.gds", "read_gds"),
)

#: Layer names in map order, each once.
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Layers whose self time counts towards the attributed share of wall time.
ATTRIBUTED = tuple(dict.fromkeys(t.layer for t in TARGETS if t.attributed))


class LayerTracer:
    """Installs timing wrappers on :data:`TARGETS`; a context manager."""

    def __init__(self):
        self.layers: Dict[str, LayerStats] = {
            layer: LayerStats() for layer in LAYERS
        }
        # One child-time accumulator per open traced call.
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def install(self) -> None:
        """Rebind every target to its timing wrapper."""
        for target in TARGETS:
            module = sys.modules[target.module]
            if target.owner is not None:
                owner = getattr(module, target.owner)
                original = owner.__dict__[target.name]
                self._patch(owner, target.name, self._timed(original, target))
                continue
            original = getattr(module, target.name)
            wrapper = self._timed(original, target)
            if target.only_in is not None:
                importers = [sys.modules[target.only_in]]
            else:
                importers = [m for m in list(sys.modules.values()) if m is not None]
            for importer in importers:
                namespace = getattr(importer, "__dict__", {})
                for attribute, value in list(namespace.items()):
                    if value is original:
                        self._patch(importer, attribute, wrapper)

    def remove(self) -> None:
        """Restore every rebound attribute, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: object, attribute: str, wrapper: object) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def _timed(self, function, target: Target):
        stats = self.layers[target.layer]
        stack = self._stack

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.self_s += elapsed - nested
                stats.total_s += elapsed
                stats.calls += 1
                if target.per_call:
                    stats.samples.append(elapsed)
            if target.work is not None:
                stats.work += target.work(args, kwargs, result)
            return result

        return timed

    def attributed_s(self) -> float:
        """Summed self time of every attributed layer."""
        return sum(self.layers[name].self_s for name in ATTRIBUTED)
