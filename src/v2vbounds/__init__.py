"""Estimation-theoretic error bounds for two-vehicle relative positioning.

A library plus CLI that evaluate how accurately one vehicle can estimate the
relative position and heading of another from angle-of-arrival and
delay-difference measurements between their corner-mounted antenna panels.
The names below are the surface the README documents; everything else lives
in the submodules.
"""

from .channel import link_gains
from .errors import ConfigError, NoActiveLinks, NoBracket
from .fim_closed import (
    MEASUREMENTS, FimResult, bound_arrays, bounds_from_fim, efim_aoa_only, efim_aoa_tdoa,
)
from .fim_general import placement_schur_efims
from .geometry import Vec2, active_links
from .scenarios import (
    PRESETS,
    PresetConfig,
    Requirements,
    SweepRow,
    bound_table,
    calibrated_scene,
    evaluate_point,
    placement_efims,
    placement_poses,
    preset_context,
    scenario_crossing,
    scenario_crossings,
    sweep_placements,
)
from .waveform import effective_bandwidths

__version__ = "0.1.0"
