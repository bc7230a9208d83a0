"""Estimation-theoretic error bounds for two-vehicle relative positioning.

A library plus CLI that evaluate how accurately one vehicle can estimate the
relative position and heading of another from angle-of-arrival and
delay-difference measurements between their corner-mounted antenna panels.
"""

from .channel import LinkGain, calibrate_power, free_space_gain, link_gains
from .errors import (
    CoincidentPanels,
    ConfigError,
    EmptySet,
    InvalidCount,
    NoActiveLinks,
    NoBracket,
    NuisanceSingular,
    SubcarrierNotAllocated,
    ZeroDistance,
)
from .fim_closed import FimResult, bounds_from_fim, efim_aoa_only, efim_aoa_tdoa, saaf
from .fim_general import (
    AOA_ONLY,
    AOA_TDOA,
    ChannelParamVector,
    TransformMatrix,
    build_param_vector,
    efim_general,
    efim_schur,
    fim_channel,
    fim_channel_fd,
    mean_vector,
    transform_matrix,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayPanel,
    ElementOffset,
    Link,
    LinkSet,
    PanelState,
    Pose,
    Vec2,
    VehicleSpec,
    active_links,
    build_conformal_panel,
    build_cornered_vehicle,
    link_geometry,
    los_visible,
    panel_world_state,
    unit_dir,
    unit_perp,
    wrap_angle,
)
from .scenarios import (
    PRESETS,
    PresetConfig,
    Requirements,
    SweepRow,
    build_scene,
    calibrated_power,
    calibrated_scene,
    evaluate_point,
    evaluate_points,
    overtaking_sweep,
    platooning_sweep,
    requirement_crossing,
    scenario_crossing,
)
from .scene import Scene
from .waveform import (
    Allocation,
    OfdmSpec,
    effective_bandwidth,
    effective_bandwidths,
    interleaved_allocation,
)

__version__ = "0.1.0"
