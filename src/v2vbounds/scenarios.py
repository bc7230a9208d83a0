"""Overtaking/platooning sweeps, requirement checks, and crossing search.

Two built-in configurations are provided: a 3.5 GHz / 60 kHz / 4-element
setup calibrated to 36 dB reference SNR and a 28 GHz / 240 kHz / 25-element
setup calibrated to 30 dB. Both use four corner panels per vehicle, a
2048-point grid with subcarriers -600..-1, 1..600 interleaved over the four
Tx arrays, one OFDM symbol, and unit noise variance; the transmit power is
set so the shortest side-by-side link (lateral offset one lane width) hits
the reference SNR after Rx beamforming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from .channel import LinkContext, information_weight, link_context
from .errors import NoBracket
from .fim_closed import bound_arrays, information, link_vectors
from .geometry import (
    SPEED_OF_LIGHT, Pose, Vec2, VehicleSpec, build_cornered_vehicle, require_positive_finite,
    visibility, visible_links, wrap_angles,
)
from .scene import Scene
from .waveform import OfdmSpec, interleaved_allocation

Axis = Literal["lat", "lon"]
Measurement = Literal["aoa", "aoa_tdoa"]

DEFAULT_SWEEP_STEP = 0.25  # m


@dataclass(frozen=True)
class Requirements:
    """3GPP V2X positioning accuracy requirements."""

    lateral_max: float = 0.1  # m
    longitudinal_max: float = 0.5  # m

    def __post_init__(self) -> None:
        if self.lateral_max <= 0.0 or self.longitudinal_max <= 0.0:
            raise ValueError("requirements must be positive")

    def threshold(self, axis: Axis) -> float:
        return self.lateral_max if axis == "lat" else self.longitudinal_max


@dataclass(frozen=True)
class SweepRow:
    """Bounds of both measurement sets at one relative position."""

    q_x: float
    q_y: float
    d_y: float  # bumper gap |q_y| - vehicle length (meaningful when aligned)
    n_links: int
    peb_lat_both: float
    peb_lon_both: float
    peb_lat_aoa: float
    peb_lon_aoa: float
    oeb_both: float
    oeb_aoa: float


# The bound table's columns (SweepRow's); aoa_tdoa's and aoa's (peb_lat, peb_lon, oeb).
COLUMNS = tuple(f.name for f in fields(SweepRow))
_SET_COLUMNS = np.array([[4, 5, 8], [6, 7, 9]])


@dataclass(frozen=True)
class PresetConfig:
    """System configuration from which scenes are built; construction
    raises ValueError, naming the field, for a value no scene can use."""

    name: str
    carrier_frequency: float  # Hz
    subcarrier_spacing: float  # Hz
    n_rx_elements: int
    target_snr_db: float
    n_fft: int = 2048
    max_occupied_index: int = 600
    vehicle_length: float = 4.5
    vehicle_width: float = 1.8
    lane_width: float = 3.5
    fov_blocked_halfwidth: float | None = None  # override, rad

    def __post_init__(self) -> None:
        require_positive_finite(self, "carrier_frequency", "subcarrier_spacing", "n_rx_elements",
                                "n_fft", "max_occupied_index", "vehicle_length", "vehicle_width",
                                "lane_width")
        if not math.isfinite(self.target_snr_db):
            raise ValueError(f"target_snr_db must be finite, got {self.target_snr_db!r}")
        if 2 * self.max_occupied_index >= self.n_fft:
            raise ValueError(f"max_occupied_index must be below n_fft / 2 for the occupied "
                             f"subcarriers to fit inside the FFT grid, got "
                             f"{self.max_occupied_index} with n_fft = {self.n_fft}")
        halfwidth = self.fov_blocked_halfwidth
        if halfwidth is not None and not 0.0 <= halfwidth <= math.pi:
            raise ValueError(f"fov_blocked_halfwidth must lie in [0, pi], got {halfwidth!r}")

    @property
    def occupied(self) -> tuple[int, ...]:
        m = self.max_occupied_index
        return tuple(range(-m, 0)) + tuple(range(1, m + 1))


PRESETS: dict[str, PresetConfig] = {
    "cfg_3p5GHz": PresetConfig(
        name="cfg_3p5GHz",
        carrier_frequency=3.5e9,
        subcarrier_spacing=60e3,
        n_rx_elements=4,
        target_snr_db=36.0,
    ),
    "cfg_28GHz": PresetConfig(
        name="cfg_28GHz",
        carrier_frequency=28e9,
        subcarrier_spacing=240e3,
        n_rx_elements=25,
        target_snr_db=30.0,
    ),
}


def _build_vehicle(preset: PresetConfig) -> VehicleSpec:
    wavelength = SPEED_OF_LIGHT / preset.carrier_frequency
    vehicle = build_cornered_vehicle(
        preset.vehicle_length, preset.vehicle_width, preset.n_rx_elements, wavelength
    )
    if preset.fov_blocked_halfwidth is not None:
        vehicle = replace(
            vehicle,
            panels=tuple(
                replace(p, fov_blocked_halfwidth=preset.fov_blocked_halfwidth)
                for p in vehicle.panels
            ),
        )
    return vehicle


@lru_cache(maxsize=32)
def preset_context(preset: PresetConfig) -> LinkContext:
    """The preset's link context (its vehicle at both ends, unit noise), built on first use.

    The transmit power is calibrated side by side in neighboring lanes
    (lateral offset one lane width, zero longitudinal offset), where the
    shortest visible link (ties to the smallest (t, r)) gets the target SNR
    g / (its Tx array's subcarrier count); raises NoActiveLinks without one.
    """
    vehicle = _build_vehicle(preset)
    arrays = vehicle.arrays
    allocation = interleaved_allocation(preset.occupied, len(vehicle.panels))
    unit_power = OfdmSpec(
        n_fft=preset.n_fft,
        subcarrier_spacing=preset.subcarrier_spacing,
        carrier_frequency=preset.carrier_frequency,
        occupied=preset.occupied,
    )
    side_by_side = (np.array([[-preset.lane_width, 0.0]]), np.zeros(1))
    ref_t, ref_r, _, _, distance, _ = (column[0] for column in visible_links(
        *visibility(arrays, (np.zeros((1, 2)), np.zeros(1)), arrays, side_by_side)))
    k = np.argmin(distance)  # the first shortest link in (t, r) order
    # Preset scenes keep unit noise; the calibrated power carries the SNR.
    unit_g = information_weight(distance[k], unit_power.wavelength, arrays.n_elements[ref_r[k]],
                                allocation.array_power_fractions[ref_t[k]],
                                unit_power.n_symbols, 1.0)
    power = 10.0 ** (preset.target_snr_db / 10.0) * len(allocation.per_array_sets[ref_t[k]])
    ofdm = replace(unit_power, total_power=float(power / unit_g))
    return link_context(vehicle, vehicle, ofdm, allocation)


def build_scene(
    preset: PresetConfig,
    q: Vec2,
    alpha_t: float = 0.0,
    alpha_r: float = 0.0,
    total_power: float = 1.0,
) -> Scene:
    """Scene with the Tx vehicle at the origin and the Rx vehicle at q."""
    ctx = preset_context(preset)
    ofdm = ctx.ofdm
    if total_power != ofdm.total_power:
        ofdm = replace(ofdm, total_power=total_power)
    return Scene(tx_vehicle=ctx.tx_vehicle, tx_pose=Pose(Vec2(0.0, 0.0), alpha_t),
                 rx_vehicle=ctx.rx_vehicle, rx_pose=Pose(q, alpha_r), ofdm=ofdm,
                 allocation=ctx.allocation)


def calibrated_power(preset: PresetConfig) -> float:
    """Transmit power meeting the preset's reference SNR target."""
    return preset_context(preset).ofdm.total_power


def calibrated_scene(preset: PresetConfig, q: Vec2, alpha_t: float = 0.0) -> Scene:
    return build_scene(preset, q, alpha_t=alpha_t, total_power=calibrated_power(preset))


def placement_efims(
    preset: PresetConfig, q: np.ndarray, alpha_t: float | np.ndarray = 0.0
) -> tuple[np.ndarray, ...]:
    """The EFIM assembly of :func:`evaluate_points` for placements q (N, 2)
    and Tx headings alpha_t (per row or one for all): the Tx and Rx panel
    centroids (N, K, 2), the (N, Kt, Kr) LOS mask, and the AOA-only and
    AOA+TDOA EFIMs (N, 3, 3), zero without links. The visibility test and
    EFIM assembly are the Scene-level API's."""
    ctx = preset_context(preset)
    (t, r), n = ctx.link_panels, len(q)
    heading = wrap_angles(np.broadcast_to(np.asarray(alpha_t, dtype=float), (n,)))
    tx_c, rx_c, visible = visibility(ctx.tx_vehicle.arrays, (np.zeros((n, 2)), heading),
                                     ctx.rx_vehicle.arrays, (q, np.zeros(n)))
    # Links (N, Kt*Kr), coordinates first so that each is contiguous; a hidden
    # link gets distance inf, so g = 0 and a zero direction.
    tx_at = np.take(tx_c.transpose(2, 0, 1), t, axis=-1)
    offset = np.take(rx_c.transpose(2, 0, 1), r, axis=-1) - tx_at
    distance = np.where(visible.reshape(n, -1), np.hypot(*offset), np.inf)
    vectors = link_vectors((offset / distance).transpose(1, 2, 0), tx_at.transpose(1, 2, 0),
                           np.zeros(()), ctx.link_saaf)
    g = ctx.link_gd2 / distance**2
    j_aoa, j_both = information(*vectors, g, distance, ctx.link_beta, ctx.ofdm.omega_c)
    return tx_c, rx_c, visible, j_aoa, j_both


def bound_table(
    preset: PresetConfig,
    q: np.ndarray | Sequence[tuple[float, float]],
    alpha_t: float | np.ndarray = 0.0,
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
) -> np.ndarray:
    """Bounds for an (N, 2) array of placements q in one numpy pass, as an
    (N, 10) float table with the columns of SweepRow (COLUMNS).

    ``alpha_t`` is the Tx heading, per row or one for all; the Rx heading is
    0. Rows without LOS links, and measurement sets left out, get +inf. One
    bound extraction covers every requested set's :func:`placement_efims`.
    """
    q = np.asarray(q, dtype=float).reshape(-1, 2)
    if not (np.isfinite(q).all() and np.isfinite(alpha_t).all()):
        raise ValueError("placements and Tx headings must be finite")
    _, _, visible, j_aoa, j_both = placement_efims(preset, q, alpha_t)
    table = np.full((len(q), len(COLUMNS)), np.inf)
    table[:, :2] = q
    table[:, 2] = np.abs(q[:, 1]) - preset.vehicle_length
    table[:, 3] = visible.sum(axis=(1, 2))
    wanted = [i for i, m in enumerate(("aoa_tdoa", "aoa")) if m in measurements]
    if wanted:
        bounds = bound_arrays(np.stack((j_both, j_aoa))[wanted])[2]
        table[:, _SET_COLUMNS[wanted]] = bounds.swapaxes(0, 1)
    return table


def evaluate_points(
    preset: PresetConfig,
    q: np.ndarray | Sequence[tuple[float, float]],
    alpha_t: float | np.ndarray = 0.0,
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
) -> list[SweepRow]:
    """:func:`bound_table` as one SweepRow per placement, in input order."""
    return [SweepRow(*row[:3], int(row[3]), *row[4:])
            for row in bound_table(preset, q, alpha_t, measurements).tolist()]


def evaluate_point(
    preset: PresetConfig,
    q: Vec2,
    alpha_t: float = 0.0,
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
) -> SweepRow:
    """Bounds for one relative placement; +inf sentinels when unsolvable.

    A placement with no LOS links (or with coincident panel pairs, which the
    visibility test treats as not visible) yields n_links = 0 and infinite
    bounds rather than an exception, so sweeps never abort.
    """
    return evaluate_points(preset, [q.as_tuple()], alpha_t, measurements)[0]


def _grid(start: float, stop: float, step: float) -> list[float]:
    """Grid start + i step, i = 0, 1, ..., up to stop; a stop off the grid
    drops the partial step."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    # The slack keeps a stop on the grid from losing its row to round-off.
    count = math.floor((stop - start) / step + 1e-9)
    return [start + i * step for i in range(count + 1)]


def sweep_placements(preset: PresetConfig, scenario: Literal["overtaking", "platooning", "custom"],
                     q_y_min: float, q_y_max: float, step: float,
                     q_x: float = 0.0) -> list[tuple[float, float]]:
    """The (q_x, q_y) grid of a sweep: overtaking and platooning as the sweeps
    below have it, custom at lateral offset ``q_x`` (which only it reads);
    platooning reads no q_y_max."""
    if scenario == "platooning":
        gaps = _grid(0.0, -q_y_min - preset.vehicle_length, step)[1:]
        return [(0.0, -(preset.vehicle_length + gap)) for gap in gaps]
    if scenario not in ("overtaking", "custom"):
        raise ValueError(f"unknown scenario {scenario!r}")
    q_x = -preset.lane_width if scenario == "overtaking" else q_x
    return [(q_x, q_y) for q_y in _grid(q_y_min, q_y_max, step)]


def overtaking_sweep(
    preset: PresetConfig,
    q_y_min: float = -30.0,
    q_y_max: float = 30.0,
    step: float = DEFAULT_SWEEP_STEP,
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
) -> list[SweepRow]:
    """Bounds along a pass in the neighboring lane.

    Lateral offset is held at one lane width (toward -x); the longitudinal
    offset runs from q_y_min in whole steps up to q_y_max.
    """
    q = sweep_placements(preset, "overtaking", q_y_min, q_y_max, step)
    return evaluate_points(preset, q, measurements=measurements)


def platooning_sweep(
    preset: PresetConfig,
    q_y_min: float = -30.0,
    step: float = DEFAULT_SWEEP_STEP,
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
) -> list[SweepRow]:
    """Bounds for an in-lane follower at increasing bumper gaps.

    The Rx vehicle trails the Tx vehicle (negative q_y, zero lateral
    offset). The grid is anchored at the touching point |q_y| = vehicle
    length, where the facing corner panels would coincide and the free-space
    gain diverges: rows sit at q_y = -(vehicle_length + k step) for
    k = 1, 2, ... as long as q_y >= q_y_min.
    """
    q = sweep_placements(preset, "platooning", q_y_min, math.inf, step)
    return evaluate_points(preset, q, measurements=measurements)


# Each search call after the endpoints splits every open bracket into at most
# 2**_SPLIT_BITS lattice-aligned steps.
_SPLIT_BITS = 7


@dataclass(frozen=True)
class Crossing:
    """One curve's requirement-crossing search: a distance or a NoBracket outcome."""

    distance: float | None  # largest lattice point meeting the requirement
    no_bracket: NoBracket | None  # set instead when it is met everywhere or nowhere
    sign_changes: int | None  # feasibility changes on the coarse grid; None if not searched

    def value(self) -> float:
        """The distance; raises the NoBracket outcome when there is one."""
        if self.no_bracket is not None:
            raise self.no_bracket
        return self.distance


def _lattice_search(
    bounds_at: Callable[[np.ndarray], np.ndarray],
    thresholds: Sequence[float],
    s_min: float,
    s_max: float,
    tol: float,
) -> list[Crossing]:
    """Crossing search of C curves at once on the lattice a bisection walks.

    ``bounds_at`` maps an (M,) array of distances to the (C, M) bounds of all
    curves; curve c meets its requirement where its bound is <= thresholds[c].
    The lattice is s_min + j h, h = (s_max - s_min) / 2**n, n = ceil(log2((s_max
    - s_min) / tol)): the points a bisection to ``tol`` can return. The first
    call evaluates the endpoints and decides NoBracket as the bisection does.
    Every later call splits each open bracket (lo feasible, lo + stride not)
    into at most 2**_SPLIT_BITS steps and keeps the step after its last
    feasible point; the first split is the coarse grid, whose sign changes
    are counted. For n = 12 that is a 129-point coarse grid at every 32nd
    lattice point and one refine of 31 points per bracket.
    """
    if not s_min < s_max:
        raise ValueError("require s_min < s_max")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n = max(0, math.ceil(math.log2((s_max - s_min) / tol)))
    h = (s_max - s_min) / 2**n
    thresholds = np.asarray(thresholds, dtype=float)
    ends = bounds_at(np.array([s_min, s_max]))
    everywhere = ends[:, 1] <= thresholds
    nowhere = ~everywhere & (ends[:, 0] > thresholds)
    searched = np.flatnonzero(~(everywhere | nowhere))
    lo = np.zeros(len(thresholds), dtype=np.int64)  # lattice index of each bracket's start
    sign_changes = np.ones(len(thresholds), dtype=np.int64)  # a 2-point coarse grid has one
    stride = 2**n
    while stride > 1 and searched.size:
        step = max(stride >> _SPLIT_BITS, 1)
        j = lo[searched, None] + np.arange(step, stride, step)  # bracket interiors
        points, index = np.unique(j.ravel(), return_inverse=True)
        bounds = bounds_at(s_min + points * h)[searched[:, None], index.reshape(j.shape)]
        feasible = bounds <= thresholds[searched, None]
        if stride == 2**n:  # the coarse grid, from a feasible s_min to an infeasible s_max
            flips = np.diff(feasible.astype(int), axis=1, prepend=1, append=0)
            sign_changes[searched] = np.count_nonzero(flips, axis=1)
        last = feasible.shape[1] - np.argmax(feasible[:, ::-1], axis=1)  # 1 + last feasible
        lo[searched] += np.where(feasible.any(axis=1), last * step, 0)
        stride = step
    crossings = []
    for c, threshold in enumerate(thresholds.tolist()):
        if everywhere[c] or nowhere[c]:
            message = (f"bound stays within {threshold} up to {s_max} m" if everywhere[c]
                       else f"bound already exceeds {threshold} at {s_min} m")
            crossings.append(Crossing(None, NoBracket(message, bool(everywhere[c])), None))
        else:
            crossings.append(Crossing(float(s_min + lo[c] * h), None, int(sign_changes[c])))
    return crossings


def scenario_crossings(
    preset: PresetConfig,
    scenario: Literal["overtaking", "platooning"],
    requirements: Requirements = Requirements(),
    measurements: Sequence[Measurement] = ("aoa_tdoa", "aoa"),
    s_max: float | None = None,
    tol: float = 0.01,
) -> dict[tuple[Measurement, Axis], Crossing]:
    """Requirement crossings of every (measurement, axis) curve of a built-in scenario.

    The distance is the longitudinal offset q_y >= 0 at one lane width
    (overtaking; the layout is mirror symmetric in q_y), searched over
    [0, 30] m, or the bumper gap (platooning), searched over
    [0.25, 30 - vehicle_length] m. All curves share each bound_table call
    of one search, three at the defaults. Keys run over the measurements in
    the order aoa_tdoa, aoa, then lat, lon.
    """
    if scenario == "overtaking":
        s_min, s_top = 0.0, 30.0

        def place(s: np.ndarray) -> np.ndarray:
            return np.column_stack((np.full_like(s, -preset.lane_width), s))
    elif scenario == "platooning":
        s_min, s_top = 0.25, 30.0 - preset.vehicle_length

        def place(s: np.ndarray) -> np.ndarray:
            return np.column_stack((np.zeros_like(s), -(preset.vehicle_length + s)))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    curves = [(m, axis) for m in ("aoa_tdoa", "aoa") if m in measurements
              for axis in ("lat", "lon")]
    columns = [_SET_COLUMNS[("aoa_tdoa", "aoa").index(m), ("lat", "lon").index(axis)]
               for m, axis in curves]

    def bounds_at(s: np.ndarray) -> np.ndarray:
        return bound_table(preset, place(s), measurements=measurements)[:, columns].T
    thresholds = [requirements.threshold(axis) for _, axis in curves]
    found = _lattice_search(bounds_at, thresholds, s_min,
                            s_top if s_max is None else s_max, tol)
    return dict(zip(curves, found))


def scenario_crossing(
    preset: PresetConfig,
    scenario: Literal["overtaking", "platooning"],
    axis: Axis,
    measurement: Measurement,
    requirements: Requirements = Requirements(),
    s_max: float | None = None,
    tol: float = 0.01,
) -> float:
    """Requirement-crossing distance of one curve of a built-in scenario.

    Returns the largest longitudinal offset (overtaking) or bumper gap
    (platooning) at which the requirement still holds, as scenario_crossings
    finds it; raises NoBracket when it holds everywhere or nowhere in the
    searched range.
    """
    crossings = scenario_crossings(preset, scenario, requirements, (measurement,), s_max, tol)
    return crossings[measurement, axis].value()
