"""Overtaking/platooning sweeps, requirement checks, and crossing search.

Two built-in configurations are provided: a 3.5 GHz / 60 kHz / 4-element
setup calibrated to 36 dB reference SNR and a 28 GHz / 240 kHz / 25-element
setup calibrated to 30 dB. Both use four corner panels per vehicle,
subcarriers -600..-1, 1..600 interleaved over the four Tx arrays, one OFDM
symbol, and unit noise; the transmit power is set so the shortest
side-by-side link (lateral offset one lane width) hits the reference SNR
after Rx beamforming.

:func:`scenario_placements` alone puts the Rx vehicle at a scenario's
distance s; the sweep grids, the crossing search, the calibration and the
selfcheck's edge set all place it through that function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from .channel import LinkContext, Scene, information_weight, link_context
from .errors import NoBracket
from .fim_closed import MEASUREMENTS, Measurement, bound_arrays, information, link_vectors
from .geometry import (
    SPEED_OF_LIGHT, Pose, Vec2, VehicleSpec, build_cornered_vehicle, require_count,
    require_positive_finite, visibility, visible_links, wrap_angles,
)
from .waveform import OfdmSpec, interleaved_allocation

Axis = Literal["lat", "lon"]

DEFAULT_SWEEP_STEP = 0.25  # m
# Rows a sweep grid may have: a bound_table row peaks at about 3 KB.
MAX_GRID_ROWS = 100_000
# Occupied subcarriers (2 max_occupied_index) a preset may have: a CLI run
# holds about 120 B per subcarrier (peak RSS 34 MB at 2e4, 271 MB at 2e6 on
# CPython 3.11, numpy 2.4), so this caps that at about 240 MB.
MAX_SUBCARRIERS = 2_000_000
# Elements per Rx panel: a panel's element array holds 16 B per element (one
# complex offset), so this caps it at 160 kB; 1e10 would need 160 GB.
MAX_RX_ELEMENTS = 10_000
CROSSING_TOL = 0.01  # m, the distance resolution of the requirement-crossing search


@dataclass(frozen=True)
class Requirements:
    """3GPP V2X positioning accuracy requirements."""

    lateral_max: float = 0.1  # m
    longitudinal_max: float = 0.5  # m

    def __post_init__(self) -> None:
        require_positive_finite(self, "lateral_max", "longitudinal_max")

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


# The bound table's columns (SweepRow's); each MEASUREMENTS entry's (peb_lat, peb_lon, oeb).
COLUMNS = tuple(f.name for f in fields(SweepRow))
SET_COLUMNS = np.array([[4, 5, 8], [6, 7, 9]])


@dataclass(frozen=True)
class PresetConfig:
    """System configuration from which scenes are built; construction
    raises ValueError, naming the field, for a value no scene can use."""

    name: str
    carrier_frequency: float  # Hz
    subcarrier_spacing: float  # Hz
    n_rx_elements: int
    target_snr_db: float
    max_occupied_index: int = 600
    vehicle_length: float = 4.5
    vehicle_width: float = 1.8
    lane_width: float = 3.5
    fov_blocked_halfwidth: float = math.pi / 4  # rad, about each corner's body quadrant

    def __post_init__(self) -> None:
        require_count(self, "n_rx_elements", "max_occupied_index")
        require_positive_finite(self, "carrier_frequency", "subcarrier_spacing", "vehicle_length",
                                "vehicle_width", "lane_width")
        if not math.isfinite(self.target_snr_db):
            raise ValueError(f"target_snr_db must be finite, got {self.target_snr_db!r}")
        if self.n_rx_elements > MAX_RX_ELEMENTS:
            raise ValueError(f"n_rx_elements must be at most MAX_RX_ELEMENTS = {MAX_RX_ELEMENTS}, "
                             f"got {self.n_rx_elements}")
        if 2 * self.max_occupied_index > MAX_SUBCARRIERS:
            raise ValueError(f"max_occupied_index must be at most MAX_SUBCARRIERS / 2 = "
                             f"{MAX_SUBCARRIERS // 2}, got {self.max_occupied_index}")
        if not 0.0 <= self.fov_blocked_halfwidth <= math.pi:
            raise ValueError(f"fov_blocked_halfwidth must lie in [0, pi], got "
                             f"{self.fov_blocked_halfwidth!r}")

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


def scenario_placements(preset: PresetConfig,
                        scenario: Literal["overtaking", "platooning", "custom"],
                        s: np.ndarray | Sequence[float], q_x: float = 0.0) -> np.ndarray:
    """Rx positions (N, 2) at distances s (N,): overtaking at (-lane_width,
    s), platooning at bumper gap s behind the Tx vehicle, (0, -(vehicle_length
    + s)), custom at (q_x, s), which only it reads; any other scenario raises
    ValueError."""
    s = np.asarray(s, dtype=float)
    lateral = {"overtaking": -preset.lane_width, "platooning": 0.0, "custom": q_x}
    if scenario not in lateral:
        raise ValueError(f"unknown scenario {scenario!r}")
    q_y = -(preset.vehicle_length + s) if scenario == "platooning" else s
    return np.column_stack((np.full_like(s, lateral[scenario]), q_y))


def _build_vehicle(preset: PresetConfig) -> VehicleSpec:
    return build_cornered_vehicle(preset.vehicle_length, preset.vehicle_width,
                                  preset.n_rx_elements, SPEED_OF_LIGHT / preset.carrier_frequency,
                                  preset.fov_blocked_halfwidth)


@lru_cache(maxsize=32)
def preset_context(preset: PresetConfig) -> LinkContext:
    """The preset's link context (its vehicle at both ends, unit noise), built on first use.

    The transmit power is calibrated side by side in neighboring lanes
    (lateral offset one lane width, zero longitudinal offset), where the
    shortest visible link whose Tx array carries signal (ties to the smallest
    (t, r)) gets the target SNR g / (its Tx array's subcarrier count); raises
    NoActiveLinks without one, and ValueError, naming target_snr_db, when the
    power that meets it is not positive and finite, or when the context's
    bandwidths, power moments or information weights leave the float range.
    """
    vehicle = _build_vehicle(preset)
    arrays = vehicle.arrays
    allocation = interleaved_allocation(preset.occupied, len(vehicle.panels))
    fractions = np.array(allocation.array_power_fractions)
    unit_power = OfdmSpec(preset.subcarrier_spacing, preset.carrier_frequency)
    tx_pose, rx_pose = placement_poses(scenario_placements(preset, "overtaking", [0.0]))
    tx_m, offset, visible = visibility(arrays, tx_pose, arrays, rx_pose)
    # A silent Tx array's links are no links to calibrate on.
    ref_t, ref_r, _, _, distance, _ = (column[0] for column in visible_links(
        tx_m, offset, visible & (fractions > 0.0)[:, None]))
    k = np.argmin(distance)  # the first shortest link in (t, r) order
    # Noise is unit; the calibrated power carries the SNR.
    unit_g = information_weight(distance[k], unit_power.wavelength, arrays.n_elements[ref_r[k]],
                                fractions[ref_t[k]], unit_power.n_symbols)
    try:
        snr = 10.0 ** (preset.target_snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    power = snr * len(allocation.per_array_sets[ref_t[k]]) / float(unit_g) if unit_g else math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"target_snr_db = {preset.target_snr_db} calibrates the transmit "
                         f"power to {power!r} W, which is not positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite context is refused
        ctx = link_context(vehicle, vehicle, replace(unit_power, total_power=power), allocation)
    if not all(np.isfinite(x).all() for x in (ctx.link_beta, ctx.tx_moments, ctx.link_gd2)):
        raise ValueError(f"preset {preset.name!r} has bandwidths, power moments or "
                         "information weights beyond the float range")
    return ctx


def build_scene(preset: PresetConfig, q: Vec2, alpha_t: float = 0.0) -> Scene:
    """Scene on the preset's context with the Tx vehicle at the origin, heading
    alpha_t, and the Rx vehicle at q, heading 0."""
    return Scene(preset_context(preset), Pose(Vec2(0.0, 0.0), alpha_t), Pose(q, 0.0))


def calibrated_power(preset: PresetConfig) -> float:
    """Transmit power meeting the preset's reference SNR target."""
    return preset_context(preset).ofdm.total_power


def calibrated_scene(preset: PresetConfig, q: Vec2, alpha_t: float = 0.0) -> Scene:
    return build_scene(preset, q, alpha_t)


def placement_poses(q: np.ndarray, alpha_t: float | np.ndarray = 0.0) -> tuple[tuple, tuple]:
    """Poses of placements q (N, 2), as geometry.visibility takes them: the Tx
    vehicle at the origin with heading alpha_t (per row or one for all,
    wrapped), the Rx vehicle at q with heading 0."""
    n = len(q)
    return (np.zeros((n, 2)), wrap_angles(np.full(n, alpha_t, dtype=float))), (q, np.zeros(n))


def placement_efims(ctx: LinkContext, tx_pose: tuple, rx_pose: tuple) -> tuple[np.ndarray, ...]:
    """The EFIM assembly of :func:`bound_table` for N placements of the
    context's vehicles at poses (position (N, 2), heading (N,)) as
    geometry.visibility takes them: its Tx panel offsets (N, Kt), pair
    offsets (N, Kt, Kr) and LOS mask (N, Kt, Kr), and the EFIMs (2, N, 3, 3)
    of :func:`information`, in MEASUREMENTS order, zero without links.
    ``fim_general.placement_schur_efims`` is its general-path twin."""
    tx_m, offset, visible = visibility(ctx.tx_vehicle.arrays, tx_pose, ctx.rx_vehicle.arrays,
                                       rx_pose)
    # Links (N, Kt*Kr), N >= 0, in (t, r) order; hidden ones at distance inf: g = 0, no direction.
    links, distance = ctx.link_sends.size, np.where(visible, np.abs(offset), np.inf)
    v_tau, v_theta, aperture = (v.reshape(-1, links, *v.shape[3:]) for v in link_vectors(
        offset / distance, tx_m[..., None], rx_pose[1][:, None, None], ctx.link_saaf))
    with np.errstate(over="ignore"):  # beyond 1e154 m, distance**2 is inf: g = 0, as hidden
        d2 = distance.reshape(-1, links)**2
        return tx_m, offset, visible, information(v_tau, v_theta, aperture, ctx.link_gd2 / d2, d2,
                                                  ctx.link_beta, ctx.ofdm.omega_c)


def bound_table(
    preset: PresetConfig,
    q: np.ndarray | Sequence[tuple[float, float]],
    alpha_t: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Bounds for an (N, 2) array of placements q in one numpy pass, as an
    (N, 10) float table with the columns of SweepRow (COLUMNS).

    ``alpha_t`` is the Tx heading, per row or one for all; the Rx heading is
    0. Rows without LOS links get +inf. One bound extraction covers both sets
    of :func:`placement_efims`, MEASUREMENTS[i] in columns SET_COLUMNS[i].
    ``n_links`` counts the visible links whose Tx array sends.
    """
    q = np.asarray(q, dtype=float).reshape(-1, 2)
    placements = np.empty((len(q), 3))  # each row's q and Tx heading, checked at once
    placements[:, :2], placements[:, 2] = q, alpha_t
    if not np.isfinite(placements).all():
        raise ValueError("placements and Tx headings must be finite")
    ctx = preset_context(preset)
    _, _, visible, j = placement_efims(ctx, *placement_poses(q, placements[:, 2]))
    table = np.empty((len(q), len(COLUMNS)))
    table[:, :2] = q
    np.subtract(np.abs(q[:, 1]), preset.vehicle_length, out=table[:, 2])
    np.add.reduce(visible.reshape(-1, ctx.link_sends.size) & ctx.link_sends, 1, out=table[:, 3])
    table[:, SET_COLUMNS] = bound_arrays(j)[2].swapaxes(0, 1)
    return table


def evaluate_point(preset: PresetConfig, q: Vec2, alpha_t: float = 0.0) -> SweepRow:
    """Bounds for one relative placement; +inf sentinels when unsolvable.

    A placement with no LOS links (or with coincident panel pairs, which the
    visibility test treats as not visible) yields n_links = 0 and infinite
    bounds rather than an exception, so sweeps never abort.
    """
    row = bound_table(preset, q.as_tuple(), alpha_t)[0].tolist()
    return SweepRow(*row[:3], int(row[3]), *row[4:])


def _grid(start: float, stop: float, step: float) -> list[float]:
    """Grid start + i step, i = 0, 1, ..., up to stop; a stop off the grid
    drops the partial step. More than MAX_GRID_ROWS rows, or a count that is
    not finite, raises ValueError."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    # The slack keeps a stop on the grid from losing its row to round-off.
    count = (stop - start) / step + 1e-9
    if not (math.isfinite(count) and count < MAX_GRID_ROWS):
        raise ValueError(f"a grid from {start} to {stop} in steps of {step} has {count + 1:.3g} "
                         f"rows, more than MAX_GRID_ROWS = {MAX_GRID_ROWS}")
    return [start + i * step for i in range(math.floor(count) + 1)]


def sweep_placements(preset: PresetConfig, scenario: Literal["overtaking", "platooning", "custom"],
                     q_y_min: float, q_y_max: float, step: float,
                     q_x: float = 0.0) -> np.ndarray:
    """The Rx positions (N, 2) of a sweep, :func:`scenario_placements` on a
    grid of distances. Overtaking and custom run q_y from q_y_min in whole
    steps up to q_y_max. Platooning reads no q_y_max: its grid is anchored at
    the touching point |q_y| = vehicle length, where the facing corner panels
    would coincide and the free-space gain diverges, so its rows sit at bumper
    gaps k step, k = 1, 2, ..., as long as q_y >= q_y_min.
    """
    if scenario == "platooning":
        s = _grid(0.0, -q_y_min - preset.vehicle_length, step)[1:]
    else:
        s = _grid(q_y_min, q_y_max, step)
    return scenario_placements(preset, scenario, s, q_x)


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
) -> dict[tuple[Measurement, Axis], Crossing]:
    """Requirement crossings of every (measurement, axis) curve of a built-in scenario.

    The distance is the longitudinal offset q_y >= 0 at one lane width
    (overtaking; the layout is mirror symmetric in q_y), searched over
    [0, 30] m, or the bumper gap (platooning), searched over
    [0.25, 30 - vehicle_length] m, to CROSSING_TOL. All curves share each
    bound_table call of one search, three at the defaults. Keys run over
    MEASUREMENTS in order, then lat, lon.
    """
    if scenario not in ("overtaking", "platooning"):
        raise ValueError(f"unknown scenario {scenario!r}")
    s_min, s_max = (0.0, 30.0) if scenario == "overtaking" else (0.25, 30.0 - preset.vehicle_length)
    curves = [(m, axis) for m in MEASUREMENTS for axis in ("lat", "lon")]
    columns = SET_COLUMNS[:, :2].ravel()

    def bounds_at(s: np.ndarray) -> np.ndarray:
        return bound_table(preset, scenario_placements(preset, scenario, s))[:, columns].T
    thresholds = [requirements.threshold(axis) for _, axis in curves]
    found = _lattice_search(bounds_at, thresholds, s_min, s_max, CROSSING_TOL)
    return dict(zip(curves, found))


def scenario_crossing(
    preset: PresetConfig,
    scenario: Literal["overtaking", "platooning"],
    axis: Axis,
    measurement: Measurement,
    requirements: Requirements = Requirements(),
) -> float:
    """Requirement-crossing distance of one curve of a built-in scenario.

    Returns the largest longitudinal offset (overtaking) or bumper gap
    (platooning) at which the requirement still holds, as scenario_crossings
    finds it (all four curves); raises NoBracket when it holds everywhere or
    nowhere in the searched range, and KeyError for an axis or measurement
    that is not one of its keys.
    """
    return scenario_crossings(preset, scenario, requirements)[measurement, axis].value()
