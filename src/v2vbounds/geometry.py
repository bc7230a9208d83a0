"""Vehicle, panel, and link geometry for two-vehicle antenna-array positioning.

Conventions used throughout the package:

* World frame: x is the lateral (across-lane) axis, y the longitudinal
  (along-lane) axis. Angles are measured counterclockwise from +x and are
  stored wrapped to (-pi, pi].
* Vehicle frame: the vehicle's long axis is the frame's y axis, so a vehicle
  driving "up" the road has orientation 0. Panel mount angles and element
  offset angles are expressed in this frame.
* A corner panel's field of view covers 270 degrees; the blocked 90-degree
  sector is the wedge the rectangular body subtends at that corner (the
  wedge between the two body edges meeting there). Directions exactly on the
  wedge boundary count as blocked, which makes links grazing along a body
  side invisible to the panels on that side.

All types are immutable after construction (VehicleSpec.arrays is built on
first use and then kept) and all operations are pure functions, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidCount, NoActiveLinks

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Scene

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Directions within this tolerance of a blocked-sector edge count as blocked.
_SECTOR_EDGE_TOL = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def read_only(array: np.ndarray) -> np.ndarray:
    """The array, marked read-only (views of it are too): for arrays every
    scene of a preset shares, where a stray write would corrupt later rows."""
    array.setflags(write=False)
    return array


def require_positive_finite(owner, *names: str) -> None:
    """Raise ValueError, naming it, at the first field not positive and finite (NaN fails)."""
    for name in names:
        value = getattr(owner, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Elementwise wrap_angle, equal bitwise: fmod and one shift by tau are exact."""
    wrapped = np.fmod(angles, math.tau)
    wrapped = np.where(wrapped > math.pi, wrapped - math.tau, wrapped)
    return np.where(wrapped <= -math.pi, wrapped + math.tau, wrapped)


@dataclass(frozen=True)
class Vec2:
    """2-D point or direction in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scale: float) -> "Vec2":
        return Vec2(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def angle(self) -> float:
        """Four-quadrant direction angle atan2(y, x)."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Pose:
    """Position of a vehicle's reference point plus its heading."""

    position: Vec2
    orientation: float  # rad, normalized to (-pi, pi]

    def __post_init__(self) -> None:
        if not math.isfinite(self.orientation):
            raise ValueError("orientation must be finite")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.position.as_tuple()), np.array(self.orientation)


@dataclass(frozen=True)
class ElementOffset:
    """Antenna element offset from the array centroid, in the vehicle frame."""

    distance: float  # m
    angle: float  # rad

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance) and math.isfinite(self.angle)):
            raise ValueError("element offset must be finite")
        if self.distance < 0.0:
            raise ValueError(f"element offset distance must be >= 0, got {self.distance}")
        object.__setattr__(self, "angle", wrap_angle(self.angle))


@dataclass(frozen=True)
class ArrayPanel:
    """One antenna array: mount point, element layout, and field of view.

    Element offsets are expressed about the array centroid, so they must sum
    to the zero vector. ``fov_blocked_center``/``fov_blocked_halfwidth``
    describe the body-blocked sector in the vehicle frame.
    """

    mount_distance: float  # m from vehicle reference point
    mount_angle: float  # rad, vehicle frame
    elements: tuple[ElementOffset, ...]
    fov_blocked_center: float  # rad, vehicle frame
    fov_blocked_halfwidth: float  # rad

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        for name in ("mount_distance", "mount_angle", "fov_blocked_center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.elements:
            raise InvalidCount("panel must have at least one element")
        if not 0.0 <= self.fov_blocked_halfwidth <= math.pi:
            raise ValueError("fov_blocked_halfwidth must lie in [0, pi]")
        cx = sum(e.distance * math.cos(e.angle) for e in self.elements) / len(self.elements)
        cy = sum(e.distance * math.sin(e.angle) for e in self.elements) / len(self.elements)
        if math.hypot(cx, cy) > 1e-12:
            raise ValueError(
                "element offsets must be centered on the centroid "
                f"(residual {math.hypot(cx, cy):.3e} m)"
            )
        object.__setattr__(self, "mount_angle", wrap_angle(self.mount_angle))
        object.__setattr__(self, "fov_blocked_center", wrap_angle(self.fov_blocked_center))

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def saaf_matrix(panel: ArrayPanel) -> np.ndarray:
    """S = (1/N) sum_i d_i^2 u_perp(psi_i) u_perp(psi_i)^T, so saaf = u^T S u."""
    d_perp = np.array([(e.distance * math.sin(e.angle), -e.distance * math.cos(e.angle))
                       for e in panel.elements])
    return d_perp.T @ d_perp / panel.n_elements


@dataclass(frozen=True)
class VehicleSpec:
    """Vehicle body dimensions and its mounted antenna panels."""

    length: float  # m, along the vehicle-frame y axis
    width: float  # m
    panels: tuple[ArrayPanel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "panels", tuple(self.panels))
        require_positive_finite(self, "length", "width")
        if not self.panels:
            raise InvalidCount("vehicle must carry at least one panel")

    @cached_property
    def arrays(self) -> "VehicleArrays":
        """The panels as arrays, built on first use and kept with this spec."""
        columns = read_only(np.array([(p.mount_distance, p.mount_angle, p.fov_blocked_center,
                                       p.fov_blocked_halfwidth) for p in self.panels]))
        distance, angle, center, halfwidth = columns.T
        x, y = distance * np.cos(angle), distance * np.sin(angle)
        # 1e-13 m admits rounding only, far inside _crosses_body's 1e-12 m probe margin.
        on_corner = np.hypot(np.abs(x) - self.width / 2.0, np.abs(y) - self.length / 2.0) <= 1e-13
        wedge = np.arctan2(-np.sign(y), -np.sign(x))  # bisector of the corner's body wedge
        covered = np.abs(wrap_angles(center - wedge)) + math.pi / 4 <= halfwidth + _SECTOR_EDGE_TOL
        elements = [np.array([(e.distance, e.angle) for e in p.elements]).T for p in self.panels]
        width = max(e.shape[1] for e in elements)
        return VehicleArrays(
            self.length, self.width, *columns.T,
            n_elements=read_only(np.array([p.n_elements for p in self.panels])),
            saaf_s=read_only(np.stack([saaf_matrix(p) for p in self.panels])),
            elements=read_only(np.stack([np.pad(e, ((0, 0), (0, width - e.shape[1])))
                                         for e in elements], axis=1)),
            d_perp=read_only(np.array([(np.sum(d * np.sin(a)), -np.sum(d * np.cos(a)))
                                       for d, a in elements])),
            sectors_imply_body=bool(np.all(on_corner & covered)),
        )


@dataclass(frozen=True)
class Link:
    """Geometry of one Tx-panel-to-Rx-panel propagation path."""

    tx_panel: int
    rx_panel: int
    distance: float  # m
    theta_R: float  # world-frame direction from Tx panel toward Rx panel
    theta_T: float  # theta_R + pi, wrapped
    theta_R_local: float  # theta_R - alpha_R, wrapped
    delay: float  # s


def _crosses_body(a: np.ndarray, b: np.ndarray, body: tuple) -> np.ndarray:
    """Elementwise: does the open segment a-b, from (..., 2) endpoints, meet the
    open interior of a body (position (..., 2), orientation (...), length,
    width)? Segments running along an edge or touching only a corner do not."""
    position, orientation, length, width = body
    c, s = np.cos(-orientation), np.sin(-orientation)
    da, db = a - position, b - position
    ax, ay = c * da[..., 0] - s * da[..., 1], s * da[..., 0] + c * da[..., 1]
    bx, by = c * db[..., 0] - s * db[..., 1], s * db[..., 0] + c * db[..., 1]
    # Liang-Barsky clip of the segment against the closed rectangle. An axis
    # along which the segment does not move (delta == 0) adds no constraint:
    # the midpoint probe below rejects it unless inside the open slab.
    t0, t1 = 0.0, 1.0
    with np.errstate(all="ignore"):  # delta == 0 is masked; tiny deltas overflow to inf
        for start, delta, half in ((ax, bx - ax, width / 2.0), (ay, by - ay, length / 2.0)):
            flat = delta == 0.0
            ta = np.where(flat, -np.inf, (-half - start) / delta)
            tb = np.where(flat, np.inf, (half - start) / delta)
            t0 = np.maximum(t0, np.minimum(ta, tb))
            t1 = np.minimum(t1, np.maximum(ta, tb))
    # A positive-length clipped interval may still lie on the boundary;
    # probe its midpoint against the open rectangle.
    tm, eps = 0.5 * (t0 + t1), 1e-12
    return ((t0 < t1) & (np.abs(ax + tm * (bx - ax)) < width / 2.0 - eps)
            & (np.abs(ay + tm * (by - ay)) < length / 2.0 - eps))


def build_conformal_panel(
    n_elements: int,
    carrier_wavelength: float,
    panel_index: int,
    mount_distance: float = 0.0,
    mount_angle: float = 0.0,
) -> ArrayPanel:
    """Quarter-circle conformal array for one vehicle corner.

    For ``n_elements >= 2`` the elements sit on a circular arc of radius
    ``rho = wavelength / (4 sin(pi / (4 (n - 1))))`` (half-wavelength chord
    spacing) at angles ``pi (i - 1) / (2 (n - 1)) + (pi/2)(panel_index - 1)``,
    recentered so the offsets are expressed about their centroid. A single
    element sits exactly at the centroid. ``panel_index`` runs 1..4
    counterclockwise starting at the (+x, +y) corner; the blocked sector is
    the quadrant facing the vehicle body.
    """
    if n_elements < 1:
        raise InvalidCount(f"n_elements must be >= 1, got {n_elements}")
    if carrier_wavelength <= 0.0:
        raise ValueError("carrier_wavelength must be positive")
    if panel_index not in (1, 2, 3, 4):
        raise ValueError(f"panel_index must be in 1..4, got {panel_index}")

    sector_offset = (math.pi / 2.0) * (panel_index - 1)
    if n_elements == 1:
        offsets = (ElementOffset(0.0, 0.0),)
    else:
        rho = carrier_wavelength / (4.0 * math.sin(math.pi / (4.0 * (n_elements - 1))))
        angles = [
            math.pi * i / (2.0 * (n_elements - 1)) + sector_offset for i in range(n_elements)
        ]
        xs = [rho * math.cos(a) for a in angles]
        ys = [rho * math.sin(a) for a in angles]
        cx = sum(xs) / n_elements
        cy = sum(ys) / n_elements
        offsets = tuple(
            ElementOffset(math.hypot(x - cx, y - cy), math.atan2(y - cy, x - cx))
            for x, y in zip(xs, ys)
        )

    blocked_center = wrap_angle(math.pi / 4.0 + sector_offset + math.pi)
    return ArrayPanel(
        mount_distance=mount_distance,
        mount_angle=mount_angle,
        elements=offsets,
        fov_blocked_center=blocked_center,
        fov_blocked_halfwidth=math.pi / 4.0,
    )


def build_cornered_vehicle(
    length: float,
    width: float,
    n_elements: int,
    carrier_wavelength: float,
) -> VehicleSpec:
    """Vehicle with one conformal panel at each corner.

    Corners are numbered counterclockwise: 1 = (+w/2, +l/2), 2 = (-w/2, +l/2),
    3 = (-w/2, -l/2), 4 = (+w/2, -l/2), with +y the driving direction.
    """
    corners = (
        (width / 2.0, length / 2.0),
        (-width / 2.0, length / 2.0),
        (-width / 2.0, -length / 2.0),
        (width / 2.0, -length / 2.0),
    )
    panels = tuple(
        build_conformal_panel(
            n_elements,
            carrier_wavelength,
            panel_index=k + 1,
            mount_distance=math.hypot(cx, cy),
            mount_angle=math.atan2(cy, cx),
        )
        for k, (cx, cy) in enumerate(corners)
    )
    return VehicleSpec(length=length, width=width, panels=panels)


@dataclass(frozen=True, eq=False)
class VehicleArrays:
    """A vehicle's K panels as arrays, from VehicleSpec.arrays; shared, read-only."""

    length: float
    width: float
    mount_distance: np.ndarray  # (K,)
    mount_angle: np.ndarray  # (K,)
    blocked_center: np.ndarray  # (K,), vehicle frame
    blocked_halfwidth: np.ndarray  # (K,)
    n_elements: np.ndarray  # (K,)
    saaf_s: np.ndarray  # (K, 2, 2) saaf_matrix per panel
    elements: np.ndarray  # (2, K, E_max) element distances, angles; zero past n_elements
    d_perp: np.ndarray  # (K, 2) sum over a panel's elements of d (sin psi, -cos psi)
    # Every panel on a body corner, its blocked sector covering the corner's 90-degree
    # wedge into the body: a segment from a corner enters the convex body only along
    # that wedge, so the sector test already rejects every link the body test would.
    sectors_imply_body: bool

    def centroids(self, position: np.ndarray, heading: np.ndarray) -> np.ndarray:
        """World-frame panel centroids (..., K, 2) for poses (..., 2) and (...)."""
        angle = self.mount_angle + heading[..., None]
        return position[..., None, :] + self.mount_distance[:, None] * np.stack(
            (np.cos(angle), np.sin(angle)), axis=-1)


def _in_blocked_sector(direction: np.ndarray, center: np.ndarray, halfwidth) -> np.ndarray:
    return np.abs(wrap_angles(direction - center)) <= halfwidth + _SECTOR_EDGE_TOL


def los_mask(tx_c: np.ndarray, tx_sector: tuple, rx_c: np.ndarray, rx_sector: tuple,
             *bodies: tuple) -> np.ndarray:
    """Elementwise line of sight from Tx panels at tx_c to Rx panels at rx_c.

    Requires (a) the direction from the Tx panel toward the Rx panel to fall
    outside the Tx panel's blocked sector, (b) the reverse direction to fall
    outside the Rx panel's blocked sector, and (c) the open segment between
    the centroids to miss each given body's interior (both vehicles' in
    full). Coincident centroids have no defined direction and are reported as
    not visible. Sectors are (world-frame center, halfwidth), bodies as
    _crosses_body takes them; all broadcast against the centroids (..., 2).
    """
    offset = rx_c - tx_c
    towards_rx = np.arctan2(offset[..., 1], offset[..., 0])
    mask = ((np.hypot(offset[..., 0], offset[..., 1]) >= 1e-9)
            & ~_in_blocked_sector(towards_rx, *tx_sector)
            & ~_in_blocked_sector(wrap_angles(towards_rx + math.pi), *rx_sector))
    for body in bodies:
        mask &= ~_crosses_body(tx_c, rx_c, body)
    return mask


def visibility(tx: VehicleArrays, tx_pose: tuple, rx: VehicleArrays, rx_pose: tuple):
    """Panel centroids of both vehicles and their (..., Kt, Kr) LOS mask.

    Poses are (position (..., 2), heading (...)) as from Pose.arrays; the
    leading axes broadcast, so one call tests a whole grid of placements.
    """
    (tx_p, tx_h), (rx_p, rx_h) = tx_pose, rx_pose
    tx_c, rx_c = tx.centroids(tx_p, tx_h), rx.centroids(rx_p, rx_h)
    tx_center = wrap_angles(tx.blocked_center + tx_h[..., None])
    rx_center = wrap_angles(rx.blocked_center + rx_h[..., None])
    bodies = () if tx.sectors_imply_body and rx.sectors_imply_body else (
        (tx_p[..., None, None, :], tx_h[..., None, None], tx.length, tx.width),
        (rx_p[..., None, None, :], rx_h[..., None, None], rx.length, rx.width))
    mask = los_mask(
        tx_c[..., :, None, :], (tx_center[..., :, None], tx.blocked_halfwidth[:, None]),
        rx_c[..., None, :, :], (rx_center[..., None, :], rx.blocked_halfwidth), *bodies,
    )
    return tx_c, rx_c, mask


def visible_links(tx_c: np.ndarray, rx_c: np.ndarray, visible: np.ndarray) -> tuple:
    """The visible links of n placements with equal link counts, from the
    centroids (n, K, 2) and LOS mask (n, Kt, Kr) of :func:`visibility`, in
    (t, r) order: Tx and Rx panels (n, L), the Tx centroids and their offsets
    to the Rx centroids (n, L, 2), distances and arrival angles (n, L).
    Visible pairs never coincide. Raises NoActiveLinks when no pair is visible.
    """
    if not visible.any():
        raise NoActiveLinks("no Tx-Rx panel pair has line of sight")
    n = len(visible)
    _, t, r = (index.reshape(n, -1) for index in np.nonzero(visible))
    rows = np.arange(n)[:, None]
    tx_at = tx_c[rows, t]
    offset = rx_c[rows, r] - tx_at
    return (t, r, tx_at, offset, np.hypot(offset[..., 0], offset[..., 1]),
            np.arctan2(offset[..., 1], offset[..., 0]))


def active_links(scene: "Scene") -> tuple[Link, ...]:
    """Enumerate all panel pairs and keep the LOS-visible ones.

    Output is ordered by (tx_panel, rx_panel). Raises NoActiveLinks when no
    pair is visible.
    """
    tx_c, rx_c, visible = visibility(scene.tx_vehicle.arrays, scene.tx_pose.arrays(),
                                     scene.rx_vehicle.arrays, scene.rx_pose.arrays())
    t, r, _, _, distance, theta_r = (
        column[0] for column in visible_links(tx_c[None], rx_c[None], visible[None]))
    columns = (t, r, distance, theta_r, wrap_angles(theta_r + math.pi),
               wrap_angles(theta_r - scene.rx_pose.orientation), distance / SPEED_OF_LIGHT)
    return tuple(Link(*fields) for fields in zip(*(c.tolist() for c in columns)))
