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
  side invisible to the panels on that side, between touching bodies too:
  the test reads each pair's offset as formed from the panel mounts.

All types are immutable after construction (VehicleSpec.arrays is built on
first use and then kept) and all operations are pure functions, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoActiveLinks

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Scene

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


def require_count(owner, *names: str) -> None:
    """Raise ValueError, naming it, at the first field not an integer >= 1 (a bool is not one)."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Elementwise wrap_angle, equal bitwise: fmod and one shift by tau are exact."""
    wrapped = np.fmod(angles, math.tau, out=np.empty(np.shape(angles)))
    np.subtract(wrapped, math.tau, out=wrapped, where=wrapped > math.pi)
    return np.add(wrapped, math.tau, out=wrapped, where=wrapped <= -math.pi)


def sector_edge(halfwidth) -> np.ndarray:
    """cos and sin (2, ...) of the angle h' = min(halfwidth + _SECTOR_EDGE_TOL,
    pi) that los_mask's sector test reads for blocked-sector halfwidths (...).
    At h' = pi the sine is 0, not sin(pi) = 1.2e-16, so that the sector is the
    whole circle, the exact backward direction included."""
    h = np.minimum(np.asarray(halfwidth, dtype=float) + _SECTOR_EDGE_TOL, math.pi)
    return np.array([np.cos(h), np.where(h < math.pi, np.sin(h), 0.0)])


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


@dataclass(frozen=True, eq=False)
class ArrayPanel:
    """One antenna array: mount point, element layout, and field of view.

    ``elements`` is a read-only (2, E) array of element offsets from the
    array centroid in the vehicle frame: distances (m, >= 0) in row 0 and
    angles (rad, wrapped to (-pi, pi]) in row 1, E >= 1, all finite. The
    offsets' mean must lie within 1e-12 m of the centroid, or within 1e-12 of
    the largest distance on a panel larger than 1 m: centring rounds each
    offset to the ulps of the panel's size, and an absolute 1e-12 m refused
    the 10 000-element arc at 1 GHz (radius about 950 m, residual 1.3e-12 m),
    while a real off-centre layout misses by far more at any size.
    ``fov_blocked_center``/``fov_blocked_halfwidth`` describe the
    body-blocked sector in the vehicle frame.
    """

    mount_distance: float  # m from vehicle reference point
    mount_angle: float  # rad, vehicle frame
    elements: np.ndarray  # (2, E) element distances, angles
    fov_blocked_center: float  # rad, vehicle frame
    fov_blocked_halfwidth: float  # rad

    def __post_init__(self) -> None:
        for name in ("mount_distance", "mount_angle", "fov_blocked_center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.fov_blocked_halfwidth <= math.pi:
            raise ValueError("fov_blocked_halfwidth must lie in [0, pi]")
        elements = np.array(self.elements, dtype=float)
        if elements.ndim != 2 or len(elements) != 2 or not elements.shape[1]:
            raise ValueError("elements must be a (2, E) array of distances and angles, "
                             f"E >= 1, got shape {elements.shape}")
        if not np.isfinite(elements).all():
            raise ValueError("element offsets must be finite")
        distance, angle = elements
        if distance.min() < 0.0:
            raise ValueError(f"element offset distance must be >= 0, got {distance.min()}")
        angle[:] = wrap_angles(angle)
        residual = np.hypot(*(distance * np.array([np.cos(angle), np.sin(angle)])).mean(axis=1))
        if residual > 1e-12 * max(1.0, distance.max()):
            raise ValueError(f"element offsets must be centered on the centroid (residual "
                             f"{residual:.3e} m)")
        object.__setattr__(self, "elements", read_only(elements))
        object.__setattr__(self, "mount_angle", wrap_angle(self.mount_angle))
        object.__setattr__(self, "fov_blocked_center", wrap_angle(self.fov_blocked_center))

    @property
    def n_elements(self) -> int:
        return self.elements.shape[1]


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
            raise ValueError("vehicle must carry at least one panel")

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
        n_elements = np.array([p.n_elements for p in self.panels])
        elements = np.stack([np.pad(p.elements, ((0, 0), (0, n_elements.max() - p.n_elements)))
                             for p in self.panels], axis=1)
        d, psi = elements  # padding elements have d = 0, so they add nothing
        perp = d * np.array([np.sin(psi), -np.cos(psi)])  # (2, K, E_max)
        return VehicleArrays(
            self.length, self.width, distance, angle, read_only(x + 1j * y), center, halfwidth,
            blocked_edge=read_only(sector_edge(halfwidth)),
            n_elements=read_only(n_elements),
            saaf_s=read_only(perp.transpose(1, 0, 2) @ perp.transpose(1, 2, 0)
                             / n_elements[:, None, None]),
            elements=read_only(elements),
            d_perp=read_only(perp.sum(axis=-1).T),
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
    fov_blocked_halfwidth: float,
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
    centred on the quadrant facing the vehicle body, which a halfwidth of
    pi/4 covers exactly.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if carrier_wavelength <= 0.0:
        raise ValueError("carrier_wavelength must be positive")
    if panel_index not in (1, 2, 3, 4):
        raise ValueError(f"panel_index must be in 1..4, got {panel_index}")

    sector_offset = (math.pi / 2.0) * (panel_index - 1)
    elements = np.zeros((2, n_elements))
    if n_elements > 1:
        rho = carrier_wavelength / (4.0 * math.sin(math.pi / (4.0 * (n_elements - 1))))
        angles = math.pi * np.arange(n_elements) / (2.0 * (n_elements - 1)) + sector_offset
        x, y = rho * np.cos(angles), rho * np.sin(angles)
        x, y = x - x.mean(), y - y.mean()
        elements = np.array([np.hypot(x, y), np.arctan2(y, x)])

    blocked_center = wrap_angle(math.pi / 4.0 + sector_offset + math.pi)
    return ArrayPanel(
        mount_distance=mount_distance,
        mount_angle=mount_angle,
        elements=elements,
        fov_blocked_center=blocked_center,
        fov_blocked_halfwidth=fov_blocked_halfwidth,
    )


def build_cornered_vehicle(
    length: float,
    width: float,
    n_elements: int,
    carrier_wavelength: float,
    fov_blocked_halfwidth: float,
) -> VehicleSpec:
    """Vehicle with one conformal panel at each corner, each blind over
    fov_blocked_halfwidth about the bisector of its body quadrant.

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
            fov_blocked_halfwidth=fov_blocked_halfwidth,
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
    mount: np.ndarray  # (K,) complex, vehicle frame: mount_distance e^(i mount_angle)
    blocked_center: np.ndarray  # (K,), vehicle frame
    blocked_halfwidth: np.ndarray  # (K,)
    blocked_edge: np.ndarray  # (2, K) sector_edge of blocked_halfwidth
    n_elements: np.ndarray  # (K,)
    # (K, 2, 2) aperture matrices S = (1/N) sum_i d_i^2 u_perp(psi_i) u_perp(psi_i)^T, so
    # that SAAF(theta) = u(theta)^T S u(theta), with u_perp(psi) = (sin psi, -cos psi)
    saaf_s: np.ndarray
    elements: np.ndarray  # (2, K, E_max) element distances, angles; zero past n_elements
    d_perp: np.ndarray  # (K, 2) sum over a panel's elements of d (sin psi, -cos psi)
    # Every panel on a body corner, its blocked sector covering the corner's 90-degree
    # wedge into the body: a segment from a corner enters the convex body only along
    # that wedge, so the sector test already rejects every link the body test would.
    sectors_imply_body: bool

    def centroids(self, position: np.ndarray, heading: np.ndarray) -> np.ndarray:
        """World-frame panel centroids (..., K, 2) for poses (..., 2) and (...)."""
        angle = self.mount_angle + heading[..., None]
        centroids = np.empty(angle.shape + (2,))
        np.multiply(self.mount_distance, np.cos(angle), out=centroids[..., 0])
        np.multiply(self.mount_distance, np.sin(angle), out=centroids[..., 1])
        centroids += position[..., None, :]
        return centroids

    def sectors(self, heading: np.ndarray) -> tuple:
        """The blocked sectors (..., K) of the panels at headings (...), as
        los_mask takes them: cos and sin of the world-frame centers, then
        blocked_edge."""
        center = self.blocked_center + heading[..., None]
        return (np.cos(center), np.sin(center), *self.blocked_edge)


def _outside_sector(dx: np.ndarray, dy: np.ndarray, sector: tuple) -> np.ndarray:
    """Does the direction (dx, dy) miss the blocked sector (cos c, sin c, cos h',
    sin h'), c its world-frame center, h' its halfwidth from sector_edge? In
    the frame of c the direction is (a, b) = (d . u_c, u_c x d), which lies
    in the sector, |atan2(b, a)| <= h', iff a sin h' >= |b| cos h'."""
    cos_c, sin_c, cos_h, sin_h = sector
    return (dx * cos_c + dy * sin_c) * sin_h < np.abs(dy * cos_c - dx * sin_c) * cos_h


def los_mask(tx_c: np.ndarray, offset: np.ndarray, tx_sector: tuple, rx_sector: tuple,
             *bodies: tuple) -> np.ndarray:
    """Line of sight from Tx panels at tx_c along the offsets to the Rx panels.

    Requires (a) the offset, the direction from the Tx panel toward the Rx
    panel, to fall outside the Tx panel's blocked sector, (b) the reverse
    direction to fall outside the Rx panel's blocked sector, and (c) the open
    segment from tx_c to tx_c + offset to miss each given body's interior
    (both vehicles' in full). An offset below 1e-9 m has no defined direction
    and is reported as not visible. Sectors are (cos c, sin c, cos h', sin h')
    as from VehicleArrays.sectors, bodies as _crosses_body takes them; all
    broadcast against tx_c and the offsets (..., 2).
    """
    dx, dy = offset[..., 0], offset[..., 1]
    mask = ((np.hypot(dx, dy) >= 1e-9) & _outside_sector(dx, dy, tx_sector)
            & _outside_sector(-dx, -dy, rx_sector))
    for body in bodies:
        mask &= ~_crosses_body(tx_c, tx_c + offset, body)
    return mask


def _pair_offsets(tx: VehicleArrays, tx_pose: tuple, rx: VehicleArrays,
                  rx_pose: tuple) -> np.ndarray:
    """Offsets (..., Kt, Kr, 2) from every Tx panel centroid to every Rx one,
    for poses as :func:`visibility` takes them. In complex numbers, with m the
    mounts, e^(i h_t) [(m_r - m_t) + expm1(i (h_r - h_t)) m_r] + p_r - p_t:
    where the bodies overlap at nearly one heading, no O(1) coordinates
    cancel, so a pair 1e-4 m apart keeps the relative accuracy of its turn,
    where the difference of its centroids loses four digits: enough, through
    the near-zero heading column of its AOA vector, to move the bounds by
    3e-5."""
    (tx_p, tx_h), (rx_p, rx_h) = tx_pose, rx_pose
    turned = np.expm1(1j * (rx_h - tx_h))[..., None] * rx.mount
    offset = ((turned[..., None, :] + (rx.mount - tx.mount[:, None]))
              * np.exp(1j * tx_h)[..., None, None]
              + np.subtract(rx_p, tx_p, dtype=float).view(complex)[..., None])
    return offset.view(float).reshape(offset.shape + (2,))


def visibility(tx: VehicleArrays, tx_pose: tuple, rx: VehicleArrays, rx_pose: tuple):
    """Tx panel centroids (..., Kt, 2) and, per Tx-Rx panel pair, the offset
    (..., Kt, Kr, 2) from :func:`_pair_offsets` and the LOS mask (..., Kt, Kr)
    that :func:`los_mask` reads from those offsets: the mask and all link
    geometry see one direction per pair.

    Poses are (position (..., 2), heading (...)) as from Pose.arrays; the
    leading axes broadcast, so one call tests a whole grid of placements.
    """
    (tx_p, tx_h), (rx_p, rx_h) = tx_pose, rx_pose
    tx_c, offset = tx.centroids(tx_p, tx_h), _pair_offsets(tx, tx_pose, rx, rx_pose)
    bodies = () if tx.sectors_imply_body and rx.sectors_imply_body else (
        (tx_p[..., None, None, :], tx_h[..., None, None], tx.length, tx.width),
        (rx_p[..., None, None, :], rx_h[..., None, None], rx.length, rx.width))
    visible = los_mask(tx_c[..., :, None, :], offset, [a[..., :, None] for a in tx.sectors(tx_h)],
                       [a[..., None, :] for a in rx.sectors(rx_h)], *bodies)
    return tx_c, offset, visible


def visible_links(tx_c: np.ndarray, offset: np.ndarray, visible: np.ndarray) -> tuple:
    """The links of n placements from :func:`visibility`'s output, visible
    pairs first, then hidden ones up to the largest link count, each in (t, r)
    order: Tx and Rx panels (n, L), Tx centroids and offsets to the Rx (n, L, 2),
    distances and arrival angles (n, L). Visible pairs never coincide.
    Raises NoActiveLinks when no pair is visible.
    """
    if not visible.any():
        raise NoActiveLinks("no Tx-Rx panel pair has line of sight")
    pairs = np.argsort(~visible.reshape(len(visible), -1), axis=-1, kind="stable")
    t, r = np.divmod(pairs[:, :visible.sum(axis=(1, 2)).max()], visible.shape[-1])
    rows = np.arange(len(visible))[:, None]
    offset = offset[rows, t, r]
    return (t, r, tx_c[rows, t], offset, np.hypot(offset[..., 0], offset[..., 1]),
            np.arctan2(offset[..., 1], offset[..., 0]))


def scene_placement(scene: "Scene", links=None) -> tuple:
    """One scene as a placement (n = 1) of the placement kernels, its Tx
    reference point moved to the origin: :func:`visibility`'s output, with
    ``links`` (distinct panel pairs in (t, r) order, as active_links gives
    them) the mask of their pairs, visible or not, and the Rx heading (1,)."""
    (tx_p, tx_h), (rx_p, rx_h) = scene.tx_pose.arrays(), scene.rx_pose.arrays()
    tx_c, offset, visible = visibility(scene.tx_vehicle.arrays, (np.zeros((1, 2)), tx_h[None]),
                                       scene.rx_vehicle.arrays, ((rx_p - tx_p)[None], rx_h[None]))
    if links is not None:
        pairs = [(link.tx_panel, link.rx_panel) for link in links]
        if pairs != sorted(set(pairs)):
            raise ValueError("links must be distinct panel pairs in (t, r) order")
        visible = np.zeros_like(visible)
        visible[0, [t for t, _ in pairs], [r for _, r in pairs]] = True
    return tx_c, offset, visible, rx_h[None]


def active_links(scene: "Scene") -> tuple[Link, ...]:
    """Enumerate all panel pairs and keep the LOS-visible ones.

    Output is ordered by (tx_panel, rx_panel). Raises NoActiveLinks when no
    pair is visible.
    """
    tx_c, offset, visible, _ = scene_placement(scene)
    t, r, _, _, distance, theta_r = (column[0] for column in visible_links(tx_c, offset, visible))
    columns = (t, r, distance, theta_r, wrap_angles(theta_r + math.pi),
               wrap_angles(theta_r - scene.rx_pose.orientation), distance / SPEED_OF_LIGHT)
    return tuple(Link(*fields) for fields in zip(*(c.tolist() for c in columns)))
