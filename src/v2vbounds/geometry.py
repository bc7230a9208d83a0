"""Vehicle, panel, and link geometry for two-vehicle antenna-array positioning.

Conventions used throughout the package:

* World frame: x is the lateral (across-lane) axis, y the longitudinal
  (along-lane) axis. Angles are measured counterclockwise from +x and are
  stored wrapped to (-pi, pi].
* Vehicle frame: the vehicle's long axis is the frame's y axis, so a vehicle
  driving "up" the road has orientation 0. Panel mounts and element offsets
  are complex points x + i y in this frame.
* A corner panel's field of view covers 270 degrees; the blocked 90-degree
  sector is the wedge the rectangular body subtends at that corner (the
  wedge between the two body edges meeting there). Directions exactly on the
  wedge boundary count as blocked, which makes links grazing along a body
  side invisible to the panels on that side, between touching bodies too:
  the test reads each pair's offset as formed from the panel mounts.
* Placement geometry is complex, x + i y: one rotation e^(i heading) per pose
  turns its vehicle's mounts and blocked-sector directions (VehicleArrays).

All types are immutable after construction (VehicleSpec.arrays is built on
first use and then kept) and all operations are pure functions, so values
can be shared freely across threads.
"""

from __future__ import annotations

import cmath
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
    """Elementwise wrap_angle, equal bitwise: fmod and a shift by tau (or 0) are exact."""
    wrapped = np.fmod(angles, math.tau)
    return wrapped - math.tau * np.subtract(wrapped > math.pi, wrapped <= -math.pi, dtype=float)


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

    ``mount`` is the array centroid and ``elements`` a read-only (E,) array,
    E >= 1, of the element offsets from it, all complex x + i y (m) in the
    vehicle frame and finite. The offsets' mean must lie within 1e-12 m of
    the centroid, or within 1e-12 of the largest offset on a panel larger
    than 1 m: centring rounds each offset to the ulps of the panel's size, and
    an absolute 1e-12 m refused the 10 000-element arc at 1 GHz (radius about
    950 m, residual 1.3e-12 m), while a real off-centre layout misses by far
    more at any size. ``fov_blocked_center``/``fov_blocked_halfwidth``
    describe the body-blocked sector in the vehicle frame.
    """

    mount: complex  # m from the vehicle reference point
    elements: np.ndarray  # (E,) complex element offsets
    fov_blocked_center: float  # rad, vehicle frame
    fov_blocked_halfwidth: float  # rad

    def __post_init__(self) -> None:
        for name in ("mount", "fov_blocked_center"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.fov_blocked_halfwidth <= math.pi:
            raise ValueError("fov_blocked_halfwidth must lie in [0, pi]")
        elements = np.array(self.elements, dtype=complex)
        if elements.ndim != 1 or not elements.size:
            raise ValueError("elements must be an (E,) array of complex offsets, E >= 1, "
                             f"got shape {elements.shape}")
        if not np.isfinite(elements).all():
            raise ValueError("element offsets must be finite")
        residual = abs(elements.mean())
        if residual > 1e-12 * max(1.0, np.abs(elements).max()):
            raise ValueError(f"element offsets must be centered on the centroid (residual "
                             f"{residual:.3e} m)")
        object.__setattr__(self, "mount", complex(self.mount))
        object.__setattr__(self, "elements", read_only(elements))
        object.__setattr__(self, "fov_blocked_center", wrap_angle(self.fov_blocked_center))

    @property
    def n_elements(self) -> int:
        return len(self.elements)


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
        mount = read_only(np.array([p.mount for p in self.panels]))
        center, halfwidth = np.array([(p.fov_blocked_center, p.fov_blocked_halfwidth)
                                      for p in self.panels]).T
        x, y = mount.real, mount.imag
        on_corner = (np.abs(x) == self.width / 2.0) & (np.abs(y) == self.length / 2.0)
        wedge = np.arctan2(-np.sign(y), -np.sign(x))  # bisector of the corner's body wedge
        covered = np.abs(wrap_angles(center - wedge)) + math.pi / 4 <= halfwidth + _SECTOR_EDGE_TOL
        n_elements = np.array([p.n_elements for p in self.panels])
        elements = np.stack([np.pad(p.elements, (0, n_elements.max() - p.n_elements))
                             for p in self.panels])  # padding sits at the centroid: adds nothing
        perp = np.stack((elements.imag, -elements.real), axis=-1)  # (K, E_max, 2): d u_perp(psi)
        return VehicleArrays(
            self.length, self.width, mount,
            blocked_dir=read_only(np.cos(center) + 1j * np.sin(center)),
            blocked_edge=read_only(sector_edge(halfwidth)),
            n_elements=read_only(n_elements),
            saaf_s=read_only(perp.swapaxes(1, 2) @ perp / n_elements[:, None, None]),
            elements=read_only(elements),
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
    """Elementwise: does the open segment a-b, from complex endpoints, meet the
    open interior of a body (complex position, turn e^(i heading), length,
    width)? Segments running along an edge or touching only a corner do not."""
    position, turn, length, width = body
    a, b = (a - position) * np.conj(turn), (b - position) * np.conj(turn)
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
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
    mount: complex = 0,
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
    x = y = np.zeros(n_elements)
    if n_elements > 1:
        rho = carrier_wavelength / (4.0 * math.sin(math.pi / (4.0 * (n_elements - 1))))
        angles = math.pi * np.arange(n_elements) / (2.0 * (n_elements - 1)) + sector_offset
        x, y = rho * np.cos(angles), rho * np.sin(angles)

    return ArrayPanel(mount=mount, elements=(x - x.mean()) + 1j * (y - y.mean()),
                      fov_blocked_center=math.pi / 4.0 + sector_offset + math.pi,
                      fov_blocked_halfwidth=fov_blocked_halfwidth)


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
            mount=complex(cx, cy),
        )
        for k, (cx, cy) in enumerate(corners)
    )
    return VehicleSpec(length=length, width=width, panels=panels)


@dataclass(frozen=True, eq=False)
class VehicleArrays:
    """A vehicle's K panels as arrays, from VehicleSpec.arrays; shared, read-only."""

    length: float
    width: float
    mount: np.ndarray  # (K,) complex, vehicle frame: the panels' mounts
    blocked_dir: np.ndarray  # (K,) complex, vehicle frame: e^(i fov_blocked_center)
    blocked_edge: np.ndarray  # (2, K) sector_edge of fov_blocked_halfwidth
    n_elements: np.ndarray  # (K,)
    # (K, 2, 2) aperture matrices S = (1/N) sum_i d_i^2 u_perp(psi_i) u_perp(psi_i)^T, so
    # that SAAF(theta) = u(theta)^T S u(theta), for offsets d e^(i psi), with
    # d u_perp(psi) = d (sin psi, -cos psi) = (Im, -Re) of the offset
    saaf_s: np.ndarray
    elements: np.ndarray  # (K, E_max) complex element offsets; zero past n_elements
    # Every panel on a body corner, its blocked sector covering the corner's 90-degree
    # wedge into the body: a segment from a corner enters the convex body only along
    # that wedge, so the sector test already rejects every link the body test would.
    sectors_imply_body: bool


@dataclass(frozen=True, eq=False)
class PanelPairs:
    """Tx and Rx arrays and the pose-free arrays of their panel pairs (Kt, Kr); read-only."""

    tx: VehicleArrays
    rx: VehicleArrays
    mounts: np.ndarray  # (Kt, Kr) complex: the mounts' differences m_r - m_t
    sector_dirs: np.ndarray  # (2, Kt, Kr): conj(blocked_dir) of the Tx panel, minus the Rx's
    sector_edge: np.ndarray  # (2, 2, Kt, Kr): their blocked_edge, cos h' then sin h'


def panel_pairs(tx: VehicleArrays, rx: VehicleArrays) -> PanelPairs:
    """The PanelPairs of the links from tx's panels to rx's."""
    dirs = np.array(np.broadcast_arrays(np.conj(tx.blocked_dir)[:, None], -np.conj(rx.blocked_dir)))
    edge = np.stack(np.broadcast_arrays(tx.blocked_edge[..., None], rx.blocked_edge[:, None]), 1)
    return PanelPairs(tx, rx, *map(read_only, (rx.mount - tx.mount[:, None], dirs, edge)))


def los_mask(tx_c: np.ndarray, offset: np.ndarray, distance: np.ndarray, directions: np.ndarray,
             edge: np.ndarray, *bodies: tuple) -> np.ndarray:
    """Line of sight from Tx panels at tx_c along the complex offsets d (..., Kt, Kr) of
    modulus distance: d misses the Tx panel's blocked sector, -d the Rx panel's, and the
    segment from tx_c to tx_c + d each body's open interior (as _crosses_body takes them);
    below 1e-9 m, d has no direction. A sector of world-frame center c and h' from
    sector_edge holds z = d e^(-i c) iff Re z sin h' >= |Im z| cos h'. directions are
    e^(-i c) (..., 2, Kt, Kr) of the Tx panel, then minus the Rx panel's, which negates z
    exactly, and edge (cos h', sin h') (2, ..., 2, Kt, Kr): one comparison. All broadcast."""
    z = offset[..., None, :, :] * directions
    clear = z.real * edge[1] < np.abs(z.imag) * edge[0]
    mask = (distance >= 1e-9) & clear[..., 0, :, :] & clear[..., 1, :, :]
    for body in bodies:
        mask &= ~_crosses_body(tx_c, tx_c + offset, body)
    return mask


def _pair_offsets(pairs: PanelPairs, tx_turn: np.ndarray, turn: np.ndarray,
                  rx_at: np.ndarray) -> np.ndarray:
    """Complex offsets (..., Kt, Kr) from every Tx panel centroid to every Rx one,
    e^(i h_t) [(m_r - m_t) + expm1(i (h_r - h_t)) m_r] + p_r - p_t for mounts m, from
    tx_turn = e^(i h_t), turn = h_r - h_t and rx_at = p_r - p_t: where the bodies
    overlap at nearly one heading, no O(1) coordinates cancel, so a pair 1e-4 m apart
    keeps the relative accuracy of its turn, where the difference of its centroids
    loses four digits: through its AOA vector's heading entry, 3e-5 in the bounds."""
    turned = np.expm1(1j * turn)[..., None, None] * pairs.rx.mount
    return (turned + pairs.mounts) * tx_turn[..., None, None] + rx_at[..., None, None]


def visibility(pairs: PanelPairs, tx_pose: tuple, rx_pose: tuple):
    """The Tx panels' offsets from the Tx reference point (..., Kt) and, per
    panel pair of pairs, the offset (..., Kt, Kr) from :func:`_pair_offsets`,
    the LOS mask that :func:`los_mask` reads from it and its modulus, all in
    the world frame, x + i y: one direction per pair for the mask and all link
    geometry. Poses are (position (..., 2), heading (...)) as from Pose.arrays;
    the leading axes broadcast. One e^(i heading) turns each vehicle, and the
    body test reads positions from the Tx reference point."""
    (tx_p, tx_h), (rx_p, rx_h), tx, rx = tx_pose, rx_pose, pairs.tx, pairs.rx
    headings = np.empty(np.broadcast(tx_h, rx_h).shape + (2,))
    headings[..., 0], headings[..., 1] = tx_h, rx_h
    turns = np.exp(1j * headings)[..., None, None]  # e^(i h_t), e^(i h_r)
    tx_turn = turns[..., 0, 0, 0]
    tx_m = tx.mount * tx_turn[..., None]
    rx_at = np.subtract(rx_p, tx_p, dtype=float).view(complex)[..., 0]
    offset = _pair_offsets(pairs, tx_turn, rx_h - tx_h, rx_at)
    distance = np.abs(offset)
    bodies = () if tx.sectors_imply_body and rx.sectors_imply_body else (
        (0.0, turns[..., 0, :, :], tx.length, tx.width),
        (rx_at[..., None, None], turns[..., 1, :, :], rx.length, rx.width))
    visible = los_mask(tx_m[..., None], offset, distance, pairs.sector_dirs * np.conj(turns),
                       pairs.sector_edge, *bodies)
    return tx_m, offset, visible, distance


def visible_links(tx_m: np.ndarray, offset: np.ndarray, visible: np.ndarray) -> tuple:
    """The links of n placements from :func:`visibility`'s output, visible
    pairs first, then hidden ones up to the largest link count, each in (t, r)
    order: Tx and Rx panels (n, L), the Tx panels' offsets from the Tx
    reference point and the offsets to the Rx (n, L, complex), distances and
    arrival angles (n, L). Visible pairs never coincide. Raises NoActiveLinks
    when no pair is visible.
    """
    if not visible.any():
        raise NoActiveLinks("no Tx-Rx panel pair has line of sight")
    pairs = np.argsort(~visible.reshape(len(visible), -1), axis=-1, kind="stable")
    t, r = np.divmod(pairs[:, :visible.sum(axis=(1, 2)).max()], visible.shape[-1])
    rows = np.arange(len(visible))[:, None]
    offset = offset[rows, t, r]
    return t, r, tx_m[rows, t], offset, np.abs(offset), np.angle(offset)


def scene_placement(scene: "Scene", links=None) -> tuple:
    """One scene as a placement (n = 1) of the placement kernels, its Tx
    reference point moved to the origin: :func:`visibility`'s output, with
    ``links`` (distinct panel pairs in (t, r) order, as active_links gives
    them) the mask of their pairs, visible or not, and the Rx heading (1,)."""
    (tx_p, tx_h), (rx_p, rx_h) = scene.tx_pose.arrays(), scene.rx_pose.arrays()
    tx_m, offset, visible, _ = visibility(scene.context.pairs, (np.zeros((1, 2)), tx_h[None]),
                                          ((rx_p - tx_p)[None], rx_h[None]))
    if links is not None:
        pairs = [(link.tx_panel, link.rx_panel) for link in links]
        if pairs != sorted(set(pairs)):
            raise ValueError("links must be distinct panel pairs in (t, r) order")
        visible = np.zeros_like(visible)
        visible[0, [t for t, _ in pairs], [r for _, r in pairs]] = True
    return tx_m, offset, visible, rx_h[None]


def active_links(scene: "Scene") -> tuple[Link, ...]:
    """Enumerate all panel pairs and keep the LOS-visible ones.

    Output is ordered by (tx_panel, rx_panel). Raises NoActiveLinks when no
    pair is visible.
    """
    t, r, _, _, distance, theta_r = (column[0] for column in
                                     visible_links(*scene_placement(scene)[:3]))
    columns = (t, r, distance, theta_r, wrap_angles(theta_r + math.pi),
               wrap_angles(theta_r - scene.rx_pose.orientation), distance / SPEED_OF_LIGHT)
    return tuple(Link(*fields) for fields in zip(*(c.tolist() for c in columns)))
