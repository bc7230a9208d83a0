"""Scene container: two posed vehicles, the waveform, and the noise level."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .channel import LinkContext, link_context
from .geometry import Pose, VehicleSpec, require_positive_finite
from .waveform import Allocation, OfdmSpec


@dataclass(frozen=True)
class Scene:
    """Full evaluation context for one relative placement of two vehicles.

    ``noise_variance`` is the per-antenna noise power at every Rx array; only
    the ratio total_power/noise_variance affects any bound, so it is normally
    left at 1 and the transmit power carries the calibration.
    """

    tx_vehicle: VehicleSpec
    tx_pose: Pose
    rx_vehicle: VehicleSpec
    rx_pose: Pose
    ofdm: OfdmSpec
    allocation: Allocation
    noise_variance: float = 1.0

    def __post_init__(self) -> None:
        require_positive_finite(self, "noise_variance")
        if self.allocation.n_arrays != len(self.tx_vehicle.panels):
            raise ValueError(
                "allocation must provide one subcarrier set per Tx panel "
                f"({self.allocation.n_arrays} sets, {len(self.tx_vehicle.panels)} panels)"
            )

    @cached_property
    def context(self) -> LinkContext:
        """The scene's pose-free link context, built on first use and kept."""
        return link_context(self.tx_vehicle, self.rx_vehicle, self.ofdm, self.allocation,
                            self.noise_variance)
