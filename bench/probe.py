"""Set-up probe, run in a fresh interpreter: import, calibrate, first point.

Usage: python3 bench/probe.py SRC_DIR Q_X Q_Y ALPHA_T

Prints the repr of every field of the first point's row, one per line, so
the caller can compare it with the same point evaluated in its own process.
"""

import dataclasses
import sys

sys.path.insert(0, sys.argv[1])

from v2vbounds import scenarios  # noqa: E402
from v2vbounds.geometry import Vec2  # noqa: E402

for preset in scenarios.PRESETS.values():
    scenarios.calibrated_power(preset)
row = scenarios.evaluate_point(
    scenarios.PRESETS["cfg_3p5GHz"],
    Vec2(float(sys.argv[2]), float(sys.argv[3])),
    alpha_t=float(sys.argv[4]),
)
for field in dataclasses.fields(row):
    print(repr(getattr(row, field.name)))
