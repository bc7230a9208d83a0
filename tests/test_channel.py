"""Free-space gain, SNR calibration, and link information weights."""

import cmath
import dataclasses
import math

import pytest

from v2vbounds.channel import free_space_gain, link_gains
from v2vbounds.errors import ZeroDistance
from v2vbounds.geometry import Vec2, active_links
from v2vbounds.scenarios import PRESETS, build_scene, calibrated_power, calibrated_scene

from reference import reference_calibrated_power


class TestFreeSpaceGain:
    def test_unit_gain_distance(self):
        lam = 0.0857
        h = free_space_gain(lam / (4.0 * math.pi), lam)
        assert abs(abs(h) - 1.0) < 1e-12

    def test_inverse_distance_amplitude(self):
        lam = 0.0857
        h1 = free_space_gain(7.0, lam)
        h2 = free_space_gain(14.0, lam)
        assert abs(abs(h1) / abs(h2) - 2.0) < 1e-12

    def test_value_at_10m_3p5ghz(self):
        # Oracle: direct evaluation of wavelength/(4 pi d).
        lam = 299792458.0 / 3.5e9
        expected = lam / (4.0 * math.pi * 10.0)
        h = free_space_gain(10.0, lam)
        assert abs(abs(h) - expected) < 1e-18
        assert abs(expected - 6.816e-4) < 1e-6

    def test_phase(self):
        lam = 0.1
        d = 0.3125
        h = free_space_gain(d, lam)
        expected_phase = cmath.exp(-1j * 2.0 * math.pi * d / lam)
        assert abs(h / abs(h) - expected_phase) < 1e-12

    def test_zero_distance_rejected(self):
        with pytest.raises(ZeroDistance):
            free_space_gain(0.0, 0.1)


class TestCalibration:
    def test_target_snr_hit_3p5(self, preset_3p5):
        scene = calibrated_scene(preset_3p5, Vec2(-3.5, 0.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        shortest = min(range(len(links)), key=lambda i: links[i].distance)
        n_sub = len(scene.allocation.per_array_sets[links[shortest].tx_panel])
        assert abs(gains[shortest].g / n_sub - 10**3.6) < 1e-6 * 10**3.6
        assert abs(gains[shortest].snr_after_bf_db - 36.0) < 1e-9

    def test_target_snr_hit_28(self, preset_28):
        scene = calibrated_scene(preset_28, Vec2(-3.5, 0.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        shortest = min(range(len(links)), key=lambda i: links[i].distance)
        n_sub = len(scene.allocation.per_array_sets[links[shortest].tx_panel])
        assert abs(gains[shortest].g / n_sub - 1000.0) < 1e-6 * 1000.0

    def test_linearity(self, preset_3p5):
        p1 = calibrated_power(preset_3p5)
        louder = dataclasses.replace(preset_3p5, target_snr_db=36.0 + 10.0 * math.log10(2.0))
        assert abs(calibrated_power(louder) / p1 - 2.0) < 1e-12

    def test_idempotent(self, preset_3p5):
        # The calibration reads only the preset: built again under another name
        # (a new cache entry) it gives the same power, that of the scalar oracle.
        p1 = calibrated_power(preset_3p5)
        assert calibrated_power(dataclasses.replace(preset_3p5, name="again")) == p1
        assert abs(reference_calibrated_power(preset_3p5) - p1) <= 1e-12 * p1

    def test_shortest_pair_distance(self, preset_3p5):
        # Side by side, facing corners are lane width minus vehicle width apart.
        scene = build_scene(preset_3p5, Vec2(-3.5, 0.0))
        links = active_links(scene)
        assert abs(min(lk.distance for lk in links) - 1.7) < 1e-12


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_scene_noise_variance_must_be_positive_and_finite(value):
    # A NaN noise would give NaN bounds at rank 0, an inf one a math domain
    # error in link_gains.
    scene = build_scene(PRESETS["cfg_3p5GHz"], Vec2(-3.5, 10.0))
    with pytest.raises(ValueError, match="noise_variance"):
        dataclasses.replace(scene, noise_variance=value)


class TestLinkGains:
    def test_g_formula_scalings(self, preset_3p5):
        base = calibrated_scene(preset_3p5, Vec2(-3.5, 10.0))
        links = active_links(base)
        g0 = [lg.g for lg in link_gains(base, links)]

        more_symbols = dataclasses.replace(
            base, ofdm=dataclasses.replace(base.ofdm, n_symbols=4)
        )
        g_sym = [lg.g for lg in link_gains(more_symbols, links)]
        assert all(abs(b / a - 4.0) < 1e-12 for a, b in zip(g0, g_sym))

        half_noise = dataclasses.replace(base, noise_variance=0.5)
        g_noise = [lg.g for lg in link_gains(half_noise, links)]
        assert all(abs(b / a - 2.0) < 1e-12 for a, b in zip(g0, g_noise))

    def test_g_monotone_in_distance(self, preset_3p5):
        scene = calibrated_scene(preset_3p5, Vec2(-3.5, 12.0))
        links = active_links(scene)
        gains = link_gains(scene, links)
        pairs = sorted(zip([lk.distance for lk in links], [lg.g for lg in gains]))
        for (d1, g1), (d2, g2) in zip(pairs, pairs[1:]):
            if d2 > d1 + 1e-12:
                assert g2 < g1

    def test_all_positive(self, preset_28):
        scene = calibrated_scene(preset_28, Vec2(0.0, -15.0))
        links = active_links(scene)
        assert all(lg.g > 0 for lg in link_gains(scene, links))

    def test_calibrated_power_cached(self, preset_3p5):
        assert calibrated_power(preset_3p5) == calibrated_power(preset_3p5)
