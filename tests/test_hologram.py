import math

import numpy as np
import pytest

from oamboost.hologram import (
    HologramField,
    export_hologram,
    generate_hologram,
    grid_coordinates,
    hologram_filename,
    parse_hologram_csv,
    winding_number,
)
from oamboost.relativity import TWO_PI, boosted_azimuth

# Golden 4x4 unit-charge rest-frame mask, computed from wrap(atan2(y, x))
# on the documented grid and frozen after verification by hand.
GOLDEN_4X4_L1_G1 = [
    [159, 178, 204, 223],
    [141, 159, 223, 242],
    [114, 96, 32, 13],
    [96, 77, 51, 32],
]


def circular_diff(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


class TestGrid:
    def test_symmetric_about_zero(self):
        x = grid_coordinates(4, 1.0)
        np.testing.assert_allclose(x, [-1.0, -1 / 3, 1 / 3, 1.0], rtol=1e-15)
        x = grid_coordinates(5, 2.0)
        np.testing.assert_allclose(x, [-2.0, -1.0, 0.0, 1.0, 2.0], rtol=1e-15)


class TestGenerateHologram:
    def test_canonical_vortex(self):
        # 3x3, extent 1 puts pixels exactly on (1, 0) and (0, 1)
        field = generate_hologram(1, 1.0, width=3, height=3, extent=1.0)
        assert field.phase[1, 2] == pytest.approx(0.0, abs=1e-15)  # (x, y) = (1, 0)
        assert field.phase[2, 1] == pytest.approx(math.pi / 2, rel=1e-15)  # (x, y) = (0, 1)

    def test_contracted_azimuth(self):
        field = generate_hologram(1, 2.0, width=3, height=3, extent=1.0)
        assert field.phase[2, 2] == pytest.approx(math.atan2(2.0, 1.0), rel=1e-14)

    def test_center_pixel_zero_for_odd_sizes(self):
        for gamma in (1.0, 2.0, 10.0):
            field = generate_hologram(3, gamma, width=5, height=5, extent=1.0)
            assert field.phase[2, 2] == 0.0

    def test_zero_charge_uniform(self):
        field = generate_hologram(0, 4.0, width=8, height=8)
        assert np.all(field.phase == 0.0)

    def test_phase_range(self):
        field = generate_hologram(5, 3.0, width=32, height=32)
        assert np.all(field.phase >= 0.0)
        assert np.all(field.phase < TWO_PI)

    def test_formulation_equivalence(self):
        # direct atan2(gamma*y, x) equals l * boosted azimuth of atan2(y, x)
        for l in (1, 3):
            for gamma in (1.0, 2.0, 10.0):
                field = generate_hologram(l, gamma, width=16, height=16, extent=1.0)
                x = grid_coordinates(16, 1.0)
                for j in range(16):
                    for i in range(16):
                        phi = math.atan2(x[j], x[i]) % TWO_PI
                        expected = (l * boosted_azimuth(phi, gamma)) % TWO_PI
                        assert circular_diff(field.phase[j, i], expected) < 1e-12

    def test_mirror_symmetry(self):
        for gamma in (1.0, 5.0):
            field = generate_hologram(2, gamma, width=12, height=12)
            flipped = field.phase[::-1, :]
            np.testing.assert_array_less(
                circular_diff(flipped, (-field.phase) % TWO_PI), 1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_hologram(1, 0.5)
        with pytest.raises(ValueError):
            generate_hologram(1, 2.0, width=1)
        with pytest.raises(ValueError):
            generate_hologram(1, 2.0, extent=0.0)
        with pytest.raises(ValueError, match="extent must be positive and finite, got inf"):
            generate_hologram(1, 2.0, width=4, height=4, extent=math.inf)

    def test_phase_read_only(self):
        field = generate_hologram(1, 1.0, width=4, height=4)
        with pytest.raises(ValueError):
            field.phase[0, 0] = 1.0


class TestWinding:
    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_topological_charge(self, l, gamma):
        assert winding_number(l, gamma, samples=3600) == pytest.approx(float(l), abs=1e-6 / TWO_PI)

    def test_accumulated_phase_l3(self):
        # one loop round the core at the default sampling accumulates 3 * 2*pi
        assert winding_number(3, 1.0) * TWO_PI == pytest.approx(6 * math.pi, abs=1e-6)

    def test_radius_independent(self):
        # the same pixel directions at radii 100 times apart carry the same phase
        a = generate_hologram(2, 5.0, width=9, height=7, extent=0.1).phase
        b = generate_hologram(2, 5.0, width=9, height=7, extent=10.0).phase
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestExport:
    def test_pgm_golden(self):
        field = generate_hologram(1, 1.0, width=4, height=4, extent=1.0)
        data = export_hologram(field, "pgm8")
        expected = b"P5\n4 4\n255\n" + bytes(v for row in GOLDEN_4X4_L1_G1 for v in row)
        assert data == expected

    def test_pgm_deterministic(self):
        one = export_hologram(generate_hologram(2, 7.0, width=64, height=48), "pgm8")
        two = export_hologram(generate_hologram(2, 7.0, width=64, height=48), "pgm8")
        assert one == two

    def test_pgm_zero_charge_black(self):
        data = export_hologram(generate_hologram(0, 3.0, width=4, height=4), "pgm8")
        assert data == b"P5\n4 4\n255\n" + bytes(16)

    def test_pgm_center_pixel_convention(self):
        field = generate_hologram(1, 2.0, width=5, height=5)
        data = export_hologram(field, "pgm8")
        body = data[len(b"P5\n5 5\n255\n") :]
        assert body[2 * 5 + 2] == 0

    def test_csv_round_trip(self):
        field = generate_hologram(3, 4.0, width=9, height=7, extent=2.0)
        parsed = parse_hologram_csv(export_hologram(field, "csv"))
        assert parsed.shape == (7, 9)
        np.testing.assert_allclose(parsed, field.phase, atol=1e-15)

    def test_unknown_format(self):
        field = generate_hologram(1, 1.0, width=4, height=4)
        with pytest.raises(ValueError, match="png"):
            export_hologram(field, "png")

    def test_filename_convention(self):
        field = generate_hologram(-2, 10.0, width=512, height=256)
        assert hologram_filename(field, "pgm") == "holo_l-2_g10_512x256.pgm"
