import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oamboost import _table, hologram
from oamboost.hologram import (
    HologramField,
    export_hologram,
    generate_hologram,
    grid_coordinates,
    winding_number,
)
from oamboost.relativity import TWO_PI, boosted_azimuth, require_gamma
from oamboost.spectrum import L_RANGE

# Golden 4x4 unit-charge rest-frame mask, computed from wrap(atan2(y, x))
# on the documented grid and frozen after verification by hand.
GOLDEN_4X4_L1_G1 = [
    [159, 178, 204, 223],
    [141, 159, 223, 242],
    [114, 96, 32, 13],
    [96, 77, 51, 32],
]


def parse_hologram_csv(data) -> np.ndarray:
    """Inverse of the csv export: recover the phase matrix."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    rows = [[float(tok) for tok in line.split(",")] for line in data.strip().splitlines()]
    return np.array(rows, dtype=float)


def reference_csv(phase) -> bytes:
    """The former CSV export, one formatted value at a time: the reference for the shared table writer's blocks."""
    lines = [",".join(f"{v:.17g}" for v in row) for row in phase]
    return ("\n".join(lines) + "\n").encode("ascii")


# The former whole-array expressions, kept verbatim as the bit-for-bit reference
# for the in-place row-block versions.
def reference_phase(l, gamma, width, height, extent):
    x = grid_coordinates(width, extent)
    y = grid_coordinates(height, extent)
    phase = np.mod(int(l) * np.arctan2(gamma * y[:, None], x[None, :]), TWO_PI)
    phase[phase >= TWO_PI] = 0.0
    return phase


def reference_every_row(l, gamma, width, height, extent):
    """generate_hologram's former loop body run on every row, before half the rows were mirrored."""
    x, y = grid_coordinates(width, extent), grid_coordinates(height, extent)
    phase = np.arctan2(gamma * y[:, None], x)
    phase *= l
    hologram._wrap(phase, l)
    phase[phase >= TWO_PI] = 0.0
    return phase


def field_table(field):
    """format_matrix's Table of a field's phase, its rows sliced as they are written."""
    return _table.format_matrix(lambda start, stop: field.phase[start:stop], field.height, field.width)


def reference_pgm(phase):
    height, width = phase.shape
    pixels = np.floor(phase / TWO_PI * 255.0 + 0.5).astype(np.uint8)
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def parse_pgm(data) -> np.ndarray:
    """Pixel rows of a binary P5 file with maxval 255; the size must match the header."""
    header = re.match(rb"P5\n([0-9]+) ([0-9]+)\n255\n", data)
    return np.frombuffer(data[header.end() :], dtype=np.uint8).reshape(int(header[2]), int(header[1]))


def reference_winding_number(l, gamma, samples=3600):
    gamma = require_gamma(gamma)
    angles = np.linspace(0.0, TWO_PI, int(samples) + 1)
    phase = np.mod(int(l) * np.arctan2(gamma * np.sin(angles), np.cos(angles)), TWO_PI)
    unwrapped = np.unwrap(phase)
    return float((unwrapped[-1] - unwrapped[0]) / TWO_PI)


# (|l|, gamma, samples) of test_winding_number where a sampled mask-phase step reaches pi
IN_RANGE = r" in \[-2147483648, 2147483647\]"
UNRESOLVED_WINDINGS = {(3, 2.5, 8), (3, 1e6, 8), (3, 1e6, 3600), (12, 1.0, 8), (12, 2.5, 8), (12, 1e6, 8), (12, 1e6, 3600)}


@st.composite
def block_shapes(draw):
    """(width, height) with the height at, next to or across the row-block seams."""
    width = draw(st.one_of(st.integers(2, 9), st.integers(10, 700), st.sampled_from([511, 2048, 2049, 5000])))
    rows = max(1, hologram._BLOCK_CELLS // width)
    height = draw(
        st.one_of(
            st.sampled_from([rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1, 3 * rows - 1]).filter(lambda h: h >= 2),
            st.integers(2, 40),
        )
    )
    return width, height


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

    @pytest.mark.parametrize(("gamma", "extent"), [(1e6, 9e307), (1e6, 1e303), (1.0, 9e307)])
    def test_extent_whose_grid_overflows_raises(self, gamma, extent):
        # the former code wrote a mask off by up to 3.93 rad at 9e307, and warned of overflow at 1e303
        message = f"extent must be positive and finite, got {extent}; 2*extent, gamma*extent (gamma {gamma})"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_hologram(3, gamma, width=8, height=8, extent=extent)

    @settings(max_examples=100, deadline=None)
    @given(
        height=st.integers(2, 40),
        l=st.integers(-5, 5),
        gamma=st.one_of(st.just(1.0), st.just(1e6), st.floats(1.0, 1e6)),
        scale=st.floats(0.25, 4.0),
    )
    @example(height=8, l=3, gamma=1e6, scale=1.0)
    @example(height=8, l=3, gamma=1.0, scale=1.0)
    @example(height=2, l=-1, gamma=1.5, scale=1.0)
    def test_rejects_exactly_the_extents_whose_grid_overflows(self, height, l, gamma, scale):
        # about scale = 1 lies the limit of 2*extent (gamma < 2) or of gamma*extent; width 7 puts x = 0 on the grid
        extent = min(sys.float_info.max, sys.float_info.max / max(2.0, gamma) * scale)
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = not np.isfinite(gamma * grid_coordinates(height, extent)).all()
        if overflows:
            with pytest.raises(ValueError, match=re.escape(f"got {extent}; 2*extent, gamma*extent (gamma {gamma})")):
                generate_hologram(l, gamma, width=7, height=height, extent=extent)
        else:
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                field = generate_hologram(l, gamma, width=7, height=height, extent=extent)
            assert field.phase.tobytes() == reference_phase(l, gamma, 7, height, extent).tobytes()

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            ((2.7, 2.0, 8, 8), rf"l must be an integer{IN_RANGE}, got 2\.7"),
            ((2, 2.0, 8.9, 8), "width must be an integer, got 8.9"),
            ((2, 2.0, 8, np.float64(8.0)), "height must be an integer, got "),
        ],
        ids=["l", "width", "height"],
    )
    def test_non_integral_charge_and_sizes_raise(self, args, message):
        # int() used to truncate: l = 2.7 drew the l = 2 mask, and a width of 8.9 gave 8 pixels
        with pytest.raises(ValueError, match=message):
            generate_hologram(*args)

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            ((True, 2.0, 4, 4), rf"^l must be an integer{IN_RANGE}, got True$"),
            ((1, 2.0, True, 4), "^width must be an integer, got True$"),
            ((1, 2.0, 4, False), "^height must be an integer, got False$"),
        ],
        ids=["l", "width", "height"],
    )
    def test_bool_charge_and_sizes_raise(self, args, message):
        # bool is an int subclass: generate_hologram(True, 2.0, 4, 4) drew the l = 1 mask
        with pytest.raises(ValueError, match=message):
            generate_hologram(*args)
        with pytest.raises(ValueError, match=message):
            hologram._render(*args, 1.0, "pgm")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_charge_bound(self, sign):
        # L_RANGE bounds l as it does every OAM index; 10**12 was accepted, and past 2**53 l itself rounds
        limit = L_RANGE[(sign + 1) // 2]
        assert generate_hologram(limit, 2.0, 4, 2).phase.shape == (2, 4)
        assert len(hologram._render(limit, 2.0, 4, 2, 1.0, "pgm")) == len(b"P5\n4 2\n255\n") + 8
        for l in (limit + sign, sign * 10**12, sign * 10**20):
            with pytest.raises(ValueError, match=rf"^l must be an integer{IN_RANGE}, got {l}$"):
                generate_hologram(l, 2.0, 4, 2)
        # at the edge, l * atan2 rounds by under 3% of half a grey level (pi / 255)
        assert abs(limit) * math.pi * 2.0**-53 < 0.03 * math.pi / 255

    def test_phase_read_only(self):
        field = generate_hologram(1, 1.0, width=4, height=4)
        with pytest.raises(ValueError):
            field.phase[0, 0] = 1.0


class TestSameBitsAsWholeArray:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=block_shapes(),
        l=st.integers(-12, 12),
        gamma=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
        extent=st.floats(0.01, 10.0),
    )
    @example(shape=(2, 2), l=0, gamma=1.0, extent=1.0)
    @example(shape=(2048, 65), l=5, gamma=7.0, extent=1.0)
    @example(shape=(5, 2 * (hologram._BLOCK_CELLS // 5) + 1), l=-3, gamma=1e6, extent=0.01)
    # |l| <= 1 skips the fmod; odd sizes put x = 0 and y = 0 on the grid
    @example(shape=(2049, 2 * (hologram._BLOCK_CELLS // 2049) + 1), l=-1, gamma=1.0, extent=1.0)
    @example(shape=(2048, 65), l=0, gamma=3.0, extent=1.0)
    @example(shape=(5, 2 * (hologram._BLOCK_CELLS // 5) + 1), l=1, gamma=1e6, extent=0.01)
    # |l| >= 2 runs the bounded remainder: one step for |l| = 2 and 3, three for 8, four for 17
    @example(shape=(2049, 2 * (hologram._BLOCK_CELLS // 2049) + 1), l=2, gamma=1.0, extent=1.0)
    @example(shape=(2048, 65), l=-2, gamma=3.0, extent=1.0)
    @example(shape=(2049, 2 * (hologram._BLOCK_CELLS // 2049) + 1), l=8, gamma=2.5, extent=1.0)
    @example(shape=(5, 2 * (hologram._BLOCK_CELLS // 5) + 1), l=-8, gamma=1e6, extent=0.01)
    @example(shape=(511, 2 * (hologram._BLOCK_CELLS // 511) + 1), l=17, gamma=11.0, extent=3.0)
    def test_phase_and_pgm_bytes(self, shape, l, gamma, extent):
        width, height = shape
        field = generate_hologram(l, gamma, width=width, height=height, extent=extent)
        expected = reference_phase(l, gamma, width, height, extent)
        # tobytes also compares the sign of every zero
        assert field.phase.tobytes() == expected.tobytes()
        assert export_hologram(field, "pgm8") == reference_pgm(expected)

    @settings(max_examples=30, deadline=None)
    @given(shape=block_shapes(), l=st.integers(-12, 12), gamma=st.floats(1.0, 1e6))
    def test_pgm_parses_back(self, shape, l, gamma):
        width, height = shape
        pixels = parse_pgm(export_hologram(generate_hologram(l, gamma, width=width, height=height), "pgm8"))
        expected = parse_pgm(reference_pgm(reference_phase(l, gamma, width, height, hologram.DEFAULT_EXTENT)))
        assert pixels.shape == expected.shape == (height, width)
        assert pixels.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=block_shapes(),
        l=st.integers(-12, 12),
        gamma=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
        extent=st.floats(0.01, 10.0),
    )
    @example(shape=(2, 2), l=0, gamma=1.0, extent=1.0)
    # block seams: 130 rows at 2048 wide cross four, and 2 blocks + 1 row puts the last block at one row
    @example(shape=(2048, 130), l=5, gamma=7.0, extent=1.0)
    @example(shape=(5, 2 * (hologram._BLOCK_CELLS // 5) + 1), l=3, gamma=1e6, extent=0.01)
    # odd heights, whose centre row has no mirror, at negative l, which computes the rows with y <= 0
    @example(shape=(2048, 131), l=-7, gamma=3.0, extent=1.0)
    @example(shape=(2049, 2 * (hologram._BLOCK_CELLS // 2049) + 1), l=-1, gamma=1.0, extent=1.0)
    @example(shape=(511, 3 * (hologram._BLOCK_CELLS // 511) - 1), l=-12, gamma=11.0, extent=3.0)
    @example(shape=(3, 3), l=-2, gamma=2.0, extent=1.0)
    # wider than a block: one row per block, so the centre row's block mirrors no row
    @example(shape=(hologram._BLOCK_CELLS + 1, 3), l=-2, gamma=5.0, extent=1.0)
    def test_streamed_pgm_bytes(self, shape, l, gamma, extent):
        width, height = shape
        streamed = hologram._render(l, gamma, width, height, extent, "pgm")
        expected = reference_pgm(reference_phase(l, gamma, width, height, extent))
        assert streamed.dtype == np.uint8 and streamed.shape == (len(expected),)
        assert streamed.tobytes() == expected
        assert export_hologram(generate_hologram(l, gamma, width, height, extent), "pgm8") == expected

    @settings(max_examples=40, deadline=None)
    @given(
        shape=block_shapes(),
        l=st.integers(-12, 12),
        gamma=st.one_of(st.sampled_from([1.0, 1e6]), st.floats(1.0, 1e6)),
        extent=st.floats(0.01, 10.0),
    )
    @example(shape=(2048, 131), l=-7, gamma=3.0, extent=1.0)
    @example(shape=(5, 2 * (hologram._BLOCK_CELLS // 5) + 1), l=12, gamma=1e6, extent=0.01)
    @example(shape=(3, 3), l=-1, gamma=1.0, extent=1.0)
    def test_streamed_csv_bytes(self, shape, l, gamma, extent):
        # the CSV computes every row, where the field mirrors half of them: computed bits against mirrored ones
        width, height = shape
        streamed = b"".join(hologram._render(l, gamma, width, height, extent, "csv").blocks())
        assert streamed == export_hologram(generate_hologram(l, gamma, width, height, extent), "csv")

    def test_pgm_of_any_field_phase(self):
        # a hand-built field quantises as the whole-array formula, also just below 2*pi and at rounding halves
        rng = np.random.default_rng(5)
        phase = rng.uniform(0.0, TWO_PI, (3 * (hologram._BLOCK_CELLS // 37) + 2, 37))
        phase[0, :4] = [0.0, np.nextafter(TWO_PI, 0.0), 0.5 / 255.0 * TWO_PI, 254.5 / 255.0 * TWO_PI]
        field = HologramField(width=37, height=phase.shape[0], extent=1.0, l=1, gamma=1.0, phase=phase)
        assert export_hologram(field, "pgm8") == reference_pgm(field.phase)

    def test_field_phase_must_match_its_size(self):
        with pytest.raises(ValueError, match=r"^phase shape \(4, 3\) does not match the expected shape \(3, 4\)$"):
            HologramField(width=4, height=3, extent=1.0, l=1, gamma=1.0, phase=np.zeros((4, 3)))

    @settings(max_examples=200, deadline=None)
    @given(l=st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 2**19 + 1, 2**20 - 1, 2**20]),
                       st.integers(0, 2**20)),
           sign=st.sampled_from([1, -1]), data=st.data())
    def test_bounded_wrap_is_numpy_mod(self, l, sign, data):
        # |x| <= |l|*pi, with multiples of 2*pi, their neighbours and both zeros drawn often
        bound = l * math.pi
        k = data.draw(st.lists(st.integers(-(l // 2), l // 2), max_size=20))
        multiples = [m * TWO_PI for m in k]
        values = multiples + [np.nextafter(v, np.inf) for v in multiples] + [np.nextafter(v, -np.inf) for v in multiples]
        values += data.draw(st.lists(st.floats(-bound, bound), max_size=40)) + [0.0, -0.0, bound, -bound]
        values = np.array([v for v in values if abs(v) <= bound])
        assert hologram._wrap(values.copy(), sign * l).tobytes() == np.mod(values, TWO_PI).tobytes()

    @pytest.mark.parametrize("l", [-12, -1, 0, 1, 3, 12])
    @pytest.mark.parametrize("gamma", [1.0, 2.5, 1e6])
    @pytest.mark.parametrize("samples", [8, 3600])
    def test_winding_number(self, l, gamma, samples):
        if (abs(l), gamma, samples) in UNRESOLVED_WINDINGS:
            # the former code returned a wrong count here, without an error
            assert round(reference_winding_number(l, gamma, samples)) != l
            with pytest.raises(ValueError, match=f"cannot resolve l = {l} at gamma = {gamma} with {samples} samples"):
                winding_number(l, gamma, samples)
        else:
            assert winding_number(l, gamma, samples) == reference_winding_number(l, gamma, samples)


class TestMirroredRows:
    # the rows with l * atan2 < 0 are 2*pi minus the row at -y; computing them instead gives the same bits
    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(2, 300),
        height=st.integers(2, 300),
        l=st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60)),
        gamma=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        extent=st.floats(1e-3, 1e3),
    )
    @example(width=2, height=2, l=0, gamma=1.0, extent=1.0)
    @example(width=3, height=3, l=-1, gamma=1.0, extent=1.0)
    @example(width=3, height=3, l=1, gamma=1.0, extent=1.0)
    @example(width=7, height=2, l=-2, gamma=1e4, extent=1e-3)
    @example(width=300, height=299, l=-60, gamma=1.0 + 1e-7, extent=1e3)
    @example(width=299, height=300, l=60, gamma=11.37, extent=1.0)
    def test_same_bits_as_every_row(self, width, height, l, gamma, extent):
        field = generate_hologram(l, gamma, width=width, height=height, extent=extent)
        # tobytes also compares the sign of every zero
        assert field.phase.tobytes() == reference_every_row(l, gamma, width, height, extent).tobytes()

    @pytest.mark.parametrize("l", [-7, 0, 5])
    def test_row_blocks_cross_the_middle(self, l):
        # at 2048 wide a row block is 32 rows: 131 rows put the odd centre row inside a block, 130 at a seam
        for height in (130, 131):
            field = generate_hologram(l, 3.0, width=2048, height=height)
            assert field.phase.tobytes() == reference_every_row(l, 3.0, 2048, height, 1.0).tobytes()


class TestMemoryBudget:
    @pytest.mark.parametrize("size", [512, 1000])
    def test_traced_peak(self, size):
        tracemalloc.start()
        try:
            field = generate_hologram(3, 5.0, width=size, height=size)
            generate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            export_hologram(field, "pgm8")
            export_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one float64 field plus one row block; the PGM holds one byte per pixel
        assert generate_peak <= 1.25 * field.phase.nbytes
        assert export_peak <= 0.6 * field.phase.nbytes

    def test_streamed_pgm_peak(self):
        size, rows = 1000, hologram._BLOCK_CELLS // 1000
        tracemalloc.start()
        try:
            buf = hologram._render(3, 5.0, size, size, 1.0, "pgm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buf.nbytes == len(b"P5\n1000 1000\n255\n") + size * size
        # one byte per pixel plus two float64 scratch row blocks (and one block's masks), well under one float field
        assert peak <= size * size + 3 * rows * size * 8
        assert peak <= 0.35 * size * size * 8

    def test_csv_is_made_one_block_at_a_time(self):
        # the text is about 20 bytes a cell; the writer holds one block of 24 rows of it (4 and 32 blocks here)
        peaks = []
        for height in (96, 768):
            field = generate_hologram(3, 5.0, width=512, height=height)
            tracemalloc.start()
            try:
                size = sum(map(len, field_table(field).blocks()))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0] and peaks[1] < size / 4

    def test_streamed_csv_peak_does_not_grow_with_height(self):
        # each row block is computed as it is written: no float64 field (8 MB at 2048 rows), one block of text
        peaks = []
        for height in (96, 2048):
            tracemalloc.start()
            try:
                size = sum(map(len, hologram._render(3, 5.0, 512, height, 1.0, "csv").blocks()))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert size > 2 * 512 * 2048 * 8  # about 19 bytes a cell, over twice the field
        assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 512 * 2048 * 8 / 4

    def test_size_cap_comes_before_any_allocation(self, monkeypatch):
        def no_grid(n, extent):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(hologram, "grid_coordinates", no_grid)
        with pytest.raises(ValueError, match="at most 67108864 pixels, got 8193x8192"):
            generate_hologram(1, 2.0, width=8193, height=8192)
        # 8192 x 8192 itself passes the cap and reaches the grid
        with pytest.raises(AssertionError, match="the grid was built"):
            generate_hologram(1, 2.0, width=8192, height=8192)
        # the streamed PGM checks the size and the grid's overflow first too, and allocates nothing before the grid
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 67108864 pixels, got 8193x8192"):
                hologram._render(1, 2.0, 8193, 8192, 1.0, "pgm")
            with pytest.raises(ValueError, match=re.escape("got 9e+307; 2*extent, gamma*extent (gamma 1000000.0)")):
                hologram._render(3, 1e6, 8192, 8192, 9e307, "pgm")
            with pytest.raises(AssertionError, match="the grid was built"):
                hologram._render(1, 2.0, 8192, 8192, 1.0, "pgm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWinding:
    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_topological_charge(self, l, gamma):
        assert winding_number(l, gamma, samples=3600) == pytest.approx(float(l), abs=1e-6 / TWO_PI)

    def test_accumulated_phase_l3(self):
        # one loop round the core at the default sampling accumulates 3 * 2*pi
        assert winding_number(3, 1.0) * TWO_PI == pytest.approx(6 * math.pi, abs=1e-6)

    @pytest.mark.parametrize(
        ("l", "gamma", "need"), [(3, 1e6, 5441399), (12, 1e6, 23862766), (181, 10.0, 3620), (1800, 1.0, 3601)]
    )
    def test_unresolvable_sampling_raises(self, l, gamma, need):
        # the former code returned -1.0000000001, about 0, 165 and 579 here
        message = f"l = {l} at gamma = {gamma} with 3600 samples: .* reaches pi; {need} samples would suffice"
        with pytest.raises(ValueError, match=message):
            winding_number(l, gamma)
        if need < 10**4:
            assert winding_number(l, gamma, need) == pytest.approx(l, abs=1e-9)

    def test_a_step_of_exactly_pi_raises(self):
        # four samples at gamma = 1 step by pi/2 exactly, so l = 2 steps by pi, which unwrap cannot resolve
        with pytest.raises(ValueError, match="l = 2 at gamma = 1.0 with 4 samples: .* 5 samples would suffice"):
            winding_number(2, 1.0, 4)
        assert winding_number(2, 1.0, 5) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        ("l", "samples", "message"),
        [(2.5, 3600, rf"l must be an integer{IN_RANGE}, got 2\.5"),
         (2, 3600.7, "samples must be an integer, got 3600.7")],
        ids=["l", "samples"],
    )
    def test_non_integral_arguments_raise(self, l, samples, message):
        # int() used to truncate: winding_number(2.5, 2.0) returned 2.0
        with pytest.raises(ValueError, match=message):
            winding_number(l, 2.0, samples)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_charge_bound(self, sign):
        limit = L_RANGE[(sign + 1) // 2]
        with pytest.raises(ValueError, match=f"cannot resolve l = {limit} at gamma = 1.0 with 3600 samples"):
            winding_number(limit, 1.0)  # within the bound: checked, then too coarsely sampled
        for l in (limit + sign, sign * 10**12):
            with pytest.raises(ValueError, match=rf"^l must be an integer{IN_RANGE}, got {l}$"):
                winding_number(l, 1.0)

    @pytest.mark.parametrize("samples", [0, 1, 2])
    def test_fewer_than_three_samples_raise(self, samples):
        for l in (0, 1):
            with pytest.raises(ValueError, match="3 samples would suffice"):
                winding_number(l, 1e6, samples)

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(-400, 400), gamma=st.one_of(st.just(1.0), st.floats(1.0, 50.0)))
    def test_suggested_samples_suffice(self, l, gamma):
        with pytest.raises(ValueError) as info:
            winding_number(l, gamma, 2)
        need = int(re.search(r"(\d+) samples would suffice", str(info.value)).group(1))
        assume(need <= 2 * 10**5)
        assert winding_number(l, gamma, need) == pytest.approx(l, abs=1e-6)
        if gamma == 1.0 and l:
            # every step is 2*pi/samples at gamma = 1, so one sample fewer leaves a step of pi
            with pytest.raises(ValueError):
                winding_number(l, gamma, need - 1)

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

    @settings(max_examples=60, deadline=None)
    @given(width=st.one_of(st.integers(2, 9), st.sampled_from([97, 2048, 2049, 4096, 4097])), data=st.data())
    @example(width=2048, data=None)
    def test_csv_equals_the_former_writer(self, width, data):
        # heights at and across the block seams (_BLOCK_CELLS // width rows), values that repeat within a block and
        # across blocks, and -0.0, NaN payloads and infinities, each of which keeps its own text
        rows = max(1, _table._BLOCK_CELLS // width)
        height = data.draw(st.sampled_from([1, rows, rows + 1, 2 * rows + 1])) if data else 2 * rows + 1
        rng = np.random.default_rng(width * 1000 + height)
        edges = np.array([0.0, -0.0, math.nan, -math.inf, math.inf, 5e-324, 1 / 3, TWO_PI - 1e-15])
        edges = np.append(edges, np.uint64(0x7FF8000000000001).view(np.float64))
        phase = np.where(rng.random((height, width)) < 0.3, rng.choice(edges, (height, width)),
                         rng.choice(rng.random(50) * TWO_PI, (height, width)))
        field = HologramField(width=width, height=height, extent=1.0, l=1, gamma=1.0, phase=phase)
        expected = reference_csv(field.phase)
        assert export_hologram(field, "csv") == expected
        blocks = list(field_table(field).blocks())
        assert b"".join(blocks) == expected and len(blocks) == 1 + -(-height // rows)

    def test_csv_of_a_generated_field_equals_the_former_writer(self):
        field = generate_hologram(-5, 3.5, width=301, height=97, extent=2.0)
        assert export_hologram(field, "csv") == reference_csv(field.phase)

    def test_unknown_format(self):
        field = generate_hologram(1, 1.0, width=4, height=4)
        with pytest.raises(ValueError, match="png"):
            export_hologram(field, "png")
