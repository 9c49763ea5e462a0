"""Length-contracted vortex phase masks sampled on a Cartesian grid.

A detector moving along x projects onto OAM modes whose azimuth is the
boosted coordinate, so the mask phase is l * atan2(gamma*y, x).  Pure
phase fields only; no grating carrier is added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import Table, format_matrix
from .relativity import TWO_PI, require_gamma
from .spectrum import L_RANGE, MAX_CELLS, _freeze_array, _require_index

DEFAULT_SIZE = 512
DEFAULT_EXTENT = 1.0

_BLOCK_CELLS = 1 << 16  # cells in a row block of generation and export: 32 rows at 2048 wide


@dataclass(frozen=True)
class HologramField:
    """Sampled projection phase wrapped to [0, 2*pi)."""

    width: int
    height: int
    extent: float
    l: int
    gamma: float
    phase: np.ndarray

    def __post_init__(self):
        _freeze_array(self, "phase", float, range(self.height), range(self.width))


def grid_coordinates(n: int, extent: float) -> np.ndarray:
    """Pixel-centre coordinates, symmetric about 0 with edge pixels at +-extent."""
    return (np.arange(n) - (n - 1) / 2.0) * (2.0 * extent / (n - 1))


def _wrap(phase: np.ndarray, l: int) -> np.ndarray:
    """numpy's float remainder by 2*pi in place, bit for bit, where |phase| <= |l|*pi: fmod, +2*pi below 0, -0 made +0.

    fmod is |phase| less k*2*pi where it is at least k*2*pi, for k = 2**j down to 1: each k*2*pi is exact and
    each difference is exact (Sterbenz), so the remainder is exact, -0.0 included.
    """
    if abs(l) > 1:
        negative = np.signbit(phase)
        np.abs(phase, out=phase)
        k = 1 << (abs(l).bit_length() - 2)  # the largest power of two with 2k <= |l|
        while k:
            np.subtract(phase, k * TWO_PI, out=phase, where=phase >= k * TWO_PI)
            k >>= 1
        np.negative(phase, out=phase, where=negative)
    np.add(phase, TWO_PI, out=phase, where=phase < 0.0)
    return np.add(phase, 0.0, out=phase)


def _p5(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """A binary P5 buffer (maxval 255) with its header written, and the (height, width) view of its pixels."""
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    buf = np.empty(len(header) + width * height, dtype=np.uint8)
    buf[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    return buf, buf[len(header) :].reshape(height, width)


def _quantise(phase: np.ndarray, scratch: np.ndarray, pixels: np.ndarray) -> None:
    """pixels = round(phase / 2*pi * 255), halves away from zero, scaled in scratch, len(scratch) rows at a time."""
    step = max(1, len(scratch))  # scratch may be phase itself, and an odd height's centre mirror has no rows
    for start in range(0, len(phase), step):
        scaled = np.divide(phase[start : start + step], TWO_PI, out=scratch[: len(phase) - start])
        scaled *= 255.0
        scaled += 0.5  # phase < 2*pi, so the scaled value never reaches 256
        pixels[start : start + step] = scaled  # scaled >= 0.5, so the cast's truncation is floor


def _phase(l, gamma, x, y, out=None) -> np.ndarray:
    """The mask phase l * atan2(gamma*y, x) wrapped to [0, 2*pi), one row per y, in out if given."""
    phase = np.arctan2(gamma * y[:, None], x, out=out)
    phase *= l
    _wrap(phase, l)  # |l * atan2| <= |l| * pi bounds the remainder's steps
    phase[phase >= TWO_PI] = 0.0
    return phase


def _render(l, gamma, width, height, extent, fmt: str) -> HologramField | np.ndarray | Table:
    """After the checks, generate_hologram's field ("field"), P5 pgm8 bytes ("pgm") or CSV Table ("csv"), by row blocks.

    Even sizes place the vortex core between pixels; for odd sizes the centre pixel uses atan2(0, 0) = 0.  The CSV
    computes every row; the rest only rows where l * atan2 >= 0: y[::-1] == -y and atan2 is odd in y, bit for bit, so
    each other row is 2*pi - r of its mirror row's r, and 0 where that rounds to 2*pi (r = 0 too): the computed bits.
    """
    gamma = require_gamma(gamma)
    l = _require_index("l", l, *L_RANGE)
    width = _require_index("width", width)
    height = _require_index("height", height)
    if width < 2 or height < 2:
        raise ValueError(f"width and height must be >= 2, got {width}x{height}")
    if width * height > MAX_CELLS:
        raise ValueError(f"width x height must be at most {MAX_CELLS} pixels, got {width}x{height}")
    extent = float(extent)
    if not (0.0 < extent and gamma * ((height - 1) / 2.0 * (2.0 * extent / (height - 1))) < np.inf):  # gamma * last y
        raise ValueError(f"extent must be positive and finite, got {extent}; 2*extent, gamma*extent (gamma {gamma})")
    x, y = grid_coordinates(width, extent), grid_coordinates(height, extent)
    if fmt == "csv":
        return format_matrix(lambda start, stop: _phase(l, gamma, x, y[start:stop]), height, width)
    half, step, pgm = height // 2, max(1, _BLOCK_CELLS // width), fmt == "pgm"
    if pgm:
        out, pixels = _p5(width, height)
        scratch = np.empty((2, min(step, height - half), width))  # a block and its mirror, quantised in place
    else:
        out = pixels = np.empty((height, width))
    rows, y = (pixels, y) if l >= 0 else (pixels[::-1], y[::-1])  # l * atan2 >= 0 from row half on
    for start in range(half, height, step):
        stop = min(start + step, height)
        mirrored = slice(max(start, height - half), stop)  # not an odd height's centre row
        block, mirror = (scratch[0], scratch[1]) if pgm else (rows[start:stop], rows[::-1][mirrored])
        block = _phase(l, gamma, x, y[start:stop], block[: stop - start])
        mirror = np.subtract(TWO_PI, block[mirrored.start - start :], out=mirror[: stop - mirrored.start])
        mirror[mirror >= TWO_PI] = 0.0
        if pgm:
            _quantise(block, block, rows[start:stop])
            _quantise(mirror, mirror, rows[::-1][mirrored])
    return out if pgm else HologramField(width=width, height=height, extent=extent, l=l, gamma=gamma, phase=out)


def generate_hologram(
    l: int, gamma: float, width: int = DEFAULT_SIZE, height: int = DEFAULT_SIZE, extent: float = DEFAULT_EXTENT
) -> HologramField:
    """Sample the contracted vortex phase l * atan2(gamma*y, x), wrapped to [0, 2*pi), over the grid."""
    return _render(l, gamma, width, height, extent, "field")


def export_hologram(field: HologramField, format: str) -> bytes:
    """Serialise a phase field; byte-identical for identical inputs.

    pgm8: binary P5 with maxval 255, pixel = round(phase / 2*pi * 255) with
    halves rounded away from zero, rows top to bottom.  csv: one text row
    per pixel row, 17 significant digits (_table.format_matrix's blocks, joined).
    """
    if format == "pgm8":
        buf, pixels = _p5(field.width, field.height)
        _quantise(field.phase, np.empty((min(max(1, _BLOCK_CELLS // field.width), field.height), field.width)), pixels)
        return buf.tobytes()
    if format == "csv":
        return b"".join(format_matrix(lambda start, stop: field.phase[start:stop], field.height, field.width).blocks())
    raise ValueError(f"unsupported hologram format {format!r}; expected one of ('pgm8', 'csv')")


def winding_number(l: int, gamma: float, samples: int = 3600) -> float:
    """Accumulated mask phase around the core divided by 2*pi; equals l for any gamma, or raises if undersampled."""
    gamma = require_gamma(gamma)
    l, samples = _require_index("l", l, *L_RANGE), _require_index("samples", samples)
    angles = np.linspace(0.0, TWO_PI, samples + 1)
    azimuth = np.arctan2(gamma * np.sin(angles), np.cos(angles))
    # unwrap cannot resolve a mask-phase step of pi; the l = 1 azimuth's steps stay below pi from 3 samples on
    if samples < 3 or abs(l) * np.abs(np.diff(np.unwrap(azimuth))).max() >= np.pi:
        # a step of n samples spans at most 2*atan(gamma*tan(pi/n)) (centred on angle 0 or pi): below pi/|l| from
        # n > pi / atan(tan(pi/2|l|) / gamma) on, taken here with a 1e-9 margin
        need = int(np.ceil(1.000000001 * np.pi / np.arctan(np.tan(np.pi / 2 / max(1, abs(l))) / gamma)))
        raise ValueError(f"winding_number cannot resolve l = {l} at gamma = {gamma} with {samples} samples: "
                         f"a sampled mask-phase step reaches pi; {need} samples would suffice")
    unwrapped = np.unwrap(_wrap(l * azimuth, l))  # atan2 lies in [-pi, pi], so |l * azimuth| <= |l| * pi
    return float((unwrapped[-1] - unwrapped[0]) / TWO_PI)
