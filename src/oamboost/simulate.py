"""Poisson coincidence-count simulation with a uniform accidental background.

Stands in for the bench: every (l_a, l_b) cell draws one Poisson count
whose mean is the peak-normalised conditional probability scaled by the
pair rate, plus a flat accidental level.  Randomness is counter-based
and keyed per cell, so results do not depend on evaluation order.

RNG stream contract (a change to any point changes seeded counts):

- Cell (l_a, l_b) of the run with seed `seed` owns one Philox4x64-10
  stream.  Its key words are (seed, (l_a + 2**31) << 32 | (l_b + 2**31)),
  i.e. the 128-bit key seed + 2**64 * ((l_a + 2**31) * 2**32 + l_b + 2**31).
  Seeds lie in [0, 2**64) and indices in [-2**31, 2**31), so no two
  cells share a key.
- The counter starts at 1 and runs (1, 0, 0, 0), (2, 0, 0, 0), ...;
  each block yields four 64-bit words, used in order.  A word u becomes
  the uniform (u >> 11) * 2**-53.
- The count is numpy's Poisson algorithm on that stream: lam = 0 gives
  0 and draws nothing; 0 < lam < 10 uses the multiplication method;
  lam >= 10 uses PTRS (Hoermann 1993) with numpy's random_loggam.

The counts therefore equal np.random.Generator(np.random.Philox(key))
.poisson(lam) cell by cell; the tests keep that per-cell loop as the
reference for the vectorised kernel below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._table import format_table, parse_int_rows
from .relativity import require_gamma
from .spectrum import ConditionalSlice, OamWindow, _freeze_array, _require_index, check_cells, geometric_kernel

SUBTRACT_MODES = ("accidental", "minimum", "both")

_U64 = (1 << 64) - 1
_I32_OFFSET = 1 << 31

# Largest Poisson mean numpy's Generator accepts.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# Cells in flight in the kernel; bounds its working arrays (a few hundred
# bytes a cell) whatever the windows and number of seeds.
_CELLS_IN_FLIGHT = 4096
# Relative margin inside which a vectorised log/exp comparison is redrawn
# with numpy's scalar generator; SIMD log/exp differ from libm by a few ulp.
_LOG_TOL = 1e-12

_LO32 = np.uint64(0xFFFFFFFF)
_S11 = np.uint64(11)
_S32 = np.uint64(32)
_TWO_M53 = 1.0 / 9007199254740992.0
# Philox4x64 multipliers (whole, low and high 32 bits) and Weyl key increments.
_PHILOX_M0 = tuple(np.uint64(v) for v in (0xD2E7470EE14C6C93, 0xE14C6C93, 0xD2E7470E))
_PHILOX_M1 = tuple(np.uint64(v) for v in (0xCA5A826395121157, 0x95121157, 0xCA5A8263))
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
# Stirling-series coefficients and 0.5*log(2*pi) of numpy's random_loggam.
_HALF_LOG_2PI = 0.5 * 1.8378770664093453
_LOGGAM_A = (
    8.333333333333333e-02,
    -2.777777777777778e-03,
    7.936507936507937e-04,
    -5.952380952380952e-04,
    8.417508417508418e-04,
    -1.917526917526918e-03,
    6.410256410256410e-03,
    -2.955065359477124e-02,
    1.796443723688307e-01,
    -1.39243221690590e00,
)


@dataclass(frozen=True)
class NoiseModel:
    """Count-rate model: expected peak coincidences, flat accidentals, exposure.

    pair_rate is the expected number of true coincidences at the spectrum
    peak per unit integration; accidental_rate is the expected accidental
    count per cell per unit integration.
    """

    pair_rate: float = 1.0e4
    accidental_rate: float = 5.0
    integration: float = 1.0

    def __post_init__(self):
        for name in ("pair_rate", "accidental_rate", "integration"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.pair_rate <= 0.0:
            raise ValueError(f"pair_rate must be positive, got {self.pair_rate}")
        if self.accidental_rate < 0.0:
            raise ValueError(f"accidental_rate must be >= 0, got {self.accidental_rate}")
        if self.integration <= 0.0:
            raise ValueError(f"integration must be positive, got {self.integration}")


@dataclass(frozen=True)
class CountSpectrum:
    """Simulated coincidence counts over a pair of detection windows."""

    window_a: OamWindow
    window_b: OamWindow
    counts: np.ndarray
    seed: int
    model: NoiseModel
    gamma_encoded: float

    def __post_init__(self):
        if _freeze_array(self, "counts", np.int64, self.window_a, self.window_b).min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "seed", _require_index("seed", self.seed))


def check_stream_keys(windows, seeds) -> None:
    """Raise ValueError unless every cell of windows x seeds has its own Philox key.

    Seeds must be integers (a float raises, not truncates) in [0, 2**64) and
    window indices in [-2**31, 2**31); outside those ranges two cells would
    share a key or the key would overflow its 128 bits.
    """
    for seed in seeds:
        seed = _require_index("seed", seed)
        if not 0 <= seed <= _U64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    for name, window in zip(("l_a", "l_b"), windows):
        if window.l_min < -_I32_OFFSET or window.l_max >= _I32_OFFSET:
            raise ValueError(
                f"{name} window [{window.l_min}, {window.l_max}] must lie in [-2**31, 2**31)"
            )


def _mulhilo(m, m_lo, m_hi, x):
    """High and low 64-bit words of the 128-bit product m * x, m = m_hi * 2**32 + m_lo."""
    x_lo = x & _LO32
    x_hi = x >> _S32
    t = m_hi * x_lo
    t += (m_lo * x_lo) >> _S32
    w = m_lo * x_hi
    w += t & _LO32
    t >>= _S32
    w >>= _S32
    hi = m_hi * x_hi
    hi += t
    hi += w
    return hi, m * x


def _philox_doubles(key0, key1, block) -> np.ndarray:
    """numpy's next_double for the four words of each cell's Philox4x64-10 block, word-major.

    Cell i uses key (key0[i], key1[i]) and counter (block[i], 0, 0, 0); row j
    of the (4, n) result holds word j of every cell.
    """
    # round 1 directly: c1 = c2 = c3 = 0, so the M1 product is (0, 0)
    hi0, lo0 = _mulhilo(*_PHILOX_M0, block)
    c0, c1, c2, c3 = key0, np.zeros_like(lo0), hi0 ^ key1, lo0
    k0, k1 = key0, key1
    for _ in range(9):
        k0 = k0 + _PHILOX_W0
        k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(*_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(*_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    doubles = np.empty((4, c0.size))
    for row, word in zip(doubles, (c0, c1, c2, c3)):
        word >>= _S11
        np.multiply(word, _TWO_M53, out=row)
    return doubles


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam for integer-valued x >= 1."""
    x0 = np.maximum(x, 7.0)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full_like(x0, _LOGGAM_A[9])
    for coeff in _LOGGAM_A[8::-1]:
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + _HALF_LOG_2PI + (x0 - 0.5) * np.log(x0) - x0
    for m in range(6, 2, -1):
        gl[x <= m] -= math.log(m)
    gl[x <= 2.0] = 0.0
    return gl


def _mult_block(u, lam, count, prod):
    """One block (four uniforms, the rows of u) of numpy's multiplication method, for 0 < lam < 10.

    Advances the cells' running count and product in place and returns
    (done, near): near marks a finished cell whose stopping test fell
    within _LOG_TOL of exp(-lam).
    """
    enlam = np.exp(-lam)
    # running products in draw order, so each rounds exactly as numpy's loop does
    u[0] *= prod
    for j in range(1, 4):
        u[j] *= u[j - 1]
    prod[:] = u[3]
    # A word is decided once its product is at most exp(-lam) or within _LOG_TOL
    # of it.  The products never grow, so every word after a decided one is
    # decided too, and near can only hold at a cell's first decided word.
    tol = _LOG_TOL * enlam
    gap = np.subtract(u, enlam, out=u)
    undecided = gap > tol
    count += undecided.sum(axis=0)
    near = np.abs(gap, out=gap) <= tol
    return ~undecided[3], near.any(axis=0)


def _ptrs_block(d, lam):
    """Two (U, V) trials from one block (the rows of d) of numpy's PTRS (Hoermann 1993), for lam >= 10.

    Returns (done, near, k): k is a finished cell's first accepted count
    (0 otherwise), and near marks a finished cell whose log-acceptance
    test fell within _LOG_TOL of its scale.
    """
    loglam = np.log(lam)
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    loginvalpha = np.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    U = d[0::2] - 0.5
    V = d[1::2]
    us = 0.5 - np.abs(U)
    with np.errstate(divide="ignore", invalid="ignore"):
        # us == 0 gives k = -inf: rejected, as numpy rejects its negative int cast
        k = np.floor((2 * a / us + b) * U + lam + 0.43)
    accept = (us >= 0.07) & (V <= vr)
    test = ~accept & (k >= 0) & ((us >= 0.013) | (V <= us))
    near = np.zeros_like(accept)
    if test.any():
        trial, cell = np.nonzero(test)
        kt, ust, lam_t, loglam_t = k[trial, cell], us[trial, cell], lam[cell], loglam[cell]
        with np.errstate(divide="ignore"):
            lhs = np.log(V[trial, cell]) + loginvalpha[cell] - np.log(a[cell] / (ust * ust) + b[cell])
        rhs = -lam_t + kt * loglam_t - _loggam(kt + 1)
        scale = lam_t + kt * np.abs(loglam_t) + (kt + 8) * np.log(kt + 8) + 100.0
        accept[trial, cell] = lhs <= rhs
        near[trial, cell] = np.abs(lhs - rhs) <= _LOG_TOL * scale
    decided = accept | near
    first = decided[0]
    k = np.where(first, k[0], np.where(decided[1], k[1], 0.0))
    return first | decided[1], np.where(first, near[0], near[1]), k


def _board(flight, cell, key0, key1, lam):
    """flight with the fresh cells added, at block 1 with count 0 and product 1."""
    fresh = (cell, key0, key1, lam, np.ones_like(cell, np.uint64), np.zeros_like(cell), np.ones_like(lam))
    # PTRS cells stay ahead of multiplication-method cells, so each
    # regime is a slice; lam = 0 draws nothing and stays 0
    head, tail = np.flatnonzero(lam >= 10.0), np.flatnonzero((lam > 0.0) & (lam < 10.0))
    return [np.concatenate((new[head], old, new[tail])) for new, old in zip(fresh, flight)]


def _draw_block(flight, counts, redraw):
    """Draw each cell's next block; store finished counts, note near ones in redraw, return the rest."""
    cell, key0, key1, lam, block, count, prod = flight
    d = _philox_doubles(key0, key1, block)
    block += 1
    split = np.count_nonzero(lam >= 10.0)
    done, near = np.empty((2, cell.size), dtype=bool)
    done[:split], near[:split], count[:split] = _ptrs_block(d[:, :split], lam[:split])
    done[split:], near[split:] = _mult_block(d[:, split:], lam[split:], count[split:], prod[split:])
    # integer indices, computed once, gather faster than a boolean mask per array
    finished, kept = np.flatnonzero(done), np.flatnonzero(~done)
    counts[cell[finished]] = count[finished]
    redraw.append(cell[near])
    return [a[kept] for a in flight]


def _draw_poisson(n_cells: int, cells) -> np.ndarray:
    """One Poisson count for each of n_cells cells, each from its own Philox4x64-10 stream.

    cells(start, stop) returns the key0, key1 and lam arrays of cells
    start..stop-1.  Cell i's count equals
    np.random.Generator(np.random.Philox(key1[i] * 2**64 + key0[i])).poisson(lam[i]).

    At most _CELLS_IN_FLIGHT cells are in flight.  Each pass draws the next
    Philox block of every cell in flight, at that cell's own stream
    position; finished cells leave and fresh ones take their places.
    np.log/np.exp may differ from the C library's by a few ulp, so a cell
    whose accept/stop test lies that close to its threshold is redrawn
    with numpy's own generator.
    """
    counts = np.zeros(n_cells, dtype=np.int64)
    # The cells in flight, one array per field: place in the output, Philox key
    # words, mean, next block, and the multiplication method's count and product.
    flight = [np.empty(0, t) for t in (np.int64, np.uint64, np.uint64, np.float64, np.uint64, np.int64, np.float64)]
    redraw = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < n_cells or flight[0].size:
        # _board and _draw_block free their arrays on return, so a pass holds none of the last one's
        if flight[0].size < _CELLS_IN_FLIGHT and start < n_cells:
            stop = min(start + _CELLS_IN_FLIGHT - flight[0].size, n_cells)
            flight = _board(flight, np.arange(start, stop), *cells(start, stop))
            start = stop
        flight = _draw_block(flight, counts, redraw)
    for c in np.concatenate(redraw):
        key0, key1, lam = (v[0] for v in cells(c, c + 1))
        counts[c] = np.random.Generator(np.random.Philox(key=(int(key1) << 64) | int(key0))).poisson(lam)
    return counts


def _count_runs(gamma: float, windows, model: NoiseModel, seeds) -> np.ndarray:
    """simulate_counts' (seeds, window_a, window_b) counts of each seed, drawn in one pass; the caller checks gamma."""
    check_stream_keys(windows, seeds)
    window_a, window_b = windows
    check_cells(window_a, window_b, len(seeds))
    scale = model.pair_rate * model.integration
    offset = model.accidental_rate * model.integration
    mu = scale * geometric_kernel(window_a.indices()[:, None] + window_b.indices(), gamma) + offset
    if not mu.max() <= _POISSON_LAM_MAX:
        raise ValueError("lam value too large")
    mu = mu.ravel()
    la = (window_a.indices() + _I32_OFFSET).astype(np.uint64) << _S32
    lb = (window_b.indices() + _I32_OFFSET).astype(np.uint64)
    seed_keys = np.array(seeds, dtype=np.uint64)

    def cells(start, stop):
        run, cell = np.divmod(np.arange(start, stop), mu.size)
        row, col = np.divmod(cell, len(window_b))
        return seed_keys[run], la[row] | lb[col], mu[cell]

    counts = _draw_poisson(len(seeds) * mu.size, cells)
    return counts.reshape(len(seeds), len(window_a), len(window_b))


def simulate_counts(gamma: float, windows, model: NoiseModel, seed: int) -> CountSpectrum:
    """Draw one Poisson count per cell of the detection windows.

    Cell mean is pair_rate*integration*P(l_b | l_a) + accidental_rate*integration
    with the conditional spectrum peak-normalised to 1.  Identical
    (gamma, windows, model, seed) reproduce identical counts.
    """
    gamma = require_gamma(gamma)
    return CountSpectrum(*windows, _count_runs(gamma, windows, model, [seed])[0], seed, model, gamma)


def _subtract(values: np.ndarray, model: NoiseModel, mode: str | None) -> np.ndarray:
    """Rows of counts cleaned as mode says, clamping at zero after each step (None leaves them as they are).

    accidental removes the expected flat background from every cell; minimum removes the smallest value
    of each row; both applies accidental then minimum.
    """
    if mode is not None and mode not in SUBTRACT_MODES:
        raise ValueError(f"unknown subtraction mode {mode!r}; expected one of {SUBTRACT_MODES}")
    if mode in ("accidental", "both"):
        values = np.maximum(values - model.accidental_rate * model.integration, 0.0)
    if mode in ("minimum", "both"):
        values = np.maximum(values - values.min(axis=1, keepdims=True), 0.0)
    return values


def counts_conditional(counts: CountSpectrum, l_a: int, mode: str | None = None) -> ConditionalSlice:
    """Conditional slice of a count spectrum, optionally background-subtracted."""
    row = counts.window_a.index_of(l_a)
    values = _subtract(counts.counts[row : row + 1].astype(float), counts.model, mode)
    return ConditionalSlice(l_a=l_a, window_b=counts.window_b, values=values[0])


def count_spectrum_to_csv(counts: CountSpectrum) -> str:
    """CSV serialisation with header l_a,l_b,count."""
    grid = np.ix_(counts.window_a.indices(), counts.window_b.indices())
    return format_table("l_a,l_b,count", *np.broadcast_arrays(*grid, counts.counts))


def count_spectrum_sidecar(counts: CountSpectrum) -> dict:
    """JSON sidecar describing how the counts were produced."""
    return {
        "gamma_encoded": counts.gamma_encoded,
        "seed": counts.seed,
        "model": {
            "pair_rate": counts.model.pair_rate,
            "accidental_rate": counts.model.accidental_rate,
            "integration": counts.model.integration,
        },
        "windows": {
            "a": [counts.window_a.l_min, counts.window_a.l_max],
            "b": [counts.window_b.l_min, counts.window_b.l_max],
        },
    }


def sidecar_path(csv_path) -> Path:
    path = Path(csv_path)
    return path.with_name(path.stem + ".meta.json")


def _json_int(value) -> int:
    # int() would truncate 7.9 to 7 and read true as 1
    if type(value) is not int:
        raise ValueError(f"seed and window bounds must be JSON integers, got {value!r}")
    return value


def read_count_spectrum(csv_path) -> CountSpectrum:
    """Rebuild a CountSpectrum from a counts CSV and its JSON sidecar.

    The CSV must hold exactly one row per cell of the sidecar's windows;
    a malformed, out-of-window, duplicate, negative or missing row raises
    ValueError naming the first such row.
    """
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        window_a, window_b = (OamWindow(*map(_json_int, meta["windows"][side])) for side in "ab")
        model, seed, gamma = NoiseModel(**meta["model"]), _json_int(meta["seed"]), float(meta["gamma_encoded"])
    except OSError as exc:
        raise ValueError(f"{meta_path}: cannot read sidecar: {exc.strerror}") from None
    except KeyError as exc:
        raise ValueError(f"{meta_path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    # CRLF and CR end lines like LF, and whitespace around the whole file is dropped.  One
    # expression, so that the file's raw bytes are freed before the rows are parsed.
    header, _, body = csv_path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n").strip().partition(b"\n")
    if header != b"l_a,l_b,count":
        raise ValueError(f"{csv_path}: expected header 'l_a,l_b,count', got {header.decode(errors='replace')!r}")
    rows, malformed = parse_int_rows(body, 3)
    la, lb, count = rows.T
    size = len(window_a) * len(window_b)
    # Each row's cell, row-major; rows outside the windows share the extra cell `size`.
    cell, j = la - window_a.l_min, lb - window_b.l_min
    inside = (cell >= 0) & (cell < len(window_a)) & (j >= 0) & (j < len(window_b))
    cell *= len(window_b)
    cell += j
    cell[~inside] = size
    hits = np.bincount(cell, minlength=size + 1)[:size]
    repeat = np.zeros(len(rows), dtype=bool)
    if hits.max(initial=0) > 1:
        repeat[:] = True
        repeat[np.unique(cell, return_index=True)[1]] = False
    faults = np.flatnonzero(~inside | repeat | (count < 0))
    if faults.size:
        r = faults[0]
        where = f"{csv_path}:{r + 2}: "
        if not inside[r]:
            windows = f"{meta['windows']['a']} x {meta['windows']['b']}"
            raise ValueError(f"{where}cell ({la[r]}, {lb[r]}) lies outside the windows {windows}")
        if repeat[r]:
            raise ValueError(f"{where}second row for cell ({la[r]}, {lb[r]})")
        raise ValueError(f"{where}count must be non-negative, got {count[r]}")
    if malformed is not None:
        raise ValueError(f"{csv_path}:{len(rows) + 2}: expected 'l_a,l_b,count' integers, got {malformed!r}")
    if len(rows) < size:
        k = int(np.argmin(hits))
        raise ValueError(
            f"{csv_path}: no row for cell ({window_a.l_min + k // len(window_b)}, "
            f"{window_b.l_min + k % len(window_b)}); expected {size} rows, got {len(rows)}"
        )
    counts = np.empty(size, dtype=np.int64)
    counts[cell] = count
    return CountSpectrum(window_a, window_b, counts.reshape(len(window_a), len(window_b)), seed, model, gamma)
