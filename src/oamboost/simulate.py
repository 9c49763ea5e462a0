"""Poisson coincidence-count simulation with a uniform accidental background.

Stands in for the bench: every (l_a, l_b) cell draws one Poisson count
whose mean is the peak-normalised conditional probability scaled by the
pair rate, plus a flat accidental level.  Randomness is counter-based
and keyed per cell, so results do not depend on evaluation order.

RNG stream contract (a change to any point changes seeded counts):

- Cell (l_a, l_b) of the run with seed `seed` owns one Philox4x64-10
  stream.  Its key words are (seed, (l_a + 2**31) << 32 | (l_b + 2**31)),
  i.e. the 128-bit key seed + 2**64 * ((l_a + 2**31) * 2**32 + l_b + 2**31).
  Seeds lie in [0, 2**64), and OamWindow keeps indices in spectrum.L_RANGE
  = [-2**31, 2**31), so no two cells share a key.  The key holds no gamma:
  an experiment's gammas share each cell's stream, drawn once for them all.
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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._table import Table, format_table, parse_int_rows
from .relativity import require_gamma
from .spectrum import L_RANGE, ConditionalSlice, OamWindow, _freeze_array, _require_index, check_cells, geometric_kernel

SUBTRACT_MODES = ("accidental", "minimum", "both")

_U64 = (1 << 64) - 1
_I32_OFFSET = -L_RANGE[0]

# Largest Poisson mean numpy's Generator accepts.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# Draws in flight (a few hundred bytes each) bound memory whatever the gammas; a key in flight holds a draw in flight.
_DRAWS_IN_FLIGHT = 16384
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
            value = getattr(self, name)
            if isinstance(value, (bool, str)):  # float() would read True as 1.0 and "1e4" as 10000.0
                raise ValueError(f"{name} must be a number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.pair_rate <= 0.0:
            raise ValueError(f"pair_rate must be positive, got {self.pair_rate}")
        if self.accidental_rate < 0.0:
            raise ValueError(f"accidental_rate must be >= 0, got {self.accidental_rate}")
        if self.integration <= 0.0:
            raise ValueError(f"integration must be positive, got {self.integration}")
        if not (self.pair_rate + self.accidental_rate) * self.integration <= _POISSON_LAM_MAX:  # the largest cell mean
            raise ValueError(f"(pair_rate + accidental_rate) * integration must be at most {_POISSON_LAM_MAX:.4g}, got "
                             f"({self.pair_rate:g} + {self.accidental_rate:g}) * {self.integration:g}")


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
        object.__setattr__(self, "seed", _require_index("seed", self.seed, 0, _U64))


def check_stream_keys(seeds) -> None:
    """Raise ValueError unless every seed, a key word, is an integer (a float raises, not truncates) in [0, 2**64)."""
    for seed in seeds:
        _require_index("seed", seed, 0, _U64)


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


def _board(keys, draws, start, n_keys, key0, key1, lam):
    """keys and draws with keys start.. and their (k, m) means added, each draw at block 1, count 0, product 1."""
    k, m = lam.shape
    lam = lam.ravel()  # draw g * m + j: mean g of fresh key j, counted into output slot (g, start + j)
    # PTRS draws stay ahead of multiplication-method draws, so each regime is a slice; lam = 0 draws nothing
    head, tail = np.flatnonzero(lam >= 10.0), np.flatnonzero((lam > 0.0) & (lam < 10.0))
    fresh = [np.arange(start, start + m), lam, np.zeros(lam.size, np.int64), np.ones(lam.size)]
    key_head, key_tail = head, tail  # k = 1: the keys keep their draws' order, so draw i reads key i
    # k = 1 is kept apart: the keyed path made a one-gamma 201^2 _count_runs about 30% slower (16 -> 21 ms, 3/3 runs)
    if k > 1:  # a key with a draw boards behind the keys in flight, and each draw holds its key's place
        live = (lam > 0.0).reshape(k, m).any(axis=0)
        key_head, key_tail = [], np.flatnonzero(live)
        fresh[0] = (fresh[0] + n_keys * np.arange(k)[:, None]).ravel()
        fresh.append(np.tile(np.cumsum(live) + (keys[0].size - 1), k))
    fresh_keys = key0, key1, np.ones(m, np.uint64)
    keys = [np.concatenate((new[key_head], old, new[key_tail])) for new, old in zip(fresh_keys, keys)]
    return keys, [np.concatenate((new[head], old, new[tail])) for new, old in zip(fresh, draws)]


def _draw_block(keys, draws, counts, redraw):
    """Draw each key's next block for its draws; store finished counts, note near ones in redraw, return the rest."""
    d = _philox_doubles(*keys)
    keys[2] += 1
    slot, lam, count, prod = draws[:4]
    if len(draws) > 4:  # each draw's words from its key's column; take keeps the rows contiguous
        d = np.take(d, draws[4], axis=1)
    split = np.count_nonzero(lam >= 10.0)
    done, near = np.empty((2, slot.size), dtype=bool)
    done[:split], near[:split], count[:split] = _ptrs_block(d[:, :split], lam[:split])
    done[split:], near[split:] = _mult_block(d[:, split:], lam[split:], count[split:], prod[split:])
    # integer indices, computed once, gather faster than a boolean mask per array
    finished, kept = np.flatnonzero(done), np.flatnonzero(~done)
    counts[slot[finished]] = count[finished]
    redraw.append(slot[near])
    draws = [a[kept] for a in draws]
    if len(draws) > 4:  # a key leaves with its last draw (for k = 1, key i is draw i's, so kept serves)
        kept = np.bincount(draws[4], minlength=keys[0].size) > 0
        draws[4] = np.cumsum(kept)[draws[4]] - 1
    return [a[kept] for a in keys], draws


def _draw_poisson(k: int, n_keys: int, key_means) -> np.ndarray:
    """k Poisson counts from each of n_keys Philox4x64-10 streams, as a (k, n_keys) array.

    key_means(start, stop) returns the key0 and key1 arrays of keys start..stop-1 and their (k, stop - start)
    means lam.  Count (g, i) is np.random.Generator(np.random.Philox(key1[i] * 2**64 + key0[i])).poisson(lam[g, i]).

    Keys (key words, next block) and their draws (output slot, mean, the multiplication method's count and
    product, and for k > 1 their key's place) board, one key at least, while under _DRAWS_IN_FLIGHT draws are in
    flight; a key boards with a draw and leaves with its last one, so the bound holds the keys too.  Each pass
    computes every key's next Philox block once, for all its draws.  np.log/np.exp may differ from libm's by a few
    ulp, so a draw whose accept/stop test lies that close to its threshold is redrawn by numpy.
    """
    counts = np.zeros((k, n_keys), dtype=np.int64)
    keys = [np.empty(0, np.uint64) for _ in range(3)]
    draws = [np.empty(0, t) for t in (np.int64, np.float64, np.int64, np.float64, np.intp)[: 4 + (k > 1)]]
    redraw = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < n_keys or draws[0].size:
        # _board and _draw_block free their arrays on return, so a pass holds none of the last one's
        if draws[0].size < _DRAWS_IN_FLIGHT and start < n_keys:
            stop = min(start + max((_DRAWS_IN_FLIGHT - draws[0].size) // k, 1), n_keys)
            keys, draws = _board(keys, draws, start, n_keys, *key_means(start, stop))
            start = stop
        keys, draws = _draw_block(keys, draws, counts.reshape(-1), redraw)
    for g, i in zip(*np.divmod(np.concatenate(redraw), n_keys)):
        key0, key1, lam = (v[..., 0] for v in key_means(i, i + 1))
        counts[g, i] = np.random.Generator(np.random.Philox(key=(int(key1) << 64) | int(key0))).poisson(lam[g])
    return counts


def _count_runs(gammas, windows, model: NoiseModel, seeds) -> np.ndarray:
    """simulate_counts' (gammas, seeds, window_a, window_b) counts, drawn in one pass; the caller checks the gammas."""
    check_stream_keys(seeds)
    window_a, window_b = windows
    check_cells(window_a, window_b, len(seeds), len(gammas))
    scale = model.pair_rate * model.integration
    offset = model.accidental_rate * model.integration
    mu = scale * np.array([geometric_kernel(window_a.indices()[:, None] + window_b.indices(), g) for g in gammas])
    mu = (mu + offset).reshape(len(gammas), -1)
    la = (window_a.indices() + _I32_OFFSET).astype(np.uint64) << _S32
    lb = (window_b.indices() + _I32_OFFSET).astype(np.uint64)
    seed_keys = np.array(seeds, dtype=np.uint64)

    def key_means(start, stop):
        run, cell = np.divmod(np.arange(start, stop), mu.shape[1])
        row, col = np.divmod(cell, len(window_b))
        return seed_keys[run], la[row] | lb[col], mu.take(cell, axis=1)

    counts = _draw_poisson(len(gammas), len(seeds) * mu.shape[1], key_means)
    return counts.reshape(len(gammas), len(seeds), len(window_a), len(window_b))


def simulate_counts(gamma: float, windows, model: NoiseModel, seed: int) -> CountSpectrum:
    """Draw one Poisson count per cell of the detection windows.

    Cell mean is pair_rate*integration*P(l_b | l_a) + accidental_rate*integration
    with the conditional spectrum peak-normalised to 1.  Identical
    (gamma, windows, model, seed) reproduce identical counts.
    """
    gamma = require_gamma(gamma)
    return CountSpectrum(*windows, _count_runs([gamma], windows, model, [seed])[0, 0], seed, model, gamma)


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


def count_spectrum_to_csv(counts: CountSpectrum) -> Table:
    """CSV serialisation with header l_a,l_b,count."""
    grid = np.ix_(counts.window_a.indices(), counts.window_b.indices())
    return format_table("l_a,l_b,count", *np.broadcast_arrays(*grid, counts.counts))


def count_spectrum_sidecar(counts: CountSpectrum) -> dict:
    """JSON sidecar describing how the counts were produced."""
    return {
        "gamma_encoded": counts.gamma_encoded,
        "seed": counts.seed,
        "model": asdict(counts.model),
        "windows": {side: [w.l_min, w.l_max] for side, w in zip("ab", (counts.window_a, counts.window_b))},
    }


def sidecar_path(csv_path) -> Path:
    path = Path(csv_path)
    return path.with_name(path.stem + ".meta.json")


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
        # the owning types check each value here, inside the try, so that their errors name the sidecar
        window_a, window_b = (OamWindow(*meta["windows"][side]) for side in "ab")
        check_cells(window_a, window_b)
        model, seed = NoiseModel(**meta["model"]), _require_index("seed", meta["seed"], 0, _U64)
        gamma = require_gamma(meta["gamma_encoded"])
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
