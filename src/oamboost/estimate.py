"""Lorentz-factor recovery from measured conditional OAM spectra.

Two estimators: inverting the even-sum measurement total, and a
least-squares fit of the geometric conditional model.  Both anchor the
normalisation at the model peak l_b = -l_a rather than the empirical
maximum, which can sit off-centre on noisy data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._table import format_table
from .relativity import GAMMA_MAX, frame_from_gamma, require_gamma
from .spectrum import ConditionalSlice, OamWindow, _check_finite, _sum_index, geometric_kernel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GAMMA_BOUNDS = (1.0, 50.0)
GRID_POINTS = 64
_GRID_ROWS = 8  # coarse-grid rows per batched dot, which bounds its (rows, GRID_POINTS, cells) residuals
GAMMA_TOL = 1e-6

METHOD_M_SUM = "m_sum"
METHOD_LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class FitResult:
    """Recovered Lorentz factor with its rapidity and speed ratio."""

    gamma_meas: float
    method: str
    residual: float
    eta: float
    beta: float
    l_a: int
    window: OamWindow

    def to_dict(self) -> dict:
        fields = {key: getattr(self, key) for key in ("gamma_meas", "method", "residual", "eta", "beta")}
        return {**fields, "window": [self.window.l_min, self.window.l_max], "l_a": self.l_a}


def gamma_from_m(m: float) -> float:
    """Invert the even-sum measurement total: gamma = m + sqrt(m^2 - 1)."""
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(f"measurement sum must be >= 1, got {m}; values below 1 indicate an over-subtracted spectrum")
    return m + math.sqrt(m * m - 1.0)


def check_gamma_bounds(gamma_bounds) -> tuple[float, float]:
    """Validate least-squares fit bounds (lo, hi): finite, 1 <= lo < hi <= GAMMA_MAX."""
    lo, hi = (float(x) for x in gamma_bounds)
    if not 1.0 <= lo < hi <= GAMMA_MAX:
        raise ValueError(f"gamma bounds must satisfy 1 <= lo < hi <= {GAMMA_MAX:g}, got ({lo}, {hi})")
    return lo, hi


def _peak_normalised(values: np.ndarray, l_a: int, window: OamWindow) -> np.ndarray:
    """Rows of slice values at one l_a over one window, each divided by its peak at l_b = -l_a.

    The first row with a non-positive peak, or else a non-finite value, raises.
    """
    l_peak = -l_a
    where = f"window [{window.l_min}, {window.l_max}]"
    if l_peak not in window:
        raise ValueError(f"{where} does not contain the spectrum peak at l_b = {l_peak}")
    peaks = values[:, window.index_of(l_peak)]
    bad = ~(peaks > 0.0) | ~np.isfinite(values).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if not peaks[row] > 0.0:
            raise ValueError(f"conditional slice peak at l_b = {l_peak} in {where} must be positive, got {peaks[row]}")
        _check_finite(values[row], window)
    return values / peaks[:, None]


def _result(gamma: float, method: str, residual: float, conditional: ConditionalSlice) -> FitResult:
    frame = frame_from_gamma(gamma)
    return FitResult(gamma, method, residual, frame.rapidity, frame.beta, conditional.l_a, conditional.window_b)


def _msum_gammas(norm: np.ndarray, l_a: int, window: OamWindow) -> np.ndarray:
    """m_sum's gamma for each row of peak-normalised values at one l_a over one window."""
    # each row's even cells, compacted into one contiguous row, summed along it with the bits of one slice's .sum()
    sums = norm.compress((l_a + window.indices()) % 2 == 0, axis=1).sum(axis=1).tolist()
    for m in (m for m in sums if m < 1.0):
        message = f"even-sum {m:.6g} fell below the physical floor 1; clamping gamma to 1"
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    return np.array([1.0 if m < 1.0 else require_gamma(gamma_from_m(m)) for m in sums])


def estimate_gamma_msum(conditional: ConditionalSlice) -> FitResult:
    """Recover gamma from the even-sum of the peak-normalised slice."""
    l_a, window = conditional.l_a, conditional.window_b
    gamma = _msum_gammas(_peak_normalised(conditional.values[None], l_a, window), l_a, window)
    return _result(float(gamma[0]), METHOD_M_SUM, 0.0, conditional)


def _squared_residuals(norm, model):
    """resid @ resid along the last axis of norm - model: one batched dot, the same bits for any leading axes."""
    resid = norm - model
    return (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]


def _fit(norm: np.ndarray, sums: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares gamma and residual of each row of peak-normalised values against one row of sums.

    Equal weighting over all cells.  A coarse logarithmic grid over (lo, hi), one model matrix for every row
    and one batched dot for each block of _GRID_ROWS rows, locates each row's basin; then one golden-section
    search, on one exponent index, narrows every row's minimiser below GAMMA_TOL at once.
    """
    grid = np.geomspace(lo, hi, GRID_POINTS)
    kernel = geometric_kernel(sums, grid[:, None])
    blocks = np.array_split(norm, range(_GRID_ROWS, len(norm), _GRID_ROWS))
    best = np.concatenate([np.argmin(_squared_residuals(block[:, None], kernel), axis=1) for block in blocks])
    a, b = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, GRID_POINTS - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    index = _sum_index(sums)
    fc, fd = (_squared_residuals(norm, geometric_kernel(index, g[:, None])) for g in (c, d))
    all_norm, rows, gammas = norm, np.arange(len(norm)), np.empty(len(norm))
    while rows.size:
        closed = b - a <= GAMMA_TOL
        if closed.any():
            gammas[rows[closed]] = 0.5 * (a[closed] + b[closed])
            rows, a, b, c, d, fc, fd, norm = (v[~closed] for v in (rows, a, b, c, d, fc, fd, norm))
            continue
        # where fc < fd the minimum lies in [a, d] and c becomes d, else in [c, b] and d becomes c
        left = fc < fd
        right = ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = _squared_residuals(norm, geometric_kernel(index, new[:, None]))
        c[left], fc[left], d[right], fd[right] = new[left], f_new[left], new[right], f_new[right]
    return gammas, _squared_residuals(all_norm, geometric_kernel(index, gammas[:, None]))


def _msum_runs(values: np.ndarray, l_a: int, window: OamWindow) -> tuple[np.ndarray, np.ndarray]:
    """Peak-normalised rows of slice values at one l_a over one window, and m_sum's gamma of each row.

    Each row is normalised once for both estimators: the rows go on to _fit, which, being per row, may take
    them stacked with other such arrays.  Bit for bit estimate_gamma_msum on each row as a slice.
    """
    norm = _peak_normalised(values, l_a, window)
    return norm, _msum_gammas(norm, l_a, window)


def estimate_gamma_fit(conditional: ConditionalSlice, gamma_bounds=DEFAULT_GAMMA_BOUNDS) -> FitResult:
    """Least-squares fit of the geometric conditional model to one slice (see _fit)."""
    lo, hi = check_gamma_bounds(gamma_bounds)
    l_a, window = conditional.l_a, conditional.window_b
    norm = _peak_normalised(conditional.values[None], l_a, window)
    (gamma,), (residual,) = _fit(norm, l_a + window.indices(), lo, hi)
    return _result(float(gamma), METHOD_LEAST_SQUARES, float(residual), conditional)


def batch_csv(seeds, gamma_encoded, gamma_meas, method, residual) -> str:
    """CSV of batch estimation records, one row per element of the five columns."""
    # numpy would make float64 of seeds on both sides of 2**63, so they stay Python ints.
    columns = np.array(seeds, dtype=object), gamma_encoded, gamma_meas, method, residual
    return format_table("seed,gamma_encoded,gamma_meas,method,residual", *columns)
