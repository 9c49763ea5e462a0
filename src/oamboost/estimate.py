"""Lorentz-factor recovery from measured conditional OAM spectra.

Two estimators: inverting the even-sum measurement total, and a
least-squares fit of the geometric conditional model.  Both anchor the
normalisation at the model peak l_b = -l_a rather than the empirical
maximum, which can sit off-centre on noisy data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import Table, format_table
from .relativity import GAMMA_MAX, _number, frame_from_gamma, require_gamma
from .spectrum import ConditionalSlice, OamWindow, _check_finite, _sum_index, _SumIndex, geometric_kernel

DEFAULT_GAMMA_BOUNDS = (1.0, 50.0)
GRID_POINTS = 64


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
    at_bound: bool | None = None  # whether the fit stopped at a gamma bound; None for m_sum, which has none

    def to_dict(self) -> dict:
        fields = {key: getattr(self, key) for key in ("gamma_meas", "method", "residual", "eta", "beta")}
        bound = {} if self.at_bound is None else {"at_bound": self.at_bound}
        return {**fields, "window": [self.window.l_min, self.window.l_max], "l_a": self.l_a, **bound}


def gamma_from_m(m: float) -> float:
    """Invert the even-sum measurement total: gamma = m + sqrt(m^2 - 1)."""
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(f"measurement sum must be >= 1, got {m}; values below 1 indicate an over-subtracted spectrum")
    return m + math.sqrt(m * m - 1.0)


def check_gamma_bounds(gamma_bounds) -> tuple[float, float]:
    """Validate least-squares fit bounds (lo, hi): finite, 1 <= lo < hi <= GAMMA_MAX."""
    lo, hi = (_number("gamma bound", x) for x in gamma_bounds)
    if not 1.0 <= lo < hi <= GAMMA_MAX:
        raise ValueError(f"gamma bounds must satisfy 1 <= lo < hi <= {GAMMA_MAX:g}, got ({lo}, {hi})")
    return lo, hi


def _peak_normalised(values: np.ndarray, l_a: int, window: OamWindow) -> np.ndarray:
    """Rows of slice values at one l_a over one window, each divided by its peak at l_b = -l_a.

    The first row with a non-positive peak, a non-finite value or a quotient that overflows raises.
    """
    l_peak = -l_a
    where = f"window [{window.l_min}, {window.l_max}]"
    if l_peak not in window:
        raise ValueError(f"{where} does not contain the spectrum peak at l_b = {l_peak}")
    peaks = values[:, window.index_of(l_peak)]
    with np.errstate(all="ignore"):  # a faulty row's quotient is checked below, not warned about
        norm = values / peaks[:, None]
    bad = ~(peaks > 0.0) | ~np.isfinite(norm).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if not peaks[row] > 0.0:
            raise ValueError(f"conditional slice peak at l_b = {l_peak} in {where} must be positive, got {peaks[row]}")
        _check_finite(values[row], window)
        raise ValueError(f"conditional slice in {where} overflows when divided by its peak {peaks[row]}")
    return norm


def _result(gamma: float, method: str, residual: float, conditional: ConditionalSlice, at_bound=None) -> FitResult:
    frame, cond = frame_from_gamma(gamma), conditional
    return FitResult(gamma, method, residual, frame.rapidity, frame.beta, cond.l_a, cond.window_b, at_bound)


def _msum_gammas(norm: np.ndarray, l_a: int, window: OamWindow) -> np.ndarray:
    """m_sum's gamma for each row of peak-normalised values at one l_a over one window; the first faulty row raises."""
    # each row's even cells, compacted into one contiguous row, summed along it with the bits of one slice's .sum()
    sums = norm.compress((l_a + window.indices()) % 2 == 0, axis=1).sum(axis=1).tolist()
    return np.array([require_gamma(gamma_from_m(m)) for m in sums])


def estimate_gamma_msum(conditional: ConditionalSlice) -> FitResult:
    """Recover gamma from the even-sum of the peak-normalised slice."""
    l_a, window = conditional.l_a, conditional.window_b
    gamma = _msum_gammas(_peak_normalised(conditional.values[None], l_a, window), l_a, window)
    return _result(float(gamma[0]), "m_sum", 0.0, conditional)


def _row_dots(a, b):
    """a @ b along the last axis: one batched dot per row, the same bits for any leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _totals(norm: np.ndarray, sums: np.ndarray) -> tuple[_SumIndex, np.ndarray, np.ndarray]:
    """The cells' _SumIndex, the cell count n_k at each of its even |s| = 2k, and each row's total Y_k over them."""
    index = _sum_index(sums)
    width = len(index.exponents)  # each even |s|, then the zero slot; bincount adds each row's cells in their order
    counts, ids = np.bincount(index.slots, minlength=width)[:-1], np.arange(len(norm))[:, None] * width + index.slots
    totals = np.bincount(ids.ravel(), norm.ravel(), len(norm) * width).reshape(len(norm), width)[:, :-1]
    return index, counts, totals


def _fit(norm: np.ndarray, sums: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares gamma, residual and at_bound of each row of peak-normalised values against one row of sums.

    Equal weighting.  In p = q**2 a row's objective is sum(y**2) - 2 sum_k Y_k p**k + sum_k n_k p**(2k), Y_k being its
    total over the n_k cells at |s| = 2k.  A logarithmic grid over (lo, hi) picks each row's basin.  A row whose grid
    minimum is a bound that f does not fall from returns that bound and at_bound; the others take Newton steps in p
    (in q, gamma = 1 converges linearly) inside their bracket, bisecting where a step leaves it or f'' <= 0.
    """
    index, counts, totals = _totals(norm, sums)
    even, k = _SumIndex(index.exponents, np.arange(len(counts))), index.exponents[:-1] // 2
    grid = np.geomspace(lo, hi, GRID_POINTS)
    powers, p_grid = geometric_kernel(even, grid[:, None]), ((grid - 1.0) / (grid + 1.0)) ** 2  # p**k, p at each point
    best = np.argmin(powers**2 @ counts - 2.0 * (totals[:, None, :] @ powers.T)[:, 0], axis=1)
    at_bound = np.zeros(len(norm), dtype=bool)
    for end, bound, outward in ((0, lo, -1.0), (GRID_POINTS - 1, hi, 1.0)):  # the slope in p, from the slices' bits
        rows, rise = np.flatnonzero(best == end), counts * geometric_kernel(even, bound) - totals[best == end]
        at_bound[rows] = outward * _row_dots(rise, k * ((bound - 1.0) / (bound + 1.0)) ** np.maximum(2 * k - 2, 0)) <= 0
    if lo == 1.0:  # p = 0, where the slope -2 Y_1 can be 0: f(p) - f(0) = sum_m c_m p**m, c_m = n_{m/2}[m even] - 2 Y_m
        rows, c = np.flatnonzero(best == 0), np.zeros((np.count_nonzero(best == 0), 2 * k.max(initial=0) + 2))
        c[:, 2 * k] = counts
        c[:, k] -= 2.0 * totals[rows]  # f does not fall from p = 0 if its first non-zero c_m is positive or all are 0
        at_bound[rows] = c[np.arange(len(rows)), np.argmax(c[:, 1:] != 0.0, axis=1) + 1] >= 0.0
    fit, rows = np.zeros(len(norm)), np.flatnonzero(~at_bound)
    a, b = p_grid[np.maximum(best[rows] - 1, 0)], p_grid[np.minimum(best[rows] + 1, GRID_POINTS - 1)]
    p = np.where(best[rows] % (GRID_POINTS - 1) == 0, 0.5 * (a + b), p_grid[best[rows]])  # a grid end's slope is known
    for _ in range(64):  # a bound on the steps; rows converge in about five
        powers = (np.repeat(p, len(k)) ** np.tile(k, len(p))).reshape(len(p), len(k))  # flat operands, as in the kernel
        rise = _row_dots(k * powers, counts * powers - totals[rows])  # p * f'(p) / 2, then p**2 * f''(p) / 2
        curve = _row_dots(powers, k * ((2 * k - 1) * counts * powers - (k - 1) * totals[rows]))
        a, b = np.where(rise < 0.0, p, a), np.where(rise > 0.0, p, b)
        new = p - np.divide(p * rise, curve, out=np.full(len(p), np.inf), where=curve > 0.0)
        # a step onto a or b stays, but one that cancels to p = 0 (rise = curve = 0 there) goes on from p * 2**-52
        new = np.where((a <= new) & (new <= b), np.where(new == 0.0, p * 2.0**-52, new), 0.5 * (a + b))
        fit[rows], done = new, np.abs(new - p) <= 2.0**-50 * new
        if done.all():
            break
        rows, p, a, b = rows[~done], new[~done], a[~done], b[~done]
    fit = np.where(at_bound, np.where(best == 0, lo, hi), np.clip((1.0 + fit**0.5) / (1.0 - fit**0.5), lo, hi))
    return fit, _row_dots(*2 * [norm - geometric_kernel(index, fit[:, None])]), at_bound


def estimate_gamma_fit(conditional: ConditionalSlice, gamma_bounds=DEFAULT_GAMMA_BOUNDS) -> FitResult:
    """Least-squares fit of the geometric conditional model to one slice (see _fit)."""
    lo, hi = check_gamma_bounds(gamma_bounds)
    l_a, window = conditional.l_a, conditional.window_b
    norm = _peak_normalised(conditional.values[None], l_a, window)
    (gamma,), (residual,), (at_bound,) = _fit(norm, l_a + window.indices(), lo, hi)
    return _result(float(gamma), "least_squares", float(residual), conditional, bool(at_bound))


def batch_csv(seeds, gamma_encoded, gamma_meas, method, residual) -> Table:
    """CSV of batch estimation records, one row per element of the five columns."""
    # numpy would make float64 of seeds on both sides of 2**63, so they stay Python ints.
    columns = np.array(seeds, dtype=object), gamma_encoded, gamma_meas, method, residual
    return format_table("seed,gamma_encoded,gamma_meas,method,residual", *columns)
