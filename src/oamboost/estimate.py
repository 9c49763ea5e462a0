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
from .relativity import GAMMA_MAX, frame_from_gamma
from .spectrum import ConditionalSlice, OamWindow, geometric_kernel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GAMMA_BOUNDS = (1.0, 50.0)
GRID_POINTS = 64
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
        return {
            "gamma_meas": self.gamma_meas,
            "method": self.method,
            "residual": self.residual,
            "eta": self.eta,
            "beta": self.beta,
            "window": [self.window.l_min, self.window.l_max],
            "l_a": self.l_a,
        }


def gamma_from_m(m: float) -> float:
    """Invert the even-sum measurement total: gamma = m + sqrt(m^2 - 1)."""
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(
            f"measurement sum must be >= 1, got {m}; values below 1 indicate an over-subtracted spectrum"
        )
    return m + math.sqrt(m * m - 1.0)


def check_gamma_bounds(gamma_bounds) -> tuple[float, float]:
    """Validate least-squares fit bounds (lo, hi): finite, 1 <= lo < hi <= GAMMA_MAX."""
    lo, hi = (float(x) for x in gamma_bounds)
    if not 1.0 <= lo < hi <= GAMMA_MAX:
        raise ValueError(f"gamma bounds must satisfy 1 <= lo < hi <= {GAMMA_MAX:g}, got ({lo}, {hi})")
    return lo, hi


def _peak_normalised(conditional: ConditionalSlice) -> np.ndarray:
    peak_l_b = -conditional.l_a
    window = f"window [{conditional.window_b.l_min}, {conditional.window_b.l_max}]"
    if peak_l_b not in conditional.window_b:
        raise ValueError(f"{window} does not contain the spectrum peak at l_b = {peak_l_b}")
    peak = float(conditional.values[conditional.window_b.index_of(peak_l_b)])
    if not peak > 0.0:
        raise ValueError(f"conditional slice peak at l_b = {peak_l_b} in {window} must be positive, got {peak}")
    # a sum of squares is finite unless a value is not (or it overflows), and costs less than isfinite
    if not math.isfinite(conditional.values @ conditional.values) and not np.isfinite(conditional.values).all():
        first = int(np.argmin(np.isfinite(conditional.values)))
        l_b, value = conditional.window_b.l_min + first, conditional.values[first]
        raise ValueError(f"conditional slice value at l_b = {l_b} in {window} must be finite, got {value}")
    return conditional.values / peak


def _result(gamma: float, method: str, residual: float, conditional: ConditionalSlice) -> FitResult:
    frame = frame_from_gamma(gamma)
    return FitResult(
        gamma_meas=gamma,
        method=method,
        residual=residual,
        eta=frame.rapidity,
        beta=frame.beta,
        l_a=conditional.l_a,
        window=conditional.window_b,
    )


def estimate_gamma_msum(conditional: ConditionalSlice) -> FitResult:
    """Recover gamma from the even-sum of the peak-normalised slice."""
    norm = _peak_normalised(conditional)
    l_b = conditional.window_b.indices()
    m = float(norm[(conditional.l_a + l_b) % 2 == 0].sum())
    if m < 1.0:
        warnings.warn(
            f"even-sum {m:.6g} fell below the physical floor 1; clamping gamma to 1",
            RuntimeWarning,
            stacklevel=2,
        )
        gamma = 1.0
    else:
        gamma = gamma_from_m(m)
    return _result(gamma, METHOD_M_SUM, 0.0, conditional)


def _squared_residuals(gammas, norm, sums, kernel=None):
    """resid @ resid of each gamma's model (or a prebuilt kernel) against its row of norm, or a 1-D norm."""
    resid = norm - (geometric_kernel(sums, gammas[:, None]) if kernel is None else kernel)
    # one batched dot product, the same for any number of rows
    return (resid[:, None, :] @ resid[:, :, None]).ravel()


def estimate_gamma_fits(conditionals, gamma_bounds=DEFAULT_GAMMA_BOUNDS) -> list[FitResult]:
    """Least-squares fits of the geometric conditional model, one per slice, in input order.

    Equal weighting over all cells.  A coarse logarithmic grid over the
    bounds locates each slice's basin, then one golden-section search
    narrows every slice's minimiser below GAMMA_TOL at once.  The grid's
    model is built once per distinct row of sums l_a + l_b.  The slices
    must all have the same length; their l_a may differ.
    """
    lo, hi = check_gamma_bounds(gamma_bounds)
    conditionals = list(conditionals)
    lengths = sorted({len(cond.window_b) for cond in conditionals})
    if len(lengths) != 1:
        raise ValueError(f"need one or more slices of one length to fit together, got lengths {lengths}")
    all_norm = norm = np.array([_peak_normalised(cond) for cond in conditionals])
    all_sums = sums = np.array([cond.l_a + cond.window_b.indices() for cond in conditionals])
    grid = np.geomspace(lo, hi, GRID_POINTS)
    # the grid's model depends only on a slice's sums, an arange named by its first sum
    best, first, kernel = np.empty(len(norm), dtype=np.intp), None, None
    for i in np.argsort(sums[:, 0], kind="stable"):
        if sums[i, 0] != first:
            first, kernel = sums[i, 0], geometric_kernel(sums[i], grid[:, None])
        best[i] = np.argmin(_squared_residuals(grid, norm[i], sums[i], kernel))
    a, b = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, GRID_POINTS - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = _squared_residuals(c, norm, sums), _squared_residuals(d, norm, sums)
    rows, gammas = np.arange(len(norm)), np.empty(len(norm))
    while rows.size:
        closed = b - a <= GAMMA_TOL
        if closed.any():
            gammas[rows[closed]] = 0.5 * (a[closed] + b[closed])
            rows, a, b, c, d, fc, fd, norm, sums = (v[~closed] for v in (rows, a, b, c, d, fc, fd, norm, sums))
            continue
        # where fc < fd the minimum lies in [a, d] and c becomes d, else in [c, b] and d becomes c
        left = fc < fd
        right = ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = _squared_residuals(new, norm, sums)
        c[left], fc[left], d[right], fd[right] = new[left], f_new[left], new[right], f_new[right]
    residuals = _squared_residuals(gammas, all_norm, all_sums)
    return [
        _result(gamma, METHOD_LEAST_SQUARES, residual, cond)
        for gamma, residual, cond in zip(gammas.tolist(), residuals.tolist(), conditionals)
    ]


def estimate_gamma_fit(conditional: ConditionalSlice, gamma_bounds=DEFAULT_GAMMA_BOUNDS) -> FitResult:
    """Least-squares fit of the geometric conditional model to one slice (see estimate_gamma_fits)."""
    return estimate_gamma_fits([conditional], gamma_bounds)[0]


def batch_csv(records) -> str:
    """CSV of (seed, gamma_encoded, FitResult) batch estimation records."""
    rows = [(seed, float(gamma), r.gamma_meas, r.method, r.residual) for seed, gamma, r in records]
    seeds, *columns = zip(*rows) if rows else [()] * 5
    # numpy would make float64 of seeds on both sides of 2**63, so they stay Python ints.
    seeds = np.array(seeds, dtype=object)
    return format_table("seed,gamma_encoded,gamma_meas,method,residual", seeds, *columns)
