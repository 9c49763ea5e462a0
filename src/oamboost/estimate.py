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
    if peak_l_b not in conditional.window_b:
        raise ValueError(
            f"window [{conditional.window_b.l_min}, {conditional.window_b.l_max}] "
            f"does not contain the spectrum peak at l_b = {peak_l_b}"
        )
    peak = float(conditional.values[conditional.window_b.index_of(peak_l_b)])
    if not peak > 0.0:
        raise ValueError(f"conditional slice peak must be positive, got {peak}")
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


def _golden_section(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimisation of a unimodal f on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def estimate_gamma_fit(conditional: ConditionalSlice, gamma_bounds=DEFAULT_GAMMA_BOUNDS) -> FitResult:
    """Least-squares fit of the geometric conditional model to the slice.

    Equal weighting over all cells; a coarse logarithmic grid over the
    bounds locates the basin, then golden-section refinement narrows the
    minimiser below GAMMA_TOL.
    """
    lo, hi = check_gamma_bounds(gamma_bounds)
    norm = _peak_normalised(conditional)
    sums = conditional.l_a + conditional.window_b.indices()

    def objective(gamma: float) -> float:
        resid = norm - geometric_kernel(sums, gamma)
        return float(resid @ resid)

    grid = np.geomspace(lo, hi, GRID_POINTS)
    resids = norm - geometric_kernel(sums, grid[:, None])
    # each row's resid @ resid, the same dot product as objective's, in one call
    coarse = (resids[:, None, :] @ resids[:, :, None]).ravel()
    best = int(np.argmin(coarse))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, GRID_POINTS - 1)])
    gamma = _golden_section(objective, a, b, GAMMA_TOL)
    return _result(gamma, METHOD_LEAST_SQUARES, objective(gamma), conditional)


def batch_csv(records) -> str:
    """CSV of (seed, gamma_encoded, FitResult) batch estimation records."""
    rows = [(seed, float(gamma), r.gamma_meas, r.method, r.residual) for seed, gamma, r in records]
    seeds, *columns = zip(*rows) if rows else [()] * 5
    # numpy would make float64 of seeds on both sides of 2**63, so they stay Python ints.
    seeds = np.array(seeds, dtype=object)
    return format_table("seed,gamma_encoded,gamma_meas,method,residual", seeds, *columns)
