"""Joint and conditional OAM spectra for a pair of boosted detectors.

Relative motion of the detectors contracts their transverse coordinates,
which breaks the orthogonality of the OAM projections and broadens the
joint spectrum.  This module provides the closed-form probabilities, two
independent numerical cross-checks (a periodic trapezoid rule for the
overlap integral and a Gaussian-source 2-D integral), the even-sum
measurement total, the contributing-mode count, and the moments of a
conditional spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._table import format_table
from .relativity import TWO_PI, require_gamma

DEFAULT_HALF_WIDTH = 20
DEFAULT_PANELS = 4096
MAX_CELLS = 8192 * 8192  # 512 MB of float64; checked before any allocation


def _require_n_modes(n_modes) -> int:
    n = int(n_modes)
    if n < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes}")
    return n


@dataclass(frozen=True)
class OamWindow:
    """Closed integer range [l_min, l_max] of OAM detection indices."""

    l_min: int
    l_max: int

    def __post_init__(self):
        object.__setattr__(self, "l_min", int(self.l_min))
        object.__setattr__(self, "l_max", int(self.l_max))
        if self.l_min > self.l_max:
            raise ValueError(f"l_min must not exceed l_max, got [{self.l_min}, {self.l_max}]")

    @classmethod
    def symmetric(cls, half_width: int) -> "OamWindow":
        """Window [-half_width, half_width], the detection-range convention."""
        half_width = int(half_width)
        if half_width < 0:
            raise ValueError(f"half_width must be >= 0, got {half_width}")
        return cls(-half_width, half_width)

    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1)

    def index_of(self, l: int) -> int:
        if l not in self:
            raise ValueError(f"l = {l} lies outside the window [{self.l_min}, {self.l_max}]")
        return int(l) - self.l_min

    def __contains__(self, l) -> bool:
        return self.l_min <= int(l) <= self.l_max

    def __len__(self) -> int:
        return self.l_max - self.l_min + 1


@dataclass(frozen=True)
class JointSpectrum:
    """Dense matrix of joint detection probabilities indexed by (l_a, l_b)."""

    window_a: OamWindow
    window_b: OamWindow
    values: np.ndarray
    n_modes: int
    gamma: float

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (len(self.window_a), len(self.window_b)):
            raise ValueError(
                f"values shape {values.shape} does not match windows "
                f"({len(self.window_a)}, {len(self.window_b)})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ConditionalSlice:
    """Bob's spectrum over l_b at a fixed Alice projection l_a.

    Values are the joint probabilities rescaled by the mode count, so the
    noiseless peak at l_b = -l_a is exactly 1.
    """

    l_a: int
    window_b: OamWindow
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (len(self.window_b),):
            raise ValueError(f"values shape {values.shape} does not match window length {len(self.window_b)}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "l_a", int(self.l_a))


def check_cells(window_a: OamWindow, window_b: OamWindow, runs: int = 1) -> None:
    """Raise ValueError if runs spectra over the windows hold more than MAX_CELLS cells in all."""
    if len(window_a) * len(window_b) * runs > MAX_CELLS:
        cells = f"{len(window_a)} x {len(window_b)} x {runs}"
        raise ValueError(f"window cells x runs must be at most {MAX_CELLS}, got {cells}")


def geometric_kernel(s, gamma):
    """The spectrum's one formula: q**|s| with q = (gamma - 1)/(gamma + 1), 0 on odd s.

    s is an integer array of sums l_a + l_b; gamma may be a float or an
    array that broadcasts against s.  Float 0**0 is 1, which keeps the
    gamma = 1 delta spectrum exact.  Callers validate gamma.

    The power runs over a flat exponent array.  numpy switches to its scalar
    pow, which can be an ulp off its vector pow, when the exponent is
    broadcast or has only size-1 axes; flat operands give every shape and
    window the same bits.
    """
    s = np.asarray(s)
    q = (gamma - 1.0) / (gamma + 1.0)
    exponent = np.abs(s)
    if isinstance(q, np.ndarray):
        # contiguous copies at the broadcast shape, cheaper than np.broadcast_arrays and ravel
        shape = np.broadcast(q, exponent).shape
        q_full, exponent_full = np.empty(shape, q.dtype), np.empty(shape, exponent.dtype)
        q_full[...], exponent_full[...] = q, exponent
        q, exponent = q_full.ravel(), exponent_full
    powers = (q ** exponent.ravel()).reshape(exponent.shape)
    return np.where(s % 2 == 0, powers, 0.0)


def joint_probability(l_a: int, l_b: int, gamma: float, n_modes: int = 1) -> float:
    """Closed-form coincidence probability for projections (l_a, l_b).

    Geometric in |l_a + l_b| with ratio (gamma - 1)/(gamma + 1) and zero
    whenever the sum is odd.  The s = 0 term is defined as 1 even at
    gamma = 1, so the rest frame reduces exactly to the anti-correlated
    Kronecker delta.
    """
    gamma = require_gamma(gamma)
    n = _require_n_modes(n_modes)
    return float(geometric_kernel(int(l_a) + int(l_b), gamma) / n)


def conditional_slice(l_a: int, window: OamWindow, gamma: float) -> ConditionalSlice:
    """Noiseless conditional spectrum over a window; peak value 1 at l_b = -l_a."""
    values = geometric_kernel(int(l_a) + window.indices(), require_gamma(gamma))
    return ConditionalSlice(l_a=int(l_a), window_b=window, values=values)


def joint_spectrum(gamma: float, window_a: OamWindow, window_b: OamWindow, n_modes: int = 1) -> JointSpectrum:
    """Closed-form joint spectrum over a pair of detection windows."""
    gamma = require_gamma(gamma)
    n = _require_n_modes(n_modes)
    check_cells(window_a, window_b)
    values = geometric_kernel(window_a.indices()[:, None] + window_b.indices(), gamma) / n
    return JointSpectrum(window_a=window_a, window_b=window_b, values=values, n_modes=n, gamma=gamma)


def joint_probability_quadrature(
    l_a: int, l_b: int, gamma: float, n_modes: int = 1, panels: int = DEFAULT_PANELS
) -> float:
    """Overlap-integral evaluation of the joint probability.

    Composite trapezoid rule on a uniform grid over one period of the
    boosted azimuth.  The integrand is smooth and 2*pi-periodic, so the
    rule converges spectrally; this serves as an independent oracle for
    joint_probability.
    """
    gamma = require_gamma(gamma)
    n = _require_n_modes(n_modes)
    panels = int(panels)
    if panels < 64:
        raise ValueError(f"panels must be >= 64, got {panels}")
    s = int(l_a) + int(l_b)
    phi = np.arange(panels) * (TWO_PI / panels)
    integrand = gamma * np.exp(-1j * s * phi) / ((gamma * gamma - 1.0) * np.cos(phi) ** 2 + 1.0)
    integral = integrand.sum() * (TWO_PI / panels)
    amplitude = integral / (TWO_PI * math.sqrt(n))
    return float(abs(amplitude) ** 2)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per point count."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def joint_probability_spdc_oracle(
    l_a: int, l_b: int, gamma: float, radial_cutoff: float = 6.0, grid: int = 256
) -> float:
    """Gaussian-source 2-D integral seen from the moving detectors.

    The near-field two-photon state is modelled as a unit Gaussian whose
    radial coordinate is sheared by the boost.  Radial integration uses
    Gauss-Legendre nodes on [0, radial_cutoff]; the azimuthal part uses
    the periodic trapezoid rule.  The result is unnormalised: it equals
    joint_probability up to a constant that depends on gamma but not on
    (l_a, l_b).
    """
    gamma = require_gamma(gamma)
    radial_cutoff = float(radial_cutoff)
    if not radial_cutoff > 0.0:
        raise ValueError(f"radial_cutoff must be positive, got {radial_cutoff}")
    grid = int(grid)
    if grid < 256:
        raise ValueError(f"grid must be >= 256, got {grid}")
    s = int(l_a) + int(l_b)
    nodes, weights = _gauss_legendre(grid)
    r = 0.5 * radial_cutoff * (nodes + 1.0)
    wr = 0.5 * radial_cutoff * weights
    phi = np.arange(grid) * (TWO_PI / grid)
    shear = (gamma * gamma - 1.0) * np.cos(phi) ** 2 + 1.0
    radial = np.exp(-np.outer(shear, r * r)) @ (r * wr)
    integral = (radial * np.exp(-1j * s * phi)).sum() * (TWO_PI / grid)
    return float(abs(integral) ** 2)


def measurement_sum(gamma: float) -> float:
    """Sum of the conditional probabilities over all l_b: (gamma + 1/gamma)/2.

    Exceeds 1 for gamma > 1 because the contracted projections are no
    longer orthogonal.
    """
    gamma = require_gamma(gamma)
    return 0.5 * (gamma + 1.0 / gamma)


def mode_count_closed(gamma: float) -> float:
    """Effective number of contributing modes as a function of gamma."""
    gamma = require_gamma(gamma)
    g2 = gamma * gamma
    return (1.0 + g2) ** 3 / (gamma * (1.0 + 6.0 * g2 + g2 * g2))


def mode_count_empirical(conditional: ConditionalSlice) -> float:
    """Inverse participation ratio (sum v)^2 / sum v^2 of a slice.

    Scale invariant, so it can be applied directly to count data.
    """
    v = conditional.values
    sum_sq = float(v @ v)
    if sum_sq <= 0.0:
        raise ValueError("conditional slice has no positive entries")
    total = float(v.sum())
    return total * total / sum_sq


class SliceMoments(NamedTuple):
    mean: float
    std: float
    first_moment_raw: float


def spectrum_moments(conditional: ConditionalSlice) -> SliceMoments:
    """Mean and standard deviation of the normalised slice distribution.

    first_moment_raw is the unnormalised sum(v * l_b): it scales with the
    even-sum measurement total, while the normalised mean stays at -l_a.
    """
    v = conditional.values
    total = float(v.sum())
    if total <= 0.0:
        raise ValueError("conditional slice sums to zero")
    l_b = conditional.window_b.indices().astype(float)
    raw = float(v @ l_b)
    mean = raw / total
    var = float(v @ (l_b - mean) ** 2) / total
    return SliceMoments(mean=mean, std=math.sqrt(max(var, 0.0)), first_moment_raw=raw)


def joint_spectrum_to_csv(spectrum: JointSpectrum) -> str:
    """CSV serialisation with header l_a,l_b,value and 17 significant digits."""
    grid = np.ix_(spectrum.window_a.indices(), spectrum.window_b.indices())
    return format_table("l_a,l_b,value", *np.broadcast_arrays(*grid, spectrum.values))


def joint_spectrum_to_json_dict(spectrum: JointSpectrum) -> dict:
    """JSON-ready payload: gamma, n_modes, windows and row-major values."""
    return {
        "gamma": spectrum.gamma,
        "n_modes": spectrum.n_modes,
        "window": {
            "a": [spectrum.window_a.l_min, spectrum.window_a.l_max],
            "b": [spectrum.window_b.l_min, spectrum.window_b.l_max],
        },
        "values": [[float(v) for v in row] for row in spectrum.values],
    }
