"""Joint and conditional OAM spectra for a pair of boosted detectors.

Relative motion of the detectors contracts their transverse coordinates,
which breaks the orthogonality of the OAM projections and broadens the
joint spectrum.  This module provides the closed-form probabilities, the
even-sum measurement total, the contributing-mode count, the moments of a
conditional spectrum, and two oracles for the overlap integral: a periodic
trapezoid rule in azimuth and its Gaussian-source polar form (exact radial
factor), which both need more than 2*|l_a + l_b| azimuth nodes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._table import format_table
from .relativity import TWO_PI, require_gamma

DEFAULT_HALF_WIDTH = 20
DEFAULT_PANELS = 4096
MAX_CELLS = 8192 * 8192  # 512 MB of float64; checked before any allocation
MAX_NODES = 1 << 20  # azimuth nodes of an oracle; its cached table costs 32 B a node


def _require_index(name: str, value, low: int | None = None, high: float = math.inf) -> int:
    """value as an int, in [low, high] when low is given; a float or other non-integer raises rather than truncates."""
    try:
        index = operator.index(value)
        if low is None or low <= index <= high:
            return index
    except TypeError:
        pass
    span = "" if low is None else f" in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def _fits_int64(*values: int) -> bool:
    """Whether every |value| is below 2**63; -2**63 fails, as numpy's abs overflows on it."""
    return max(map(abs, values)) < 1 << 63


def _window_cells(*windows) -> tuple[int, ...]:
    """Each window's number of cells as a Python int, as len() overflows on a window of 2**63 cells or more."""
    return tuple(window.l_max - window.l_min + 1 for window in windows)


def _freeze_array(owner, name: str, dtype, *windows) -> np.ndarray:
    """Store owner.<name> as a read-only array of dtype and of the windows' shape, and return it."""
    array, shape = np.ascontiguousarray(getattr(owner, name), dtype=dtype), _window_cells(*windows)
    if array.shape != shape:
        raise ValueError(f"{name} shape {array.shape} does not match the windows' shape {shape}")
    array.setflags(write=False)
    object.__setattr__(owner, name, array)
    return array


@dataclass(frozen=True)
class OamWindow:
    """Closed integer range [l_min, l_max] of OAM detection indices."""

    l_min: int
    l_max: int

    def __post_init__(self):
        object.__setattr__(self, "l_min", _require_index("l_min", self.l_min))
        object.__setattr__(self, "l_max", _require_index("l_max", self.l_max))
        if self.l_min > self.l_max:
            raise ValueError(f"l_min must not exceed l_max, got [{self.l_min}, {self.l_max}]")
        if self.l_min < -(1 << 63) or self.l_max >= 1 << 63:
            raise ValueError(f"l_min and l_max must fit in int64, got [{self.l_min}, {self.l_max}]")

    @classmethod
    def symmetric(cls, half_width: int) -> "OamWindow":
        """Window [-half_width, half_width], the detection-range convention."""
        half_width = _require_index("half_width", half_width, 0)
        return cls(-half_width, half_width)

    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1, dtype=np.int64)  # not float64 at the int64 edge

    def index_of(self, l: int) -> int:
        l = _require_index("l", l)
        if l not in self:
            raise ValueError(f"l = {l} lies outside the window [{self.l_min}, {self.l_max}]")
        return l - self.l_min

    def __contains__(self, l) -> bool:
        return isinstance(l, (int, np.integer)) and self.l_min <= l <= self.l_max

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
        _freeze_array(self, "values", float, self.window_a, self.window_b)


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
        _freeze_array(self, "values", float, self.window_b)
        object.__setattr__(self, "l_a", _require_index("l_a", self.l_a))


def _check_finite(values: np.ndarray, window: OamWindow) -> None:
    """Raise ValueError naming the first non-finite value of a slice over window."""
    j = int(np.argmin(np.isfinite(values)))
    if not np.isfinite(values[j]):
        l_b, where = window.l_min + j, f"window [{window.l_min}, {window.l_max}]"
        raise ValueError(f"conditional slice value at l_b = {l_b} in {where} must be finite, got {values[j]}")


def check_cells(window_a: OamWindow, window_b: OamWindow, runs: int = 1) -> None:
    """Raise ValueError if runs spectra over the windows hold more than MAX_CELLS cells in all."""
    rows, cols = _window_cells(window_a, window_b)
    if rows * cols * runs > MAX_CELLS:
        raise ValueError(f"window cells x runs must be at most {MAX_CELLS}, got {rows} x {cols} x {runs}")


# Sums s as their distinct even |s| (then a last exponent for the zero slot) and each sum's slot among them.
_SumIndex = NamedTuple("_SumIndex", [("exponents", np.ndarray), ("slots", np.ndarray)])


def _sum_index(s) -> _SumIndex:
    """The _SumIndex of an integer array of sums, found without a sort when the even |s| span no more values than s."""
    s = np.asarray(s)
    if s.ndim == 0:  # one sum, as joint_probability passes: slot 0 holds its |s| if even, else the zero slot
        return _SumIndex(np.array([np.abs(s), 0][int(s) & 1 :]), np.asarray(0))
    exponent, odd = np.abs(s), (s & 1).astype(bool)
    low, high = (int(exponent.min()), int(exponent.max())) if s.size else (0, 0)
    low, high = low + (low & 1), high - (high & 1)  # the even values in that range
    if 0 <= low <= high and (high - low) // 2 < s.size:
        exponents = np.arange(low, high + 1, 2, dtype=exponent.dtype)
        slots = (exponent - low) >> 1
    else:  # no even |s|, |s| wrapped at -2**63, or few even |s| over a wide span
        exponents = np.unique(exponent[~odd])
        slots = np.searchsorted(exponents, exponent)
    return _SumIndex(np.append(exponents, 0), np.where(odd, len(exponents), slots))


def geometric_kernel(s, gamma):
    """The spectrum's one formula: q**|s| with q = (gamma - 1)/(gamma + 1), 0 on odd s.

    s is an integer array of sums l_a + l_b, or the _sum_index(s) that a caller evaluating them at
    many gammas builds once.  gamma may be a float or an array that broadcasts against s; each of
    its elements is raised once to each distinct even |s|, so it should vary only where s does not,
    as a (k, 1) column.  Float 0**0 is 1, which keeps the gamma = 1 delta spectrum exact.  Callers
    validate gamma.  The powers run over flat operands: numpy's scalar pow, which can be an ulp off
    its vector pow, runs where the exponent is broadcast.
    """
    exponents, slots = s if isinstance(s, _SumIndex) else _sum_index(s)
    q = (gamma - 1.0) / (gamma + 1.0)
    width = len(exponents)  # each row of powers ends in the zero slot
    if isinstance(q, np.ndarray):
        table = np.repeat(q.ravel(), width) ** np.tile(exponents, q.size)
        slots = np.arange(0, table.size, width).reshape(q.shape) + slots
    else:
        table = q ** exponents
    table[width - 1 :: width] = 0.0
    return table[slots]


def joint_probability(l_a: int, l_b: int, gamma: float, n_modes: int = 1) -> float:
    """Closed-form coincidence probability for projections (l_a, l_b).

    Geometric in |l_a + l_b| with ratio (gamma - 1)/(gamma + 1) and zero
    whenever the sum is odd.  The s = 0 term is defined as 1 even at
    gamma = 1, so the rest frame reduces exactly to the anti-correlated
    Kronecker delta.
    """
    gamma = require_gamma(gamma)
    n = _require_index("n_modes", n_modes, 1)
    s = _require_index("l_a", l_a) + _require_index("l_b", l_b)
    if not _fits_int64(s):
        raise ValueError(f"l_a + l_b must fit in int64, got {s}")
    return float(geometric_kernel(s, gamma) / n)


def conditional_slice(l_a: int, window: OamWindow, gamma: float) -> ConditionalSlice:
    """Noiseless conditional spectrum over a window; peak value 1 at l_b = -l_a."""
    l_a = _require_index("l_a", l_a)
    if not _fits_int64(l_a, l_a + window.l_min, l_a + window.l_max):
        raise ValueError(f"l_a + l_b must fit in int64, got l_a = {l_a} on the window [{window.l_min}, {window.l_max}]")
    values = geometric_kernel(l_a + window.indices(), require_gamma(gamma))
    return ConditionalSlice(l_a=l_a, window_b=window, values=values)


def joint_spectrum(gamma: float, window_a: OamWindow, window_b: OamWindow, n_modes: int = 1) -> JointSpectrum:
    """Closed-form joint spectrum over a pair of detection windows."""
    gamma = require_gamma(gamma)
    n = _require_index("n_modes", n_modes, 1)
    check_cells(window_a, window_b)
    low, high = window_a.l_min + window_b.l_min, window_a.l_max + window_b.l_max
    if not _fits_int64(low, high):
        raise ValueError(f"l_a + l_b must fit in int64, got sums in [{low}, {high}]")
    values = geometric_kernel(window_a.indices()[:, None] + window_b.indices(), gamma) / n
    return JointSpectrum(window_a=window_a, window_b=window_b, values=values, n_modes=n, gamma=gamma)


@functools.lru_cache(maxsize=8)
def _azimuth_grid(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node numbers k, cos(phi_k)**2 and exp(-1j*phi_k) at phi_k = 2*pi*k/points, built once per count."""
    k = np.arange(points)
    phi = k * (TWO_PI / points)
    tables = k, np.cos(phi) ** 2, np.exp(-1j * phi)
    for table in tables:
        table.setflags(write=False)
    return tables


def _azimuth_nodes(name: str, nodes, floor: int, l_a, l_b) -> tuple[int, np.ndarray, np.ndarray]:
    """Checked node count, cos(phi_k)**2 and exp(-1j*s*phi_k) as cached unit roots at exact angles.

    s = l_a + l_b.  The trapezoid rule cannot tell s from s - nodes, so nodes must exceed 2*|s|.
    """
    s = _require_index("l_a", l_a) + _require_index("l_b", l_b)
    nodes = _require_index(name, nodes, floor, MAX_NODES)
    if 2 * abs(s) >= nodes:
        raise ValueError(f"{name} = {nodes} cannot resolve l_a + l_b = {s}: it needs {name} >= {2 * abs(s) + 1}")
    k, cos2, roots = _azimuth_grid(nodes)
    return nodes, cos2, roots[(s * k) % nodes]


def joint_probability_quadrature(
    l_a: int, l_b: int, gamma: float, n_modes: int = 1, panels: int = DEFAULT_PANELS
) -> float:
    """Overlap-integral oracle for joint_probability: the periodic trapezoid rule in azimuth.

    The integrand is smooth and 2*pi-periodic, so the rule converges
    spectrally on `panels` nodes, which must exceed 2*|l_a + l_b|.
    """
    gamma = require_gamma(gamma)
    n = _require_index("n_modes", n_modes, 1)
    panels, cos2, phases = _azimuth_nodes("panels", panels, 64, l_a, l_b)
    total = phases @ (gamma / ((gamma * gamma - 1.0) * cos2 + 1.0))
    return float(abs(total) ** 2 / (panels * panels * n))


def joint_probability_spdc_oracle(
    l_a: int, l_b: int, gamma: float, radial_cutoff: float = 6.0, grid: int = 256
) -> float:
    """Gaussian-source 2-D integral seen from the moving detectors.

    The polar form of the overlap integral for a unit Gaussian source whose
    radius the boost shears: the exact radial factor (1 - exp(-shear*R**2)) /
    (2*shear) up to R = radial_cutoff (inf allowed), then the trapezoid rule of
    joint_probability_quadrature on `grid` azimuth nodes (> 2*|l_a + l_b|).
    Unnormalised: as R grows it tends to that quadrature times pi**2/gamma**2.
    """
    gamma = require_gamma(gamma)
    radial_cutoff = float(radial_cutoff)
    if not radial_cutoff > 0.0:
        raise ValueError(f"radial_cutoff must be positive, got {radial_cutoff}")
    grid, cos2, phases = _azimuth_nodes("grid", grid, 256, l_a, l_b)
    shear = (gamma * gamma - 1.0) * cos2 + 1.0
    radial = -np.expm1(-shear * (radial_cutoff * radial_cutoff)) / (2.0 * shear)
    return float(abs(phases @ radial * (TWO_PI / grid)) ** 2)


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
    _check_finite(conditional.values, conditional.window_b)
    return float(_mode_counts(conditional.values[None])[0])


def _mode_counts(values: np.ndarray) -> np.ndarray:
    """mode_count_empirical of each row of a 2-D array of slice values, bit for bit."""
    # a batched dot and one .sum() per row, which keep the bits of each slice's v @ v and v.sum()
    sum_sq = (values[:, None, :] @ values[:, :, None]).ravel()
    if (sum_sq <= 0.0).any():
        raise ValueError("conditional slice has no positive entries")
    totals = np.array([row.sum() for row in values])
    return totals * totals / sum_sq


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
    _check_finite(v, conditional.window_b)
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
