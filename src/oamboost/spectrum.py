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

from ._table import Indexed, Table, format_table
from .relativity import TWO_PI, _number, require_gamma

MAX_CELLS = 8192 * 8192  # 512 MB of float64; checked before any allocation
MAX_NODES = 1 << 20  # azimuth nodes of an oracle; its cached table costs 32 B a node
L_RANGE = (-(1 << 31), (1 << 31) - 1)  # every OAM index: a Philox key packs each in 32 bits, and sums fit int64


def _require_index(name: str, value, low: int | None = None, high: float = math.inf) -> int:
    """value as an int, in [low, high] when low is given; a float, a bool or other non-integer raises, not converts."""
    try:
        index = operator.index(value)
        if not isinstance(value, bool) and (low is None or low <= index <= high):
            return index
    except TypeError:
        pass
    span = "" if low is None else f" in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def _freeze_array(owner, name: str, dtype, *windows) -> np.ndarray:
    """Store owner.<name> as a read-only array of dtype, shaped by the windows' (or ranges') lengths, and return it."""
    array, shape = np.ascontiguousarray(getattr(owner, name), dtype=dtype), tuple(map(len, windows))
    if array.shape != shape:
        raise ValueError(f"{name} shape {array.shape} does not match the expected shape {shape}")
    array.setflags(write=False)
    object.__setattr__(owner, name, array)
    return array


@dataclass(frozen=True)
class OamWindow:
    """Closed integer range [l_min, l_max] of OAM detection indices."""

    l_min: int
    l_max: int

    def __post_init__(self):
        object.__setattr__(self, "l_min", _require_index("l_min", self.l_min, *L_RANGE))
        object.__setattr__(self, "l_max", _require_index("l_max", self.l_max, *L_RANGE))
        if self.l_min > self.l_max:
            raise ValueError(f"l_min must not exceed l_max, got [{self.l_min}, {self.l_max}]")

    @classmethod
    def symmetric(cls, half_width: int) -> "OamWindow":
        """Window [-half_width, half_width], the detection-range convention."""
        half_width = _require_index("half_width", half_width, 0, L_RANGE[1])
        return cls(-half_width, half_width)

    def indices(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1, dtype=np.int64)  # a sum of two needs 33 bits

    def index_of(self, l: int) -> int:
        l = _require_index("l", l)
        if l not in self:
            raise ValueError(f"l = {l} lies outside the window [{self.l_min}, {self.l_max}]")
        return l - self.l_min

    def __contains__(self, l) -> bool:
        return isinstance(l, (int, np.integer)) and not isinstance(l, bool) and self.l_min <= l <= self.l_max

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
        object.__setattr__(self, "l_a", _require_index("l_a", self.l_a, *L_RANGE))


def _check_finite(values: np.ndarray, window: OamWindow) -> None:
    """Raise ValueError naming the first non-finite value of a slice over window."""
    j = int(np.argmin(np.isfinite(values)))
    if not np.isfinite(values[j]):
        l_b, where = window.l_min + j, f"window [{window.l_min}, {window.l_max}]"
        raise ValueError(f"conditional slice value at l_b = {l_b} in {where} must be finite, got {values[j]}")


def check_cells(window_a: OamWindow, window_b: OamWindow, runs: int = 1, gammas: int = 1) -> None:
    """Raise ValueError if runs spectra at each of gammas over the windows hold more than MAX_CELLS cells in all."""
    rows, cols = len(window_a), len(window_b)
    if rows * cols * runs * gammas > MAX_CELLS:
        by = f" ({runs} runs at each of {gammas} gammas)" if gammas > 1 else ""
        raise ValueError(f"window cells x runs must be at most {MAX_CELLS}, got {rows} x {cols} x {runs * gammas}{by}")


# Sums s as their distinct even |s| (then a last exponent for the zero slot) and each sum's slot among them.
_SumIndex = NamedTuple("_SumIndex", [("exponents", np.ndarray), ("slots", np.ndarray)])


def _sum_index(s) -> _SumIndex:
    """The _SumIndex of an integer array of sums, found without a sort when the even |s| span no more values than s."""
    s = np.asarray(s)
    if s.ndim == 0:  # one sum, as joint_probability passes: slot 0 holds its |s| if even, else the zero slot
        # kept apart: the array path takes a geometric_kernel call from 3.2 to 11.4 us, +2.7 ms a crosscheck pass
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
    s = _require_index("l_a", l_a, *L_RANGE) + _require_index("l_b", l_b, *L_RANGE)
    return float(geometric_kernel(s, gamma) / n)


def conditional_slice(l_a: int, window: OamWindow, gamma: float) -> ConditionalSlice:
    """Noiseless conditional spectrum over a window; peak value 1 at l_b = -l_a."""
    l_a = _require_index("l_a", l_a, *L_RANGE)
    values = geometric_kernel(l_a + window.indices(), require_gamma(gamma))
    return ConditionalSlice(l_a=l_a, window_b=window, values=values)


def joint_spectrum(gamma: float, window_a: OamWindow, window_b: OamWindow, n_modes: int = 1) -> JointSpectrum:
    """Closed-form joint spectrum over a pair of detection windows."""
    gamma = require_gamma(gamma)
    n = _require_index("n_modes", n_modes, 1)
    check_cells(window_a, window_b)
    values = geometric_kernel(window_a.indices()[:, None] + window_b.indices(), gamma) / n
    return JointSpectrum(window_a=window_a, window_b=window_b, values=values, n_modes=n, gamma=gamma)


@functools.lru_cache(maxsize=8)
def _azimuth_grid(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node numbers k, cos(phi_k)**2 and exp(-1j*phi_k) at phi_k = 2*pi*k/points, built once per count."""
    k = np.arange(points)
    j = (2 * points - 4 * k) % (2 * points) - points  # cos(phi_k) = +-sin(pi*j/(2*points)), j in [-points, points):
    # its rounding stays relative where it vanishes, the nodes where the shear multiplies it by gamma**2
    tables = k, np.sin(j * (math.pi / (2 * points))) ** 2, np.exp(-1j * k * (TWO_PI / points))
    for table in tables:
        table.setflags(write=False)
    return tables


def _azimuth_nodes(floor: int, l_a, l_b, gamma: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count N, shear (gamma**2 - 1)*cos(phi_k)**2 + 1 and exp(-1j*s*phi_k) as unit roots at exact angles.

    s = l_a + l_b.  N is the smallest power of two >= floor that exceeds 2*|s|, as the trapezoid rule cannot tell s
    from s - N, and has 4*q**(N/2) <= 2**-52; an N over MAX_NODES raises before any table is built.
    """
    s = _require_index("l_a", l_a, *L_RANGE) + _require_index("l_b", l_b, *L_RANGE)
    need = math.ceil(2 * math.log(2**-54) / math.log((gamma - 1.0) / (gamma + 1.0))) if gamma > 1.0 else 0
    nodes = 1 << (max(floor, need, 2 * abs(s) + 1) - 1).bit_length()
    if nodes > MAX_NODES:
        raise ValueError(f"gamma = {gamma} and l_a + l_b = {s} need {nodes} azimuth nodes, over the cap {MAX_NODES}")
    k, cos2, roots = _azimuth_grid(nodes)
    return nodes, (gamma * gamma - 1.0) * cos2 + 1.0, roots[(s * k) % nodes]


def joint_probability_quadrature(l_a: int, l_b: int, gamma: float, n_modes: int = 1) -> float:
    """Overlap-integral oracle for joint_probability: the periodic trapezoid rule in azimuth.

    The integrand is smooth and 2*pi-periodic, so the rule's error on N nodes (N > 2*|l_a + l_b|) is 4*q**(N/2),
    q = (gamma - 1)/(gamma + 1).  N is the smallest power of two >= 64 that bounds it by 2**-52 (64, 256, 1024,
    2048 at gamma 1, 5, 20, 50); past gamma ~ 3e4, or |l_a + l_b| >= 2**19, N exceeds MAX_NODES and the call raises.
    """
    gamma = require_gamma(gamma)
    n = _require_index("n_modes", n_modes, 1)
    panels, shear, phases = _azimuth_nodes(64, l_a, l_b, gamma)
    total = phases @ (gamma / shear)
    return float(abs(total) ** 2 / (panels * panels * n))


def joint_probability_spdc_oracle(l_a: int, l_b: int, gamma: float, radial_cutoff: float = 6.0) -> float:
    """Gaussian-source 2-D integral seen from the moving detectors.

    The polar form of the overlap integral for a unit Gaussian source whose
    radius the boost shears: the exact radial factor (1 - exp(-shear*R**2)) /
    (2*shear) up to R = radial_cutoff (inf allowed), then the trapezoid rule of
    joint_probability_quadrature on nodes sized by its rule, with a floor of 256.
    Unnormalised: as R grows it tends to that quadrature times pi**2/gamma**2.
    """
    gamma = require_gamma(gamma)
    radial_cutoff = _number("radial_cutoff", radial_cutoff)
    if not radial_cutoff > 0.0:
        raise ValueError(f"radial_cutoff must be positive, got {radial_cutoff}")
    grid, shear, phases = _azimuth_nodes(256, l_a, l_b, gamma)
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
    # each row scaled by a power of two (exact) to a largest |v| in [0.5, 1), so that its v @ v neither overflows nor
    # underflows; a batched dot and a sum along each C-ordered row keep the bits of each slice's v @ v and v.sum()
    values = np.ldexp(values, -np.frexp(np.abs(values).max(axis=1, keepdims=True))[1])
    sum_sq = (values[:, None, :] @ values[:, :, None]).ravel()
    if (sum_sq <= 0.0).any():
        raise ValueError("conditional slice has no positive entries")
    return values.sum(axis=1) ** 2 / sum_sq


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


def joint_spectrum_to_csv(spectrum: JointSpectrum) -> Table:
    """CSV with header l_a,l_b,value and 17 significant digits; values by l_a + l_b print from the anti-diagonal."""
    values, bits = spectrum.values, spectrum.values.view(np.uint64)
    if (bits[1:, :-1] == bits[:-1, 1:]).all():  # a Hankel matrix, indexed by i + j in the least type that holds it
        i, j = (np.arange(n, dtype=np.min_scalar_type(sum(values.shape))) for n in values.shape)
        values = Indexed(np.concatenate([values[0], values[1:, -1]]), np.add.outer(i, j))
    grid = np.ix_(spectrum.window_a.indices(), spectrum.window_b.indices())
    return format_table("l_a,l_b,value", *np.broadcast_arrays(*grid), values)
