import inspect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamboost import spectrum
from oamboost.relativity import GAMMA_MAX
from oamboost.simulate import CountSpectrum, NoiseModel
from oamboost.spectrum import (
    ConditionalSlice,
    JointSpectrum,
    OamWindow,
    conditional_slice,
    geometric_kernel,
    joint_probability,
    joint_probability_quadrature,
    joint_probability_spdc_oracle,
    joint_spectrum,
    joint_spectrum_to_csv,
    measurement_sum,
    mode_count_closed,
    mode_count_empirical,
    spectrum_moments,
)

LO, HI = spectrum.L_RANGE
IN_RANGE = r" in \[-2147483648, 2147483647\]"


def geometric_ratio(gamma):
    return (gamma - 1.0) / (gamma + 1.0)


def series_sum(gamma, half_width, even_only, weight=lambda l: 1.0):
    # independent brute-force sum over the geometric spectrum
    q = geometric_ratio(gamma)
    total = 0.0
    for l in range(-half_width, half_width + 1):
        if even_only and l % 2 != 0:
            continue
        term = 1.0 if l == 0 else q ** abs(l)
        total += term * weight(l)
    return total


class TestOamWindow:
    def test_symmetric(self):
        w = OamWindow.symmetric(20)
        assert (w.l_min, w.l_max) == (-20, 20)
        assert len(w) == 41
        assert 0 in w and 20 in w and 21 not in w

    def test_index_of(self):
        w = OamWindow(-4, 4)
        assert w.index_of(-4) == 0
        assert w.index_of(0) == 4
        with pytest.raises(ValueError):
            w.index_of(5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            OamWindow(3, 2)
        with pytest.raises(ValueError):
            OamWindow.symmetric(-1)

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: OamWindow(0.5, 2.9), f"l_min must be an integer{IN_RANGE}, got 0.5"),
            (lambda: OamWindow(0, 2.0), f"l_max must be an integer{IN_RANGE}, got 2.0"),
            (lambda: OamWindow(np.float64(-1.0), 1), "l_min must be an integer"),
            (lambda: OamWindow.symmetric(2.7), r"half_width must be an integer in \[0, 2147483647\], got 2.7"),
            (lambda: OamWindow.symmetric(2.0), "half_width must be an integer"),
            (lambda: OamWindow(-4, 4).index_of(1.5), "l must be an integer, got 1.5"),
        ],
    )
    def test_non_integral_indices_raise(self, make, message):
        # int() used to truncate: symmetric(2.7) gave [-2, 2] and OamWindow(0.5, 2.9) gave [0, 2]
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: OamWindow(True, 3), f"^l_min must be an integer{IN_RANGE}, got True$"),
            (lambda: OamWindow(0, False), f"^l_max must be an integer{IN_RANGE}, got False$"),
            (lambda: OamWindow.symmetric(True), r"^half_width must be an integer in \[0, 2147483647\], got True$"),
            (lambda: OamWindow(-4, 4).index_of(True), "^l must be an integer, got True$"),
            (lambda: joint_probability(True, -1, 3.0), f"^l_a must be an integer{IN_RANGE}, got True$"),
            (lambda: joint_probability(0, 0, 3.0, True), "^n_modes must be an integer in \\[1, inf\\], got True$"),
            (lambda: conditional_slice(False, OamWindow(-2, 2), 3.0), f"^l_a must be an integer{IN_RANGE}, got False$"),
        ],
    )
    def test_bool_indices_raise(self, make, message):
        # bool is an int subclass: OamWindow(True, 3) was the window [1, 3]
        with pytest.raises(ValueError, match=message):
            make()

    def test_a_bool_is_not_in_a_window(self):
        window = OamWindow(-4, 4)
        assert 1 in window and np.int8(0) in window
        assert True not in window and False not in window

    @pytest.mark.parametrize(
        ("l_min", "l_max", "name", "bad"),
        [
            (2**63, 2**63, "l_min", 2**63),  # its indices() raised numpy's OverflowError
            (-(2**63) - 1, 0, "l_min", -(2**63) - 1),
            (0, 2**63, "l_max", 2**63),
            (-(2**64), 2**64, "l_min", -(2**64)),
            (-(2**63), 2**63 - 1, "l_min", -(2**63)),  # the int64 edges, once accepted
            (2**31, 2**31, "l_min", 2**31),
            (-5, 2**31, "l_max", 2**31),
            (-(2**31) - 1, 0, "l_min", -(2**31) - 1),
        ],
    )
    def test_bounds_beyond_the_range_raise(self, l_min, l_max, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer{IN_RANGE}, got {bad}$"):
            OamWindow(l_min, l_max)

    def test_range_edges_accepted(self):
        widest = OamWindow(LO, HI)
        assert (widest.l_min, widest.l_max, len(widest)) == (-(2**31), 2**31 - 1, 2**32)
        assert OamWindow(HI, HI).indices().tolist() == [HI]
        assert OamWindow.symmetric(HI) == OamWindow(-HI, HI)
        with pytest.raises(ValueError, match=r"half_width must be an integer in \[0, 2147483647\], got 2147483648"):
            OamWindow.symmetric(HI + 1)

    def test_numpy_integers_accepted(self):
        assert OamWindow(np.int64(-2), np.int32(3)) == OamWindow(-2, 3)
        assert OamWindow.symmetric(np.uint8(2)) == OamWindow(-2, 2)
        assert type(OamWindow(np.int64(-2), 3).l_min) is int
        w = OamWindow(-4, 4)
        assert w.index_of(np.int16(-4)) == 0
        assert np.int64(4) in w and 1.0 not in w and 1.5 not in w


class TestJointProbability:
    def test_rest_frame_anticorrelation(self):
        assert joint_probability(3, -3, 1.0, 10) == pytest.approx(0.1, rel=1e-15)
        assert joint_probability(3, 3, 1.0, 10) == 0.0
        assert joint_probability(0, 0, 1.0, 1) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        l_a=st.integers(-30, 30),
        below=st.integers(0, 30),
        above=st.integers(0, 30),
        gamma=st.floats(1.0, 1e3),
        n_modes=st.integers(1, 10),
    )
    @example(l_a=0, below=0, above=2, gamma=3.0, n_modes=1)  # joint_probability(0, 2, 3.0, 1) is 0.25
    def test_even_sum(self, l_a, below, above, gamma, n_modes):
        # a window about the peak l_b = -l_a: each even sum s is q**|s| / n_modes, and the row over the
        # window plus the two geometric tails beyond it is the even-sum identity (gamma + 1/gamma) / 2
        q = geometric_ratio(gamma)
        row = [joint_probability(l_a, l_b, gamma, n_modes) for l_b in range(-l_a - below, -l_a + above + 1)]
        for s, value in zip(range(-below, above + 1), row):
            if s % 2 == 0:
                assert value == pytest.approx(q ** abs(s) / n_modes, rel=1e-15)

        def tail(edge):  # the even |s| beyond a window edge at |s| = edge
            return q ** (2 * (edge // 2 + 1)) / (1.0 - q * q)

        total = n_modes * math.fsum(row) + tail(below) + tail(above)
        assert total == pytest.approx(measurement_sum(gamma), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        window_a=st.tuples(st.integers(-40, 40), st.integers(0, 20)).map(lambda b: OamWindow(b[0], sum(b))),
        window_b=st.tuples(st.integers(-40, 40), st.integers(0, 20)).map(lambda b: OamWindow(b[0], sum(b))),
        gamma=st.floats(1.0, 1e3),
        n_modes=st.integers(1, 10),
    )
    @example(window_a=OamWindow(0, 0), window_b=OamWindow(3, 3), gamma=5.0, n_modes=1)
    # every cell of the hand-picked draws from [-30, 30]^2
    @example(window_a=OamWindow(-30, 30), window_b=OamWindow(-30, 30), gamma=7.3, n_modes=4)
    def test_odd_sum_exact_zero(self, window_a, window_b, gamma, n_modes):
        spectrum = joint_spectrum(gamma, window_a, window_b, n_modes)
        for i, l_a in enumerate(window_a.indices().tolist()):
            for j, l_b in enumerate(window_b.indices().tolist()):
                if (l_a + l_b) % 2 != 0:
                    assert joint_probability(l_a, l_b, gamma, n_modes) == 0.0
                    assert spectrum.values[i, j] == 0.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            joint_probability(0, 0, 0.9, 1)
        with pytest.raises(ValueError):
            joint_probability(0, 0, 2.0, 0)

    @pytest.mark.parametrize("n_modes", [2.5, 2.0, "2", None])
    def test_n_modes_must_be_an_integer(self, n_modes):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            joint_probability(0, 0, 2.0, n_modes=n_modes)
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            joint_spectrum(2.0, OamWindow(0, 1), OamWindow(0, 1), n_modes)
        assert joint_probability(0, 0, 2.0, n_modes=np.int64(2)) == 0.5

    def test_indices_beyond_the_range_raise(self):
        # each of these once reached the int64 sum check, and joint_probability(0, 2**63 - 1, 5.0) returned 0.0
        for l_a, l_b, name, bad in ((0, 2**70, "l_b", 2**70), (-(2**62), -(2**62), "l_a", -(2**62)),
                                    (0, 2**63 - 1, "l_b", 2**63 - 1), (HI + 1, 0, "l_a", HI + 1)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer{IN_RANGE}, got {bad}$"):
                joint_probability(l_a, l_b, 5.0)
        assert joint_probability(HI, -HI, 5.0) == 1.0
        assert joint_probability(LO, LO, 5.0) == joint_probability(HI, LO, 5.0) == 0.0

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: joint_probability(0.9, 1.9, 3.0), f"l_a must be an integer{IN_RANGE}, got 0.9"),
            (lambda: joint_probability(0, 2.0, 3.0), f"l_b must be an integer{IN_RANGE}, got 2.0"),
            (lambda: joint_probability(np.float64(1.0), 1, 3.0), "l_a must be an integer"),
            (lambda: conditional_slice(1.5, OamWindow(-2, 2), 3.0), f"l_a must be an integer{IN_RANGE}, got 1.5"),
            (lambda: joint_probability_quadrature(0.5, 0, 3.0), f"l_a must be an integer{IN_RANGE}, got 0.5"),
            (lambda: joint_probability_quadrature(0, "2", 3.0), f"l_b must be an integer{IN_RANGE}, got '2'"),
            (lambda: joint_probability_spdc_oracle(2.0, 0, 3.0), f"l_a must be an integer{IN_RANGE}, got 2.0"),
            (lambda: joint_probability_spdc_oracle(0, 0.5, 3.0), f"l_b must be an integer{IN_RANGE}, got 0.5"),
        ],
    )
    def test_non_integral_indices_raise(self, call, message):
        # int() used to truncate: joint_probability(0.9, 1.9, 3.0) returned 0.0, read as l = (0, 1)
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_integer_indices_accepted(self):
        l_a, l_b = np.int64(1), np.int32(1)
        assert joint_probability(l_a, l_b, 3.0) == joint_probability(1, 1, 3.0) == 0.25
        window = OamWindow(-3, 3)
        np.testing.assert_array_equal(
            conditional_slice(np.int16(1), window, 3.0).values, conditional_slice(1, window, 3.0).values
        )
        assert joint_probability_quadrature(l_a, l_b, 3.0) == joint_probability_quadrature(1, 1, 3.0)
        assert joint_probability_spdc_oracle(l_a, l_b, 3.0) == joint_probability_spdc_oracle(1, 1, 3.0)


class TestConditionalSlice:
    def test_rest_frame_delta(self):
        cond = conditional_slice(0, OamWindow(-4, 4), 1.0)
        np.testing.assert_array_equal(cond.values, [0, 0, 0, 0, 1, 0, 0, 0, 0])

    def test_centered_gamma_three(self):
        cond = conditional_slice(0, OamWindow(-4, 4), 3.0)
        np.testing.assert_allclose(
            cond.values, [1 / 16, 0, 1 / 4, 0, 1, 0, 1 / 4, 0, 1 / 16], rtol=1e-15
        )

    def test_shifted_gamma_three(self):
        # powers of q = 1/2 in |2 + l_b|, peak at l_b = -2
        cond = conditional_slice(2, OamWindow(-4, 4), 3.0)
        np.testing.assert_allclose(
            cond.values, [1 / 4, 0, 1, 0, 1 / 4, 0, 1 / 16, 0, 1 / 64], rtol=1e-15
        )

    def test_translation_invariance(self):
        base = conditional_slice(0, OamWindow(-30, 30), 4.0)
        for l_a in (-3, 1, 5):
            shifted = conditional_slice(l_a, OamWindow(-30 - l_a, 30 - l_a), 4.0)
            np.testing.assert_allclose(shifted.values, base.values, rtol=1e-15)

    def test_matches_joint_probability(self):
        gamma, n = 6.0, 7
        cond = conditional_slice(1, OamWindow(-10, 10), gamma)
        for i, l_b in enumerate(range(-10, 11)):
            assert cond.values[i] == pytest.approx(
                n * joint_probability(1, l_b, gamma, n), rel=1e-14
            )

    def test_values_read_only(self):
        cond = conditional_slice(0, OamWindow(-2, 2), 2.0)
        with pytest.raises(ValueError):
            cond.values[0] = 5.0

    @pytest.mark.parametrize(
        "l_a",
        [
            2**70,  # numpy raised OverflowError: Python int too large to convert to C long
            2**62,  # with a window at 2**62, the last sum was 2**63
            -(2**62),  # with a window at -2**62, the sum -2**63, whose abs overflows int64
            2**63,  # the sum 2**63 - 1 fitted, but l_a did not
            HI + 1,
            LO - 1,
        ],
    )
    def test_beyond_the_range_raises_naming_l_a(self, l_a):
        for make in (lambda: conditional_slice(l_a, OamWindow(-1, 2), 2.0),
                     lambda: ConditionalSlice(l_a=l_a, window_b=OamWindow(0, 0), values=[1.0])):
            with pytest.raises(ValueError, match=rf"^l_a must be an integer{IN_RANGE}, got {l_a}$"):
                make()

    def test_range_edges_accepted(self):
        q2 = geometric_ratio(3.0) ** 2
        np.testing.assert_allclose(conditional_slice(LO, OamWindow(HI - 2, HI), 3.0).values, [0.0, q2, 0.0], rtol=1e-15)
        np.testing.assert_array_equal(conditional_slice(HI, OamWindow(LO, LO + 2), 3.0).values, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(conditional_slice(HI, OamWindow(HI - 1, HI), 3.0).values, [0.0, 0.0])
        # sums of two indices reach 2**32 - 2, so the indices stay int64 on every platform
        assert OamWindow(HI - 2, HI).indices().dtype == np.int64


gammas = st.floats(1.0, GAMMA_MAX) | st.sampled_from([1.0, 1.0 + 2**-52, 3.0, 20.0, GAMMA_MAX])


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestGeometricKernel:
    """Properties of the one kernel, checked bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.lists(st.integers(-500, 500), min_size=1, max_size=40),
        gamma=st.lists(gammas, min_size=1, max_size=4),
    )
    def test_odd_sums_are_exact_zeros(self, s, gamma):
        s = np.array(s)
        values = geometric_kernel(s, np.array(gamma)[:, None])
        assert values.shape == (len(gamma), len(s))
        assert np.all(bits(values[:, s % 2 != 0]) == 0)
        for l_b in s[s % 2 != 0]:
            assert bits(joint_probability(0, int(l_b), gamma[0], 3)) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        l_a=st.integers(-60, 60),
        l_b=st.integers(-60, 60),
        pad=st.tuples(*[st.integers(0, 5)] * 4),
        gamma=gammas,
        n_modes=st.integers(1, 9),
    )
    # a 1x1 spectrum, where numpy once took its scalar pow and moved q**2 by an ulp
    @example(l_a=56, l_b=-58, pad=(0, 0, 0, 0), gamma=1.0000000000000167, n_modes=1)
    def test_joint_probability_is_its_joint_spectrum_entry(self, l_a, l_b, pad, gamma, n_modes):
        window_a = OamWindow(l_a - pad[0], l_a + pad[1])
        window_b = OamWindow(l_b - pad[2], l_b + pad[3])
        entry = joint_spectrum(gamma, window_a, window_b, n_modes).values[pad[0], pad[2]]
        assert bits(joint_probability(l_a, l_b, gamma, n_modes)) == bits(entry)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.tuples(st.integers(-60, 60), st.integers(0, 8)),
        b=st.tuples(st.integers(-60, 60), st.integers(0, 80)),
        gamma=gammas,
    )
    @example(a=(56, 0), b=(-58, 0), gamma=1.0000000000000167)
    def test_conditional_rows_are_joint_spectrum_rows(self, a, b, gamma):
        window_a, window_b = OamWindow(a[0], a[0] + a[1]), OamWindow(b[0], b[0] + b[1])
        spec = joint_spectrum(gamma, window_a, window_b, 1)
        for row, l_a in zip(spec.values, window_a.indices()):
            assert np.array_equal(bits(conditional_slice(int(l_a), window_b, gamma).values), bits(row))


def flat_pow_kernel(s, gamma):
    """The kernel before it shared its powers: q**|s| over every cell's own flat operands, 0 on odd s."""
    s = np.asarray(s)
    q = (gamma - 1.0) / (gamma + 1.0)
    exponent = np.abs(s)
    if isinstance(q, np.ndarray):
        shape = np.broadcast(q, exponent).shape
        q_full, exponent_full = np.empty(shape, q.dtype), np.empty(shape, exponent.dtype)
        q_full[...], exponent_full[...] = q, exponent
        q, exponent = q_full.ravel(), exponent_full
    powers = (q ** exponent.ravel()).reshape(exponent.shape)
    return np.where(s % 2 == 0, powers, 0.0)


@st.composite
def kernel_sums(draw):
    """Sums as a 0-d, 1-D or 2-D array: window aranges, scattered values, or wide spans that defeat the range index."""
    row = draw(
        st.builds(lambda start, n: list(range(start, start + n)), st.integers(-150, 150), st.integers(1, 90))
        | st.lists(st.integers(-300, 300), min_size=1, max_size=40)
        | st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=6)
    )
    layout = draw(st.sampled_from(["scalar", "1-D", "equal rows", "different rows"]))
    if layout == "scalar":
        return np.array(row[0])
    if layout == "1-D":
        return np.array(row)
    if layout == "equal rows":
        shifts = [0] * draw(st.integers(1, 6))
    else:
        shifts = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    return np.array(row) + np.array(shifts)[:, None]


class TestSharedPowers:
    """geometric_kernel raises each gamma to each distinct even |s| once, with the bits of one pow per cell."""

    @settings(max_examples=400, deadline=None)
    @given(s=kernel_sums(), gamma=gammas | st.lists(gammas, min_size=1, max_size=6))
    # size-1 shapes, one distinct exponent, and the gamma at which a 1x1 spectrum once moved an ulp
    @example(s=np.array(-2), gamma=1.0000000000000167)
    @example(s=np.array([[-2]]), gamma=[1.0000000000000167])
    @example(s=np.array([2, -2, 3, 2]), gamma=[1.0000000000000167, 7.0])
    @example(s=np.array([[2, 3], [-2, 1]]), gamma=[3.0, 1.0])
    @example(s=np.array([1, -3, 5]), gamma=2.0)
    @example(s=np.array([2**63 - 1, -(2**63 - 2), 4]), gamma=[1.5])
    def test_same_bits_as_one_pow_per_cell(self, s, gamma):
        if isinstance(gamma, list):  # a (k, 1) column, one gamma per row of 2-D sums
            rows = len(s) if s.ndim == 2 else len(gamma)
            gamma = np.resize(np.array(gamma), rows)[:, None]
        expected = flat_pow_kernel(s, gamma)
        for values in (geometric_kernel(s, gamma), geometric_kernel(spectrum._sum_index(s), gamma)):
            assert np.shape(values) == expected.shape
            assert np.array_equal(bits(values), bits(expected))

    @settings(max_examples=200, deadline=None)
    @given(s=kernel_sums())
    def test_one_power_per_distinct_even_sum(self, s):
        exponents, slots = spectrum._sum_index(s)
        exponents = exponents[:-1]  # the last is the odd sums' zero slot
        even = sorted({abs(int(v)) for v in s.ravel() if v % 2 == 0})
        assert set(even) <= set(exponents.tolist()) and len(exponents) <= max(s.size, 1)
        if s.size and np.all(np.diff(s.ravel()) == 1):  # a window's sums: exactly their even |s|
            assert exponents.tolist() == even
        odd = s % 2 != 0
        assert np.all(slots[odd] == len(exponents))
        assert np.array_equal(exponents[slots[~odd]], np.abs(s[~odd]))


class TestQuadratureOracle:
    def test_constant_integrand(self):
        assert joint_probability_quadrature(0, 0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_even_sum(self):
        assert joint_probability_quadrature(0, 2, 3.0) == pytest.approx(0.25, abs=1e-9)

    def test_odd_cancellation(self):
        assert joint_probability_quadrature(1, 2, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for gamma in (1.0, 1.5, 2.0, 5.0, 10.0, 20.0):
            for _ in range(20):
                l_a = int(rng.integers(-10, 11))
                l_b = int(rng.integers(-10, 11))
                closed = joint_probability(l_a, l_b, gamma, 3)
                quad = joint_probability_quadrature(l_a, l_b, gamma, 3)
                assert quad == pytest.approx(closed, abs=1e-9)

    def test_table_phases_give_the_former_values(self):
        # the trapezoid sum as written before the phases came from a cached table
        def former(s, gamma, panels=4096):
            phi = np.arange(panels) * (2.0 * np.pi / panels)
            integrand = gamma * np.exp(-1j * s * phi) / ((gamma * gamma - 1.0) * np.cos(phi) ** 2 + 1.0)
            integral = integrand.sum() * (2.0 * np.pi / panels)
            return float(abs(integral / (2.0 * np.pi)) ** 2)

        for gamma in (1.0, 1.5, 5.0, 20.0, 50.0):
            for s in range(-20, 21):
                assert abs(joint_probability_quadrature(0, s, gamma) - former(s, gamma)) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(s=st.integers(-3000, 3000) | st.integers(LO, HI) | st.integers(-(2**70), 2**70), gamma=st.floats(1.0, 20.0))
    @example(s=2**19 - 1, gamma=20.0)
    @example(s=-(2**19), gamma=1.0)
    @example(s=HI, gamma=20.0)
    @example(s=LO, gamma=1.0)
    @example(s=HI + 1, gamma=20.0)
    @example(s=2**70, gamma=20.0)
    def test_agrees_below_the_nyquist_limit_and_raises_at_it(self, s, gamma):
        # up to gamma 20 the error bound needs at most 1024 nodes, so only a sum the cap cannot resolve raises,
        # or an index past L_RANGE
        if LO <= s <= HI and 2 * abs(s) < spectrum.MAX_NODES:
            closed = joint_probability(0, s, gamma)
            assert joint_probability_quadrature(s, 0, gamma) == pytest.approx(closed, abs=1e-9)
            return
        built = spectrum._azimuth_grid.cache_info()
        cap = re.escape(f"l_a + l_b = {s} need {1 << (2 * abs(s)).bit_length()} azimuth nodes, over the cap 1048576")
        message = rf"^gamma = {re.escape(str(gamma))} and {cap}$"
        if not LO <= s <= HI:
            message = rf"^l_a must be an integer{IN_RANGE}, got {s}$"
        for call in (joint_probability_quadrature, joint_probability_spdc_oracle):
            with pytest.raises(ValueError, match=message):
                call(s, 0, gamma)
        assert spectrum._azimuth_grid.cache_info() == built

    def test_unresolved_sum_raises(self):
        # 2**40 + 2 aliased to 2 on 4096 nodes, which used to give 0.4444576 for a closed-form 0.0; it lies past L_RANGE
        with pytest.raises(ValueError, match=f"l_b must be an integer{IN_RANGE}, got 1099511627778"):
            joint_probability_quadrature(0, 2**40 + 2, 5.0)
        with pytest.raises(ValueError, match="l_a \\+ l_b = 1048578 need 4194304 azimuth nodes, over the cap 1048576"):
            joint_probability_quadrature(0, 2**20 + 2, 5.0)
        with pytest.raises(ValueError, match="l_a \\+ l_b = 4294967294 need 8589934592 azimuth nodes"):
            joint_probability_spdc_oracle(HI, HI, 5.0)

    def test_azimuth_table_is_read_only(self):
        for table in spectrum._azimuth_grid(64):
            assert not table.flags.writeable


class TestSpdcOracle:
    def test_proportional_to_closed_form(self):
        for gamma in (2.0, 5.0):
            ratios = [
                joint_probability_spdc_oracle(0, s, gamma) / joint_probability(0, s, gamma, 1)
                for s in (0, 2, -2, 4, -4)
            ]
            for ratio in ratios[1:]:
                assert ratio == pytest.approx(ratios[0], rel=1e-6)

    def test_odd_sum_vanishes(self):
        assert joint_probability_spdc_oracle(1, 2, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_rest_frame_off_diagonal(self):
        assert joint_probability_spdc_oracle(0, 2, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_radial_matches_the_former_nodes(self):
        # the oracle as written with a Gauss-Legendre radial quadrature, on the azimuth nodes the rule sizes
        def former(s, gamma, radial_cutoff=6.0):
            grid = spectrum._azimuth_nodes(256, 0, s, gamma)[0]
            nodes, weights = np.polynomial.legendre.leggauss(grid)
            r = 0.5 * radial_cutoff * (nodes + 1.0)
            wr = 0.5 * radial_cutoff * weights
            phi = np.arange(grid) * (2.0 * np.pi / grid)
            shear = (gamma * gamma - 1.0) * np.cos(phi) ** 2 + 1.0
            radial = np.exp(-np.outer(shear, r * r)) @ (r * wr)
            integral = (radial * np.exp(-1j * s * phi)).sum() * (2.0 * np.pi / grid)
            return float(abs(integral) ** 2)

        for gamma, s, cutoff in ((2.0, 0, 6.0), (5.0, -4, 6.0), (1.3, 2, 3.5), (2.0, 0, 6.0)):
            expected = former(s, gamma, cutoff)
            assert joint_probability_spdc_oracle(0, s, gamma, cutoff) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 5.0])
    def test_zero_sum_is_pi_squared_over_gamma_squared(self, gamma):
        assert joint_probability_spdc_oracle(0, 0, gamma) == pytest.approx(math.pi**2 / gamma**2, rel=1e-13)

    @pytest.mark.parametrize("gamma", [2.0, 5.0])
    def test_is_the_quadrature_times_pi_squared_over_gamma_squared(self, gamma):
        for s in (0, 2, -2, 4, -4, 10):
            quad = joint_probability_quadrature(0, s, gamma)
            assert joint_probability_spdc_oracle(0, s, gamma) == pytest.approx(quad * math.pi**2 / gamma**2, rel=1e-13)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 20.0])
    def test_infinite_cutoff_gives_the_limit(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = joint_probability_spdc_oracle(0, 2, gamma, radial_cutoff=math.inf)
        limit = joint_probability_quadrature(0, 2, gamma) * math.pi**2 / gamma**2
        assert math.isfinite(value)
        assert value == pytest.approx(limit, rel=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            joint_probability_spdc_oracle(0, 0, 2.0, radial_cutoff=-1.0)


SPDC_SUMS = (0, 2, -2, 4, -4)


class TestDefaultNodes:
    """Each oracle's default node count, sized from q = (gamma - 1)/(gamma + 1) and l_a + l_b."""

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.floats(1.0, 1e3), s=st.integers(-40, 40))
    @example(gamma=1e3, s=0)
    @example(gamma=1e3, s=-40)
    @example(gamma=50.0, s=0)
    @example(gamma=859.2609267134784, s=-10)  # 1.8e-14 off with cos(phi_k) taken at rounded angles
    def test_default_quadrature_is_the_closed_form(self, gamma, s):
        assert abs(joint_probability_quadrature(s, 0, gamma) - joint_probability(s, 0, gamma)) <= 1e-14

    @pytest.mark.parametrize("gamma, panels, grid", [(1.0, 64, 256), (5.0, 256, 256), (20.0, 1024, 1024),
                                                     (50.0, 2048, 2048)])
    def test_picks_the_smallest_power_of_two_that_bounds_the_error(self, gamma, panels, grid):
        assert spectrum._azimuth_nodes(64, 0, 0, gamma)[0] == panels
        assert spectrum._azimuth_nodes(256, 0, 0, gamma)[0] == grid
        q = (gamma - 1.0) / (gamma + 1.0)
        assert 4.0 * q ** (panels / 2) <= 2.0**-52 and (panels == 64 or 4.0 * q ** (panels / 4) > 2.0**-52)

    def test_the_rule_alone_sets_the_count(self):
        # an explicit count could only repeat the rule's answer or alias a sum: 24.51 for a closed-form 1 at gamma 1e4
        for call in (joint_probability_quadrature, joint_probability_spdc_oracle):
            assert not {"panels", "grid"} & set(inspect.signature(call).parameters)
        assert joint_probability_quadrature(0, 0, 1e4) == pytest.approx(1.0, abs=1e-14)

    def test_resolves_any_sum_under_the_cap(self):
        # 4096 panels and 256 grid nodes used to raise at these sums
        assert spectrum._azimuth_nodes(64, 1024, 1024, 5.0)[0] == 8192
        closed = joint_probability(1024, 1024, 5.0)
        assert joint_probability_quadrature(1024, 1024, 5.0) == pytest.approx(closed, abs=1e-14)
        assert joint_probability_spdc_oracle(64, 64, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_beyond_the_cap_raises_before_building_a_table(self):
        built = spectrum._azimuth_grid.cache_info()
        cap = "gamma = 100000.0 and l_a \\+ l_b = 0 need 4194304 azimuth nodes, over the cap 1048576"
        for call in (joint_probability_quadrature, joint_probability_spdc_oracle):
            with pytest.raises(ValueError, match=cap):
                call(0, 0, 1e5)
        assert spectrum._azimuth_grid.cache_info() == built

    def test_gaussian_source_ratio_is_constant_to_1e12(self):
        for gamma in (2.0, 5.0, 20.0, 50.0):
            ratios = [joint_probability_spdc_oracle(0, s, gamma) / joint_probability(0, s, gamma) for s in SPDC_SUMS]
            assert max(abs(ratio / ratios[0] - 1.0) for ratio in ratios) < 1e-12, gamma

    def test_a_crosscheck_sweep_builds_few_tables_and_then_none(self):
        # powers of two: gamma in [1, 50] and |s| <= 20 need at most six sizes, which _azimuth_grid's 8 slots keep
        gammas = np.random.default_rng(20).uniform(1.0, 50.0, 30).tolist() + [1.0, 50.0]

        def sweep():
            before = spectrum._azimuth_grid.cache_info().misses
            for gamma in gammas:
                for s in range(-20, 21):
                    assert abs(joint_probability_quadrature(0, s, gamma) - joint_probability(0, s, gamma)) <= 1e-14
                spdc = [joint_probability_spdc_oracle(0, s, gamma) for s in (0, 2, -2)]
                assert all(abs(value / spdc[0] - joint_probability(0, 2, gamma)) < 1e-12 for value in spdc[1:]), gamma
            return spectrum._azimuth_grid.cache_info().misses - before

        assert sweep() <= 8
        assert sweep() == 0


class TestMeasurementSum:
    def test_values(self):
        assert measurement_sum(1.0) == 1.0
        assert measurement_sum(2.0) == pytest.approx(1.25, rel=1e-15)
        assert measurement_sum(20.0) == pytest.approx(10.025, rel=1e-15)

    def test_series_identity(self):
        # even-only geometric sum reproduces the closed form, full sum gives gamma
        for gamma in (2.0, 5.0, 10.0):
            even = series_sum(gamma, 500, even_only=True)
            full = series_sum(gamma, 500, even_only=False)
            assert even == pytest.approx(measurement_sum(gamma), abs=1e-9)
            assert full == pytest.approx(gamma, abs=1e-9)

    # The even-sum over a finite window is the sum of the conditional slice.
    def test_truncated_gamma_five(self):
        got = conditional_slice(0, OamWindow(-40, 40), 5.0).values.sum()
        exact = 1.0 + 1.6 * (1.0 - (4.0 / 9.0) ** 20)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_truncated_rest_frame(self):
        assert conditional_slice(0, OamWindow(-20, 20), 1.0).values.sum() == 1.0

    def test_truncated_large_gamma_deficit(self):
        got = conditional_slice(0, OamWindow(-20, 20), 20.0).values.sum()
        assert got < measurement_sum(20.0) - 0.1

    def test_truncated_monotone_in_half_width(self):
        gamma = 8.0
        sums = [conditional_slice(0, OamWindow.symmetric(h), gamma).values.sum() for h in range(0, 200, 10)]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
        assert all(s <= measurement_sum(gamma) + 1e-12 for s in sums)


class TestModeCount:
    def test_closed_anchors(self):
        assert mode_count_closed(1.0) == 1.0
        assert mode_count_closed(2.0) == pytest.approx(125.0 / 82.0, rel=1e-15)
        assert mode_count_closed(10.0) == pytest.approx(1030301.0 / 106010.0, rel=1e-15)
        assert mode_count_closed(10.0) == pytest.approx(9.71890, abs=1e-4)

    def test_closed_monotone(self):
        gammas = np.linspace(1.0, 40.0, 200)
        omegas = [mode_count_closed(float(g)) for g in gammas]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))

    def test_empirical_delta(self):
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-3, 3), values=[0, 0, 0, 2.5, 0, 0, 0])
        assert mode_count_empirical(cond) == pytest.approx(1.0, rel=1e-15)

    def test_empirical_uniform(self):
        k = 9
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-4, 4), values=np.full(k, 0.3))
        assert mode_count_empirical(cond) == pytest.approx(float(k), rel=1e-12)

    def test_empirical_matches_closed_wide_window(self):
        for gamma in (2.0, 5.0, 10.0):
            cond = conditional_slice(0, OamWindow.symmetric(200), gamma)
            assert mode_count_empirical(cond) == pytest.approx(mode_count_closed(gamma), abs=1e-6)

    def test_empirical_scale_invariant(self):
        cond = conditional_slice(0, OamWindow.symmetric(50), 4.0)
        scaled = ConditionalSlice(l_a=0, window_b=cond.window_b, values=cond.values * 123.456)
        assert mode_count_empirical(scaled) == pytest.approx(mode_count_empirical(cond), rel=1e-12)

    def test_empirical_degenerate(self):
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=np.zeros(5))
        with pytest.raises(ValueError):
            mode_count_empirical(cond)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 12).flatmap(
            lambda n: st.lists(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n), min_size=1, max_size=8)
        )
    )
    @example(rows=[[2.2250738585e-313]])  # a square that underflows to 0
    @example(rows=[[1e-160, 3e-170, 0.0], [1e4, 1e-300, 5.0]])
    def test_stacked_rows_keep_the_one_slice_bits(self, rows):
        # the batched dot and one .sum() per row against v @ v and v.sum() of each slice, where no square
        # underflows: scaling a row by a power of two moves no bit there, and keeps the rest from underflowing
        values = np.array(rows)
        if not values.any(axis=1).all():  # a zero row
            with pytest.raises(ValueError, match="no positive entries"):
                spectrum._mode_counts(values)
            return
        got = spectrum._mode_counts(values)
        exact = [float(sum(map(Fraction, v)) ** 2 / sum(Fraction(x) ** 2 for x in v)) for v in rows]
        assert got.tolist() == pytest.approx(exact, rel=1e-13)
        kept = [i for i, v in enumerate(values) if (v[v != 0.0] ** 2 >= np.finfo(float).tiny).all()]
        expected = [float(values[i].sum()) * float(values[i].sum()) / float(values[i] @ values[i]) for i in kept]
        assert bits(got[kept]).tolist() == bits(expected).tolist()
        window = OamWindow(0, values.shape[1] - 1)
        singles = [mode_count_empirical(ConditionalSlice(l_a=0, window_b=window, values=v)) for v in values]
        assert bits(singles).tolist() == bits(got).tolist()

    @pytest.mark.parametrize(
        ("window", "values", "expected"),
        [(OamWindow(0, 2), [1e-200, 0.0, 1e-201], 1.21 / 1.01), (OamWindow(-1, 1), [1e200] * 3, 3.0)],
        ids=["underflow", "overflow"],
    )
    def test_finite_slices_whose_squares_leave_the_float_range(self, window, values, expected):
        # squared unscaled, the first raised "no positive entries" and the second warned of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mode_count_empirical(ConditionalSlice(l_a=0, window_b=window, values=values))
        assert got == pytest.approx(expected, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 300)),
        step=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 3)]),
        offset=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_axis_sum_is_each_rows_own_sum(self, shape, step, offset, seed):
        # the m_sum bit rule: a sum along axis 1 of C-ordered rows, contiguous or strided, is each row's
        # own .sum() bit for bit (_mode_counts' totals and _msum_gammas' even-cell sums rely on it)
        rows, length = shape
        rng = np.random.default_rng(seed)
        size = (rows * step[0], length * step[1] + offset)
        base = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)  # sums that depend on their order
        values = base[:: step[0], offset :: step[1]][:, :length]
        assert bits(values.sum(axis=1)).tolist() == bits([row.sum() for row in values]).tolist()

    @pytest.mark.parametrize("length", [81, 201])
    def test_experiment_sized_rows_keep_the_one_slice_bits(self, length):
        values = np.random.default_rng(length).poisson(40.0, (100, length)).astype(float)
        expected = [float(v.sum()) * float(v.sum()) / float(v @ v) for v in values]
        assert bits(spectrum._mode_counts(values)).tolist() == bits(expected).tolist()


class TestNonFiniteSlices:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 5, 10])
    @pytest.mark.parametrize("estimator", [mode_count_empirical, spectrum_moments])
    def test_first_non_finite_value_is_named(self, estimator, bad, position):
        # a NaN gave NaN, and an inf NaN with a RuntimeWarning
        window = OamWindow(-7, 3)
        values = conditional_slice(2, window, 3.0).values.copy()
        values[10] = np.nan
        values[position] = bad
        message = f"conditional slice value at l_b = {position - 7} in window [-7, 3] must be finite, got {bad}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                estimator(ConditionalSlice(l_a=2, window_b=window, values=values))


class TestSpectrumMoments:
    def test_rest_frame(self):
        moments = spectrum_moments(conditional_slice(0, OamWindow.symmetric(20), 1.0))
        assert moments.mean == 0.0
        assert moments.std == 0.0

    def test_width_gamma_five(self):
        moments = spectrum_moments(conditional_slice(0, OamWindow.symmetric(200), 5.0))
        assert moments.mean == pytest.approx(0.0, abs=1e-9)
        assert moments.std == pytest.approx((5.0 - 0.2) / math.sqrt(2.0), abs=1e-6)

    def test_width_matches_series_oracle(self):
        for gamma in (2.0, 5.0, 10.0):
            cond = spectrum_moments(conditional_slice(0, OamWindow.symmetric(300), gamma))
            total = series_sum(gamma, 300, even_only=True)
            second = series_sum(gamma, 300, even_only=True, weight=lambda l: l * l)
            assert cond.std == pytest.approx(math.sqrt(second / total), rel=1e-12)

    def test_moment_scaling(self):
        # raw first moment scales with the even-sum total, normalised mean stays at -l_a
        for l_a in (-2, 0, 3):
            for gamma in (2.0, 5.0):
                moments = spectrum_moments(conditional_slice(l_a, OamWindow.symmetric(200), gamma))
                assert moments.first_moment_raw == pytest.approx(
                    -measurement_sum(gamma) * l_a, abs=1e-6
                )
                assert moments.mean == pytest.approx(-l_a, abs=1e-9)

    def test_shifted_example(self):
        moments = spectrum_moments(conditional_slice(2, OamWindow.symmetric(200), 3.0))
        assert moments.first_moment_raw == pytest.approx(-(5.0 / 3.0) * 2.0, abs=1e-6)
        assert moments.mean == pytest.approx(-2.0, abs=1e-9)

    def test_zero_sum_error(self):
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=np.zeros(5))
        with pytest.raises(ValueError):
            spectrum_moments(cond)


class TestJointSpectrumMatrix:
    def test_shape_and_parity(self):
        spec = joint_spectrum(3.0, OamWindow(-5, 5), OamWindow(-6, 6), 2)
        assert spec.values.shape == (11, 13)
        s = spec.window_a.indices()[:, None] + spec.window_b.indices()[None, :]
        assert np.all(spec.values[(s % 2) != 0] == 0.0)
        assert np.all(spec.values >= 0.0)

    def test_rest_frame_antidiagonal(self):
        n = 4
        spec = joint_spectrum(1.0, OamWindow(-5, 5), OamWindow(-5, 5), n)
        for i, l_a in enumerate(range(-5, 6)):
            for j, l_b in enumerate(range(-5, 6)):
                expected = 1.0 / n if l_a == -l_b else 0.0
                assert spec.values[i, j] == expected

    def test_cell_cap_comes_before_any_allocation(self, monkeypatch):
        def no_indices(window):
            raise AssertionError("the window indices were built")

        monkeypatch.setattr(OamWindow, "indices", no_indices)
        with pytest.raises(ValueError, match=r"at most 67108864, got 8193 x 8192 x 1"):
            joint_spectrum(2.0, OamWindow(0, 8192), OamWindow(0, 8191))
        # 8192 x 8192 itself passes the cap and reaches the indices
        with pytest.raises(AssertionError, match="indices were built"):
            joint_spectrum(2.0, OamWindow(0, 8191), OamWindow(0, 8191))

    def test_cell_cap_counts_the_widest_window(self):
        # a window of 2**64 cells once made len() raise OverflowError; L_RANGE now bounds a window at 2**32
        with pytest.raises(ValueError, match=rf"^l_min must be an integer{IN_RANGE}, got {-(2**63)}$"):
            OamWindow(-(2**63), 2**63 - 1)
        wide = OamWindow(LO, HI)
        with pytest.raises(ValueError, match=rf"at most 67108864, got {2**32} x 1 x 1"):
            joint_spectrum(2.0, wide, OamWindow(0, 0))
        with pytest.raises(ValueError, match=rf"got 1 x {2**32} x 3"):
            spectrum.check_cells(OamWindow(0, 0), wide, 3)

    @pytest.mark.parametrize("construct", ["conditional", "joint", "counts"])
    def test_constructors_check_the_shape_of_the_widest_window(self, construct):
        # windows of 2**63 cells or more once made len() raise OverflowError; the widest window now has 2**32
        wide, one, cells = OamWindow(LO, HI), OamWindow(0, 0), 2**32
        build = {
            "conditional": lambda: ConditionalSlice(l_a=0, window_b=wide, values=[1.0]),
            "joint": lambda: JointSpectrum(window_a=wide, window_b=one, values=[[1.0]], n_modes=1, gamma=2.0),
            "counts": lambda: CountSpectrum(wide, one, [[1]], 0, NoiseModel(), 2.0),
        }[construct]
        with pytest.raises(ValueError, match=re.escape(f"does not match the expected shape ({cells},")):
            build()

    @pytest.mark.parametrize(
        ("bounds_a", "bounds_b", "name", "bad"),
        [
            # the int64 sums wrapped: values was [[inf]] with only a RuntimeWarning
            ((2**62, 2**62), (2**62, 2**62), "l_min", 2**62),
            ((-(2**62), 1 - 2**62), (-(2**62), 1 - 2**62), "l_min", -(2**62)),
            ((2**62 - 1, 2**62), (2**62 - 3, 2**62), "l_min", 2**62 - 1),
        ],
        ids=["top", "bottom", "last-sum"],
    )
    def test_windows_whose_sums_wrapped_raise(self, bounds_a, bounds_b, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer{IN_RANGE}, got {bad}$"):
            joint_spectrum(2.0, OamWindow(*bounds_a), OamWindow(*bounds_b))

    def test_range_edge_sums_accepted(self):
        assert joint_spectrum(3.0, OamWindow(HI, HI), OamWindow(HI - 1, HI)).values.tolist() == [[0.0, 0.0]]
        assert joint_spectrum(3.0, OamWindow(LO, LO), OamWindow(HI - 1, HI)).values.tolist() == [[0.25, 0.0]]
        assert joint_spectrum(3.0, OamWindow(LO, LO + 1), OamWindow(LO, LO)).values.tolist() == [[0.0], [0.0]]

    def test_values_read_only(self):
        spec = joint_spectrum(2.0, OamWindow(-2, 2), OamWindow(-2, 2), 1)
        with pytest.raises(ValueError):
            spec.values[0, 0] = 1.0


class TestSerialization:
    def test_csv(self):
        spec = joint_spectrum(3.0, OamWindow(-1, 1), OamWindow(-1, 1), 1)
        text = b"".join(joint_spectrum_to_csv(spec).blocks()).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "l_a,l_b,value"
        assert len(lines) == 1 + 9
        parsed = {}
        for line in lines[1:]:
            la, lb, value = line.split(",")
            parsed[(int(la), int(lb))] = float(value)
        assert parsed[(0, 0)] == 1.0
        assert parsed[(1, 1)] == pytest.approx(0.25, rel=1e-15)
        assert parsed[(1, 0)] == 0.0
