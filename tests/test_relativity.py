import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from oamboost.estimate import check_gamma_bounds
from oamboost.hologram import generate_hologram
from oamboost.relativity import (
    GAMMA_MAX,
    TWO_PI,
    azimuth_jacobian,
    boosted_azimuth,
    frame_from_beta,
    frame_from_gamma,
    require_gamma,
)
from oamboost.simulate import NoiseModel
from oamboost.spectrum import joint_probability_spdc_oracle


class TestFrameFromGamma:
    def test_rest_frame(self):
        frame = frame_from_gamma(1.0)
        assert frame.gamma == 1.0
        assert frame.beta == 0.0
        assert frame.rapidity == 0.0

    def test_gamma_two(self):
        frame = frame_from_gamma(2.0)
        assert frame.beta == pytest.approx(0.8660254037844386, rel=1e-15)
        assert frame.rapidity == pytest.approx(1.3169578969248166, rel=1e-15)

    def test_gamma_twenty(self):
        frame = frame_from_gamma(20.0)
        assert frame.rapidity == pytest.approx(3.6882538673612966, rel=1e-12)
        assert frame.beta == pytest.approx(0.998749217771909, rel=1e-12)

    def test_gamma_ten(self):
        frame = frame_from_gamma(10.0)
        assert frame.beta == pytest.approx(0.99498743710662, rel=1e-12)
        assert frame.rapidity == pytest.approx(2.993222846126381, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.5, 0.0, -3.0, math.nan, math.inf, GAMMA_MAX * 10])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            frame_from_gamma(bad)

    def test_error_names_value(self):
        with pytest.raises(ValueError, match="0.5"):
            frame_from_gamma(0.5)


class TestFrameFromBeta:
    def test_rest(self):
        assert frame_from_beta(0.0).gamma == 1.0

    def test_point_ninety_nine(self):
        assert frame_from_beta(0.99).gamma == pytest.approx(7.088812050083354, rel=1e-12)

    def test_point_six(self):
        assert frame_from_beta(0.6).gamma == pytest.approx(1.25, rel=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            frame_from_beta(bad)

    def test_gamma_bound_is_stated_in_beta(self):
        # the largest beta accepted is the one whose gamma is the last below GAMMA_MAX; the error used to name gamma
        beta_max = math.sqrt(1.0 - 1.0 / GAMMA_MAX**2)
        assert beta_max == 0.9999999999995
        assert frame_from_beta(beta_max).gamma == pytest.approx(GAMMA_MAX, rel=1e-4)
        assert frame_from_beta(beta_max).gamma <= GAMMA_MAX
        for beta in (math.nextafter(beta_max, 1.0), 0.9999999999999):
            with pytest.raises(ValueError, match=rf"^beta must be <= {beta_max} \(gamma <= 1e\+06\), got {beta}$"):
                frame_from_beta(beta)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_outside_the_unit_interval_message(self, bad):
        with pytest.raises(ValueError, match=rf"^beta must lie in \[0, 1\), got {bad}$"):
            frame_from_beta(bad)

    def test_round_trip(self):
        for gamma in np.geomspace(1.0, 100.0, 201):
            back = frame_from_beta(frame_from_gamma(float(gamma)).beta).gamma
            assert back == pytest.approx(float(gamma), rel=1e-10)

    def test_frame_internal_consistency(self):
        for gamma in np.geomspace(1.0, 100.0, 50):
            frame = frame_from_gamma(float(gamma))
            assert 1.0 / math.sqrt(1.0 - frame.beta**2) == pytest.approx(frame.gamma, rel=1e-12)
            assert math.cosh(frame.rapidity) == pytest.approx(frame.gamma, rel=1e-12)


class TestBoostedAzimuth:
    def test_fixed_points(self):
        for gamma in (1.0, 2.0, 5.0, 20.0):
            for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
                assert boosted_azimuth(phi, gamma) == pytest.approx(phi, abs=1e-12)

    def test_quarter_turn_gamma_two(self):
        assert boosted_azimuth(math.pi / 4, 2.0) == pytest.approx(1.1071487177940904, rel=1e-15)

    def test_identity_at_rest(self):
        assert boosted_azimuth(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        rng = np.random.default_rng(7)
        for phi in rng.uniform(0.0, TWO_PI, 50):
            assert boosted_azimuth(float(phi), 1.0) == pytest.approx(float(phi), abs=1e-12)

    def test_monotone_increasing(self):
        rng = np.random.default_rng(11)
        for gamma in (1.0, 1.5, 2.0, 5.0, 10.0, 20.0):
            phis = np.sort(rng.uniform(0.0, TWO_PI, 300))
            outs = [boosted_azimuth(float(p), gamma) for p in phis]
            assert all(a < b for a, b in zip(outs, outs[1:]))

    def test_range(self):
        rng = np.random.default_rng(13)
        for phi in rng.uniform(0.0, TWO_PI, 200):
            out = boosted_azimuth(float(phi), 7.0)
            assert 0.0 <= out < TWO_PI

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError):
            boosted_azimuth(-0.1, 2.0)
        with pytest.raises(ValueError):
            boosted_azimuth(TWO_PI, 2.0)


class TestAzimuthJacobian:
    def test_identity_at_rest(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0.0, TWO_PI, 20):
            assert azimuth_jacobian(float(phi), 1.0) == 1.0

    def test_values(self):
        assert azimuth_jacobian(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)
        assert azimuth_jacobian(math.pi / 2, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(5)
        for gamma in (1.0, 3.0, 50.0):
            for phi in rng.uniform(0.0, TWO_PI, 50):
                assert azimuth_jacobian(float(phi), gamma) > 0.0

    def test_total_angle_conserved(self):
        # trapezoid integral of the Jacobian over one period equals 2*pi
        n = 20000
        phi = np.linspace(0.0, TWO_PI, n + 1)
        for gamma in (1.0, 2.0, 5.0, 10.0, 20.0):
            vals = np.array([azimuth_jacobian(float(p), gamma) for p in phi])
            total = (TWO_PI / n) * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
            assert total == pytest.approx(TWO_PI, abs=1e-9)


def _invert_boosted_azimuth(phi_prime, gamma):
    lo, hi = 0.0, TWO_PI - 1e-15
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if boosted_azimuth(mid, gamma) < phi_prime:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_jacobian_matches_inverse_derivative():
    rng = np.random.default_rng(17)
    h = 1e-6
    for gamma in (1.0, 2.0, 5.0, 10.0):
        for phi_prime in rng.uniform(0.05, TWO_PI - 0.05, 25):
            fd = (
                _invert_boosted_azimuth(phi_prime + h, gamma)
                - _invert_boosted_azimuth(phi_prime - h, gamma)
            ) / (2.0 * h)
            assert fd == pytest.approx(azimuth_jacobian(float(phi_prime), gamma), abs=1e-6)


def test_require_gamma_guard():
    assert require_gamma(1) == 1.0
    with pytest.raises(ValueError, match="1e\\+06|1000000"):
        require_gamma(2e6)


@pytest.mark.parametrize(("gamma", "shown"), [(True, "True"), (False, "False"), ("5", "'5'"), ("inf", "'inf'")])
def test_require_gamma_rejects_a_bool_or_a_text(gamma, shown):
    # float() would read True as 1.0 and "5" as 5.0
    with pytest.raises(ValueError, match=f"^gamma must be a number, got {shown}$"):
        require_gamma(gamma)


# Every float input of the library, each through relativity._number: (call of one value, the value's name).
_FLOAT_SITES = {
    "require_gamma": (require_gamma, "gamma"),
    "NoiseModel.pair_rate": (lambda v: NoiseModel(pair_rate=v), "pair_rate"),
    "NoiseModel.accidental_rate": (lambda v: NoiseModel(accidental_rate=v), "accidental_rate"),
    "NoiseModel.integration": (lambda v: NoiseModel(integration=v), "integration"),
    "check_gamma_bounds.lo": (lambda v: check_gamma_bounds((v, 50.0)), "gamma bound"),
    "check_gamma_bounds.hi": (lambda v: check_gamma_bounds((1.0, v)), "gamma bound"),
    "generate_hologram.extent": (lambda v: generate_hologram(1, 2.0, 4, 4, extent=v), "extent"),
    "joint_probability_spdc_oracle.radial_cutoff": (
        lambda v: joint_probability_spdc_oracle(0, 0, 2.0, radial_cutoff=v), "radial_cutoff"
    ),
    "frame_from_beta": (frame_from_beta, "beta"),
    "boosted_azimuth.phi": (lambda v: boosted_azimuth(v, 2.0), "phi"),
    "azimuth_jacobian.phi_prime": (lambda v: azimuth_jacobian(v, 2.0), "phi_prime"),
}


@pytest.mark.parametrize("site", _FLOAT_SITES)
@pytest.mark.parametrize("value", [True, False, "6", b"6", np.True_], ids=["True", "False", "str", "bytes", "np.True_"])
def test_every_float_input_rejects_a_bool_or_a_text(site, value):
    # float() would read True as 1.0 and "6" or b"6" as 6.0; check_gamma_bounds((True, "50")) returned (1.0, 50.0)
    call, name = _FLOAT_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [3, np.int64(3), np.float32(3.0), np.float64(3.0), Fraction(3), Decimal(3)])
def test_every_kind_of_number_is_a_number(value):
    assert require_gamma(value) == 3.0
