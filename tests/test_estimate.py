import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oamboost import cli, estimate
from oamboost.estimate import (
    GRID_POINTS,
    FitResult,
    batch_csv,
    estimate_gamma_fit,
    estimate_gamma_msum,
    gamma_from_m,
)
from oamboost.simulate import NoiseModel, counts_conditional, simulate_counts
from oamboost.spectrum import (
    ConditionalSlice,
    OamWindow,
    _sum_index,
    conditional_slice,
    geometric_kernel,
    measurement_sum,
)

GAMMA_TOL = 1e-6  # how far a fit may sit from its reference minimiser; the former golden-section stopping width


class TestGammaFromM:
    def test_anchors(self):
        assert gamma_from_m(1.0) == 1.0
        assert gamma_from_m(1.25) == pytest.approx(2.0, rel=1e-15)
        assert gamma_from_m(10.025) == pytest.approx(20.0, rel=1e-15)

    def test_inverts_measurement_sum(self):
        for gamma in np.geomspace(1.0, 100.0, 150):
            assert gamma_from_m(measurement_sum(float(gamma))) == pytest.approx(
                float(gamma), rel=1e-10
            )

    @pytest.mark.parametrize("bad", [0.99, 0.0, -2.0, math.nan])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            gamma_from_m(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(1.0, 1.0 + 1e-6), st.floats(1.0, 1e6)))
    @example(1.0 + 1e-8)  # m rounds to 1 near gamma = 1, the worst cancellation (about 1.7e-8)
    @example(1e6)
    def test_gamma_round_trips_through_m(self, gamma):
        assert abs(gamma_from_m(measurement_sum(gamma)) - gamma) <= 1e-7 * gamma

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(1.0, 1.0 + 1e-9), st.floats(1.0, 4.9e5)))
    @example(1.0)
    def test_m_round_trips_through_gamma(self, m):
        assert abs(measurement_sum(gamma_from_m(m)) - m) <= 2 * math.ulp(m)


def even_sum_slice(m):
    # peak 1 at l_b = 0 and the rest of the even-sum m split over l_b = +-2
    side = (m - 1.0) / 2.0
    return ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=[side, 0.0, 1.0, 0.0, side])


class TestRapidityAndVelocity:
    """The rapidity eta and speed ratio beta that a fit reports with its gamma."""

    def test_rest(self):
        result = estimate_gamma_msum(even_sum_slice(1.0))
        assert (result.gamma_meas, result.eta, result.beta) == (1.0, 0.0, 0.0)

    def test_gamma_twenty(self):
        result = estimate_gamma_msum(even_sum_slice(10.025))
        assert result.eta == pytest.approx(3.6882538673612966, rel=1e-12)
        assert result.beta == pytest.approx(0.998749217771909, rel=1e-12)

    def test_gamma_two(self):
        result = estimate_gamma_msum(even_sum_slice(1.25))
        assert result.gamma_meas == 2.0
        assert result.eta == pytest.approx(1.3169578969248166, rel=1e-12)
        assert result.beta == pytest.approx(0.8660254037844386, rel=1e-12)

    def test_domain_error(self):
        # eta and beta exist only for gamma >= 1, so a fit may not search below it
        with pytest.raises(ValueError, match="0.5"):
            estimate_gamma_fit(even_sum_slice(1.25), (0.5, 50.0))


class TestMsumEstimator:
    def test_noiseless_round_trip(self):
        for gamma in (1.0, 1.5, 2.0, 5.0, 10.0):
            for l_a in (-2, 0, 3):
                cond = conditional_slice(l_a, OamWindow.symmetric(200), gamma)
                result = estimate_gamma_msum(cond)
                assert result.gamma_meas == pytest.approx(gamma, abs=1e-6)
                assert result.method == "m_sum"
                assert result.residual == 0.0

    def test_rest_frame_delta(self):
        result = estimate_gamma_msum(conditional_slice(0, OamWindow.symmetric(20), 1.0))
        assert result.gamma_meas == 1.0
        assert result.eta == 0.0
        assert result.beta == 0.0

    def test_truncation_underestimates(self):
        cond = conditional_slice(0, OamWindow.symmetric(20), 20.0)
        result = estimate_gamma_msum(cond)
        assert result.gamma_meas < 20.0
        # deficit must equal the truncated-series prediction
        q = 19.0 / 21.0
        m_trunc = sum(q ** abs(s) for s in range(-20, 21) if s % 2 == 0)
        assert result.gamma_meas == pytest.approx(m_trunc + math.sqrt(m_trunc**2 - 1.0), rel=1e-12)

    def test_truncation_monotone_in_half_width(self):
        estimates = [
            estimate_gamma_msum(conditional_slice(0, OamWindow.symmetric(h), 12.0)).gamma_meas
            for h in range(2, 120, 6)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_peak_missing(self):
        cond = conditional_slice(0, OamWindow(5, 15), 3.0)
        with pytest.raises(ValueError, match="peak"):
            estimate_gamma_msum(cond)

    def test_below_floor_raises(self):
        # an even-sum below the physical floor 1 has no gamma: it raises, where it used to warn and return 1.0
        values = np.array([0.0, 0.0, 1.0, 0.0, -0.6])
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^measurement sum must be >= 1, got 0\.4; values below 1 indicate"):
                estimate_gamma_msum(cond)

    def test_gamma_above_gamma_max_raises(self):
        # an even-sum of 1e7 inverts to gamma ~ 2e7, beyond GAMMA_MAX
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(0, 2), values=[1.0, 0.0, 1e7])
        with pytest.raises(ValueError, match="gamma must be <= 1e\\+06"):
            estimate_gamma_msum(cond)

    def test_zero_peak(self):
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=np.zeros(5))
        with pytest.raises(ValueError, match="peak"):
            estimate_gamma_msum(cond)


class TestLeastSquaresEstimator:
    def test_noiseless_gamma_three(self):
        cond = conditional_slice(0, OamWindow.symmetric(40), 3.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        assert result.gamma_meas == pytest.approx(3.0, abs=1e-4)
        assert result.method == "least_squares"
        assert result.residual < 1e-10

    def test_boundary_minimum_at_rest(self):
        cond = conditional_slice(0, OamWindow.symmetric(20), 1.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        assert result.gamma_meas == pytest.approx(1.0, abs=1e-4)

    def test_recovers_truncated_large_gamma(self):
        # unlike the even-sum route, the fit is exact on truncated noiseless data
        cond = conditional_slice(0, OamWindow.symmetric(20), 20.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        assert result.gamma_meas == pytest.approx(20.0, abs=1e-4)

    def test_method_agreement_noiseless(self):
        for gamma in (1.0, 2.0, 5.0, 10.0):
            cond = conditional_slice(0, OamWindow.symmetric(200), gamma)
            m = estimate_gamma_msum(cond).gamma_meas
            f = estimate_gamma_fit(cond).gamma_meas
            assert abs(m - f) < 1e-4

    def test_nonzero_l_a(self):
        cond = conditional_slice(-3, OamWindow.symmetric(60), 7.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        assert result.gamma_meas == pytest.approx(7.0, abs=1e-4)
        assert result.l_a == -3

    def test_invalid_bounds(self):
        cond = conditional_slice(0, OamWindow.symmetric(10), 2.0)
        for bounds in ((0.5, 50.0), (2.0, 2.0), (5.0, 1.0), (1.0, math.inf), (1.0, 1e9), (math.nan, 2.0)):
            with pytest.raises(ValueError):
                estimate_gamma_fit(cond, bounds)

    def test_all_zero_slice(self):
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-5, 5), values=np.zeros(11))
        with pytest.raises(ValueError):
            estimate_gamma_fit(cond)

    def test_noisy_recovery(self):
        model = NoiseModel(pair_rate=1.0e4, accidental_rate=5.0)
        windows = (OamWindow(0, 0), OamWindow.symmetric(40))
        hits = 0
        for seed in range(20):
            counts = simulate_counts(10.0, windows, model, seed)
            cond = counts_conditional(counts, 0, "both")
            result = estimate_gamma_fit(cond, (1.0, 50.0))
            if abs(result.gamma_meas - 10.0) / 10.0 < 0.05:
                hits += 1
        assert hits >= 18


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def scalar_grid_fit(conditional, gamma_bounds):
    """The least-squares fit as written before the shared kernel and the batched search: one
    objective call per grid point, then one scalar golden-section search."""
    lo, hi = gamma_bounds
    norm = conditional.values / conditional.values[conditional.window_b.index_of(-conditional.l_a)]
    sums = conditional.l_a + conditional.window_b.indices()
    even = (sums % 2) == 0
    abs_s = np.abs(sums).astype(float)

    def objective(gamma):
        q = (gamma - 1.0) / (gamma + 1.0)
        resid = norm - np.where(even, q**abs_s, 0.0)
        return float(resid @ resid)

    grid = np.geomspace(lo, hi, GRID_POINTS)
    best = int(np.argmin([objective(float(g)) for g in grid]))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, GRID_POINTS - 1)])
    gamma = _golden_section(objective, a, b, GAMMA_TOL)
    return gamma, objective(gamma)


@st.composite
def noisy_slices(draw, length=None, l_a=None, below=None):
    l_a = draw(st.integers(-20, 20)) if l_a is None else l_a
    if length is None:
        below, above = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    else:
        below = draw(st.integers(0, length - 1)) if below is None else below
        above = length - 1 - below
    window = OamWindow(-l_a - below, -l_a + above)
    gamma = draw(st.floats(1.0, 60.0))
    # flat slices and slices with only odd cells beside the peak make the coarse grid tie
    shape = draw(st.sampled_from(["noisy", "flat", "counts"]))
    if shape == "flat":
        values = np.full(len(window), draw(st.floats(0.1, 10.0)))
    else:
        model = conditional_slice(l_a, window, gamma).values
        noise = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=len(window), max_size=len(window))))
        values = np.maximum(model + noise, 0.0)
        if shape == "counts":
            values = np.round(values * draw(st.integers(1, 50)))
        values[window.index_of(-l_a)] = draw(st.floats(0.5, 2.0))
    return ConditionalSlice(l_a=l_a, window_b=window, values=values)


def assert_no_worse_than_reference(gamma, residual, at_bound, conditional, bounds):
    """The fit against scalar_grid_fit: within GAMMA_TOL of it or no worse in residual, and exactly on a bound if flagged."""
    ref_gamma, ref_residual = scalar_grid_fit(conditional, bounds)
    assert abs(gamma - ref_gamma) <= GAMMA_TOL or residual <= ref_residual * (1.0 + 1e-12), (gamma, ref_gamma)
    assert not at_bound or gamma in bounds


class TestCoarseGrid:
    @settings(max_examples=150, deadline=None)
    @given(cond=noisy_slices(), bounds=st.sampled_from([(1.0, 50.0), (1.0, 60.0), (1.5, 8.0), (1.0, 1e6)]))
    # a constant objective: every grid point ties, and the fit is the lower bound
    @example(cond=ConditionalSlice(l_a=0, window_b=OamWindow(0, 0), values=[3.0]), bounds=(1.0, 50.0))
    @example(cond=ConditionalSlice(l_a=2, window_b=OamWindow(-3, -1), values=[0.4, 1.0, 7.0]), bounds=(1.0, 50.0))
    def test_no_worse_than_the_golden_section_fit(self, cond, bounds):
        result = estimate_gamma_fit(cond, bounds)
        assert_no_worse_than_reference(result.gamma_meas, result.residual, result.at_bound, cond, bounds)


@st.composite
def run_arrays(draw):
    """(values, l_a, window): 1-12 runs of one slice setup, as the rows of one array."""
    length = draw(st.integers(1, 121))
    l_a, below = draw(st.integers(-20, 20)), draw(st.integers(0, length - 1))
    conds = draw(st.lists(noisy_slices(length, l_a, below), min_size=1, max_size=12))
    return np.array([cond.values for cond in conds]), l_a, conds[0].window_b


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def noiseless_rows(l_a, window, gammas):
    """(values, l_a, window): one noiseless slice per gamma at one l_a over one window, as rows."""
    return np.array([conditional_slice(l_a, window, g).values for g in gammas]), l_a, window


def msum_rows(values, l_a, window):
    """m_sum's gamma for each row of slice values at one l_a over one window, as the experiment finds them."""
    return estimate._msum_gammas(estimate._peak_normalised(values, l_a, window), l_a, window)


def fit_rows(values, l_a, window, bounds):
    """_fit's (gamma, residual, at_bound) bits for rows of slice values at one l_a over one window."""
    norm = estimate._peak_normalised(values, l_a, window)
    return [bits(column) for column in estimate._fit(norm, l_a + window.indices(), *bounds)]


BOUNDS = st.sampled_from([(1.0, 50.0), (1.0, 60.0), (1.5, 8.0), (1.0, 1e6)])


def flat_start_rows(window, peak, far):
    """(values, l_a, window): one row at l_a = 0 with its peak, the value far at l_b = 4 and 0 elsewhere.

    At gamma = 1 (p = 0) the objective's slope -2*Y_1 is 0, as the |s| = 2 cells are, and it moves as
    (n_1 - 2*Y_2)*p**2: it falls where Y_2 = far/peak exceeds n_1/2 = 1.
    """
    values = np.zeros((1, len(window)))
    values[0, [window.index_of(0), window.index_of(4)]] = peak, far
    return values, 0, window


class TestBatchedFit:
    """_fit on the rows of one l_a and window: one coarse grid on the totals and one Newton iteration for every row."""

    @settings(max_examples=100, deadline=None)
    @given(runs=run_arrays(), bounds=BOUNDS)
    @example(runs=noiseless_rows(3, OamWindow(-103, 97), [5.0]), bounds=(1.0, 50.0))
    # rows that converge after different numbers of steps, and one on the lower bound
    @example(runs=noiseless_rows(7, OamWindow(-27, 13), [1.0, 2.0, 45.0]), bounds=(1.0, 50.0))
    # a zero slope at gamma = 1 on a falling objective, which used to return the bound
    @example(runs=flat_start_rows(OamWindow(-98, 15), 1.0, 1.00001), bounds=(1.0, 1e6))
    def test_each_row_no_worse_than_the_golden_section_fit(self, runs, bounds):
        values, l_a, window = runs
        norm = estimate._peak_normalised(values, l_a, window)
        for row, fit in zip(values, zip(*estimate._fit(norm, l_a + window.indices(), *bounds))):
            assert_no_worse_than_reference(*fit, ConditionalSlice(l_a=l_a, window_b=window, values=row), bounds)

    @pytest.mark.parametrize("bounds", [(1.0, 1e6), (1.0, 50.0)])
    def test_a_zero_slope_at_gamma_1_leaves_the_bound_where_the_objective_falls(self, bounds):
        values, l_a, window = flat_start_rows(OamWindow(-4, 4), 1.0, 1.00001)
        result = estimate_gamma_fit(ConditionalSlice(l_a=l_a, window_b=window, values=values[0]), bounds)
        # a dense scan puts the minimum at 1.0992, residual 1.00002000005; gamma = 1 has 1.0000200001
        assert result.at_bound is False and result.gamma_meas == pytest.approx(1.0992, abs=1e-3)
        assert result.residual < 1.0000200001

    @pytest.mark.parametrize("far, flagged", [(0.99999, True), (1.0, True), (1.00001, False)])
    def test_a_zero_slope_at_gamma_1_flags_the_bound_unless_the_objective_falls(self, far, flagged):
        # f(p) - f(0) = (2 - 2*far)*p**2 + 2*p**4: the bound holds unless far > 1
        values, l_a, window = flat_start_rows(OamWindow(-4, 4), 1.0, far)
        fit, _, at_bound = estimate._fit(estimate._peak_normalised(values, l_a, window), window.indices(), 1.0, 1e6)
        assert at_bound.tolist() == [flagged] and (fit[0] == 1.0) == flagged

    @pytest.mark.parametrize("l_a", [0, 3, -2])
    def test_one_coarse_kernel_and_one_sum_index_per_fit(self, monkeypatch, l_a):
        runs = noiseless_rows(l_a, OamWindow(-l_a - 40, -l_a + 40), np.linspace(1.0, 30.0, 100))
        shapes, indexes, kernel_indexes = [], [], set()

        def kernel_spy(s, gamma):
            kernel_indexes.add(id(s.exponents))  # every call shares the fit's one exponent index
            shapes.append(np.shape(gamma))
            return geometric_kernel(s, gamma)

        def index_spy(s):
            indexes.append(s.tolist())
            return _sum_index(s)

        monkeypatch.setattr(estimate, "geometric_kernel", kernel_spy)
        monkeypatch.setattr(estimate, "_sum_index", index_spy)
        fits = fit_rows(*runs, (1.0, 50.0))
        # the coarse grid, each bound's slope test, then the residuals at the fitted gammas
        assert shapes == [(GRID_POINTS, 1), (), (), (100, 1)]
        assert indexes == [list(range(-40, 41))] and len(kernel_indexes) == 1
        monkeypatch.undo()
        assert fits == fit_rows(*runs, (1.0, 50.0))

    def test_rows_leave_the_iteration_as_they_converge(self, monkeypatch):
        # gamma = 1 stops at its bound before the first step; 1.01 and 49.9 start from a grid end's bracket midpoint
        runs = noiseless_rows(-2, OamWindow(-18, 22), (45.0, 1.0, 2.0, 1.01, 49.9))
        sizes = []
        row_dots = estimate._row_dots

        def spy(a, b):
            sizes.append(a.shape)
            return row_dots(a, b)

        monkeypatch.setattr(estimate, "_row_dots", spy)
        gammas, _, at_bound = estimate._fit(estimate._peak_normalised(*runs), -2 + runs[2].indices(), 1.0, 50.0)
        assert at_bound.tolist() == [False, True, False, False, False] and gammas[1] == 1.0
        # the slope tests at each bound (gamma 1 and 1.01, then 49.9), a slope and a curvature per step, the residuals
        bound_tests, steps, residuals = sizes[:2], [shape[0] for shape in sizes[2:-1:2]], sizes[-1]
        assert bound_tests == [(2, 11), (1, 11)] and residuals == (5, 41) and sizes[2:-1:2] == sizes[3:-1:2]
        assert steps[0] == 4 and steps == sorted(steps, reverse=True) and len(set(steps)) > 1 and len(steps) < 10
        assert np.abs(gammas - [45.0, 1.0, 2.0, 1.01, 49.9]).max() <= GAMMA_TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 2])
    def test_non_finite_cells_reject_the_rows(self, monkeypatch, bad, position):
        # a NaN residual fails every comparison, so the search would drift right to a plausible gamma
        values, l_a, window = noiseless_rows(1, OamWindow(-9, 7), (4.0, 2.0, 7.0))
        values[position, [3, 12]] = bad
        cond = ConditionalSlice(l_a=l_a, window_b=window, values=values[position])
        message = rf"value at l_b = -6 in window \[-9, 7\] must be finite, got {bad}"
        monkeypatch.setattr(estimate, "geometric_kernel", None)
        with pytest.raises(ValueError, match=message):
            msum_rows(values, l_a, window)
        for estimator in (estimate_gamma_fit, estimate_gamma_msum):
            with pytest.raises(ValueError, match=message):
                estimator(cond)

    def test_squares_that_overflow_are_not_non_finite(self):
        values = conditional_slice(0, OamWindow.symmetric(8), 4.0).values.copy()
        values[3] = -1e200
        cond = ConditionalSlice(l_a=0, window_b=OamWindow.symmetric(8), values=values)
        with np.errstate(over="ignore"):  # the sum of squares overflows to inf
            assert estimate._peak_normalised(cond.values[None], 0, cond.window_b)[0].tobytes() == values.tobytes()

    def test_a_quotient_that_overflows_names_the_window_and_the_peak(self):
        # a finite slice that overflows when divided by its peak: no numpy warning, and no blame on over-subtraction
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(0, 2), values=[0.5, 0.0, 1e308])
        message = r"^conditional slice in window \[0, 2\] overflows when divided by its peak 0\.5$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for estimator in (estimate_gamma_msum, estimate_gamma_fit):
                with pytest.raises(ValueError, match=message):
                    estimator(cond)
            # the first bad row decides: an overflow before a zero peak, a zero peak before an overflow
            rows = np.array([[1.0, 0.0, 1.0], [0.5, 0.0, 1e308], [0.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match=message):
                estimate._peak_normalised(rows, 0, cond.window_b)
            with pytest.raises(ValueError, match=r"peak at l_b = 0 in window \[0, 2\] must be positive, got 0\.0$"):
                estimate._peak_normalised(rows[[0, 2, 1]], 0, cond.window_b)

    def test_row_of_one_is_the_single_fit(self):
        cond = conditional_slice(-2, OamWindow.symmetric(30), 6.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        norm = estimate._peak_normalised(cond.values[None], -2, cond.window_b)
        fit, residual, at_bound = estimate._fit(norm, -2 + cond.window_b.indices(), 1.0, 50.0)
        assert bits([result.gamma_meas, result.residual]) == bits([fit[0], residual[0]])
        assert result.at_bound is bool(at_bound[0]) is False

    @pytest.mark.parametrize("bounds", [(0.5, 50.0), (2.0, 2.0), (1.0, math.inf), (1.0, math.nan), (5.0, 1.0)])
    def test_argument_errors_come_before_any_kernel_work(self, monkeypatch, capsys, tmp_path, bounds):
        values, l_a, window = noiseless_rows(0, OamWindow.symmetric(5), (2.0, 3.0))

        def no_kernel(*args):
            raise AssertionError("the kernel ran before the arguments were checked")

        for module, name in ((estimate, "geometric_kernel"), (cli, "geometric_kernel"), (cli, "_count_runs")):
            monkeypatch.setattr(module, name, no_kernel)
        # the experiment's path checks its bounds before it draws, normalises or fits a row
        for argv in (["--noiseless"], []):
            flags = ["--gamma-min", str(bounds[0]), "--gamma-max", str(bounds[1]), "--out", str(tmp_path / "out")]
            assert cli.main(["experiment", "--gamma", "2,3", "--half-width", "5", *argv, *flags]) == 2
            assert "gamma bounds" in capsys.readouterr().err
        with pytest.raises(ValueError, match="gamma bounds"):
            estimate_gamma_fit(ConditionalSlice(l_a=l_a, window_b=window, values=values[0]), bounds)

    @pytest.mark.parametrize(
        ("l_a", "window", "bad", "message"),
        [
            (0, OamWindow(5, 15), None, r"window \[5, 15\] does not contain the spectrum peak at l_b = 0"),
            (2, OamWindow(-7, 3), 0.0, r"peak at l_b = -2 in window \[-7, 3\] must be positive, got 0\.0"),
            (-1, OamWindow(-4, 6), np.nan, r"peak at l_b = 1 in window \[-4, 6\] must be positive, got nan"),
        ],
    )
    @pytest.mark.parametrize("position", [0, 2])
    def test_bad_peak_names_its_window(self, monkeypatch, l_a, window, bad, message, position):
        values = noiseless_rows(l_a, window, (3.0, 2.0, 5.0))[0]
        if bad is not None:
            values[position] = bad
        monkeypatch.setattr(estimate, "geometric_kernel", None)
        with pytest.raises(ValueError, match=message):
            msum_rows(values, l_a, window)
        with pytest.raises(ValueError, match=message):
            estimate_gamma_fit(ConditionalSlice(l_a=l_a, window_b=window, values=values[position]))


def row_loop_grid(norm, kernel):
    """The coarse grid's cell-based objective: one batched dot of every grid point's residuals a row."""
    rows = []
    for row in norm:
        resid = row - kernel
        rows.append((resid[:, None, :] @ resid[:, :, None]).ravel())
    return np.array(rows)


class TestTotalsGrid:
    """_fit's coarse grid, evaluated on each row's per-|s| totals, against the objective summed over the cells."""

    # one row, a few, and the experiment's 500, of counts at random gammas
    @pytest.mark.parametrize("rows", [1, 9, 500])
    @settings(max_examples=15, deadline=None)
    @given(
        window=st.integers(1, 60).flatmap(lambda w: st.tuples(st.integers(-w, w), st.just(OamWindow.symmetric(w)))),
        bounds=st.floats(1.0, 49.0).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo + 0.01, 50.0))),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(window=(0, OamWindow.symmetric(40)), bounds=(1.0, 50.0), seed=77)
    def test_each_row_fits_in_the_cell_objectives_grid_bracket(self, rows, window, bounds, seed):
        l_a, window = window
        rng = np.random.default_rng(seed)
        means = [1e3 * conditional_slice(l_a, window, g).values + 5.0 for g in rng.uniform(1.0, 60.0, rows)]
        values = rng.poisson(means).astype(float)
        values[:, window.index_of(-l_a)] += 1.0
        norm = estimate._peak_normalised(values, l_a, window)
        sums = l_a + window.indices()
        powers = []

        def kernel_spy(s, gamma):
            result = geometric_kernel(s, gamma)
            if np.shape(gamma) == (GRID_POINTS, 1):  # the coarse grid's p**k, one row per grid point
                powers.append(result)
            return result

        with mock.patch.object(estimate, "geometric_kernel", kernel_spy):
            fit, _, at_bound = estimate._fit(norm, sums, *bounds)
        grid = np.geomspace(*bounds, GRID_POINTS)
        best = np.argmin(row_loop_grid(norm, geometric_kernel(sums, grid[:, None])), axis=1)
        # the totals' objective, less sum(y**2), picks the cells' grid point
        totals = np.array([[row[np.abs(sums) == 2 * k].sum() for k in range(powers[0].shape[1])] for row in norm])
        counts = [np.count_nonzero(np.abs(sums) == 2 * k) for k in range(powers[0].shape[1])]
        assert np.argmin(powers[0] ** 2 @ counts - 2.0 * totals @ powers[0].T, axis=1).tolist() == best.tolist()
        # and the fit stays in that point's bracket, on the bound where it is flagged
        low, high = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, GRID_POINTS - 1)]
        assert (low * (1.0 - 1e-12) <= fit).all() and (fit <= high * (1.0 + 1e-12)).all()
        assert np.isin(fit[at_bound], bounds).all() and np.isin(best[at_bound], [0, GRID_POINTS - 1]).all()


class TestTotals:
    """_totals, the per-|s| reduction that _fit starts from, against TestTotalsGrid's per-cell reference."""

    # one row, a few, and the experiment's 500, of peak-normalised counts at random gammas; a window holds at most
    # two cells at each |s|, so the reference's sum of them adds in bincount's order
    @pytest.mark.parametrize("rows", [1, 9, 500])
    @settings(max_examples=15, deadline=None)
    @given(
        l_a=st.integers(-20, 20), below=st.integers(0, 80), above=st.integers(0, 80), seed=st.integers(0, 2**32 - 1)
    )
    @example(l_a=0, below=40, above=40, seed=77)
    @example(l_a=5, below=0, above=0, seed=1)  # one cell: only |s| = 0
    @example(l_a=-3, below=0, above=9, seed=2)  # the cells at |s| = 2k lie on one side of the peak
    def test_same_bits_as_the_per_cell_sums(self, rows, l_a, below, above, seed):
        window = OamWindow(-l_a - below, -l_a + above)
        rng = np.random.default_rng(seed)
        means = [1e3 * conditional_slice(l_a, window, g).values + 5.0 for g in rng.uniform(1.0, 60.0, rows)]
        values = rng.poisson(means).astype(float)
        values[:, window.index_of(-l_a)] += 1.0
        norm = estimate._peak_normalised(values, l_a, window)
        sums = l_a + window.indices()
        index, counts, totals = estimate._totals(norm, sums)
        reference = _sum_index(sums)
        assert index.exponents.tolist() == reference.exponents.tolist() == [*range(0, 2 * len(counts), 2), 0]
        assert index.slots.tolist() == reference.slots.tolist()
        assert counts.tolist() == [np.count_nonzero(np.abs(sums) == 2 * k) for k in range(len(counts))]
        assert bits(totals) == bits([[row[np.abs(sums) == 2 * k].sum() for k in range(len(counts))] for row in norm])
        # each row's totals have the same bits alone as stacked with the others
        alone = np.concatenate([estimate._totals(norm[r : r + 1], sums)[2] for r in range(rows)])
        assert bits(alone) == bits(totals)


@st.composite
def stacked_groups(draw):
    """(l_a, window, groups): 1-8 arrays of 1-120 noisy rows each, every array drawn at its own gamma."""
    half_width = draw(st.integers(1, 60))
    l_a, window = draw(st.integers(-half_width, half_width)), OamWindow.symmetric(half_width)
    sizes = draw(st.lists(st.integers(1, 120), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = []
    for size in sizes:
        means = 1e3 * conditional_slice(l_a, window, rng.uniform(1.0, 60.0)).values + 5.0
        values = rng.poisson(means, (size, len(window))).astype(float)
        values[:, window.index_of(-l_a)] += 1.0
        groups.append(values)
    return l_a, window, groups


def noiseless_groups(l_a, window, gammas_by_group):
    """(l_a, window, groups): one array of noiseless rows per list of gammas."""
    return l_a, window, [noiseless_rows(l_a, window, gammas)[0] for gammas in gammas_by_group]


class TestStackedSearch:
    """_fit on the stacked rows of several arrays, as experiment runs it over all its gammas, against one _fit each."""

    @settings(max_examples=30, deadline=None)
    @given(
        runs=stacked_groups(),
        bounds=st.just((1.0, 50.0))
        | st.floats(1.0, 49.0).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo + 0.01, 50.0))),
    )
    # brackets that close after different numbers of steps, in the same group and across groups
    @example(runs=noiseless_groups(-2, OamWindow(-18, 22), [(45.0, 1.0), (2.0, 45.0)]), bounds=(1.0, 50.0))
    # the experiment's noiseless defaults: 100 runs at each of 5 gammas over +-40
    @example(
        runs=noiseless_groups(0, OamWindow.symmetric(40), [[g] * 100 for g in (1.0, 2.0, 5.0, 10.0, 20.0)]),
        bounds=(1.0, 50.0),
    )
    def test_stacked_fit_is_each_group_fit(self, runs, bounds):
        l_a, window, groups = runs
        norms = [estimate._peak_normalised(values, l_a, window) for values in groups]
        sums = l_a + window.indices()
        stacked = estimate._fit(np.concatenate(norms), sums, *bounds)
        each = [estimate._fit(norm, sums, *bounds) for norm in norms]
        for column, columns in zip(stacked, zip(*each)):  # gammas, residuals, then at_bound
            assert bits(column) == bits(np.concatenate(columns))


class TestArrayPath:
    """_peak_normalised, then _msum_gammas and _fit on its rows, the experiment's path: one array per gamma."""

    @settings(max_examples=100, deadline=None)
    @given(runs=run_arrays(), bounds=BOUNDS)
    @example(
        runs=(np.array([conditional_slice(0, OamWindow.symmetric(40), 5.0).values] * 3), 0, OamWindow.symmetric(40)),
        bounds=(1.0, 50.0),
    )
    def test_columns_are_the_slice_estimates(self, runs, bounds):
        values, l_a, window = runs
        conds = [ConditionalSlice(l_a=l_a, window_b=window, values=row) for row in values]
        norm = estimate._peak_normalised(values, l_a, window)
        try:
            m_sum = estimate._msum_gammas(norm, l_a, window)
        except ValueError as exc:  # both paths raise alike, at the first faulty row
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                [estimate_gamma_msum(cond) for cond in conds]
        else:
            assert bits(m_sum) == bits([estimate_gamma_msum(cond).gamma_meas for cond in conds])
        fit, residual, at_bound = estimate._fit(norm, l_a + window.indices(), *bounds)
        fits = [estimate_gamma_fit(cond, bounds) for cond in conds]
        assert bits(fit) == bits([r.gamma_meas for r in fits])
        assert bits(residual) == bits([r.residual for r in fits])
        assert at_bound.tolist() == [r.at_bound for r in fits]

    @pytest.mark.parametrize("position", [0, 2])
    def test_first_bad_row_names_its_fault(self, position):
        # row `position` has a NaN cell and a later row a zero peak: the first bad row decides, as slice by slice
        window = OamWindow.symmetric(6)
        values = np.array([conditional_slice(0, window, g).values for g in (2.0, 3.0, 4.0, 5.0)])
        values[position, 4] = np.nan
        values[3, 6] = 0.0
        with pytest.raises(ValueError, match=r"value at l_b = -2 in window \[-6, 6\] must be finite, got nan"):
            msum_rows(values, 0, window)
        values[position, 4] = 1.0
        with pytest.raises(ValueError, match=r"peak at l_b = 0 in window \[-6, 6\] must be positive, got 0\.0"):
            msum_rows(values, 0, window)

    def test_m_sum_beyond_gamma_max_raises(self):
        # as estimate_gamma_msum does: an even-sum of 1e7 inverts to gamma ~ 2e7
        values = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1e7]])
        with pytest.raises(ValueError, match="gamma must be <= 1e\\+06"):
            msum_rows(values, 0, OamWindow(0, 2))

    def test_floor_faults_raise_at_the_first_row_in_row_order(self):
        # the first row below the floor raises, as when the rows' even-sums were inverted one at a time, and no
        # row warns: rows 0 and 2 fall below the floor, and row 1 inverts past GAMMA_MAX once it holds 1e7
        window = OamWindow.symmetric(2)  # even cells at l_b = -2, 0, 2
        values = np.array([[-0.5, 9.0, 1.0, 9.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0, -0.25]])
        below = "measurement sum must be >= 1, got {}; values below 1 indicate an over-subtracted spectrum"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(below.format(0.5))}$"):
                msum_rows(values, 0, window)
            assert msum_rows(values[1:2], 0, window).tolist() == [gamma_from_m(1.5)]
            with pytest.raises(ValueError, match=f"^{re.escape(below.format(0.75))}$"):
                msum_rows(values[1:], 0, window)
            with pytest.raises(ValueError, match=f"^{re.escape(below.format(0.75))}$"):
                estimate_gamma_msum(ConditionalSlice(l_a=0, window_b=window, values=values[2]))
            values[1, 4] = 1e7
            with pytest.raises(ValueError, match="gamma must be <= 1e\\+06"):
                msum_rows(values[1:], 0, window)

    @settings(max_examples=200, deadline=None)
    @given(l_a=st.integers(-20, 20), below=st.integers(0, 40), above=st.integers(0, 40), data=st.data())
    def test_rows_at_least_zero_with_a_positive_peak_never_reach_the_floor(self, l_a, below, above, data):
        # Every row the CLI builds (counts, a clamped subtraction, the exact kernel) is such a row: its peak
        # normalises to exactly 1.0 and the other even cells add >= 0, so only a slice with negative values raises.
        window = OamWindow(-l_a - below, -l_a + above)  # the peak l_b = -l_a is cell `below`
        values = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), len(window)), elements=st.floats(0, 1e6)))
        values[:, below] = data.draw(arrays(np.float64, len(values), elements=st.floats(1e-6, 1e6)))
        norm = estimate._peak_normalised(values, l_a, window)
        assert (norm[:, below] == 1.0).all()
        assert (norm.compress((l_a + window.indices()) % 2 == 0, axis=1).sum(axis=1) >= 1.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                estimate._msum_gammas(norm, l_a, window)
            except ValueError as exc:  # an even-sum whose gamma lies past GAMMA_MAX, not one below the floor
                assert str(exc).startswith("gamma must be <= 1e+06, got ")


class TestDenseScan:
    """The coarse grid, the bound tests and the Newton iteration find the global minimum on noiseless slices."""

    @settings(max_examples=200, deadline=None)
    @given(
        half_width=st.integers(5, 60),
        l_a=st.integers(-10, 10),
        bounds_gamma=st.sampled_from([(1.0, 50.0), (1.0, 60.0), (1.5, 8.0), (2.0, 3.0), (1.0, 1e6)]).flatmap(
            lambda b: st.tuples(st.just(b), st.floats(*b))
        ),
    )
    @example(half_width=40, l_a=0, bounds_gamma=((1.0, 50.0), 1.0))
    @example(half_width=5, l_a=0, bounds_gamma=((2.0, 3.0), 2.0))
    @example(half_width=5, l_a=0, bounds_gamma=((2.0, 3.0), 3.0))
    @example(half_width=60, l_a=3, bounds_gamma=((1.0, 50.0), 49.99999999999999))
    @example(half_width=60, l_a=3, bounds_gamma=((1.0, 1e6), 999999.9999999999))
    def test_fit_is_no_worse_than_a_dense_scan(self, half_width, l_a, bounds_gamma):
        bounds, gamma = bounds_gamma
        window = OamWindow(-l_a - half_width, -l_a + half_width)
        cond = conditional_slice(l_a, window, gamma)
        result = estimate_gamma_fit(cond, bounds)
        scan = np.geomspace(*bounds, 4096)
        resid = cond.values - geometric_kernel(l_a + window.indices(), scan[:, None])
        scan_residuals = (resid[:, None, :] @ resid[:, :, None]).ravel()
        best = int(np.argmin(scan_residuals))
        on_bound = best in (0, len(scan) - 1) and result.gamma_meas == scan[best] and result.at_bound
        assert result.residual <= scan_residuals[best] or on_bound


class TestNoiselessFit:
    """On noiseless slices the fit is gamma itself, or the bound that gamma lies beyond, exactly and flagged."""

    @settings(max_examples=200, deadline=None)
    @given(
        l_a=st.integers(-20, 20),
        below=st.integers(0, 60),
        above=st.integers(0, 60),
        gamma=st.floats(1.0, 50.0),
        bounds=st.sampled_from([(1.0, 50.0), (1.0, 1e6)])
        | st.floats(1.0, 49.0).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo + 0.01, 50.0))),
    )
    @example(l_a=0, below=40, above=40, gamma=50.0, bounds=(1.0, 50.0))
    @example(l_a=0, below=40, above=40, gamma=1.0, bounds=(1.0, 50.0))
    @example(l_a=1, below=3, above=3, gamma=1.0 + 1e-12, bounds=(1.0, 50.0))
    @example(l_a=0, below=0, above=1, gamma=7.0, bounds=(1.0, 50.0))  # no even |s| > 0: every gamma fits alike
    @example(l_a=0, below=20, above=20, gamma=5.0, bounds=(5.0, 9.0))
    # the first Newton step cancels to p = 0 exactly, where no step moves: these stopped at the step cap, 2.4e-6 off
    @example(l_a=0, below=0, above=2, gamma=1.0000000000000002, bounds=(1.0, 1e6))
    @example(l_a=0, below=0, above=2, gamma=1.0 + 1e-14, bounds=(1.0, 1e6))
    def test_fit_is_gamma_or_its_bound(self, l_a, below, above, gamma, bounds):
        window = OamWindow(-l_a - below, -l_a + above)
        result = estimate_gamma_fit(conditional_slice(l_a, window, gamma), bounds)
        lo, hi = bounds
        if not any((l_a + l_b) % 2 == 0 and l_a + l_b != 0 for l_b in range(window.l_min, window.l_max + 1)):
            assert (result.gamma_meas, result.at_bound) == (lo, True)
        elif lo < gamma < hi:
            assert abs(result.gamma_meas - gamma) <= GAMMA_TOL
        else:
            assert (result.gamma_meas, result.at_bound) == (min(max(gamma, lo), hi), True)

    def test_gamma_beyond_the_upper_bound_fits_the_bound(self):
        result = estimate_gamma_fit(conditional_slice(0, OamWindow.symmetric(40), 100.0), (1.0, 50.0))
        assert (result.gamma_meas, result.at_bound) == (50.0, True)
        assert result.to_dict()["at_bound"] is True


class TestFitResult:
    def test_internal_consistency(self):
        for gamma in (1.0, 1.7, 4.0, 33.0):
            cond = conditional_slice(0, OamWindow.symmetric(150), gamma)
            for result in (estimate_gamma_msum(cond), estimate_gamma_fit(cond, (1.0, 60.0))):
                assert math.cosh(result.eta) == pytest.approx(result.gamma_meas, rel=1e-10)
                assert 1.0 / math.sqrt(1.0 - result.beta**2) == pytest.approx(
                    result.gamma_meas, rel=1e-10
                )

    def test_to_dict(self):
        cond = conditional_slice(1, OamWindow.symmetric(30), 2.0)
        payload = estimate_gamma_msum(cond).to_dict()
        assert set(payload) == {"gamma_meas", "method", "residual", "eta", "beta", "window", "l_a"}
        assert payload["l_a"] == 1
        assert payload["window"] == [-30, 30]

    def test_batch_csv(self):
        result = FitResult(
            gamma_meas=2.0,
            method="m_sum",
            residual=0.0,
            eta=math.acosh(2.0),
            beta=math.sqrt(0.75),
            l_a=0,
            window=OamWindow(-5, 5),
        )
        text = b"".join(batch_csv([42], [2.0], [result.gamma_meas], [result.method], [result.residual]).blocks()).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "seed,gamma_encoded,gamma_meas,method,residual"
        assert lines[1] == "42,2,2,m_sum,0"
