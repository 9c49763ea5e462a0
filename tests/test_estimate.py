import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamboost import estimate
from oamboost.estimate import (
    GAMMA_TOL,
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
    _SumIndex,
    conditional_slice,
    geometric_kernel,
    measurement_sum,
)


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

    def test_below_floor_clamps_with_warning(self):
        values = np.array([0.0, 0.0, 1.0, 0.0, -0.6])
        cond = ConditionalSlice(l_a=0, window_b=OamWindow(-2, 2), values=values)
        with pytest.warns(RuntimeWarning, match="floor"):
            result = estimate_gamma_msum(cond)
        assert result.gamma_meas == 1.0
        assert result.residual == 0.0

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


class TestCoarseGrid:
    @settings(max_examples=150, deadline=None)
    @given(cond=noisy_slices(), bounds=st.sampled_from([(1.0, 50.0), (1.0, 60.0), (1.5, 8.0), (1.0, 1e6)]))
    @example(cond=ConditionalSlice(l_a=0, window_b=OamWindow(0, 0), values=[3.0]), bounds=(1.0, 50.0))
    @example(cond=ConditionalSlice(l_a=2, window_b=OamWindow(-3, -1), values=[0.4, 1.0, 7.0]), bounds=(1.0, 50.0))
    def test_broadcast_grid_matches_scalar_objective(self, cond, bounds):
        # same bracket, hence the same golden-section steps, bit for bit
        result = estimate_gamma_fit(cond, bounds)
        gamma, residual = scalar_grid_fit(cond, bounds)
        assert (result.gamma_meas, result.residual) == (gamma, residual)


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


def fit_rows(values, l_a, window, bounds):
    """_fit's (gamma, residual) bits for rows of slice values at one l_a over one window."""
    norm = estimate._peak_normalised(values, l_a, window)
    return [bits(column) for column in estimate._fit(norm, l_a + window.indices(), *bounds)]


def scalar_fit_rows(values, l_a, window, bounds):
    """scalar_grid_fit's (gamma, residual) bits for each row as a slice."""
    fits = [scalar_grid_fit(ConditionalSlice(l_a=l_a, window_b=window, values=row), bounds) for row in values]
    return [bits(column) for column in zip(*fits)]


BOUNDS = st.sampled_from([(1.0, 50.0), (1.0, 60.0), (1.5, 8.0), (1.0, 1e6)])


class TestBatchedFit:
    """_fit on the rows of one l_a and window: one coarse-grid model and one search for every row."""

    @settings(max_examples=100, deadline=None)
    @given(runs=run_arrays(), bounds=BOUNDS)
    @example(runs=noiseless_rows(3, OamWindow(-103, 97), [5.0]), bounds=(1.0, 50.0))
    # three brackets that close after different numbers of steps
    @example(runs=noiseless_rows(7, OamWindow(-27, 13), [1.0, 2.0, 45.0]), bounds=(1.0, 50.0))
    def test_matches_the_scalar_fit_on_each_row(self, runs, bounds):
        assert fit_rows(*runs, bounds) == scalar_fit_rows(*runs, bounds)

    @pytest.mark.parametrize("l_a", [0, 3, -2])
    def test_one_coarse_kernel_and_one_sum_index_per_fit(self, monkeypatch, l_a):
        runs = noiseless_rows(l_a, OamWindow(-l_a - 40, -l_a + 40), np.linspace(1.0, 30.0, 100))
        grids, indexes, search_indexes = [], [], set()

        def kernel_spy(s, gamma):
            if isinstance(s, _SumIndex):  # the search, with the fit's one exponent index
                search_indexes.add(id(s.exponents))
            else:  # the coarse grid, with the one sums row
                grids.append((s.tolist(), np.shape(gamma)))
            return geometric_kernel(s, gamma)

        def index_spy(s):
            indexes.append(s.tolist())
            return _sum_index(s)

        monkeypatch.setattr(estimate, "geometric_kernel", kernel_spy)
        monkeypatch.setattr(estimate, "_sum_index", index_spy)
        fits = fit_rows(*runs, (1.0, 50.0))
        sums = list(range(-40, 41))
        assert grids == [(sums, (GRID_POINTS, 1))]
        assert indexes == [sums] and len(search_indexes) == 1
        monkeypatch.undo()
        assert fits == scalar_fit_rows(*runs, (1.0, 50.0))

    def test_rows_leave_the_search_as_their_brackets_close(self, monkeypatch):
        # gamma = 1 brackets one step of the coarse grid at its end, the others two
        # steps of the geometric grid, which are wider at larger gamma
        runs = noiseless_rows(-2, OamWindow(-18, 22), (45.0, 1.0, 2.0, 45.0))
        batch_sizes = []

        def spy(s, gamma):
            batch_sizes.append(len(gamma))
            return geometric_kernel(s, gamma)

        monkeypatch.setattr(estimate, "geometric_kernel", spy)
        fits = fit_rows(*runs, (1.0, 50.0))
        assert batch_sizes[:2] == [GRID_POINTS, 4]
        search = batch_sizes[1:-1]
        assert search[:2] == [4, 4] and sorted(set(search)) == [2, 3, 4]
        assert search == sorted(search, reverse=True)
        assert fits == scalar_fit_rows(*runs, (1.0, 50.0))

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
            estimate._estimate_runs(values, l_a, window)
        for estimator in (estimate_gamma_fit, estimate_gamma_msum):
            with pytest.raises(ValueError, match=message):
                estimator(cond)

    def test_squares_that_overflow_are_not_non_finite(self):
        values = conditional_slice(0, OamWindow.symmetric(8), 4.0).values.copy()
        values[3] = -1e200
        cond = ConditionalSlice(l_a=0, window_b=OamWindow.symmetric(8), values=values)
        with np.errstate(over="ignore"):  # the sum of squares overflows to inf
            assert estimate._peak_normalised(cond.values[None], 0, cond.window_b)[0].tobytes() == values.tobytes()

    def test_row_of_one_is_the_single_fit(self):
        cond = conditional_slice(-2, OamWindow.symmetric(30), 6.0)
        result = estimate_gamma_fit(cond, (1.0, 50.0))
        _, fit, residual = estimate._estimate_runs(cond.values[None], -2, cond.window_b, (1.0, 50.0))
        assert bits([result.gamma_meas, result.residual]) == bits([fit[0], residual[0]])

    @pytest.mark.parametrize("bounds", [(0.5, 50.0), (2.0, 2.0), (1.0, math.inf), (1.0, math.nan), (5.0, 1.0)])
    def test_argument_errors_come_before_any_kernel_work(self, monkeypatch, bounds):
        values, l_a, window = noiseless_rows(0, OamWindow.symmetric(5), (2.0, 3.0))

        def no_kernel(s, gamma):
            raise AssertionError("the kernel ran before the arguments were checked")

        monkeypatch.setattr(estimate, "geometric_kernel", no_kernel)
        with pytest.raises(ValueError, match="gamma bounds"):
            estimate._estimate_runs(values, l_a, window, bounds)
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
            estimate._estimate_runs(values, l_a, window)
        with pytest.raises(ValueError, match=message):
            estimate_gamma_fit(ConditionalSlice(l_a=l_a, window_b=window, values=values[position]))


class TestArrayPath:
    """_estimate_runs, the experiment's path: one normalised array per gamma, estimated as columns."""

    @settings(max_examples=100, deadline=None)
    @given(runs=run_arrays(), bounds=BOUNDS)
    @example(
        runs=(np.array([conditional_slice(0, OamWindow.symmetric(40), 5.0).values] * 3), 0, OamWindow.symmetric(40)),
        bounds=(1.0, 50.0),
    )
    def test_columns_are_the_slice_estimates(self, runs, bounds):
        values, l_a, window = runs
        conds = [ConditionalSlice(l_a=l_a, window_b=window, values=row) for row in values]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # flat slices clamp m_sum at the floor
            m_sum, fit, residual = estimate._estimate_runs(values, l_a, window, bounds)
            msum_results = [estimate_gamma_msum(cond) for cond in conds]
        fits = [estimate_gamma_fit(cond, bounds) for cond in conds]
        assert bits(m_sum) == bits([r.gamma_meas for r in msum_results])
        assert bits(fit) == bits([r.gamma_meas for r in fits])
        assert bits(residual) == bits([r.residual for r in fits])

    @pytest.mark.parametrize("position", [0, 2])
    def test_first_bad_row_names_its_fault(self, position):
        # row `position` has a NaN cell and a later row a zero peak: the first bad row decides, as slice by slice
        window = OamWindow.symmetric(6)
        values = np.array([conditional_slice(0, window, g).values for g in (2.0, 3.0, 4.0, 5.0)])
        values[position, 4] = np.nan
        values[3, 6] = 0.0
        with pytest.raises(ValueError, match=r"value at l_b = -2 in window \[-6, 6\] must be finite, got nan"):
            estimate._estimate_runs(values, 0, window)
        values[position, 4] = 1.0
        with pytest.raises(ValueError, match=r"peak at l_b = 0 in window \[-6, 6\] must be positive, got 0\.0"):
            estimate._estimate_runs(values, 0, window)

    def test_m_sum_beyond_gamma_max_raises(self):
        # as estimate_gamma_msum does: an even-sum of 1e7 inverts to gamma ~ 2e7
        values = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1e7]])
        with pytest.raises(ValueError, match="gamma must be <= 1e\\+06"):
            estimate._estimate_runs(values, 0, OamWindow(0, 2))

    def test_each_row_is_normalised_once(self, monkeypatch):
        calls = []
        normalise = estimate._peak_normalised

        def spy(values, l_a, window):
            calls.append(len(values))
            return normalise(values, l_a, window)

        monkeypatch.setattr(estimate, "_peak_normalised", spy)
        values = np.array([conditional_slice(0, OamWindow.symmetric(10), g).values for g in (2.0, 3.0, 9.0)])
        estimate._estimate_runs(values, 0, OamWindow.symmetric(10))
        assert calls == [3]


class TestDenseScan:
    """The coarse grid and the golden-section search find the global minimum on noiseless slices."""

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
    @example(half_width=60, l_a=3, bounds_gamma=((1.0, 50.0), 49.99999999999999))
    def test_fit_is_no_worse_than_a_dense_scan(self, half_width, l_a, bounds_gamma):
        bounds, gamma = bounds_gamma
        window = OamWindow(-l_a - half_width, -l_a + half_width)
        cond = conditional_slice(l_a, window, gamma)
        result = estimate_gamma_fit(cond, bounds)
        scan = np.geomspace(*bounds, 4096)
        resid = cond.values - geometric_kernel(l_a + window.indices(), scan[:, None])
        scan_residuals = (resid[:, None, :] @ resid[:, :, None]).ravel()
        best = int(np.argmin(scan_residuals))
        # The search returns the midpoint of a bracket narrower than GAMMA_TOL, never a bound itself;
        # so where gamma sits on a bound (within about an ulp), the scan point on that bound beats it.
        assert result.residual <= scan_residuals[best] or abs(result.gamma_meas - scan[best]) <= GAMMA_TOL


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
        text = batch_csv([42], [2.0], [result.gamma_meas], [result.method], [result.residual])
        lines = text.strip().splitlines()
        assert lines[0] == "seed,gamma_encoded,gamma_meas,method,residual"
        assert lines[1] == "42,2,2,m_sum,0"
