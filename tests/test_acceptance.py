"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single PASS line (visible with pytest -s) and enforces
its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamboost.estimate import estimate_gamma_fit, estimate_gamma_msum
from oamboost.hologram import export_hologram, generate_hologram, grid_coordinates, winding_number
from oamboost.relativity import TWO_PI, boosted_azimuth, frame_from_beta, frame_from_gamma
from oamboost.simulate import NoiseModel, counts_conditional, simulate_counts
from oamboost.spectrum import (
    OamWindow,
    conditional_slice,
    joint_probability,
    joint_probability_quadrature,
    joint_probability_spdc_oracle,
    measurement_sum,
    mode_count_closed,
    mode_count_empirical,
    spectrum_moments,
)


@contextmanager
def budget(criterion, limit_seconds, detail=""):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {criterion} exceeded {limit_seconds}s ({elapsed:.2f}s)"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {criterion:2d} PASS ({elapsed:5.2f}s < {limit_seconds:g}s){suffix}")


def test_criterion_01_oracle_equivalence():
    with budget(1, 5.0, "closed form vs quadrature on the nodes its rule sizes, |l| <= 10"):
        for gamma in (1.0, 1.5, 2.0, 5.0, 10.0, 20.0):
            for l_a in range(-10, 11):
                for l_b in range(-10, 11):
                    closed = joint_probability(l_a, l_b, gamma, 1)
                    quad = joint_probability_quadrature(l_a, l_b, gamma)
                    assert abs(closed - quad) < 1e-9


def test_criterion_02_series_identities():
    with budget(2, 1.0, "even-only and full geometric sums, |l| <= 1000"):
        for gamma in (2.0, 5.0, 10.0):
            q = (gamma - 1.0) / (gamma + 1.0)
            terms = np.array([q ** abs(l) for l in range(-1000, 1001)])
            ls = np.arange(-1000, 1001)
            even = terms[(ls % 2) == 0].sum()
            full = terms.sum()
            assert abs(even - measurement_sum(gamma)) < 1e-9
            assert abs(full - gamma) < 1e-9


def test_criterion_03_mode_count_anchors():
    with budget(3, 1.0, "closed-form anchors and wide-window empirical count"):
        assert mode_count_closed(1.0) == 1.0
        assert abs(mode_count_closed(10.0) - 9.71890) < 1e-4
        for gamma in (1.0, 2.0, 5.0, 10.0):
            cond = conditional_slice(0, OamWindow.symmetric(200), gamma)
            assert abs(mode_count_empirical(cond) - mode_count_closed(gamma)) < 1e-6


def test_criterion_04_width_formula():
    with budget(4, 1.0, "conditional std vs (gamma - 1/gamma)/sqrt(2)"):
        for gamma in (2.0, 5.0, 10.0):
            cond = conditional_slice(0, OamWindow.symmetric(200), gamma)
            expected = (gamma - 1.0 / gamma) / math.sqrt(2.0)
            assert abs(spectrum_moments(cond).std - expected) < 1e-6


def test_criterion_05_moment_scaling():
    with budget(5, 1.0, "raw first moment scales by the even-sum total"):
        for l_a in (-2, 0, 3):
            for gamma in (2.0, 5.0):
                moments = spectrum_moments(conditional_slice(l_a, OamWindow.symmetric(200), gamma))
                assert abs(moments.first_moment_raw + measurement_sum(gamma) * l_a) < 1e-6
                assert abs(moments.mean + l_a) < 1e-9


def test_criterion_06_noiseless_recovery():
    with budget(6, 2.0, "exact recovery at half-width 200; truncation deficit at gamma 20"):
        for gamma in (1.0, 2.0, 5.0, 10.0):
            cond = conditional_slice(0, OamWindow.symmetric(200), gamma)
            assert abs(estimate_gamma_msum(cond).gamma_meas - gamma) < 1e-4
            assert abs(estimate_gamma_fit(cond, (1.0, 50.0)).gamma_meas - gamma) < 1e-4
        # independent series oracle for the truncated even-sum at gamma 20
        q = 19.0 / 21.0
        m_trunc = sum(q ** abs(s) for s in range(-20, 21) if s % 2 == 0)
        predicted = m_trunc + math.sqrt(m_trunc * m_trunc - 1.0)
        got = estimate_gamma_msum(conditional_slice(0, OamWindow.symmetric(20), 20.0)).gamma_meas
        assert got < 20.0
        assert abs(got - predicted) < 1e-9


def test_criterion_07_noisy_end_to_end():
    with budget(7, 60.0, "least-squares within 5% in >= 90/100 seeded runs"):
        model = NoiseModel(pair_rate=1.0e4, accidental_rate=5.0, integration=1.0)
        windows = (OamWindow(0, 0), OamWindow.symmetric(40))
        for gamma in (2.0, 5.0, 10.0):
            hits = 0
            for seed in range(100):
                counts = simulate_counts(gamma, windows, model, seed)
                cond = counts_conditional(counts, 0, "both")
                result = estimate_gamma_fit(cond, (1.0, 50.0))
                if abs(result.gamma_meas - gamma) / gamma < 0.05:
                    hits += 1
            assert hits >= 90, f"gamma={gamma}: only {hits}/100 within 5%"


WINDOWS = st.tuples(st.integers(-30, 30), st.integers(0, 20)).map(lambda bounds: OamWindow(bounds[0], sum(bounds)))
# cells (l_a, l_b) with |l_a|, |l_b| <= 30, made odd as the hand-picked draws were: l_b + 1 where the sum is even
ODD_CELLS = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(lambda c: (c[0], c[1] + 1 - (c[0] + c[1]) % 2)),
    min_size=1,
    max_size=25,
)


def drawn_odd_cells():
    """The former hand-picked odd cells: 25 seeded draws from [-10, 10]^2 for each of 4 gammas, in draw order."""
    rng = np.random.default_rng(2024)
    cells = []
    for _ in range(4):
        drawn = [(int(rng.integers(-10, 11)), int(rng.integers(-10, 11))) for _ in range(25)]
        cells.append([(l_a, l_b + 1 - (l_a + l_b) % 2) for l_a, l_b in drawn])
    return cells


@settings(max_examples=150, deadline=None)
@given(window_a=WINDOWS, window_b=WINDOWS, gamma=st.floats(1.0, 1e3))
@example(window_a=OamWindow(-10, 10), window_b=OamWindow(-10, 10), gamma=1.0)
@example(window_a=OamWindow(-10, 10), window_b=OamWindow(-10, 10), gamma=2.0)
@example(window_a=OamWindow(-10, 10), window_b=OamWindow(-10, 10), gamma=5.0)
@example(window_a=OamWindow(-10, 10), window_b=OamWindow(-10, 10), gamma=10.0)
@example(window_a=OamWindow(-10, 10), window_b=OamWindow(-10, 10), gamma=20.0)
def closed_form_odd_sums_vanish(window_a, window_b, gamma):
    for l_a in window_a.indices().tolist():
        for l_b in window_b.indices().tolist():
            if (l_a + l_b) % 2 != 0:
                assert joint_probability(l_a, l_b, gamma, 1) == 0.0


QUADRATURE_CELLS = drawn_odd_cells()


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1.0, 1e3), cells=ODD_CELLS)
@example(gamma=1.0, cells=QUADRATURE_CELLS[0])
@example(gamma=2.0, cells=QUADRATURE_CELLS[1])
@example(gamma=5.0, cells=QUADRATURE_CELLS[2])
@example(gamma=10.0, cells=QUADRATURE_CELLS[3])
def quadrature_odd_sums_vanish(gamma, cells):
    for l_a, l_b in cells:
        assert joint_probability_quadrature(l_a, l_b, gamma) < 1e-9


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1.0, 1e3), cells=ODD_CELLS)
@example(gamma=1.0, cells=[(0, l_b) for l_b in (-5, -3, -1, 1, 3, 5)])
@example(gamma=2.0, cells=[(0, l_b) for l_b in (-5, -3, -1, 1, 3, 5)])
@example(gamma=5.0, cells=[(0, l_b) for l_b in (-5, -3, -1, 1, 3, 5)])
def spdc_oracle_odd_sums_vanish(gamma, cells):
    for l_a, l_b in cells:
        assert joint_probability_spdc_oracle(l_a, l_b, gamma) < 1e-9


def test_criterion_08_parity_selection_rule():
    # properties over windows, l_a and gamma, each run to its end inside the one budget
    with budget(8, 5.0, "odd sums: exact zeros closed form, < 1e-9 in both oracles"):
        closed_form_odd_sums_vanish()
        quadrature_odd_sums_vanish()
        spdc_oracle_odd_sums_vanish()


def test_criterion_09_spdc_proportionality():
    with budget(9, 10.0, "Gaussian-source integral is a constant multiple of the closed form"):
        for gamma in (2.0, 5.0, 20.0, 50.0):
            ratios = []
            for s in (0, 2, -2, 4, -4):
                ratios.append(
                    joint_probability_spdc_oracle(0, s, gamma) / joint_probability(0, s, gamma, 1)
                )
            for ratio in ratios[1:]:
                assert abs(ratio / ratios[0] - 1.0) < 1e-6


def test_criterion_10_hologram_invariants():
    with budget(10, 2.0, "formulation equivalence, winding numbers, PGM stability"):
        # the two ways of writing the mask phase agree at every pixel
        for gamma in (1.0, 10.0):
            field = generate_hologram(3, gamma, width=21, height=21, extent=1.0)
            coords = grid_coordinates(21, 1.0)
            for j, y in enumerate(coords):
                for i, x in enumerate(coords):
                    if x == 0.0 and y == 0.0:
                        continue
                    phi = math.atan2(y, x) % TWO_PI
                    expected = (3 * boosted_azimuth(phi, gamma)) % TWO_PI
                    diff = abs(field.phase[j, i] - expected) % TWO_PI
                    assert min(diff, TWO_PI - diff) < 1e-12
        for l in (1, 3):
            for gamma in (1.0, 10.0):
                assert abs(winding_number(l, gamma) * TWO_PI - TWO_PI * l) < 1e-6
        field_a = generate_hologram(1, 10.0, width=64, height=64)
        field_b = generate_hologram(1, 10.0, width=64, height=64)
        assert export_hologram(field_a, "pgm8") == export_hologram(field_b, "pgm8")


def test_criterion_11_kinematics():
    with budget(11, 1.0, "frame round trips and rapidity/velocity invariants"):
        for gamma in np.geomspace(1.0, 100.0, 400):
            gamma = float(gamma)
            frame = frame_from_gamma(gamma)
            assert abs(frame_from_beta(frame.beta).gamma - gamma) <= 1e-10 * gamma
            assert abs(math.cosh(frame.rapidity) - gamma) <= 1e-10 * gamma
        for gamma_meas in (1.0, 2.0, 7.5, 20.0, 100.0):
            frame = frame_from_gamma(gamma_meas)
            assert abs(math.cosh(frame.rapidity) - gamma_meas) <= 1e-10 * gamma_meas
            assert abs(1.0 / math.sqrt(1.0 - frame.beta**2) - gamma_meas) <= 1e-10 * gamma_meas
