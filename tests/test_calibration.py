"""Calibration of both estimators: each one's bias against its own spread, at fixed seeds.

One `experiment` run draws seeds 0-199 at each gamma in GAMMAS: one +-40 row a seed at l_a = 0, the default
rates, `--subtract both`, and every row through the command's one stacked estimation pass.  A mean lies within
K standard errors (sd / sqrt(n)) of its target; at K = 4 an unbiased estimator misses with a normal-tail
probability of about 6e-5.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from oamboost.cli import main
from oamboost.estimate import gamma_from_m

GAMMAS = (2.0, 5.0, 10.0, 20.0)
SEEDS, HALF_WIDTH, K = 200, 40, 4.0
# the least-squares sd measured at each gamma on these seeds; the band is +-20%, about 4 sd of a 200-sample sd
LEAST_SQUARES_SD, SD_BAND = {2.0: 0.0175, 5.0: 0.053, 10.0: 0.110, 20.0: 0.225}, 0.2


@pytest.fixture(scope="module")
def estimates(tmp_path_factory):
    """gamma -> method -> the SEEDS estimates, read back from experiment_batch.csv."""
    out = tmp_path_factory.mktemp("calibration")
    argv = ["experiment", "--gamma", ",".join(map(str, GAMMAS)), "--seed", "0", "--runs", str(SEEDS),
            "--half-width", str(HALF_WIDTH), "--subtract", "both", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    rows = (out / "experiment_batch.csv").read_text(encoding="utf-8").splitlines()[1:]
    meas = np.array([float(row.split(",")[2]) for row in rows]).reshape(len(GAMMAS), SEEDS, 2)  # m_sum, then fit
    return {gamma: {"m_sum": meas[i, :, 0], "least_squares": meas[i, :, 1]} for i, gamma in enumerate(GAMMAS)}


def truncated_msum_gamma(gamma: float) -> float:
    """Criterion 06's truncated-series inversion: what m_sum reads from the exact +-HALF_WIDTH row at l_a = 0."""
    q = (gamma - 1.0) / (gamma + 1.0)
    return gamma_from_m(sum(q ** abs(s) for s in range(-HALF_WIDTH, HALF_WIDTH + 1) if s % 2 == 0))


def standard_errors_off(values: np.ndarray, target: float) -> float:
    return (values.mean() - target) / (values.std(ddof=1) / math.sqrt(len(values)))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_least_squares_is_unbiased_with_its_measured_spread(estimates, gamma):
    fits = estimates[gamma]["least_squares"]
    assert abs(standard_errors_off(fits, gamma)) <= K
    assert abs(fits.std(ddof=1) / LEAST_SQUARES_SD[gamma] - 1.0) <= SD_BAND


@pytest.mark.parametrize("gamma", GAMMAS[1:])
def test_m_sum_reads_the_truncated_series(estimates, gamma):
    assert abs(standard_errors_off(estimates[gamma]["m_sum"], truncated_msum_gamma(gamma))) <= K


def test_m_sum_at_gamma_two_reads_high_from_the_clamped_subtraction(estimates):
    # A known bias, pinned (ROADMAP item 20): clamping each subtraction step at zero raises the cells that hold
    # background only, so the even-sum grows; the same counts less B without the clamp read 2.0000.  A mend (a fit
    # that models B, a measured B, or an unclamped m_sum path) turns this test round.
    assert standard_errors_off(estimates[2.0]["m_sum"], truncated_msum_gamma(2.0)) > K
