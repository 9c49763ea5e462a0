"""Lorentz kinematics and the length-contracted azimuthal coordinate map."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Beyond this, beta is indistinguishable from 1 in double precision.
GAMMA_MAX = 1.0e6
_BETA_MAX = math.sqrt(1.0 - 1.0 / (GAMMA_MAX * GAMMA_MAX))  # the largest beta whose gamma stays <= GAMMA_MAX


def require_gamma(gamma: float) -> float:
    """Validate a Lorentz factor and return it as a float."""
    if isinstance(gamma, (bool, str)):  # float() would read True as 1.0 and "5" as 5.0
        raise ValueError(f"gamma must be a number, got {gamma!r}")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be >= 1 and finite, got {gamma}")
    if gamma > GAMMA_MAX:
        raise ValueError(f"gamma must be <= {GAMMA_MAX:g}, got {gamma}")
    return gamma


@dataclass(frozen=True)
class Frame:
    """Inertial detector frame: Lorentz factor, speed ratio v/c and rapidity."""

    gamma: float
    beta: float
    rapidity: float


def frame_from_gamma(gamma: float) -> Frame:
    """Build a Frame from its Lorentz factor."""
    gamma = require_gamma(gamma)
    beta = math.sqrt(1.0 - 1.0 / (gamma * gamma)) if gamma > 1.0 else 0.0
    return Frame(gamma=gamma, beta=beta, rapidity=math.acosh(gamma))


def frame_from_beta(beta: float) -> Frame:
    """Build a Frame from the speed ratio v/c."""
    beta = float(beta)
    if not 0.0 <= beta <= _BETA_MAX:  # nan and inf fail the first test
        span = "lie in [0, 1)" if not 0.0 <= beta < 1.0 else f"be <= {_BETA_MAX} (gamma <= {GAMMA_MAX:g})"
        raise ValueError(f"beta must {span}, got {beta}")
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    return Frame(gamma=gamma, beta=beta, rapidity=math.acosh(gamma))


def boosted_azimuth(phi: float, gamma: float) -> float:
    """Azimuth of a rest-frame direction as seen through length contraction.

    Continuous, strictly increasing branch of arctan(gamma*tan(phi)) on
    [0, 2*pi), fixing 0, pi/2, pi and 3*pi/2.  The two-argument arctangent
    keeps the quadrant, which the naive arctan of gamma*tan(phi) loses.
    """
    gamma = require_gamma(gamma)
    phi = float(phi)
    if not 0.0 <= phi < TWO_PI:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    out = math.atan2(gamma * math.sin(phi), math.cos(phi))
    if out < 0.0:
        out += TWO_PI
    return out if out < TWO_PI else 0.0


def azimuth_jacobian(phi_prime: float, gamma: float) -> float:
    """d(phi)/d(phi') of the boosted azimuth map; strictly positive."""
    gamma = require_gamma(gamma)
    c = math.cos(float(phi_prime))
    return gamma / ((gamma * gamma - 1.0) * c * c + 1.0)
