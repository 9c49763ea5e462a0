"""Joint OAM spectra of entangled photon pairs measured by boosted detectors.

Length contraction of the detector coordinates broadens the joint OAM
spectrum; the broadening determines the Lorentz factor.  The package
computes the closed-form spectra, generates the matching projection
holograms, simulates coincidence counting, and recovers gamma (plus
rapidity and velocity) from measured or simulated spectra.
"""

from .estimate import (
    FitResult,
    estimate_gamma_fit,
    estimate_gamma_msum,
    gamma_from_m,
)
from .hologram import HologramField, export_hologram, generate_hologram
from .relativity import (
    Frame,
    azimuth_jacobian,
    boosted_azimuth,
    frame_from_beta,
    frame_from_gamma,
)
from .simulate import CountSpectrum, NoiseModel, simulate_counts
from .spectrum import (
    ConditionalSlice,
    JointSpectrum,
    OamWindow,
    SliceMoments,
    conditional_slice,
    joint_probability,
    joint_probability_quadrature,
    joint_probability_spdc_oracle,
    joint_spectrum,
    measurement_sum,
    mode_count_closed,
    mode_count_empirical,
    spectrum_moments,
)

__all__ = [
    "ConditionalSlice",
    "CountSpectrum",
    "FitResult",
    "Frame",
    "HologramField",
    "JointSpectrum",
    "NoiseModel",
    "OamWindow",
    "SliceMoments",
    "azimuth_jacobian",
    "boosted_azimuth",
    "conditional_slice",
    "estimate_gamma_fit",
    "estimate_gamma_msum",
    "export_hologram",
    "frame_from_beta",
    "frame_from_gamma",
    "gamma_from_m",
    "generate_hologram",
    "joint_probability",
    "joint_probability_quadrature",
    "joint_probability_spdc_oracle",
    "joint_spectrum",
    "measurement_sum",
    "mode_count_closed",
    "mode_count_empirical",
    "simulate_counts",
    "spectrum_moments",
]

__version__ = "0.1.0"
