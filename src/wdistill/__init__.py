"""Exact simulator for probabilistic distillation of W-class states.

The abstract protocol rescales every excitation amplitude down to the
smallest one with local two-qubit unitaries and post-selects the attached
ancillas on |0>; the physical scheme realizes the same rescaling with
resonant Jaynes-Cummings atom-cavity interactions and vacuum detection.
Both steps conserve excitation number, so both paths are simulated exactly
in the single-excitation sector (2N-1 amplitudes, N reachable measurement
patterns), and a seeded Monte Carlo sampler checks the analytic success
probabilities empirically.
"""
__version__ = "0.1.0"

from .cavity import JCParams, run_physical
from .montecarlo import TrialConfig, TrialStats, confidence_interval, run_trials
from .protocol import (
    DistillationReport,
    WPrimeSpec,
    analytic_success_probability,
    make_w_state,
    phase_correction,
    run_exact,
)

__all__ = [
    "DistillationReport",
    "JCParams",
    "TrialConfig",
    "TrialStats",
    "WPrimeSpec",
    "analytic_success_probability",
    "confidence_interval",
    "make_w_state",
    "phase_correction",
    "run_exact",
    "run_physical",
    "run_trials",
]
