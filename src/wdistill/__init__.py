"""Exact simulator for probabilistic distillation of W-class states.

The abstract protocol rescales every excitation amplitude down to the
smallest one with local two-qubit unitaries and post-selects the attached
ancillas on |0>; the physical scheme realizes the same rescaling with
resonant Jaynes-Cummings atom-cavity interactions and vacuum detection.
Both paths are simulated exactly on dense state vectors, and a seeded
Monte Carlo sampler checks the analytic success probabilities empirically.
"""
__version__ = "0.1.0"

from .cavity import (
    CavityStepPlan,
    JCParams,
    jc_hamiltonian,
    jc_propagator_closed,
    optimal_interaction_time,
    run_physical,
)
from .montecarlo import TrialConfig, TrialStats, confidence_interval, run_trials
from .protocol import (
    DistillationReport,
    StepPlan,
    WPrimeSpec,
    analytic_success_probability,
    build_step_unitary,
    make_w_state,
    phase_correction,
    plan,
    run_exact,
)
from .statevec import (
    StateVector,
    SubsystemLayout,
    apply_local,
    basis_state,
    fidelity,
    inner_product,
    project_site,
)

__all__ = [
    "CavityStepPlan",
    "DistillationReport",
    "JCParams",
    "StateVector",
    "StepPlan",
    "SubsystemLayout",
    "TrialConfig",
    "TrialStats",
    "WPrimeSpec",
    "analytic_success_probability",
    "apply_local",
    "basis_state",
    "build_step_unitary",
    "confidence_interval",
    "fidelity",
    "inner_product",
    "jc_hamiltonian",
    "jc_propagator_closed",
    "make_w_state",
    "optimal_interaction_time",
    "phase_correction",
    "plan",
    "project_site",
    "run_exact",
    "run_physical",
    "run_trials",
]
