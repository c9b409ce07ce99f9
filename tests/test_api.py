import dataclasses
import importlib
import inspect
import json
import os

import pytest

import wdistill
from wdistill import cavity, cli, errors, montecarlo, protocol

MODULES = (wdistill, cavity, cli, errors, montecarlo, protocol)
# trial_uniforms (the matrix-form sampler's uniforms) lives on in
# tests/support/sampler.py; the per-party step matrices and their plans
# (StepPlan ... physical_plan) and ShapeError in tests/support/steps.py
# and tests/support/__init__.py; _zero_prefix_cdfs (the sampler's CDF
# matrix) in tests/support/sampler.py
REMOVED = (
    "AtomicWPrimeSpec",
    "ramsey_phase",
    "sample_site",
    "TruncationError",
    "trial_uniforms",
    "StepPlan",
    "build_step_unitary",
    "plan",
    "_leak_mask",
    "CavityStepPlan",
    "jc_propagator_closed",
    "_jc_index",
    "optimal_interaction_time",
    "physical_plan",
    "ShapeError",
    "BranchRecord",
    "_zero_prefix_cdfs",
    "from_coefficients",
    # the detuned, truncated JC model (JCModel) lives on in tests/support/steps.py;
    # both schemes detect with the same statistics, so nothing selects the
    # sampled scheme (test_sampler_reads_no_scheme)
    "UnsupportedModeError",
    "RESONANCE_TOL",
    "SCHEMES",
    "omega0",
    "is_resonant",
    "fock_cutoff",
    "scheme",
    # a scheme is its step function (ancilla_steps, jc_steps); evolve_sector
    # turns either one's entries into the evolved state
    "evolved_joint_state",
    "evolved_physical_state",
    # report schema 3: a sample run counts the failures of each mode (TrialStats.fired)
    "outcome_histogram",
    # WPrimeSpec derives every per-party fact once: min_index by the tie
    # rule, and acting, every other party; a zero coefficient is a SpecError
    "acting_parties",
    "min_coefficient_index",
    "DegenerateCoefficientError",
    # evolve_sector returns the two arrays (particles, modes) that every
    # consumer reads directly
    "SectorState",
    # N min|c_i|^2 is a fact of the spec (analytic_success_probability), which
    # the CLI reads once per report
    "success_probability_analytic",
    "analytic_p",
    # distill's one phase step is protocol.phase_correction
    "_undo_phases",
)
# dense state-vector names: the package runs in the single-excitation sector,
# and these live on only as the test oracle in tests/support
DENSE = (
    "StateVector",
    "SubsystemLayout",
    "apply_local",
    "basis_state",
    "fidelity",
    "inner_product",
    "project_site",
    "jc_hamiltonian",
)


def test_every_exported_name_resolves():
    assert len(set(wdistill.__all__)) == len(wdistill.__all__)
    for name in wdistill.__all__:
        assert getattr(wdistill, name, None) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in wdistill.__all__
    owners = (
        protocol.WPrimeSpec,
        protocol.DistillationReport,
        cavity.JCParams,
        montecarlo.TrialConfig,
        montecarlo.TrialStats,
    )
    for owner in (*MODULES, *owners):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        # a dataclass field without a default is no class attribute
        assert name not in getattr(owner, "__dataclass_fields__", {}), f"{owner.__name__}.{name}"


def test_branch_records_spell_no_pattern_tuple():
    # a report holds one firing probability per mode; the CLI spells the rows
    fields = {f.name for f in dataclasses.fields(protocol.DistillationReport)}
    assert "fire_probabilities" in fields and "branch_records" not in fields


def test_report_does_not_echo_the_minimal_party():
    # spec.min_index is the one record of it; REMOVED cannot name min_index,
    # which WPrimeSpec keeps
    fields = {f.name for f in dataclasses.fields(protocol.DistillationReport)}
    assert "min_index" not in fields
    assert "min_index" in {f.name for f in dataclasses.fields(protocol.WPrimeSpec)}


def test_sampler_reads_no_scheme():
    # the sampler draws from the magnitudes' weights, whichever scheme a run
    # names, and evolves no state of either scheme
    assert [f.name for f in dataclasses.fields(montecarlo.TrialConfig)] == ["trials", "seed"]
    assert not {"cavity", "JCParams", "jc_steps", "ancilla_steps", "evolve_sector"} & set(vars(montecarlo))


def test_phase_step_is_not_exported():
    # distill's phase step, protocol.phase_correction, is no user-facing tool
    assert "phase_correction" not in wdistill.__all__
    assert not hasattr(wdistill, "phase_correction")
    assert callable(protocol.phase_correction)


def test_confidence_interval_takes_only_the_stats():
    # z is the fixed montecarlo.WILSON_Z
    assert list(inspect.signature(montecarlo.confidence_interval).parameters) == ["stats"]


def test_sample_echoes_the_fixed_wilson_z(capsys):
    spec = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "worked.json")
    assert cli.main(["sample", spec, "--trials", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["wilson_z"] == montecarlo.WILSON_Z


def test_sector_state_has_no_mode_dimension():
    # the sector gives every mode's detection two outcomes, whatever the cutoff
    assert "mode_dim" not in inspect.signature(protocol.evolve_sector).parameters


def test_evolve_sector_takes_the_spec_and_step_entries():
    params = list(inspect.signature(protocol.evolve_sector).parameters)
    assert params == ["spec", "keep", "fire"]


@pytest.mark.parametrize("name", DENSE)
def test_dense_name_left_the_package(name):
    assert name not in wdistill.__all__
    for module in (wdistill, cavity):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", ["wdistill.statevec", "wdistill.linalg"])
def test_dense_modules_left_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
