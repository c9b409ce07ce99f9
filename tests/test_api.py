import importlib

import pytest

import wdistill
from wdistill import cavity, errors, montecarlo, protocol

# trial_uniforms (the matrix-form sampler's uniforms) lives on in
# tests/support/sampler.py
REMOVED = ("AtomicWPrimeSpec", "ramsey_phase", "sample_site", "TruncationError", "trial_uniforms")
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
    for module in (wdistill, cavity, errors, montecarlo, protocol):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name", DENSE)
def test_dense_name_left_the_package(name):
    assert name not in wdistill.__all__
    for module in (wdistill, cavity):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", ["wdistill.statevec", "wdistill.linalg"])
def test_dense_modules_left_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
