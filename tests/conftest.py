import math

import numpy as np
import pytest

from wdistill.protocol import WPrimeSpec


def pytest_configure(config):
    # a numpy overflow, invalid or divide warning leaking from the engine fails the suite
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


# The worked three-party example used throughout: coefficients
# (sqrt 0.5, sqrt 0.3, sqrt 0.2), success probability 3 * 0.2 = 0.6.
WORKED_COEFFS = (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))


@pytest.fixture
def worked_spec() -> WPrimeSpec:
    return WPrimeSpec(WORKED_COEFFS)


def random_spec(rng: np.random.Generator, n: int, complex_phases: bool = True) -> WPrimeSpec:
    """Random normalized spec with magnitudes bounded away from zero."""
    weights = rng.uniform(0.2, 1.0, n)
    probs = weights / weights.sum()
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) if complex_phases else np.ones(n)
    return WPrimeSpec(np.sqrt(probs) * phases)
