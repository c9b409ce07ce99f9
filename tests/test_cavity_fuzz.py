"""run_physical over the whole finite range of omega and epsilon.

Random complex specs of 2 to 12 parties, omega any finite double and epsilon
any positive finite double: a run returns with every cross-check met, or
rejects the coupling with ValidationError (exit 2 in the CLI). It never
raises ToleranceError (exit 3), which is kept for internal faults, and no
numpy RuntimeWarning leaks from it: an overflow is caught, not computed on.
"""
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill.cavity import JCParams, run_physical
from wdistill.errors import ValidationError
from wdistill.protocol import FIDELITY_TOL, PROB_MATCH_TOL, WPrimeSpec

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PARTY = st.tuples(st.floats(1e-6, 1.0), st.floats(-4.0, 4.0))  # (weight, phase)


@st.composite
def specs(draw) -> WPrimeSpec:
    parties = draw(st.lists(PARTY, min_size=2, max_size=12))
    total = math.fsum(w for w, _ in parties)
    return WPrimeSpec([math.sqrt(w / total) * complex(math.cos(p), math.sin(p)) for w, p in parties])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=specs(), omega=FINITE, epsilon=POSITIVE)
def test_run_physical_meets_every_check_or_rejects_the_coupling(spec, omega, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = run_physical(spec, JCParams(omega, epsilon))
        except ValidationError:
            return
    analytic = spec.n * np.abs(spec.coeffs).min() ** 2
    assert abs(report.success_probability_exact - analytic) <= PROB_MATCH_TOL
    assert abs(1.0 - report.fidelity_with_w) <= FIDELITY_TOL
