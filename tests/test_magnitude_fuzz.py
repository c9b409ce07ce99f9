"""run_exact and run_physical over the whole supported range of |c_i|.

Random complex specs of 2 to 12 parties with magnitudes log-uniform over
[2.2e-162, 1] (2.2e-162 is MIN_MAGNITUDE_FLOOR, below which N min|c_i|^2
underflows), and near-ties a few ulps either side of the tie window's edge,
at minima above and below 1e-6, where the window turns from the absolute
MAG_TIE_TOL to MAG_TIE_REL * min|c_i|. Each run returns with every
cross-check met or rejects the spec with SpecError (exit 2 in the CLI). It
never raises ToleranceError (exit 3), which is kept for internal faults, and
no numpy RuntimeWarning leaks from it.

Near-ties also keep their digits: with every |c_k| within 1e-15 to 1e-6 of
min|c_i|, each firing probability is within a few ulps, relative, of the
exact rational (|c_k|^2 - min|c_i|^2) / sum|c_i|^2 of spec.magnitudes.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill.cavity import JCParams, run_physical
from wdistill.errors import SpecError
from wdistill.protocol import (
    FIDELITY_TOL,
    MAG_TIE_REL,
    MAG_TIE_TOL,
    MIN_MAGNITUDE_FLOOR,
    PROB_MATCH_TOL,
    WPrimeSpec,
    run_exact,
)

LOG_FLOOR = math.log10(MIN_MAGNITUDE_FLOOR)
PHASE = st.floats(-4.0, 4.0)


def _coefficients(mags, phases) -> list[complex]:
    return [m * complex(math.cos(p), math.sin(p)) for m, p in zip(mags, phases)]


@st.composite
def log_uniform(draw) -> list[complex]:
    n = draw(st.integers(2, 12))
    logs = draw(st.lists(st.floats(LOG_FLOOR, 0.0), min_size=n, max_size=n))
    mags = np.power(10.0, logs)
    mags /= math.sqrt(math.fsum(mags**2))
    return _coefficients(mags.tolist(), draw(st.lists(PHASE, min_size=n, max_size=n)))


@st.composite
def near_ties(draw) -> list[complex]:
    """A minimal party and a partner a few ulps from the edge of its tie
    window, beside a party of magnitude ~1 and up to 9 others.

    The two are real or imaginary (a sign or a factor i), so each |c| is
    exact and the partner sits where it was put; the others are complex."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        low, high = LOG_FLOOR + 1.0, -6.5  # window MAG_TIE_REL * min|c_i|
    else:
        low, high = -5.5, -0.5  # window MAG_TIE_TOL
    least = 10.0 ** draw(st.floats(low, high))
    logs = draw(st.lists(st.floats(math.log10(least), -0.5), min_size=n - 3, max_size=n - 3))
    mags = np.array([least, least, 1.0, *np.power(10.0, logs)])
    mags /= math.sqrt(math.fsum(mags**2))
    edge = mags[0] + min(MAG_TIE_TOL, MAG_TIE_REL * mags[0])
    mags[1] = edge + draw(st.integers(-4, 4)) * math.ulp(edge)
    coeffs = [c * draw(st.sampled_from([1, -1, 1j, -1j])) for c in mags[:2].tolist()]
    coeffs += _coefficients(mags[2:].tolist(), draw(st.lists(PHASE, min_size=n - 2, max_size=n - 2)))
    return draw(st.permutations(coeffs))


def _meets_every_check_or_rejects_the_spec(coeffs) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            spec = WPrimeSpec(coeffs)
        except SpecError:
            return
        reports = [run_exact(spec), run_physical(spec, JCParams(50.0, 1.0))]
    analytic = spec.n * spec.min_magnitude**2
    for report in reports:
        assert abs(report.success_probability_exact - analytic) <= PROB_MATCH_TOL
        assert abs(1.0 - report.fidelity_with_w) <= FIDELITY_TOL


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coeffs=log_uniform())
def test_log_uniform_magnitudes_meet_every_check(coeffs):
    _meets_every_check_or_rejects_the_spec(coeffs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coeffs=near_ties())
def test_near_ties_at_the_window_edge_meet_every_check(coeffs):
    _meets_every_check_or_rejects_the_spec(coeffs)


@st.composite
def close_gaps(draw) -> list[complex]:
    """2 to 12 complex parties: one at the minimum magnitude, each other one
    above it by a gap log-uniform over [1e-15, 1e-6]."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(-15.0, -6.0), min_size=n - 1, max_size=n - 1))
    mags = 1.0 / math.sqrt(n) + np.concatenate(([0.0], np.power(10.0, gaps)))
    mags /= math.sqrt(math.fsum(mags**2))  # moves each gap by a factor within 1e-5 of 1
    return draw(st.permutations(_coefficients(mags.tolist(), draw(st.lists(PHASE, min_size=n, max_size=n)))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coeffs=close_gaps(), omega=st.floats(0.5, 100.0), epsilon=st.floats(0.2, 5.0))
def test_near_tie_firing_probabilities_are_exact_to_ulps(coeffs, omega, epsilon):
    spec = WPrimeSpec(coeffs)
    mags = [Fraction(m) for m in spec.magnitudes.tolist()]
    least = Fraction(spec.min_magnitude)
    total = sum(m * m for m in mags)
    exact = [(mags[k] ** 2 - least**2) / total for k in spec.acting.tolist()]
    # one rounding in each of (m_k + m) and the product, about N in the
    # running sum of the weights and one in the division
    bound = Fraction((spec.n + 5) * 2.0**-53)
    for report in (run_exact(spec), run_physical(spec, JCParams(omega, epsilon))):
        for fire, want in zip(report.fire_probabilities.tolist(), exact):
            assert abs(Fraction(fire) - want) <= bound * want, (fire, float(want))
