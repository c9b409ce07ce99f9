import cmath
import math
import os

import numpy as np
import pytest

from conftest import random_spec
from support import branch_rows, dense
from support.linalg import is_unitary
from support.statevec import StateVector, apply_local
from support.steps import ANCILLA_PAIR, ANCILLA_VAC, build_step_unitary, leaked_entries, plan
from wdistill.cavity import JCParams, run_physical
from wdistill.cli import load_spec
from wdistill.errors import SpecError, ToleranceError, ValidationError
from wdistill.protocol import (
    FIDELITY_TOL,
    PROB_MATCH_TOL,
    SectorState,
    WPrimeSpec,
    analytic_success_probability,
    ancilla_steps,
    distill,
    evolve_sector,
    fidelity,
    make_w_state,
    phase_correction,
    run_exact,
)


def n3_step_matrix(numer: float, denom: complex) -> np.ndarray:
    """Three-party step unitary written out from its defining entries:
    diag block [[numer/denom, -s], [s, numer/conj(denom)]] with
    s = sqrt(1 - numer^2/|denom|^2)."""
    s = math.sqrt(1.0 - numer**2 / abs(denom) ** 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, numer / denom, -s, 0],
            [0, s, numer / np.conj(denom), 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


class TestSpecValidation:
    def test_requires_two_parties(self):
        with pytest.raises(SpecError):
            WPrimeSpec([1.0])

    def test_requires_normalization(self):
        with pytest.raises(SpecError):
            WPrimeSpec([0.9, 0.9])

    def test_requires_finite(self):
        with pytest.raises(SpecError):
            WPrimeSpec([math.nan, 1.0])

    def test_min_magnitude_is_the_per_party_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 9)))
            assert spec.min_magnitude == min(abs(c) for c in spec.coeffs)
            assert analytic_success_probability(spec) == spec.n * min(abs(c) ** 2 for c in spec.coeffs)

    def test_coeffs_are_a_read_only_copy(self):
        given = np.array([0.6, 0.8j])
        spec = WPrimeSpec(given)
        assert spec.coeffs.dtype == np.complex128 and spec.n == 2
        with pytest.raises(ValueError):
            spec.coeffs[0] = 1.0
        given[0] = 0.0
        assert spec.coeffs.tolist() == [0.6, 0.8j]

    def test_derived_arrays_are_read_only(self, worked_spec):
        with pytest.raises(ValueError):
            worked_spec.magnitudes[0] = 1.0
        with pytest.raises(ValueError):
            worked_spec.acting[0] = 2

    def test_acting_is_every_party_but_the_minimal_one(self):
        near_tie = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "near_tie.json")
        rng = np.random.default_rng(5)
        specs = [WPrimeSpec([0.5] * 4), load_spec(near_tie)[0]]
        specs += [random_spec(rng, int(rng.integers(2, 9))) for _ in range(20)]
        for spec in specs:
            assert spec.acting.tolist() == np.delete(np.arange(spec.n), spec.min_index).tolist()
            assert spec.magnitudes.tolist() == [abs(c) for c in spec.coeffs.tolist()]
        # an exact tie, and a near tie 4e-13 apart, both go to the smaller index
        assert specs[0].acting.tolist() == [1, 2, 3]
        assert specs[1].magnitudes.argmin() == 3 and specs[1].acting.tolist() == [0, 2, 3]

    def test_rejects_input_that_is_not_1d(self):
        with pytest.raises(SpecError, match=r"1-D .*\(2, 2\)"):
            WPrimeSpec([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SpecError, match=r"1-D"):
            WPrimeSpec(1.0)

    def test_rejects_underflowing_minimum(self):
        with pytest.raises(SpecError, match=r"1e-170 .*floor 2\.2e-162"):
            WPrimeSpec([1.0, 1e-170])
        # |c|^2 = 1e-320 is subnormal but positive: still supported
        assert analytic_success_probability(WPrimeSpec([1.0, 1e-160])) > 0.0


class TestMakeWState:
    def test_three_party_amplitudes(self):
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(dense.make_w_state(3).amps, expected, atol=1e-15)
        # entry m is the amplitude of |0..1_m..0>
        np.testing.assert_allclose(make_w_state(3), expected[[4, 2, 1]], atol=1e-15)

    def test_two_party(self):
        np.testing.assert_allclose(
            np.abs(dense.make_w_state(2).amps), [0, 1, 1, 0] / np.sqrt(2), atol=1e-15
        )
        np.testing.assert_allclose(np.abs(make_w_state(2)), [1, 1] / np.sqrt(2), atol=1e-15)

    def test_self_fidelity(self):
        assert fidelity(make_w_state(4), make_w_state(4)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_single_party(self):
        with pytest.raises(ValidationError):
            make_w_state(1)


class TestBuildStepUnitary:
    def test_worked_entries(self, worked_spec):
        step = build_step_unitary(worked_spec, 0)
        assert step.z_k == pytest.approx(math.sqrt(0.4), abs=1e-15)
        assert abs(step.u_k[2, 1]) == pytest.approx(math.sqrt(0.6), abs=1e-15)
        assert step.u_k[1, 1] == pytest.approx(step.z_k, abs=0)

    def test_equal_coefficients_give_identity(self):
        spec = WPrimeSpec([0.5, 0.5, 0.5, 0.5])
        for k in range(1, 4):
            np.testing.assert_allclose(build_step_unitary(spec, k).u_k, np.eye(4), atol=1e-15)

    def test_complex_coefficient(self):
        # |c_0| = 0.5 with phase pi/3, min magnitude 0.25 elsewhere
        c0 = 0.5 * cmath.exp(1j * math.pi / 3)
        spec = WPrimeSpec([c0, math.sqrt(0.6875), 0.25])
        step = build_step_unitary(spec, 0)
        assert step.z_k == pytest.approx(0.5 * cmath.exp(-1j * math.pi / 3), abs=1e-15)
        assert is_unitary(step.u_k, 1e-12)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(SpecError, match="is zero"):
            spec = WPrimeSpec([1.0, 0.0])
            build_step_unitary(spec, 1)

    def test_rejects_minimal_party(self, worked_spec):
        with pytest.raises(ValidationError):
            build_step_unitary(worked_spec, 2)

    def test_n3_specialization_entrywise(self):
        # sorted |a| >= |b| >= |c| three-party case: both step unitaries
        # match the matrices assembled directly from |c|/a and |c|/b
        rng = np.random.default_rng(21)
        for _ in range(20):
            probs = np.sort(rng.uniform(0.05, 1.0, 3))[::-1]
            probs /= probs.sum()
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            a, b, c = np.sqrt(probs) * phases
            spec = WPrimeSpec([a, b, c])
            assert spec.min_index == 2
            np.testing.assert_allclose(
                build_step_unitary(spec, 0).u_k, n3_step_matrix(abs(c), a), atol=1e-12
            )
            np.testing.assert_allclose(
                build_step_unitary(spec, 1).u_k, n3_step_matrix(abs(c), b), atol=1e-12
            )


class TestPlan:
    def test_worked_spec(self, worked_spec):
        assert worked_spec.min_index == 2
        assert [s.k for s in plan(worked_spec)] == [0, 1]

    def test_uniform_tie_break(self):
        spec = WPrimeSpec([0.5] * 4)
        steps = plan(spec)
        assert spec.min_index == 0
        assert len(steps) == 3
        for s in steps:
            np.testing.assert_allclose(s.u_k, np.eye(4), atol=1e-15)

    def test_tie_break_ignores_phase(self):
        mag = 1 / math.sqrt(3)
        coeffs = [mag * cmath.exp(1j * 0.8), mag, mag * cmath.exp(-1j * 2.5)]
        assert WPrimeSpec(coeffs).min_index == 0

    def test_rejects_zero_coefficient(self):
        with pytest.raises(SpecError, match="is zero"):
            plan(WPrimeSpec([1.0, 0.0]))


class TestAnalyticProbability:
    def test_worked_value(self, worked_spec):
        assert analytic_success_probability(worked_spec) == pytest.approx(0.6, abs=1e-12)

    def test_uniform_is_one(self):
        for n in (2, 3, 6):
            spec = WPrimeSpec([1 / math.sqrt(n)] * n)
            assert analytic_success_probability(spec) == pytest.approx(1.0, abs=1e-12)

    def test_four_party_value(self):
        spec = WPrimeSpec(np.sqrt([0.4, 0.3, 0.2, 0.1]))
        assert analytic_success_probability(spec) == pytest.approx(0.4, abs=1e-12)
        assert run_exact(spec).success_probability_exact == pytest.approx(0.4, abs=1e-10)


class TestRunExact:
    def test_worked_spec(self, worked_spec):
        report = run_exact(worked_spec)
        assert report.success_probability_exact == pytest.approx(0.6, abs=1e-10)
        assert report.fidelity_with_w == pytest.approx(1.0, abs=1e-12)
        assert worked_spec.min_index == 2

    def test_worked_branch_probabilities(self, worked_spec):
        probs = {p: row["probability"] for p, row in branch_rows(worked_spec, run_exact(worked_spec)).items()}
        assert probs[(1, 0)] == pytest.approx(0.3, abs=1e-12)
        assert probs[(0, 1)] == pytest.approx(0.1, abs=1e-12)
        # the zero-probability pattern is not listed; the dense walk gives it 0
        assert (1, 1) not in probs
        dense_probs = {r.pattern: r.probability for r in dense.run_exact(worked_spec).branch_records}
        assert dense_probs[(1, 1)] == 0.0
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_five_party(self):
        report = run_exact(WPrimeSpec([1 / math.sqrt(5)] * 5))
        assert report.success_probability_exact == pytest.approx(1.0, abs=1e-10)

    def test_two_party(self):
        report = run_exact(WPrimeSpec([0.8, 0.6]))
        assert report.success_probability_exact == pytest.approx(0.72, abs=1e-10)
        assert report.fidelity_with_w == pytest.approx(1.0, abs=1e-12)

    def test_complex_phases_end_to_end(self):
        coeffs = [
            math.sqrt(0.5) * cmath.exp(1j * math.pi / 7),
            math.sqrt(0.3),
            math.sqrt(0.2) * cmath.exp(-1j * math.pi / 5),
        ]
        report = run_exact(WPrimeSpec(coeffs))
        assert report.success_probability_exact == pytest.approx(0.6, abs=1e-10)
        assert report.fidelity_with_w == pytest.approx(1.0, abs=1e-12)
        # corrected amplitudes are uniform, real, positive
        for amp in report.final_state:
            assert amp.real == pytest.approx(1 / math.sqrt(3), abs=1e-12)
            assert abs(amp.imag) <= 1e-12

    def test_random_specs_match_analytic(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            spec = random_spec(rng, int(rng.integers(2, 9)))
            report = run_exact(spec)
            assert abs(report.success_probability_exact - analytic_success_probability(spec)) <= 1e-10
            assert abs(report.fidelity_with_w - 1.0) <= 1e-12

    def test_failure_branches_collapse(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            # the dense walk checks that every failure branch leaves the
            # particles ground, and describes it so
            described = {r.pattern: r.description for r in dense.run_exact(spec).branch_records}
            for p, row in branch_rows(spec, run_exact(spec)).items():
                if row["probability"] > 0 and any(p):
                    assert "collapsed" in described[p]

    def test_probability_bounds_and_uniform_condition(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            spec = random_spec(rng, int(rng.integers(2, 8)))
            p = run_exact(spec).success_probability_exact
            assert p <= 1.0 + 1e-12
            mags = [abs(c) for c in spec.coeffs]
            if abs(p - 1.0) <= 1e-12:
                assert max(mags) - min(mags) <= 1e-9
        uniform = WPrimeSpec([1 / math.sqrt(4)] * 4)
        assert run_exact(uniform).success_probability_exact == pytest.approx(1.0, abs=1e-12)

    def test_step_order_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            spec = random_spec(rng, n)
            steps = plan(spec)
            layout, anc_sites = dense.joint_layout(spec)
            amps = np.zeros(layout.size, dtype=complex)
            for m, c in enumerate(spec.coeffs):
                occ = [0] * layout.n_sites
                occ[m] = 1
                amps[layout.ravel(occ)] = c
            initial = StateVector(layout, amps)

            pairs = list(zip(steps, anc_sites))
            reference = None
            for perm in (pairs, pairs[::-1], [pairs[-1]] + pairs[:-1]):
                state = initial
                for step, anc in perm:
                    state = apply_local(state, step.u_k, (anc, step.k))
                if reference is None:
                    reference = state
                else:
                    assert np.max(np.abs(state.amps - reference.amps)) <= 1e-12

    def test_all_constructed_unitaries_pass_check(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 8)))
            for step in plan(spec):
                assert is_unitary(step.u_k, 1e-12)
                assert abs(step.z_k) <= 1.0 + 1e-12

    def test_evolution_matches_bit_arithmetic_oracle(self):
        # independent route: embed each 4x4 step into the full space by raw
        # bit manipulation (no tensor reshapes) and compare the final state
        def embed(u4, n_sites, hi_site, lo_site):
            dim = 1 << n_sites
            g = np.zeros((dim, dim), dtype=complex)
            sh_hi, sh_lo = n_sites - 1 - hi_site, n_sites - 1 - lo_site
            for x in range(dim):
                col = 2 * ((x >> sh_hi) & 1) + ((x >> sh_lo) & 1)
                base = x & ~(1 << sh_hi) & ~(1 << sh_lo)
                for row in range(4):
                    r_hi, r_lo = divmod(row, 2)
                    g[base | (r_hi << sh_hi) | (r_lo << sh_lo), x] += u4[row, col]
            return g

        rng = np.random.default_rng(123)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            steps = plan(spec)
            layout, anc_sites = dense.joint_layout(spec)
            n_sites = layout.n_sites
            psi = np.zeros(1 << n_sites, dtype=complex)
            for m, c in enumerate(spec.coeffs):
                psi[1 << (n_sites - 1 - m)] = c
            for step, anc in zip(steps, anc_sites):
                psi = embed(step.u_k, n_sites, anc, step.k) @ psi
            assert np.max(np.abs(psi - dense.evolved_joint_state(spec)[0].amps)) < 1e-13
            # sector entry s (particles, then ancillas in step order) is the
            # amplitude of the ket with site s alone excited
            state = evolve_sector(spec, *ancilla_steps(spec))
            one_hot = [1 << (n_sites - 1 - s) for s in range(n_sites)]
            assert np.max(np.abs(psi[one_hot] - state.amps)) < 1e-13
            assert np.max(np.abs(np.delete(psi, one_hot))) < 1e-13
            anc_mask = sum(1 << (n_sites - 1 - s) for s in anc_sites)
            p_succ = sum(abs(a) ** 2 for i, a in enumerate(psi) if (i & anc_mask) == 0)
            assert abs(p_succ - analytic_success_probability(spec)) < 1e-12


def naive_sector_evolution(coeffs, steps):
    """Reference for evolve_sector: each (party k, 4x4 matrix u) step in
    turn multiplies every other amplitude by its spectator phase, O(N^2)
    for N parties."""
    n = len(coeffs)
    amps = np.zeros(2 * n - 1, dtype=complex)
    amps[:n] = coeffs
    for t, (k, u) in enumerate(steps):
        acting, mode = amps[k], amps[n + t]
        amps *= u[0, 0]
        amps[k] = u[1, 1] * acting + u[1, 2] * mode
        amps[n + t] = u[2, 1] * acting + u[2, 2] * mode
    return amps


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sector_step(phase: complex, block: np.ndarray, corner: complex = 1.0) -> np.ndarray:
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = phase
    u[1:3, 1:3] = block
    u[3, 3] = corner  # two local excitations: outside the sector, never read
    return u


class TestEvolveSector:
    def test_running_phase_matches_per_step_update(self):
        # steps act on the acting parties in ascending order, as in both schemes
        rng = np.random.default_rng(12)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 9)))
            steps = []
            for k in spec.acting.tolist():
                block = random_unitary(rng, 2)
                steps.append((k, sector_step(np.exp(1j * rng.uniform(0, 7)), block, rng.normal())))
            u = np.array([m for _, m in steps])
            phases = u[:, 0, 0]
            keep, fire = u[:, 1, 1] / phases, u[:, 2, 1] / phases
            state = evolve_sector(spec, keep, fire, np.prod(phases))
            assert np.max(np.abs(state.amps - naive_sector_evolution(spec.coeffs, steps))) <= 1e-14

    @pytest.mark.parametrize("entry", [(0, 1), (3, 1), (2, 0), (1, 3), (0, 3)])
    def test_rejects_any_coupling_out_of_the_sector(self, entry):
        # evolve_sector takes block entries only; the matrices they stand for
        # are checked at test time (tests/test_steps.py) by this detector
        u = sector_step(1.0, np.eye(2))
        assert leaked_entries(u, ANCILLA_VAC, ANCILLA_PAIR) == []
        u[entry] = 1e-300
        assert leaked_entries(u, ANCILLA_VAC, ANCILLA_PAIR) == [entry]

    def test_accepts_every_constructed_step(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 8)))
            state = evolve_sector(spec, *ancilla_steps(spec))
            assert [s.k for s in plan(spec)] == spec.acting.tolist()
            assert state.amps.shape == (2 * spec.n - 1,)


class TestDistillChecks:
    """distill's cross-checks on hand-built inputs: a NaN fails each of them."""

    # real positive coefficients: the ledger is all zeros
    SPEC = WPrimeSpec([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)])

    def test_nan_ledger_fails_the_fidelity_check(self):
        state = evolve_sector(self.SPEC, *ancilla_steps(self.SPEC))
        phases = np.array([0.0, math.nan, 0.0])
        message = rf"^corrected output fidelity nan is not 1\.0 within {FIDELITY_TOL}$"
        with pytest.raises(ToleranceError, match=message):
            distill(self.SPEC, state, phases)

    def test_swapped_mode_amplitudes_fail_the_row_check(self):
        # the swap keeps the branch sum and the success probability, but then
        # the modes of parties 0 and 1 fire with 0.1 and 0.3, not 0.3 and 0.1
        amps = evolve_sector(self.SPEC, *ancilla_steps(self.SPEC)).amps.copy()
        n = self.SPEC.n
        amps[n], amps[n + 1] = amps[n + 1], amps[n]
        message = rf"^mode 0 firing probability 0\.09\d* is not 0\.30\d* within {PROB_MATCH_TOL}$"
        with pytest.raises(ToleranceError, match=message):
            distill(self.SPEC, SectorState(n, amps), np.zeros(3))

    @pytest.mark.parametrize(
        "run", [run_exact, lambda spec: run_physical(spec, JCParams(50.0, 1.0))], ids=["exact", "physical"]
    )
    @pytest.mark.parametrize(
        "coeffs,norm_sq",
        [((1.0, 1.0), 1 + 9e-10), ((math.sqrt(0.5), 1j * math.sqrt(0.3), -math.sqrt(0.2)), 1 - 9e-10)],
    )
    def test_spec_off_norm_meets_every_check(self, run, coeffs, norm_sq):
        # WPrimeSpec accepts sum|c_i|^2 up to 1e-9 off 1; the state's
        # probabilities are normalized, so the checks divide by it too
        coeffs = np.array(coeffs) * math.sqrt(norm_sq / sum(abs(c) ** 2 for c in coeffs))
        spec = WPrimeSpec(coeffs)
        report = run(spec)
        analytic = spec.n * spec.min_magnitude**2
        assert report.success_probability_analytic == analytic
        assert abs(report.success_probability_exact - analytic / norm_sq) <= PROB_MATCH_TOL
        assert abs(analytic - analytic / norm_sq) > PROB_MATCH_TOL

    def test_nan_amplitude_fails_the_branch_sum(self):
        amps = evolve_sector(self.SPEC, *ancilla_steps(self.SPEC)).amps.copy()
        amps[0] = complex(math.nan, 0.0)
        message = rf"^branch probability sum nan is not 1\.0 within {PROB_MATCH_TOL}$"
        with pytest.raises(ToleranceError, match=message):
            distill(self.SPEC, SectorState(self.SPEC.n, amps), np.zeros(3))


class TestPhaseCorrection:
    def test_identity_on_real_positive(self):
        out = phase_correction(make_w_state(3), np.zeros(3))
        np.testing.assert_allclose(out, make_w_state(3), atol=1e-15)

    def test_strips_coefficient_phase(self):
        amps = np.array([1, 1, cmath.exp(1j * math.pi / 4)]) / math.sqrt(3)
        out = phase_correction(amps, [0.0, 0.0, math.pi / 4])
        np.testing.assert_allclose(out, make_w_state(3), atol=1e-12)

    def test_ledger_phases_cancel(self):
        amps = np.array([cmath.exp(1j * 0.3), cmath.exp(-1j * 1.1), 1]) / math.sqrt(3)
        out = phase_correction(amps, [0.3, -1.1, 0.0])
        np.testing.assert_allclose(out, make_w_state(3), atol=1e-12)

    def test_matches_dense_correction(self):
        # the dense version takes a dict ledger plus the minimal site's
        # coefficient; the array ledger holds their sum per site
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            amps = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / math.sqrt(n)
            j = int(rng.integers(n))
            ledger = {int(k): float(rng.uniform(-3, 3)) for k in rng.choice(n, n - 1, replace=False)}
            phases = np.zeros(n)
            for k, phi in ledger.items():
                phases[k] = phi
            phases[j] += cmath.phase(amps[j])
            layout = dense.make_w_state(n).layout
            one_hot = [1 << (n - 1 - m) for m in range(n)]
            full = np.zeros(layout.size, dtype=complex)
            full[one_hot] = amps
            expected = dense.phase_correction(StateVector(layout, full), j, amps[j], ledger)
            out = phase_correction(amps, phases)
            assert np.max(np.abs(expected.amps[one_hot] - out)) <= 1e-15

    def test_rejects_bad_site_and_vanishing_head(self):
        # a ledger entry for a site the state does not have
        with pytest.raises(ValidationError):
            phase_correction(make_w_state(3), np.zeros(4))
        with pytest.raises(ValidationError):
            phase_correction(np.array([0.0, 1.0]), np.zeros(2))

    def test_rejects_support_outside_single_excitation(self):
        # only the dense representation can hold such a state
        layout = dense.make_w_state(2).layout
        amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        with pytest.raises(ValidationError):
            dense.phase_correction(StateVector(layout, amps), 0, 1.0)
