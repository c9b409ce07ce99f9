import cmath
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_spec
from support.dense import jc_hamiltonian
from support.linalg import is_unitary, propagator
from support.steps import (
    JCModel,
    UnsupportedModeError,
    jc_propagator_closed,
    optimal_interaction_time,
    physical_plan,
)
from wdistill import cavity
from wdistill.cavity import JCParams, jc_steps, run_physical
from wdistill.cli import load_spec
from wdistill.errors import DegenerateCoefficientError, ValidationError
from wdistill.protocol import WPrimeSpec, acting_parties, evolve_sector, min_coefficient_index, run_exact

RANDOM64 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "random64.json")


def total_excitation(fock_dim: int, index: int) -> int:
    atom, n = divmod(index, fock_dim)
    return atom + n


def random_model(rng, resonant: bool = True) -> JCModel:
    w = rng.uniform(1.0, 100.0)
    w0 = w if resonant else w * (1 + rng.uniform(0.05, 0.2))
    return JCModel(
        omega=w, omega0=w0, epsilon=rng.uniform(0.5, 5.0), fock_cutoff=int(rng.integers(1, 4))
    )


class TestJCParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValidationError):
            JCParams(omega=5, epsilon=-1.0)

    def test_rejects_zero_coupling(self):
        # eps = 0 never rescales: dt = arccos(r) / eps would divide by zero
        with pytest.raises(ValidationError, match="epsilon must be > 0"):
            JCParams(omega=5, epsilon=0.0)


class TestJCModel:
    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValidationError):
            JCModel(omega=5, omega0=5, epsilon=1.0, fock_cutoff=0)

    def test_resonance_flag(self):
        assert JCModel(omega=5, omega0=5, epsilon=1).is_resonant
        assert not JCModel(omega=5, omega0=5.1, epsilon=1).is_resonant


class TestJCHamiltonian:
    def test_decoupled_limit_is_diagonal(self):
        # JCModel rejects eps = 0, which the protocol cannot use
        params = SimpleNamespace(omega=3.0, omega0=2.0, epsilon=0.0, fock_cutoff=2)
        h = jc_hamiltonian(params)
        expected = np.diag([-1.0, 2.0, 5.0, 1.0, 4.0, 7.0])  # w*n -+ w0/2, atom slow index
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_single_excitation_block(self):
        h = jc_hamiltonian(JCModel(omega=5, omega0=5, epsilon=1, fock_cutoff=1))
        # ordering (atom, fock): |g,0>, |g,1>, |e,0>, |e,1>
        assert h[0, 0] == pytest.approx(-2.5)
        block = h[np.ix_([2, 1], [2, 1])]  # {|e,0>, |g,1>}
        np.testing.assert_allclose(block, [[2.5, 1.0], [1.0, 2.5]], atol=1e-15)

    def test_coupling_elements_scale_with_sqrt_n(self):
        model = JCModel(omega=4, omega0=4, epsilon=0.7, fock_cutoff=3)
        h = jc_hamiltonian(model)
        d = model.fock_cutoff + 1
        for n in range(3):
            assert h[0 * d + n + 1, 1 * d + n] == pytest.approx(0.7 * math.sqrt(n + 1), abs=1e-15)

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = jc_hamiltonian(random_model(rng, resonant=False))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-15


class TestJCPropagatorClosed:
    def test_zero_time_is_identity(self):
        model = JCModel(omega=5, omega0=5, epsilon=1, fock_cutoff=2)
        np.testing.assert_allclose(jc_propagator_closed(model, 0.0), np.eye(6), atol=1e-15)

    def test_full_population_transfer(self):
        model = JCModel(omega=5, omega0=5, epsilon=1, fock_cutoff=1)
        u = jc_propagator_closed(model, math.pi / 2)
        # |e,0> (index 2) fully transfers onto |g,1> (index 1)
        assert abs(u[1, 2]) == pytest.approx(1.0, abs=1e-15)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            model = random_model(rng)
            t = rng.uniform(0.0, 10.0 / model.epsilon)
            closed = jc_propagator_closed(model, t)
            oracle = propagator(jc_hamiltonian(model), t)
            assert np.max(np.abs(closed - oracle)) <= 1e-10
            assert is_unitary(closed, 1e-12)

    def test_conserves_excitation_number(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            model = random_model(rng)
            t = rng.uniform(0.0, 8.0)
            d = model.fock_cutoff + 1
            for u in (jc_propagator_closed(model, t), propagator(jc_hamiltonian(model), t)):
                for r in range(2 * d):
                    for c in range(2 * d):
                        if total_excitation(d, r) != total_excitation(d, c):
                            assert abs(u[r, c]) <= 1e-12

    def test_rejects_off_resonance(self):
        with pytest.raises(UnsupportedModeError):
            jc_propagator_closed(JCModel(omega=5, omega0=6, epsilon=1), 1.0)


class TestOptimalInteractionTime:
    def test_minimal_magnitude_gives_zero_time(self):
        # tie on the minimal magnitude: party 2 still holds |c_k| = min
        spec = WPrimeSpec([math.sqrt(0.5), 0.5, 0.5])
        assert optimal_interaction_time(spec, 2, 1.0).delta_t == 0.0

    def test_exact_tie_interacts_for_zero_time(self):
        # abs(c) rounds to 0.49999999999999994 but a vectorized |c| may give
        # 0.5: jc_steps must round the tied party's |c_k| as min|c_i| was
        c = complex(-0.42572406775439253, 0.26221940838666646)
        spec = WPrimeSpec([math.sqrt(0.5), c, c])
        dt = jc_steps(spec, JCParams(omega=5, epsilon=1))[0]
        assert acting_parties(spec).tolist() == [0, 2]
        assert dt[1] == 0.0

    def test_worked_value(self, worked_spec):
        plan = optimal_interaction_time(worked_spec, 0, 1.0)
        assert plan.delta_t == pytest.approx(0.8860771237926137, abs=1e-12)
        assert plan.delta_t == pytest.approx(math.acos(math.sqrt(0.4)), abs=1e-15)

    def test_inverse_coupling_scaling(self, worked_spec):
        t1 = optimal_interaction_time(worked_spec, 0, 1.0).delta_t
        t2 = optimal_interaction_time(worked_spec, 0, 2.0).delta_t
        assert t2 == pytest.approx(t1 / 2, abs=1e-15)

    def test_timing_identity(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            eps = rng.uniform(0.5, 5.0)
            min_mag = min(abs(c) for c in spec.coeffs)
            for k in range(spec.n):
                if k == min_coefficient_index(spec.coeffs):
                    continue
                plan = optimal_interaction_time(spec, k, eps)
                assert 0.0 <= plan.delta_t <= math.pi / (2 * eps)
                assert abs(abs(spec.coeffs[k]) * math.cos(eps * plan.delta_t) - min_mag) <= 1e-12

    def test_accrued_phase_record(self, worked_spec):
        plan = optimal_interaction_time(worked_spec, 0, 1.0, omega=50.0)
        assert plan.accrued_phases == {
            "unaffected": 25.0 * plan.delta_t,
            "acting": -25.0 * plan.delta_t,
        }
        assert optimal_interaction_time(worked_spec, 0, 1.0).accrued_phases is None

    def test_rejects_zero_coefficient(self):
        with pytest.raises(DegenerateCoefficientError):
            spec = WPrimeSpec((1.0, 0.0))
            optimal_interaction_time(spec, 1, 1.0)

    def test_rejects_minimal_party_and_bad_coupling(self, worked_spec):
        with pytest.raises(ValidationError):
            optimal_interaction_time(worked_spec, 2, 1.0)
        with pytest.raises(ValidationError):
            optimal_interaction_time(worked_spec, 0, 0.0)


class TestRunPhysical:
    def test_worked_spec(self, worked_spec):
        params = JCParams(omega=50.0, epsilon=1.0)
        report = run_physical(worked_spec, params)
        assert report.success_probability_exact == pytest.approx(0.6, abs=1e-10)
        assert report.fidelity_with_w == pytest.approx(1.0, abs=1e-12)
        dts = report.cavity_steps.tolist()
        assert dts == pytest.approx([0.8860771237926137, 0.6154797086703874], abs=1e-12)

    def test_uniform_spec_needs_no_interaction(self):
        spec = WPrimeSpec([0.5] * 4)
        report = run_physical(spec, JCParams(omega=10, epsilon=2))
        assert not report.cavity_steps.any()
        assert report.success_probability_exact == pytest.approx(1.0, abs=1e-10)

    def test_matches_abstract_protocol(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            w = rng.uniform(1.0, 100.0)
            params = JCParams(omega=w, epsilon=rng.uniform(0.5, 5.0))
            p_abs = run_exact(spec).success_probability_exact
            rep = run_physical(spec, params)
            assert abs(rep.success_probability_exact - p_abs) <= 1e-10
            assert abs(rep.fidelity_with_w - 1.0) <= 1e-12

    def test_probability_independent_of_mode_frequency(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            rep_a = run_physical(spec, JCParams(omega=3.0, epsilon=1.3))
            rep_b = run_physical(spec, JCParams(omega=77.0, epsilon=1.3))
            assert abs(rep_a.success_probability_exact - rep_b.success_probability_exact) <= 1e-12
            assert np.max(np.abs(rep_a.final_state - rep_b.final_state)) <= 1e-12
            fire_a, fire_b = rep_a.fire_probabilities, rep_b.fire_probabilities
            assert np.flatnonzero(fire_a).tolist() == np.flatnonzero(fire_b).tolist()
            assert np.max(np.abs(fire_a - fire_b)) <= 1e-12

    def test_rescaled_amplitude_reaches_minimum(self):
        # after each pass, the acting atom's excited, all-vacuum amplitude
        # has magnitude min |c_i|
        rng = np.random.default_rng(72)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            w = rng.uniform(1.0, 50.0)
            params = JCParams(omega=w, epsilon=rng.uniform(0.5, 4.0))
            state = evolve_sector(spec, *jc_steps(spec, params)[1:])
            min_mag = min(abs(c) for c in spec.coeffs)
            for amp in state.particles[acting_parties(spec)]:
                assert abs(abs(amp) - min_mag) <= 1e-12

    def test_complex_phases_repaired(self):
        coeffs = [
            math.sqrt(0.4) * cmath.exp(1j * 1.9),
            math.sqrt(0.35) * cmath.exp(-1j * 0.4),
            math.sqrt(0.25) * cmath.exp(1j * 0.77),
        ]
        spec = WPrimeSpec(coeffs)
        report = run_physical(spec, JCParams(omega=13.0, epsilon=0.9))
        assert report.fidelity_with_w == pytest.approx(1.0, abs=1e-12)
        # the composed Ramsey pulses leave every amplitude real, positive, equal
        for amp in report.final_state:
            assert amp.real == pytest.approx(1 / math.sqrt(3), abs=1e-12)
            assert abs(amp.imag) <= 1e-12

    def test_ramsey_ledger_is_cmath_phase(self, monkeypatch):
        # the repair angle of atom k is arg(c_k) - w dt_k with cmath.phase's
        # rounding: np.angle's SIMD path rounds 2 of random64's arguments
        # differently on AVX-512 hosts, which would move report bytes there.
        # w = 1 keeps w dt_k near 1: at w = 50 the subtraction rounds an ulp
        # of arg(c_k) away and neither rounding would show
        spec = load_spec(RANDOM64)[0]
        w = 1.0
        distill, handed = cavity.distill, []

        def spy(spec, state, phases):
            handed.append(phases.copy())
            return distill(spec, state, phases)

        monkeypatch.setattr(cavity, "distill", spy)
        dt = run_physical(spec, JCParams(omega=w, epsilon=1.0)).cavity_steps.tolist()
        expected = [cmath.phase(c) for c in spec.coeffs.tolist()]
        for k, dt_k in zip(acting_parties(spec).tolist(), dt):
            expected[k] -= w * dt_k
        (phases,) = handed
        np.testing.assert_array_equal(phases.view(np.uint64), np.array(expected).view(np.uint64))

    def test_physical_plan_skips_minimal_party(self, worked_spec):
        plans = physical_plan(worked_spec, JCParams(omega=5, epsilon=1))
        assert worked_spec.min_index == 2
        assert [p.k for p in plans] == [0, 1]
        assert all(p.accrued_phases is not None for p in plans)
