import math

import numpy as np
import pytest

from support import ShapeError, statevec
from support.linalg import propagator
from support.statevec import (
    StateVector,
    SubsystemLayout,
    apply_local,
    basis_state,
    drop_collapsed_sites,
    fidelity,
    inner_product,
    project_site,
    site_distribution,
)
from wdistill.errors import ValidationError

X = np.array([[0.0, 1.0], [1.0, 0.0]])

# frozen oracle: <W3|W'3> = (a + b + c)/sqrt(3) expanded termwise for the
# worked coefficients (sqrt .5, .3, .2)
WORKED_OVERLAP = (math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.2)) / math.sqrt(3)
assert abs(WORKED_OVERLAP - 0.9826749462278621) < 1e-15


def w3() -> StateVector:
    layout = SubsystemLayout((2, 2, 2))
    amps = np.zeros(8, dtype=complex)
    amps[[4, 2, 1]] = 1 / math.sqrt(3)
    return StateVector(layout, amps)


def w3_prime(a=math.sqrt(0.5), b=math.sqrt(0.3), c=math.sqrt(0.2)) -> StateVector:
    layout = SubsystemLayout((2, 2, 2))
    amps = np.zeros(8, dtype=complex)
    amps[4], amps[2], amps[1] = a, b, c
    return StateVector(layout, amps)


def random_state(rng, dims) -> StateVector:
    amps = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
    return StateVector(SubsystemLayout(tuple(dims)), amps / np.linalg.norm(amps))


def random_unitary(rng, dim) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return propagator((a + a.conj().T) / 2, 1.0)


class TestLayout:
    def test_rejects_dim_below_two(self):
        with pytest.raises(ValidationError):
            SubsystemLayout((2, 1))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(statevec, "MAX_DIM", 16)
        with pytest.raises(ValidationError, match="state dimension 32 exceeds cap 16"):
            SubsystemLayout((2,) * 5)
        SubsystemLayout((2,) * 4)  # at the cap: fine

    def test_label_arity(self):
        with pytest.raises(ShapeError):
            SubsystemLayout((2, 2), labels=("only-one",))

    def test_ravel_unravel_round_trip(self):
        layout = SubsystemLayout((2, 3, 2, 4))
        for idx in range(layout.size):
            assert layout.ravel(layout.unravel(idx)) == idx


class TestBasisState:
    def test_three_qubits(self):
        state = basis_state(SubsystemLayout((2, 2, 2)), (1, 0, 0))
        expected = np.zeros(8)
        expected[4] = 1.0  # site 0 is the most significant bit
        np.testing.assert_array_equal(state.amps, expected)

    def test_heterogeneous_dims(self):
        state = basis_state(SubsystemLayout((2, 3)), (0, 2))
        assert state.amps[2] == 1.0 and state.norm_sq() == 1.0

    def test_last_index(self):
        state = basis_state(SubsystemLayout((2, 2)), (1, 1))
        assert state.amps[3] == 1.0

    def test_occupation_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(SubsystemLayout((2, 2)), (0, 2))


class TestApplyLocal:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, (2, 3, 2))
        out = apply_local(state, np.eye(6), (1, 2))
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_bit_flip(self):
        state = basis_state(SubsystemLayout((2, 2, 2)), (1, 0, 0))
        out = apply_local(state, X, (0,))
        np.testing.assert_array_equal(out.amps, basis_state(state.layout, (0, 0, 0)).amps)

    def test_rescaling_step_on_particle_and_ancilla(self):
        # W'3 (x) |0>_anc under the joint rescaling unitary: the ancilla-0
        # branch becomes (|c|, b, c) and the ancilla-1 branch carries
        # a*sqrt(1 - |c|^2/|a|^2) = sqrt(0.3) on |000>|1>
        a, b, c = math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)
        layout = SubsystemLayout((2, 2, 2, 2))
        amps = np.zeros(16, dtype=complex)
        amps[layout.ravel((1, 0, 0, 0))] = a
        amps[layout.ravel((0, 1, 0, 0))] = b
        amps[layout.ravel((0, 0, 1, 0))] = c
        state = StateVector(layout, amps)
        z = c / a
        s = math.sqrt(1.0 - z * z)
        u = np.array([[1, 0, 0, 0], [0, z, -s, 0], [0, s, z, 0], [0, 0, 0, 1]], dtype=complex)
        out = apply_local(state, u, (3, 0))  # ancilla is the high bit of the block
        t = out.amps
        assert t[layout.ravel((1, 0, 0, 0))] == pytest.approx(c, abs=1e-15)
        assert t[layout.ravel((0, 1, 0, 0))] == pytest.approx(b, abs=1e-15)
        assert t[layout.ravel((0, 0, 1, 0))] == pytest.approx(c, abs=1e-15)
        assert abs(t[layout.ravel((0, 0, 0, 1))]) == pytest.approx(math.sqrt(0.3), abs=1e-15)

    def test_duplicate_sites(self):
        state = basis_state(SubsystemLayout((2, 2)), (0, 0))
        with pytest.raises(ValidationError):
            apply_local(state, np.eye(4), (0, 0))

    def test_shape_mismatch(self):
        state = basis_state(SubsystemLayout((2, 3)), (0, 0))
        with pytest.raises(ShapeError):
            apply_local(state, np.eye(2), (1,))

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_state(rng, (2, 3, 2, 2))
            u = random_unitary(rng, 6)
            out = apply_local(state, u, (1, 3))
            assert abs(out.norm_sq() - 1.0) <= 1e-12

    def test_disjoint_sites_commute(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            state = random_state(rng, (2, 2, 3, 2))
            u, v = random_unitary(rng, 4), random_unitary(rng, 3)
            ab = apply_local(apply_local(state, u, (0, 3)), v, (2,))
            ba = apply_local(apply_local(state, v, (2,)), u, (0, 3))
            assert np.max(np.abs(ab.amps - ba.amps)) <= 1e-12


class TestProjectSite:
    def test_deterministic_qubit(self):
        state = basis_state(SubsystemLayout((2, 2)), (0, 1))
        prob, collapsed = project_site(state, 0, 0)
        assert prob == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(collapsed.amps, state.amps, atol=1e-15)

    def test_symmetric_superposition(self):
        layout = SubsystemLayout((2, 2))
        amps = np.zeros(4, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)
        prob, collapsed = project_site(StateVector(layout, amps), 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(collapsed.amps, basis_state(layout, (1, 0)).amps, atol=1e-15)

    def test_failure_branch_weight(self):
        # after the first rescaling pass, the ancilla-1 outcome carries
        # |a|^2 - |c|^2 = 0.3 for the worked coefficients
        a, b, c = math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)
        layout = SubsystemLayout((2, 2, 2, 2))
        amps = np.zeros(16, dtype=complex)
        amps[layout.ravel((1, 0, 0, 0))] = c
        amps[layout.ravel((0, 1, 0, 0))] = b
        amps[layout.ravel((0, 0, 1, 0))] = c
        amps[layout.ravel((0, 0, 0, 1))] = a * math.sqrt(1 - c * c / (a * a))
        prob, _ = project_site(StateVector(layout, amps), 3, 1)
        assert prob == pytest.approx(0.3, abs=1e-12)

    def test_zero_probability_returns_none(self):
        prob, collapsed = project_site(basis_state(SubsystemLayout((2, 2)), (0, 0)), 0, 1)
        assert prob == 0.0 and collapsed is None

    def test_outcome_out_of_range(self):
        with pytest.raises(IndexError):
            project_site(basis_state(SubsystemLayout((2, 2)), (0, 0)), 1, 2)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            state = random_state(rng, (2, 3, 4))
            for site in range(3):
                total = sum(
                    project_site(state, site, o)[0] for o in range(state.layout.dims[site])
                )
                assert abs(total - 1.0) <= 1e-12
                assert abs(site_distribution(state, site).sum() - 1.0) <= 1e-12

    def test_requires_normalized(self):
        state = StateVector(SubsystemLayout((2,)), np.array([2.0, 0.0]))
        with pytest.raises(ValidationError):
            project_site(state, 0, 0)


class TestOverlap:
    def test_self_inner_product(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, (2, 2, 3))
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_kets(self):
        layout = SubsystemLayout((2, 2, 2))
        assert inner_product(basis_state(layout, (1, 0, 0)), basis_state(layout, (0, 1, 0))) == 0

    def test_worked_overlap_value(self):
        assert inner_product(w3(), w3_prime()) == pytest.approx(WORKED_OVERLAP, abs=1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(
                basis_state(SubsystemLayout((2, 2)), (0, 0)),
                basis_state(SubsystemLayout((2, 3)), (0, 0)),
            )

    def test_fidelity_self_and_global_phase(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, (2, 2))
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
        for theta in (0.3, 1.0, 2.9):
            rotated = StateVector(state.layout, state.amps * np.exp(1j * theta))
            assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_worked_fidelity_value(self):
        assert fidelity(w3(), w3_prime()) == pytest.approx(WORKED_OVERLAP**2, abs=1e-12)
        assert abs(WORKED_OVERLAP**2 - 0.9656500499439317) < 1e-15


class TestDropCollapsedSites:
    def test_extracts_product_factor(self):
        layout = SubsystemLayout((2, 2, 2))
        amps = np.zeros(8, dtype=complex)
        amps[[4, 2]] = 1 / math.sqrt(2)  # (|10> + |01>) (x) |0>
        reduced = drop_collapsed_sites(StateVector(layout, amps), {2: 0})
        assert reduced.layout.dims == (2, 2)
        np.testing.assert_allclose(np.abs(reduced.amps), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15)

    def test_rejects_unprojected_site(self):
        layout = SubsystemLayout((2, 2))
        amps = np.ones(4, dtype=complex) / 2
        with pytest.raises(ValidationError):
            drop_collapsed_sites(StateVector(layout, amps), {0: 0})
