import math

import numpy as np
import pytest

from support import ShapeError
from support.dense import jc_hamiltonian
from support.linalg import adjoint, eigh_hermitian, is_unitary, mat_mul, propagator
from support.steps import JCModel, jc_propagator_closed
from wdistill.errors import ValidationError


def expm_series(h: np.ndarray, t: float, terms: int = 80) -> np.ndarray:
    """Brute-force power series for exp(-i h t), the oracle for propagator."""
    m = -1j * t * np.asarray(h, dtype=complex)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def step_matrix(z: complex) -> np.ndarray:
    """4x4 rescaling unitary assembled directly from its defining entries."""
    s = math.sqrt(1.0 - abs(z) ** 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, z, -s, 0],
            [0, s, np.conj(z), 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


class TestMatMul:
    def test_identity(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(mat_mul(np.eye(2), m), m, atol=0)

    def test_diag_imaginary_square(self):
        d = np.diag([1.0, 1.0j])
        np.testing.assert_allclose(mat_mul(d, d), np.diag([1.0, -1.0]), atol=1e-15)

    def test_step_matrix_times_adjoint_is_identity(self):
        # worked coefficients (sqrt .5, .3, .2): z = |c|/a = sqrt(0.4)
        u = step_matrix(math.sqrt(0.2) / math.sqrt(0.5))
        np.testing.assert_allclose(mat_mul(adjoint(u), u), np.eye(4), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(np.eye(2), np.eye(3))


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(adjoint(np.eye(3)), np.eye(3))

    def test_conjugates(self):
        np.testing.assert_array_equal(adjoint(np.diag([1, 1j])), np.diag([1, -1j]))

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(adjoint(adjoint(m)), m)


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), 1e-12)

    def test_non_isometric(self):
        assert not is_unitary(np.diag([2.0, 1.0]), 1e-12)

    def test_complex_step_matrix(self):
        z = 0.5 * np.exp(1j * np.pi / 3)
        assert is_unitary(step_matrix(z), 1e-12)

    def test_non_square(self):
        with pytest.raises(ShapeError):
            is_unitary(np.ones((2, 3)))


class TestEigh:
    def test_diagonal_sorted(self):
        w, _ = eigh_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_exchange_matrix(self):
        w, _ = eigh_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_single_excitation_block(self):
        # resonant atom-cavity block at w = w0 = 5, eps = 1: (5/2) I + X
        w, _ = eigh_hermitian(np.array([[2.5, 1.0], [1.0, 2.5]]))
        np.testing.assert_allclose(w, [1.5, 3.5], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 12])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        w, v = eigh_hermitian(h)
        scale = max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10 * scale
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigh_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPropagator:
    def test_zero_generator(self):
        np.testing.assert_allclose(propagator(np.zeros((5, 5)), 7.0), np.eye(5), atol=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.7, 4.0])
    def test_exchange_matrix_vs_series(self, t):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(propagator(h, t), expm_series(h, t), atol=1e-12)
        expected = math.cos(t) * np.eye(2) - 1j * math.sin(t) * h
        np.testing.assert_allclose(propagator(h, t), expected, atol=1e-12)

    def test_matches_closed_form_cavity_block(self):
        model = JCModel(omega=5.0, omega0=5.0, epsilon=1.0, fock_cutoff=1)
        u = propagator(jc_hamiltonian(model), math.pi / 4)
        np.testing.assert_allclose(u, jc_propagator_closed(model, math.pi / 4), atol=1e-10)

    def test_group_law_and_unitarity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        u1, u2 = propagator(h, 0.8), propagator(h, 1.9)
        np.testing.assert_allclose(u1 @ u2, propagator(h, 2.7), atol=1e-10)
        assert is_unitary(u1, 1e-10)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(6), atol=1e-12)

    def test_preserves_vector_norm(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (a + a.conj().T) / 2
        u = propagator(h, 2.2)
        for _ in range(5):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            assert abs(np.linalg.norm(u @ v) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
