"""Small dense complex linear algebra, the tests' reference for the simulator.

Everything here operates on plain numpy arrays (complex128, 2-D for
matrices). Matrices in this package are tiny (<= ~64x64), so clarity and
unconditional stability win over performance tricks.

Tolerance conventions: 1e-12 for algebraic identities, 1e-10 for results of
iterative/decomposition routines. Units use hbar = 1, so times and angular
frequencies are mutually reciprocal.
"""
from __future__ import annotations

import numpy as np

from wdistill.errors import ValidationError

from . import ShapeError

ALGEBRAIC_TOL = 1e-12
DECOMP_TOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def mat_mul(a, b) -> np.ndarray:
    """Matrix product A @ B with an explicit inner-dimension check."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape[1] != mb.shape[0]:
        raise ShapeError(f"cannot multiply {ma.shape} by {mb.shape}")
    return ma @ mb


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def is_unitary(a, tol: float = ALGEBRAIC_TOL) -> bool:
    """True iff max-entry magnitude of A^dag A - I is within tol."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"unitarity is defined for square matrices, got {m.shape}")
    resid = adjoint(m) @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(resid)) <= tol)


def _require_hermitian(a, tol: float = DECOMP_TOL) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if np.max(np.abs(m - m.conj().T)) > tol * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def eigh_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns). Validates
    Hermiticity to 1e-10 relative to the matrix scale before decomposing.
    """
    m = _require_hermitian(h)
    # Exact symmetrization removes the last-bit skew the tolerance allowed.
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, v


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-i H t) of a Hermitian generator, via eigendecomposition."""
    w, v = eigh_hermitian(h)
    phases = np.exp(-1j * w * float(t))
    return (v * phases) @ v.conj().T
