"""Per-party step matrices: the reference for the closed-form block entries.

The package describes each step only by the two entries of its 2x2 block
that it needs (wdistill.protocol.ancilla_steps, wdistill.cavity.jc_steps).
This module builds the full local matrices those entries come from: the 4x4
two-qubit unitary of the abstract scheme and the 2(f+1)-square resonant
Jaynes-Cummings propagator of the cavity scheme, with their per-party plans.
The dense oracle evolves with these matrices, and leaked_entries checks that
a matrix cannot take a single-excitation ket out of the sector.

JCModel is the Jaynes-Cummings model those matrices are built from: the mode
frequency omega, the atomic transition frequency omega0 and the Fock cutoff,
besides the coupling. The package runs the resonant model only, on the
sector, where the cutoff changes nothing, so it takes JCModel.params, the
(omega, epsilon) that model reduces to.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from wdistill.cavity import JCParams
from wdistill.errors import ValidationError
from wdistill.protocol import WPrimeSpec

RESONANCE_TOL = 1e-12

# basis of the abstract step matrix: the ancilla is the high bit, so
# |0,0a> is index 0, |1,0a> index 1 and |0,1a> index 2
ANCILLA_VAC, ANCILLA_PAIR = 0, (1, 2)


class UnsupportedModeError(ValueError):
    """Closed-form cavity evolution requested outside resonance."""


@dataclass(frozen=True)
class JCModel:
    """Truncated, possibly detuned Jaynes-Cummings model: mode frequency
    omega, atomic transition frequency omega0, coupling epsilon and the
    retained Fock-space cutoff."""

    omega: float
    omega0: float
    epsilon: float
    fock_cutoff: int = 1

    def __post_init__(self):
        for name in ("omega", "omega0", "epsilon"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.epsilon <= 0:
            raise ValidationError(f"coupling epsilon must be > 0, got {self.epsilon}")
        if int(self.fock_cutoff) < 1:
            raise ValidationError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        object.__setattr__(self, "fock_cutoff", int(self.fock_cutoff))

    @property
    def is_resonant(self) -> bool:
        return abs(self.omega - self.omega0) <= RESONANCE_TOL * max(abs(self.omega), 1.0)

    @property
    def params(self) -> JCParams:
        """The package's parameters for this model (it runs at resonance)."""
        return JCParams(omega=self.omega, epsilon=self.epsilon)


@dataclass(frozen=True)
class StepPlan:
    """One party's local move: the 4x4 joint unitary on (ancilla, qubit)."""

    k: int
    z_k: complex
    u_k: np.ndarray


def build_step_unitary(spec: WPrimeSpec, k: int) -> StepPlan:
    """Joint unitary for party k, in the basis ordered (ancilla bit, qubit bit).

    Basis order is {|0 0a>, |1 0a>, |0 1a>, |1 1a>}: the ancilla is the high
    bit. The |1 0a> -> |1 0a> entry is z_k = min|c_i| / c_k, which rescales
    (and de-phases) party k's excitation amplitude to min|c_i|. The
    |1 0a> -> |0 1a> entry sqrt(1 - |z_k|^2) is taken in the factored form
    sqrt((|c_k| - min)(|c_k| + min)) / |c_k|, which has no cancellation
    as |z_k| nears 1.
    """
    if not 0 <= k < spec.n:
        raise ValidationError(f"party index {k} out of range")
    if k == spec.min_index:
        raise ValidationError(f"party {k} holds the minimal coefficient and must not rotate")
    m, mag = spec.min_magnitude, abs(complex(spec.coeffs[k]))
    z = m / complex(spec.coeffs[k])
    s = math.sqrt((mag - m) * (mag + m)) / mag
    u = np.array(
        [
            [1, 0, 0, 0],
            [0, z, -s, 0],
            [0, s, z.conjugate(), 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    return StepPlan(k=k, z_k=z, u_k=u)


def plan(spec: WPrimeSpec) -> tuple[StepPlan, ...]:
    """The N-1 step unitaries in ascending party order, skipping spec.min_index."""
    return tuple(build_step_unitary(spec, k) for k in range(spec.n) if k != spec.min_index)


@dataclass(frozen=True)
class CavityStepPlan:
    """Interaction time for one party's atom-cavity pass.

    accrued_phases records the angles of the phase factors the pass imprints:
    +omega*dt/2 on terms where the atom stays ground over vacuum, -omega*dt/2
    on the term with the atom excited. Populated only when omega is known at
    planning time.
    """

    k: int
    delta_t: float
    accrued_phases: dict[str, float] | None = None


def _jc_index(fock_dim: int, atom: int, n: int) -> int:
    # (atom tensor fock) ordering, atom bit most significant
    return atom * fock_dim + n


def jc_sector_kets(fock_dim: int) -> tuple[int, tuple[int, int]]:
    """Indices of |g,0> and of the pair (|e,0>, |g,1>) in a propagator."""
    return _jc_index(fock_dim, 0, 0), (_jc_index(fock_dim, 1, 0), _jc_index(fock_dim, 0, 1))


def jc_propagator_closed(model: JCModel, t: float) -> np.ndarray:
    """exp(-i H t) at resonance, assembled sector by sector.

    |g,0> picks up e^{+i w t/2}; each excitation sector {|e,n>, |g,n+1>}
    Rabi-oscillates at eps*sqrt(n+1) under a common e^{-i w (n+1/2) t}; the
    dangling |e,cutoff> level is uncoupled in the truncated space.
    """
    if not model.is_resonant:
        raise UnsupportedModeError(
            "closed-form propagator requires resonance (omega == omega0); "
            "off-resonant dynamics are outside the protocol"
        )
    d = model.fock_cutoff + 1
    t = float(t)
    u = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    u[_jc_index(d, 0, 0), _jc_index(d, 0, 0)] = cmath.exp(0.5j * model.omega * t)
    for n in range(d - 1):
        theta = model.epsilon * math.sqrt(n + 1) * t
        common = cmath.exp(-1j * model.omega * (n + 0.5) * t)
        e_n, g_n1 = _jc_index(d, 1, n), _jc_index(d, 0, n + 1)
        u[e_n, e_n] = common * math.cos(theta)
        u[g_n1, g_n1] = common * math.cos(theta)
        u[g_n1, e_n] = -1j * common * math.sin(theta)
        u[e_n, g_n1] = -1j * common * math.sin(theta)
    top = _jc_index(d, 1, d - 1)
    u[top, top] = cmath.exp(-1j * model.omega * (d - 0.5) * t)
    return u


def optimal_interaction_time(
    spec: WPrimeSpec, k: int, epsilon: float, omega: float | None = None
) -> CavityStepPlan:
    """Interaction time dt_k = arccos(min|c_i| / |c_k|) / eps for party k,
    taken as atan2(sqrt((|c_k| - min)(|c_k| + min)), min) / eps, which keeps
    its digits as the ratio nears 1 (arccos does not).

    Passing omega fills in the accrued phase-factor angles for the ledger.
    """
    if epsilon <= 0:
        raise ValidationError(f"coupling epsilon must be positive, got {epsilon}")
    if not 0 <= k < spec.n:
        raise ValidationError(f"party index {k} out of range")
    if k == spec.min_index:
        raise ValidationError(f"party {k} holds the minimal coefficient and must not interact")
    m, mag = spec.min_magnitude, abs(complex(spec.coeffs[k]))
    delta_t = math.atan2(math.sqrt((mag - m) * (mag + m)), m) / epsilon
    phases = None
    if omega is not None:
        half = 0.5 * float(omega) * delta_t
        phases = {"unaffected": +half, "acting": -half}
    return CavityStepPlan(k=k, delta_t=delta_t, accrued_phases=phases)


def physical_plan(spec: WPrimeSpec, params: JCParams) -> tuple[CavityStepPlan, ...]:
    """Per-party interaction times in ascending party order, skipping spec.min_index."""
    return tuple(
        optimal_interaction_time(spec, k, params.epsilon, omega=params.omega)
        for k in range(spec.n)
        if k != spec.min_index
    )


def _leak_mask(dim: int, vac: int, pair: tuple[int, int]) -> np.ndarray:
    """Entries of a dim x dim step matrix that link the local vacuum ket or
    the one-excitation pair to a ket outside that class."""
    inside = [vac, *pair]
    mask = np.zeros((dim, dim), dtype=bool)
    mask[inside, :] = True
    mask[:, inside] = True
    mask[vac, vac] = False
    mask[np.ix_(pair, pair)] = False
    return mask


def leaked_entries(u: np.ndarray, vac: int, pair: tuple[int, int]) -> list[tuple[int, int]]:
    """(row, column) of every nonzero entry of a step matrix that couples the
    local vacuum ket or the one-excitation pair to any other ket: empty iff
    the step keeps the single-excitation sector."""
    return [tuple(ix) for ix in np.argwhere((u != 0) & _leak_mask(len(u), vac, pair)).tolist()]
