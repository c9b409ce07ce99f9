"""Probabilistic distillation of W-class states by local two-qubit rotations.

Each of N parties holds one qubit of a single-excitation state with complex
coefficients c_1..c_N. Every party except the one holding the smallest
|c_k| attaches a fresh ancilla qubit and applies a joint unitary that scales
its excitation amplitude down to min|c_i|, dumping the excess onto the
ancilla. Post-selecting all ancillas on |0> leaves the parties with the
uniform W state (up to one single-site phase), with success probability
N * min|c_i|^2. All indices are 0-based internally; user-facing output is
1-based.

Every step conserves excitation number, so the joint state never leaves the
2N-1 kets "particle m excited" / "ancilla t excited" (SectorState), and only
N of the measurement patterns can occur. A run therefore costs O(N).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DegenerateCoefficientError,
    SpecError,
    ToleranceError,
    ValidationError,
)

MAG_TIE_TOL = 1e-12
PROB_MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-12
# below this min|c_i|, min|c_i|^2 is smaller than the least positive double
MIN_MAGNITUDE_FLOOR = math.sqrt(math.ulp(0.0))


@dataclass(frozen=True)
class WPrimeSpec:
    """Complex coefficients c_1..c_N of a single-excitation pure state."""

    n: int
    coeffs: tuple[complex, ...]
    # the party that keeps its amplitude, see min_coefficient_index
    min_index: int = field(init=False, repr=False, compare=False)
    # min |c_i|, the magnitude every party rescales to
    min_magnitude: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise SpecError(f"need at least 2 parties, got n={self.n}")
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) != self.n:
            raise SpecError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
            raise SpecError("coefficients must be finite")
        total = sum(abs(c) ** 2 for c in coeffs)
        if abs(total - 1.0) > 1e-9:
            raise SpecError(f"sum |c_i|^2 = {total!r}, expected 1 within 1e-9")
        if 0 in coeffs:
            raise DegenerateCoefficientError(
                f"coefficient {coeffs.index(0)} is zero; the distillation probability would vanish"
            )
        min_magnitude = min(abs(c) for c in coeffs)
        if self.n * min_magnitude**2 == 0.0:
            raise SpecError(
                f"min|c_i| = {min_magnitude!r} is below the supported floor "
                f"{MIN_MAGNITUDE_FLOOR:.2g}: N * min|c_i|^2 underflows to 0"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "min_index", min_coefficient_index(coeffs))
        object.__setattr__(self, "min_magnitude", min_magnitude)

    @classmethod
    def from_coefficients(cls, coeffs) -> "WPrimeSpec":
        coeffs = tuple(complex(c) for c in coeffs)
        return cls(len(coeffs), coeffs)


@dataclass(frozen=True)
class StepPlan:
    """One party's local move: the 4x4 joint unitary on (ancilla, qubit)."""

    k: int
    z_k: complex
    u_k: np.ndarray


@dataclass(frozen=True, eq=False)
class SectorState:
    """Particles plus measured modes (ancillas or cavities), restricted to
    the kets that hold exactly one excitation.

    amps[m] for m < n is the amplitude of "particle m excited, every mode
    empty"; amps[n + t] that of "every particle ground, mode t holds one
    quantum", modes in measurement order. mode_dim is each mode's local
    dimension (2 for an ancilla qubit, fock_cutoff + 1 for a cavity), i.e.
    how many outcomes its detection has.
    """

    n: int
    amps: np.ndarray
    mode_dim: int

    @property
    def particles(self) -> np.ndarray:
        return self.amps[: self.n]

    @property
    def modes(self) -> np.ndarray:
        return self.amps[self.n :]


@dataclass(frozen=True)
class BranchRecord:
    """A reachable outcome of the mode measurements and its probability.

    fired is the mode that read 1, or None on the success branch, where
    every mode read 0; no other pattern can occur. Keeping the index rather
    than the n_modes digits keeps a run's records O(N) in size.
    """

    fired: int | None
    n_modes: int
    probability: float
    description: str

    @property
    def digits(self) -> str:
        """The outcome pattern as a digit string, mode 0 first."""
        if self.fired is None:
            return "0" * self.n_modes
        return "0" * self.fired + "1" + "0" * (self.n_modes - self.fired - 1)

    @property
    def pattern(self) -> tuple[int, ...]:
        return tuple(map(int, self.digits))


@dataclass(frozen=True)
class DistillationReport:
    success_probability_exact: float
    success_probability_analytic: float
    branch_records: tuple[BranchRecord, ...]
    # corrected particle amplitudes, entry m: particle m excited
    final_state: np.ndarray
    fidelity_with_w: float
    min_index: int
    cavity_steps: tuple | None = None


def make_w_state(n: int) -> np.ndarray:
    """Amplitudes of the uniform n-party W state, 1/sqrt(n) each (entry m:
    party m excited)."""
    if n < 2:
        raise ValidationError(f"W state needs n >= 2, got {n}")
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def min_coefficient_index(coeffs, tol: float = MAG_TIE_TOL) -> int:
    """Index of the smallest-magnitude coefficient; ties go to the smallest index."""
    mags = [abs(c) for c in coeffs]
    floor = min(mags)
    for i, m in enumerate(mags):
        if m <= floor + tol:
            return i
    raise AssertionError("unreachable")


def build_step_unitary(spec: WPrimeSpec, k: int) -> StepPlan:
    """Joint unitary for party k, in the basis ordered (ancilla bit, qubit bit).

    Basis order is {|0 0a>, |1 0a>, |0 1a>, |1 1a>}: the ancilla is the high
    bit. The |1 0a> -> |1 0a> entry is z_k = min|c_i| / c_k, which rescales
    (and de-phases) party k's excitation amplitude to min|c_i|.
    """
    if not 0 <= k < spec.n:
        raise ValidationError(f"party index {k} out of range")
    if k == spec.min_index:
        raise ValidationError(f"party {k} holds the minimal coefficient and must not rotate")
    z = spec.min_magnitude / spec.coeffs[k]
    s = math.sqrt(max(0.0, 1.0 - abs(z) ** 2))
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


def analytic_success_probability(spec: WPrimeSpec) -> float:
    """N * min_i |c_i|^2."""
    return spec.n * spec.min_magnitude**2


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


def evolve_sector(
    coeffs, steps: Iterable[tuple[int, np.ndarray]], vac: int, pair: tuple[int, int], mode_dim: int
) -> SectorState:
    """Apply local step matrices to sum_m coeffs[m] |particle m excited>.

    steps yields (party k, matrix u) in measurement order; step t couples
    particle k to mode t, which starts empty. Each u is read in its own
    local basis: u[vac, vac] is the phase a spectator ket picks up (the
    excitation sits elsewhere) and u[pair, pair] acts on (particle k
    excited, mode t excited). Every other entry linking those three kets to
    any ket must be exactly zero, else ToleranceError: the step would leave
    the single-excitation sector.

    Amplitudes are kept relative to the running product of spectator
    phases, so a step rescales only its own two kets (by its block over its
    spectator phase) and the product multiplies every amplitude once at the
    end: O(N) work for N parties.
    """
    particles = np.array(coeffs, dtype=np.complex128)
    modes = []
    spectator = 1.0
    mask = None
    for k, u in steps:
        if mask is None:
            mask = _leak_mask(len(u), vac, pair)
        if u[mask].any():
            raise ToleranceError(
                f"step matrix of party {k + 1} couples the single-excitation sector to other kets"
            )
        phase = u[vac, vac]
        acting = particles[k]
        particles[k] = u[pair[0], pair[0]] / phase * acting
        modes.append(u[pair[1], pair[0]] / phase * acting)
        spectator *= phase
    amps = np.concatenate((particles, np.array(modes, dtype=np.complex128)))
    if spectator != 1.0:
        amps *= spectator
    amps.setflags(write=False)
    return SectorState(len(particles), amps, mode_dim)


def evolved_joint_state(spec: WPrimeSpec) -> tuple[SectorState, tuple[int, ...]]:
    """Particles + ancillas after every step unitary, before measurement.

    Returns (state, acting parties in measurement order): ancilla t belongs
    to party users[t]. Shared by the exact runner and the trajectory sampler.
    """
    users = tuple(k for k in range(spec.n) if k != spec.min_index)
    steps = ((k, build_step_unitary(spec, k).u_k) for k in users)
    # basis of u_k puts the ancilla bit high: |1,0a> is index 1, |0,1a> index 2
    return evolve_sector(spec.coeffs, steps, vac=0, pair=(1, 2), mode_dim=2), users


def zero_prefix_weights(state: SectorState) -> np.ndarray:
    """remaining[t], t = 0..n_modes: weight of the kets in which modes
    0..t-1 all read 0, i.e. the particles' weight plus that of modes t
    onward. remaining[0] is the squared norm; the last entry is the
    particles' weight alone. Summed from the last mode backward, so no
    entry is a difference of larger ones."""
    w = np.abs(state.amps) ** 2
    tail = np.concatenate(([w[: state.n].sum()], w[state.n :][::-1]))
    return np.cumsum(tail)[::-1]


def measure_all_branches(
    state: SectorState,
) -> tuple[list[BranchRecord], float, np.ndarray | None]:
    """Every outcome pattern of the mode measurements with nonzero
    probability, in lexicographic pattern order.

    Inside the sector either every mode reads 0 (the success branch) or
    exactly one mode t reads 1, which leaves every particle ground. The
    zero-prefix conditional probabilities chain through the running
    remaining weight R (zero_prefix_weights): P(modes before t read 0) =
    R[t]/R[0] and P(mode t reads 1 | that) = |a_t|^2/R[t], so mode t fires
    with probability |a_t|^2/R[0] and success has R[-1]/R[0].

    Returns (records, success probability, normalized particle amplitudes
    of the success branch, or None when it has probability zero).
    """
    remaining = zero_prefix_weights(state)
    fire = np.abs(state.modes) ** 2 / remaining[0]
    success_prob = float(remaining[-1] / remaining[0])
    n_modes = len(fire)
    records: list[BranchRecord] = []
    success_particles = None
    if success_prob > 0.0:
        records.append(
            BranchRecord(None, n_modes, success_prob, "success: particles carry the distilled state")
        )
        # rescale before normalizing: the squared amplitudes may be subnormal
        scaled = state.particles / np.abs(state.particles).max()
        success_particles = scaled / math.sqrt(float(np.sum(np.abs(scaled) ** 2)))
    failure = f"failure: particles collapsed to |{'0' * state.n}>"
    # a later firing mode spells a lexicographically smaller pattern
    for t in np.flatnonzero(fire)[::-1]:
        records.append(BranchRecord(int(t), n_modes, float(fire[t]), failure))
    return records, success_prob, success_particles


def phase_correction(
    amps,
    j: int,
    c_j: complex,
    reference_phases: Mapping[int, float] | None = None,
) -> np.ndarray:
    """Undo the residual single-site phases of post-selected particle
    amplitudes (entry m: particle m excited).

    Multiplies entry j by e^{-i arg(c_j)} and every entry recorded in the
    ledger by e^{-i phi}, then strips the global phase so the amplitude of
    |10...0> is real positive. Phases come from the explicit ledger rather
    than from arg() of the amplitudes, which would be ill-conditioned near
    zero.
    """
    amps = np.array(amps, dtype=np.complex128)
    if not 0 <= j < len(amps):
        raise ValidationError(f"site {j} out of range")
    corrections = dict(reference_phases or {})
    corrections[j] = corrections.get(j, 0.0) + cmath.phase(complex(c_j))
    for site, phi in corrections.items():
        if phi != 0.0:
            amps[site] *= cmath.exp(-1j * phi)
    head = amps[0]
    if abs(head) == 0.0:
        raise ValidationError("amplitude of |10...0> vanishes; global phase undefined")
    amps *= head.conjugate() / abs(head)
    return amps


def fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 of two normalized amplitude arrays."""
    # np.sum adds pairwise: its rounding error grows like log N, np.vdot's like N
    return abs(complex(np.sum(np.conj(x) * y))) ** 2


def distill(
    spec: WPrimeSpec,
    state: SectorState,
    reference_phases: Mapping[int, float] | None = None,
) -> DistillationReport:
    """Post-select an evolved state on every mode reading 0, then
    phase-correct it with the given ledger; shared by both realizations.

    Cross-checks the branch sum, the success probability against the closed
    form and the output against the uniform W state; raises ToleranceError
    on any breach.
    """
    records, success_prob, success_particles = measure_all_branches(state)

    total = sum(r.probability for r in records)
    if abs(total - 1.0) > PROB_MATCH_TOL:
        raise ToleranceError(f"branch probabilities sum to {total!r}, not 1")
    analytic = analytic_success_probability(spec)
    if abs(success_prob - analytic) > PROB_MATCH_TOL:
        raise ToleranceError(
            f"simulated success probability {success_prob!r} deviates from analytic {analytic!r}"
        )
    if success_particles is None:
        raise ToleranceError("success branch has zero probability for a valid specification")

    j = spec.min_index
    final_state = phase_correction(success_particles, j, spec.coeffs[j], reference_phases)
    fid = fidelity(final_state, make_w_state(spec.n))
    if abs(fid - 1.0) > FIDELITY_TOL:
        raise ToleranceError(f"corrected output fidelity {fid!r} is not 1 within {FIDELITY_TOL}")
    return DistillationReport(
        success_probability_exact=success_prob,
        success_probability_analytic=analytic,
        branch_records=tuple(records),
        final_state=final_state,
        fidelity_with_w=fid,
        min_index=j,
    )


def run_exact(spec: WPrimeSpec) -> DistillationReport:
    """Run the full post-selected protocol exactly over every reachable branch."""
    return distill(spec, evolved_joint_state(spec)[0])
