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
N of the measurement patterns can occur. Inside that sector a step is a 2x2
rotation of (party k excited, its ancilla excited) times a phase on every
other ket, so the runtime describes each step by two closed-form block
entries and applies all of them at once: a run costs O(N).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

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


@dataclass(frozen=True)
class DistillationReport:
    success_probability_exact: float
    success_probability_analytic: float
    branch_records: tuple[BranchRecord, ...]
    # corrected particle amplitudes, entry m: particle m excited
    final_state: np.ndarray
    fidelity_with_w: float
    min_index: int
    # cavity scheme: interaction time of each acting party's pass, in
    # acting_parties order
    cavity_steps: np.ndarray | None = None


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


def acting_parties(spec: WPrimeSpec) -> np.ndarray:
    """Every party but spec.min_index, ascending: the order of the steps and
    of the measured modes (mode t belongs to party acting_parties(spec)[t])."""
    return np.delete(np.arange(spec.n), spec.min_index)


def ancilla_steps(spec: WPrimeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(keep, fire): block entries of every acting party's ancilla step.

    Party k's two-qubit unitary is the identity on |0,0a> and the rotation
    [[z_k, -s_k], [s_k, conj z_k]] on (|1,0a>, |0,1a>), with z_k =
    min|c_i| / c_k and s_k = sqrt(1 - |z_k|^2): the excited qubit keeps
    keep = z_k of its amplitude, which rescales (and de-phases) it to
    min|c_i|, and hands fire = s_k to its ancilla.
    """
    keep = spec.min_magnitude / np.asarray(spec.coeffs)[acting_parties(spec)]
    return keep, np.sqrt(np.maximum(0.0, 1.0 - np.abs(keep) ** 2))


def analytic_success_probability(spec: WPrimeSpec) -> float:
    """N * min_i |c_i|^2."""
    return spec.n * spec.min_magnitude**2


def evolve_sector(coeffs, users, keep, fire, spectator: complex, mode_dim: int) -> SectorState:
    """Apply every step to sum_m coeffs[m] |particle m excited> at once.

    Step t couples particle users[t] (distinct parties) to mode t, which
    starts empty. In the single-excitation sector it multiplies every ket
    by its spectator phase and, relative to that phase, sends
    |particle users[t] excited> to keep[t] times itself plus fire[t] times
    |mode t excited>. spectator is the product of the N-1 spectator phases,
    the phase of a ket no step acts on; it multiplies every amplitude once.
    """
    particles = np.array(coeffs, dtype=np.complex128)
    acting = particles[users]
    particles[users] = keep * acting
    amps = np.concatenate((particles, fire * acting))
    if spectator != 1.0:
        amps *= spectator
    amps.setflags(write=False)
    return SectorState(len(particles), amps, mode_dim)


def evolved_joint_state(spec: WPrimeSpec) -> tuple[SectorState, np.ndarray]:
    """Particles + ancillas after every ancilla step, before measurement.

    Returns (state, acting parties in measurement order): ancilla t belongs
    to party users[t]. Shared by the exact runner and the trajectory sampler.
    """
    users = acting_parties(spec)
    keep, fire = ancilla_steps(spec)
    return evolve_sector(spec.coeffs, users, keep, fire, 1.0, mode_dim=2), users


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
