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
entries and applies all of them at once: a run costs O(N). A run is a few
length-N arrays end to end: the spec's coefficients, each mode's firing
probability and each particle's residual phase.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class WPrimeSpec:
    """Complex coefficients c_1..c_N of a single-excitation pure state.

    coeffs is a read-only 1-D complex128 copy of the input, entry m the
    amplitude of "party m excited".
    """

    coeffs: np.ndarray
    # the party that keeps its amplitude, see min_coefficient_index
    min_index: int = field(init=False, repr=False)
    # min |c_i|, the magnitude every party rescales to
    min_magnitude: float = field(init=False, repr=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1:
            raise SpecError(f"coefficients must form a 1-D array, got shape {coeffs.shape}")
        if len(coeffs) < 2:
            raise SpecError(f"need at least 2 parties, got n={len(coeffs)}")
        if not np.isfinite(coeffs).all():
            raise SpecError("coefficients must be finite")
        # hypot rounds like abs() of a Python complex; np.abs need not
        mags = np.hypot(coeffs.real, coeffs.imag)
        total = float(np.sum(mags**2))
        if abs(total - 1.0) > 1e-9:
            raise SpecError(f"sum |c_i|^2 = {total!r}, expected 1 within 1e-9")
        zeros = np.flatnonzero(coeffs == 0)
        if len(zeros):
            raise DegenerateCoefficientError(
                f"coefficient {zeros[0]} is zero; the distillation probability would vanish"
            )
        min_magnitude = float(mags.min())
        if len(coeffs) * min_magnitude**2 == 0.0:
            raise SpecError(
                f"min|c_i| = {min_magnitude!r} is below the supported floor "
                f"{MIN_MAGNITUDE_FLOOR:.2g}: N * min|c_i|^2 underflows to 0"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "min_index", min_coefficient_index(coeffs))
        object.__setattr__(self, "min_magnitude", min_magnitude)

    @property
    def n(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True, eq=False)
class SectorState:
    """Particles plus measured modes (ancillas or cavities), restricted to
    the kets that hold exactly one excitation.

    amps[m] for m < n is the amplitude of "particle m excited, every mode
    empty"; amps[n + t] that of "every particle ground, mode t holds one
    quantum", modes in measurement order. Whatever a mode's local dimension
    (a cavity's Fock cutoff), the sector gives its detection two outcomes.
    """

    n: int
    amps: np.ndarray

    @property
    def particles(self) -> np.ndarray:
        return self.amps[: self.n]

    @property
    def modes(self) -> np.ndarray:
        return self.amps[self.n :]


@dataclass(frozen=True)
class DistillationReport:
    success_probability_exact: float
    success_probability_analytic: float
    # entry t: probability that mode t reads 1, i.e. of the failure branch
    # in which mode t alone fired; success is every mode reading 0
    fire_probabilities: np.ndarray
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


def min_coefficient_index(coeffs: np.ndarray) -> int:
    """Index of the smallest-magnitude coefficient; magnitudes within
    MAG_TIE_TOL of the minimum tie, and ties go to the smallest index."""
    mags = np.hypot(coeffs.real, coeffs.imag)
    return int(np.argmax(mags <= mags.min() + MAG_TIE_TOL))


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
    keep = spec.min_magnitude / spec.coeffs[acting_parties(spec)]
    return keep, np.sqrt(np.maximum(0.0, 1.0 - np.abs(keep) ** 2))


def analytic_success_probability(spec: WPrimeSpec) -> float:
    """N * min_i |c_i|^2."""
    return spec.n * spec.min_magnitude**2


def evolve_sector(spec: WPrimeSpec, keep, fire, spectator: complex = 1.0) -> SectorState:
    """Apply every step to sum_m c_m |particle m excited> at once.

    Step t couples particle acting_parties(spec)[t] to mode t, which starts
    empty. In the single-excitation sector it multiplies every ket by its
    spectator phase and, relative to that phase, sends |particle excited>
    to keep[t] times itself plus fire[t] times |mode t excited>. spectator
    is the product of the N-1 spectator phases, the phase of a ket no step
    acts on; it multiplies every amplitude once. Either scheme's step
    function (ancilla_steps, jc_steps) gives the entries.
    """
    users = acting_parties(spec)
    particles = spec.coeffs.copy()
    acting = particles[users]
    particles[users] = keep * acting
    amps = np.concatenate((particles, fire * acting))
    if spectator != 1.0:
        amps *= spectator
    amps.setflags(write=False)
    return SectorState(spec.n, amps)


def zero_prefix_weights(state: SectorState) -> np.ndarray:
    """remaining[t], t = 0..n_modes: weight of the kets in which modes
    0..t-1 all read 0, i.e. the particles' weight plus that of modes t
    onward. remaining[0] is the squared norm; the last entry is the
    particles' weight alone. Summed from the last mode backward, so no
    entry is a difference of larger ones."""
    w = np.abs(state.amps) ** 2
    tail = np.concatenate(([w[: state.n].sum()], w[state.n :][::-1]))
    return np.cumsum(tail)[::-1]


def measure_all_branches(state: SectorState) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Outcome probabilities of the mode measurements.

    Inside the sector either every mode reads 0 (the success branch) or
    exactly one mode t reads 1, which leaves every particle ground. The
    zero-prefix conditional probabilities chain through the running
    remaining weight R (zero_prefix_weights): P(modes before t read 0) =
    R[t]/R[0] and P(mode t reads 1 | that) = |a_t|^2/R[t], so mode t fires
    with probability |a_t|^2/R[0] and success has R[-1]/R[0].

    Returns (fire, success probability, normalized particle amplitudes of
    the success branch, or None when it has probability zero); fire[t] is
    the probability that mode t reads 1.
    """
    remaining = zero_prefix_weights(state)
    fire = np.abs(state.modes) ** 2 / remaining[0]
    success_prob = float(remaining[-1] / remaining[0])
    success_particles = None
    if success_prob > 0.0:
        # rescale before normalizing: the squared amplitudes may be subnormal
        scaled = state.particles / np.abs(state.particles).max()
        success_particles = scaled / math.sqrt(float(np.sum(np.abs(scaled) ** 2)))
    return fire, success_prob, success_particles


def phase_correction(amps, phases) -> np.ndarray:
    """Undo the residual single-site phases of post-selected particle
    amplitudes (entry m: particle m excited).

    Multiplies entry m by e^{-i phases[m]}, then strips the global phase so
    the amplitude of |10...0> is real positive. Phases come from an explicit
    ledger rather than from arg() of the amplitudes, which would be
    ill-conditioned near zero.
    """
    amps = np.array(amps, dtype=np.complex128)
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != amps.shape:
        raise ValidationError(f"{phases.shape} phases for {amps.shape} amplitudes")
    amps *= np.exp(-1j * phases)
    head = amps[0]
    if abs(head) == 0.0:
        raise ValidationError("amplitude of |10...0> vanishes; global phase undefined")
    amps *= head.conjugate() / abs(head)
    return amps


def fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 of two normalized amplitude arrays."""
    # np.sum adds pairwise: its rounding error grows like log N, np.vdot's like N
    return abs(complex(np.sum(np.conj(x) * y))) ** 2


def _check(what: str, value: float, target: float, tol: float) -> None:
    """Raise ToleranceError unless |value - target| <= tol; a NaN fails."""
    if not abs(value - target) <= tol:
        raise ToleranceError(f"{what} {value!r} is not {target!r} within {tol}")


def distill(spec: WPrimeSpec, state: SectorState, phases: np.ndarray) -> DistillationReport:
    """Post-select an evolved state on every mode reading 0, then
    phase-correct it by the ledger phases (entry m: particle m's residual
    phase); shared by both realizations.

    Cross-checks the branch sum, the success probability and each failure
    row (party k's mode firing) against their closed forms, and the output
    against the uniform W state; raises ToleranceError on any breach.
    """
    fire, success_prob, success_particles = measure_all_branches(state)
    _check("branch probability sum", success_prob + float(np.sum(fire)), 1.0, PROB_MATCH_TOL)
    # success has N min|c_i|^2 / sum|c_i|^2, and party k's mode fires with
    # (|c_k|^2 - min|c_i|^2) / sum|c_i|^2: a spec may be off norm by 1e-9
    analytic = analytic_success_probability(spec)
    mags_sq = np.hypot(spec.coeffs.real, spec.coeffs.imag) ** 2
    norm_sq = mags_sq.sum()
    _check("success probability", success_prob, analytic / norm_sq, PROB_MATCH_TOL)
    closed = (mags_sq[acting_parties(spec)] - spec.min_magnitude**2) / norm_sq
    t = int(np.argmax(np.abs(fire - closed)))  # argmax stops at the first NaN
    _check(f"mode {t} firing probability", float(fire[t]), float(closed[t]), PROB_MATCH_TOL)
    if success_particles is None:
        raise ToleranceError("success branch has zero probability for a valid specification")

    final_state = phase_correction(success_particles, phases)
    fid = fidelity(final_state, make_w_state(spec.n))
    _check("corrected output fidelity", fid, 1.0, FIDELITY_TOL)
    return DistillationReport(
        success_probability_exact=success_prob,
        success_probability_analytic=analytic,
        fire_probabilities=fire,
        final_state=final_state,
        fidelity_with_w=fid,
        min_index=spec.min_index,
    )


def run_exact(spec: WPrimeSpec) -> DistillationReport:
    """Run the full post-selected protocol exactly over every reachable branch.

    The ancilla steps leave each acting party at min|c_i| with no phase, so
    only the minimal party j keeps a residual phase, arg(c_j).
    """
    phases = np.zeros(spec.n)
    j = spec.min_index
    phases[j] = cmath.phase(spec.coeffs[j])
    return distill(spec, evolve_sector(spec, *ancilla_steps(spec)), phases)
