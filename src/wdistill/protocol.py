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
2N-1 kets "particle m excited" / "ancilla t excited", and only N of the
measurement patterns can occur. Inside that sector a step is a 2x2 rotation
of (party k excited, its ancilla excited) times a phase on every other ket,
so the runtime describes each step by two closed-form block entries and
applies all of them at once: a run costs O(N). A run is a few length-N
arrays end to end: the spec's coefficients, the evolved state as its N
particle and N-1 mode amplitudes (evolve_sector), each mode's firing
probability and each particle's residual phase.

Each step is a local unitary followed by post-selection, so the outcome
probabilities are those of the magnitudes alone (WPrimeSpec.mode_weights),
with no rounding of a phase in them; distill checks the evolved state's.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, ToleranceError, ValidationError

MAG_TIE_TOL = 1e-12
PROB_MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-12
# the tie window is also at most MAG_TIE_REL * min|c_i|: a party kept at
# (1 + d) min|c_i| lowers F by at most d^2/4, <= FIDELITY_TOL/4 for d <= this
MAG_TIE_REL = math.sqrt(FIDELITY_TOL)
# below this min|c_i|, min|c_i|^2 is smaller than the least positive double
MIN_MAGNITUDE_FLOOR = math.sqrt(math.ulp(0.0))


@dataclass(frozen=True, eq=False)
class WPrimeSpec:
    """Complex coefficients c_1..c_N of a single-excitation pure state.

    coeffs is a read-only 1-D complex128 copy of the input, entry m the
    amplitude of "party m excited". Every per-party fact a run reads is
    derived here, once, and read-only.
    """

    coeffs: np.ndarray
    # |c_i| by hypot, which rounds like abs() of a Python complex; np.abs need not
    magnitudes: np.ndarray = field(init=False, repr=False)
    # the party that keeps its amplitude: the smallest |c_i|, where magnitudes
    # within min(MAG_TIE_TOL, MAG_TIE_REL * min|c_i|) of the minimum tie and
    # ties go to the smallest index
    min_index: int = field(init=False, repr=False)
    # min |c_i|, the magnitude every party rescales to
    min_magnitude: float = field(init=False, repr=False)
    # every party but min_index, ascending: the order of the steps, of the
    # measured modes and of the sampler's draws (mode t belongs to party acting[t])
    acting: np.ndarray = field(init=False, repr=False)
    # s_k^2 = (|c_k| - min|c_i|)(|c_k| + min|c_i|), k in acting: what party k's step moves
    # onto its mode; the difference is exact for |c_k| <= 2 min|c_i| (Sterbenz)
    mode_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:  # numpy parses numeric strings as numbers, and reads a bool as 0 or 1
            # as objects, a list's entries keep their types: [True, 0.5] would convert to floats
            raw = self.coeffs if isinstance(self.coeffs, np.ndarray) else np.array(self.coeffs, dtype=object)
            if raw.dtype.kind in "SUb" or raw.dtype == object and any(
                isinstance(c, (str, bytes, bool, np.bool_)) for c in raw.flat
            ):
                raise TypeError("a str, bytes or bool entry")
            coeffs = np.array(raw, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"coefficients must be numbers ({exc})") from None
        if coeffs.ndim != 1:
            raise SpecError(f"coefficients must form a 1-D array, got shape {coeffs.shape}")
        if len(coeffs) < 2:
            raise SpecError(f"need at least 2 parties, got n={len(coeffs)}")
        if not np.isfinite(coeffs).all():
            raise SpecError("coefficients must be finite")
        mags = np.hypot(coeffs.real, coeffs.imag)
        with np.errstate(over="ignore"):  # an overflow reads inf, rejected below
            total = float(np.sum(mags**2))
        if abs(total - 1.0) > 1e-9:
            raise SpecError(f"sum |c_i|^2 = {total!r}, expected 1 within 1e-9")
        zeros = np.flatnonzero(coeffs == 0)
        if len(zeros):
            raise SpecError(
                f"coefficient {zeros[0]} is zero; the distillation probability would vanish"
            )
        min_magnitude = float(mags.min())
        if len(coeffs) * min_magnitude**2 == 0.0:
            raise SpecError(
                f"min|c_i| = {min_magnitude!r} is below the supported floor "
                f"{MIN_MAGNITUDE_FLOOR:.2g}: N * min|c_i|^2 underflows to 0"
            )
        window = min(MAG_TIE_TOL, MAG_TIE_REL * min_magnitude)
        min_index = int(np.argmax(mags <= min_magnitude + window))
        acting = np.delete(np.arange(len(coeffs)), min_index)
        weights = (mags[acting] - min_magnitude) * (mags[acting] + min_magnitude)
        derived = {"coeffs": coeffs, "magnitudes": mags, "acting": acting, "mode_weights": weights}
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "min_index", min_index)
        object.__setattr__(self, "min_magnitude", min_magnitude)

    @property
    def n(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class DistillationReport:
    success_probability_exact: float
    # entry t: probability that mode t reads 1, i.e. of the failure branch
    # in which mode t alone fired; success is every mode reading 0
    fire_probabilities: np.ndarray
    # corrected particle amplitudes, entry m: particle m excited
    final_state: np.ndarray
    fidelity_with_w: float
    # cavity scheme: interaction time of each acting party's pass, in
    # spec.acting order
    cavity_steps: np.ndarray | None = None


def make_w_state(n: int) -> np.ndarray:
    """Amplitudes of the uniform n-party W state, 1/sqrt(n) each (entry m:
    party m excited)."""
    try:
        if isinstance(n, bool):  # an int subclass, but no party count
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"n must be an integer, got {n!r}") from None
    if n < 2:
        raise ValidationError(f"W state needs n >= 2, got {n}")
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def ancilla_steps(spec: WPrimeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(keep, fire): block entries of every acting party's ancilla step.

    Party k's two-qubit unitary is the identity on |0,0a> and the rotation
    [[z_k, -f_k], [f_k, conj z_k]] on (|1,0a>, |0,1a>), with z_k =
    min|c_i| / c_k and f_k = sqrt(1 - |z_k|^2), taken as s_k / |c_k| with
    s_k^2 = spec.mode_weights[k], which keeps its digits near a tie: the
    excited qubit keeps keep = z_k of its amplitude, which rescales (and
    de-phases) it to min|c_i|, and hands fire = f_k to its ancilla.
    """
    keep = spec.min_magnitude / spec.coeffs[spec.acting]
    return keep, np.sqrt(spec.mode_weights) / spec.magnitudes[spec.acting]


def analytic_success_probability(spec: WPrimeSpec) -> float:
    """N * min_i |c_i|^2."""
    return spec.n * spec.min_magnitude**2


def evolve_sector(spec: WPrimeSpec, keep, fire) -> tuple[np.ndarray, np.ndarray]:
    """Apply every step to sum_m c_m |particle m excited> at once.

    Step t couples particle spec.acting[t] to mode t, which starts empty.
    In the single-excitation sector it sends |particle excited> to keep[t]
    times itself plus fire[t] times |mode t excited> and leaves every other
    ket as it is; a step's phase on the kets it does not act on is global,
    and its entries are relative to that phase. Either scheme's step
    function (ancilla_steps, jc_steps) gives the entries.

    Returns (particles, modes): particles[m] is the amplitude of "particle m
    excited, every mode empty", modes[t] that of "every particle ground,
    mode t holds one quantum", modes in spec.acting order.
    """
    particles = spec.coeffs.copy()
    acting = particles[spec.acting]
    particles[spec.acting] = keep * acting
    return particles, fire * acting


def zero_prefix_weights(spec: WPrimeSpec) -> np.ndarray:
    """remaining[t], t = 0..N-1: the weight of the evolved kets in which
    modes 0..t-1 all read 0, from the magnitudes alone: mode t weighs
    spec.mode_weights[t], and the particles (N-1) min|c_i|^2 + |c_j|^2, j
    the kept party. remaining[0] is the squared norm, the last entry the
    particles' weight. Summed from the last mode backward, so no entry is a
    difference of larger ones."""
    m, kept = spec.min_magnitude, spec.magnitudes[spec.min_index]
    tail = np.concatenate(([(spec.n - 1) * m * m + kept * kept], spec.mode_weights[::-1]))
    return np.cumsum(tail)[::-1]


def measure_all_branches(spec: WPrimeSpec, particles, modes) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Outcome probabilities of the mode measurements.

    Inside the sector either every mode reads 0 (the success branch) or
    exactly one mode t reads 1, which leaves every particle ground. The
    zero-prefix conditional probabilities chain through the running
    remaining weight R (zero_prefix_weights): P(modes before t read 0) =
    R[t]/R[0] and P(mode t reads 1 | that) = w_t/R[t], so mode t fires
    with probability w_t/R[0], w_t its weight, and success has R[-1]/R[0].

    Returns (fire, success probability) from the magnitudes' weights w_t,
    then the same two of the evolved state: |a_t|^2/R[0] and |particles|^2/R[0].
    """
    remaining = zero_prefix_weights(spec)
    total = remaining[0]
    fire, success_prob = spec.mode_weights / total, float(remaining[-1] / total)
    return fire, success_prob, np.abs(modes) ** 2 / total, float(np.sum(np.abs(particles) ** 2) / total)


def phase_correction(amps: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Undo the residual single-site phases of post-selected particle
    amplitudes (entry m: particle m excited).

    Multiplies entry m by e^{-i phases[m]}, then strips the global phase so
    the amplitude of |10...0> is real positive. Phases come from an explicit
    ledger rather than from arg() of the amplitudes, which would be
    ill-conditioned near zero. In distill every amplitude has magnitude
    about 1/sqrt(N), so the head never vanishes; a non-finite ledger entry
    is an internal fault, which distill's fidelity check reports.
    """
    amps = amps * np.exp(-1j * phases)
    head = amps[0]
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


def distill(spec: WPrimeSpec, particles, modes, phases: np.ndarray) -> DistillationReport:
    """Post-select an evolved state (evolve_sector) on every mode reading 0,
    then phase-correct it by the ledger phases (entry m: particle m's
    residual phase); shared by both realizations.

    Reports the magnitudes' probabilities (measure_all_branches) and checks
    their branch sum and success probability (against its closed form), the
    evolved state's probabilities against them, and the output against the
    uniform W state; raises ToleranceError on any breach.
    """
    fire, success_prob, evolved_fire, evolved_success = measure_all_branches(spec, particles, modes)
    _check("branch probability sum", success_prob + float(np.sum(fire)), 1.0, PROB_MATCH_TOL)
    # success has N min|c_i|^2 / sum|c_i|^2: a spec may be off norm by 1e-9
    analytic = analytic_success_probability(spec) / float(np.sum(spec.magnitudes**2))
    _check("success probability", success_prob, analytic, PROB_MATCH_TOL)
    _check("evolved success probability", evolved_success, success_prob, PROB_MATCH_TOL)
    t = int(np.argmax(np.abs(evolved_fire - fire)))  # argmax stops at the first NaN
    _check(f"evolved mode {t} firing probability", float(evolved_fire[t]), float(fire[t]), PROB_MATCH_TOL)

    # rescale before normalizing: the squared amplitudes may be subnormal
    scaled = particles / np.abs(particles).max()
    final_state = phase_correction(scaled / math.sqrt(float(np.sum(np.abs(scaled) ** 2))), phases)
    fid = fidelity(final_state, make_w_state(spec.n))
    _check("corrected output fidelity", fid, 1.0, FIDELITY_TOL)
    return DistillationReport(
        success_probability_exact=success_prob,
        fire_probabilities=fire,
        final_state=final_state,
        fidelity_with_w=fid,
    )


def run_exact(spec: WPrimeSpec) -> DistillationReport:
    """Run the full post-selected protocol exactly over every reachable branch.

    The ancilla steps leave each acting party at min|c_i| with no phase, so
    only the minimal party j keeps a residual phase, arg(c_j).
    """
    phases = np.zeros(spec.n)
    j = spec.min_index
    phases[j] = cmath.phase(spec.coeffs[j])
    return distill(spec, *evolve_sector(spec, *ancilla_steps(spec)), phases)
