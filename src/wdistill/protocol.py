"""Probabilistic distillation of W-class states by local two-qubit rotations.

Each of N parties holds one qubit of a single-excitation state with complex
coefficients c_1..c_N. Every party except the one holding the smallest
|c_k| attaches a fresh ancilla qubit and applies a joint unitary that scales
its excitation amplitude down to min|c_i|, dumping the excess onto the
ancilla. Post-selecting all ancillas on |0> leaves the parties with the
uniform W state (up to one single-site phase), with success probability
N * min|c_i|^2. All indices are 0-based internally; user-facing output is
1-based.
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
from .statevec import (
    StateVector,
    SubsystemLayout,
    apply_local,
    drop_collapsed_sites,
    fidelity,
    project_site,
    single_excitation_state,
)

MAG_TIE_TOL = 1e-12
PROB_MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-12


@dataclass(frozen=True)
class WPrimeSpec:
    """Complex coefficients c_1..c_N of a single-excitation pure state."""

    n: int
    coeffs: tuple[complex, ...]
    # the party that keeps its amplitude, see min_coefficient_index
    min_index: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "min_index", min_coefficient_index(coeffs))

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


@dataclass(frozen=True)
class BranchRecord:
    """Outcome pattern of the ancilla measurements and its probability."""

    pattern: tuple[int, ...]
    probability: float
    description: str


@dataclass(frozen=True)
class DistillationReport:
    success_probability_exact: float
    success_probability_analytic: float
    branch_records: tuple[BranchRecord, ...]
    final_state: StateVector
    fidelity_with_w: float
    min_index: int
    cavity_steps: tuple | None = None


def make_w_state(n: int) -> StateVector:
    """Uniform single-excitation state on n qubits, amplitudes 1/sqrt(n)."""
    if n < 2:
        raise ValidationError(f"W state needs n >= 2, got {n}")
    layout = SubsystemLayout((2,) * n, tuple(f"q{i + 1}" for i in range(n)))
    return single_excitation_state(layout, [1.0 / math.sqrt(n)] * n)


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
    z = min(abs(c) for c in spec.coeffs) / spec.coeffs[k]
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


def plan(spec: WPrimeSpec) -> tuple[int, tuple[StepPlan, ...]]:
    """Skipped-party index and the N-1 step unitaries, in ascending party order."""
    steps = tuple(build_step_unitary(spec, k) for k in range(spec.n) if k != spec.min_index)
    return spec.min_index, steps


def analytic_success_probability(spec: WPrimeSpec) -> float:
    """N * min_i |c_i|^2."""
    return spec.n * min(abs(c) ** 2 for c in spec.coeffs)


def joint_layout(spec: WPrimeSpec) -> tuple[SubsystemLayout, tuple[int, ...]]:
    """Layout of N particles followed by N-1 ancillas, plus the ancilla sites
    in the order the steps use them (ascending acting-party index)."""
    users = [k for k in range(spec.n) if k != spec.min_index]
    labels = tuple(f"q{i + 1}" for i in range(spec.n)) + tuple(f"a{k + 1}" for k in users)
    layout = SubsystemLayout((2,) * (2 * spec.n - 1), labels)
    anc_sites = tuple(spec.n + i for i in range(len(users)))
    return layout, anc_sites


def evolved_joint_state(spec: WPrimeSpec) -> tuple[StateVector, tuple[int, ...]]:
    """State of particles + ancillas after all step unitaries, pre-measurement.

    Returns (state, ancilla sites in measurement order). Shared by the exact
    runner and the trajectory sampler.
    """
    _, steps = plan(spec)
    layout, anc_sites = joint_layout(spec)
    state = single_excitation_state(layout, spec.coeffs)
    for step, anc in zip(steps, anc_sites):
        # the step unitary's basis puts the ancilla bit high, see build_step_unitary
        state = apply_local(state, step.u_k, (anc, step.k))
    return state, anc_sites


def measure_all_branches(
    state: StateVector, measured_sites: tuple[int, ...], n_particles: int
) -> tuple[list[BranchRecord], float, StateVector | None]:
    """Chain projective measurements over every outcome pattern of the
    measured sites (ancilla qubits or cavity modes).

    The all-zero pattern is the success branch; its post-measurement state on
    the first n_particles sites is returned alongside the records. Nonzero
    failure branches are verified to collapse the particles to |00...0>.
    """
    dims = [state.layout.dims[s] for s in measured_sites]
    records: list[BranchRecord] = []
    success_prob = 0.0
    success_particles: StateVector | None = None
    all_zero_ket = "|" + "0" * n_particles + ">"

    def leaf(pattern: tuple[int, ...], prob: float, leaf_state: StateVector | None):
        nonlocal success_prob, success_particles
        if leaf_state is None or prob == 0.0:
            records.append(BranchRecord(pattern, 0.0, "unreachable (zero probability)"))
            return
        particles = drop_collapsed_sites(leaf_state, dict(zip(measured_sites, pattern)))
        if all(o == 0 for o in pattern):
            success_prob = prob
            success_particles = particles
            records.append(
                BranchRecord(pattern, prob, "success: particles carry the distilled state")
            )
        else:
            collapse_fid = abs(particles.amps[0]) ** 2
            if abs(collapse_fid - 1.0) > FIDELITY_TOL:
                raise ToleranceError(
                    f"failure branch {pattern} did not collapse to {all_zero_ket}: "
                    f"fidelity {collapse_fid!r}"
                )
            records.append(BranchRecord(pattern, prob, f"failure: particles collapsed to {all_zero_ket}"))

    def walk(current: StateVector | None, depth: int, pattern: tuple[int, ...], prob: float):
        if depth == len(measured_sites):
            leaf(pattern, prob, current)
            return
        for outcome in range(dims[depth]):
            if current is None:
                walk(None, depth + 1, pattern + (outcome,), 0.0)
            else:
                p, collapsed = project_site(current, measured_sites[depth], outcome)
                walk(collapsed, depth + 1, pattern + (outcome,), prob * p)

    walk(state, 0, (), 1.0)
    return records, success_prob, success_particles


def phase_correction(
    state: StateVector,
    j: int,
    c_j: complex,
    reference_phases: Mapping[int, float] | None = None,
) -> StateVector:
    """Undo the residual single-site phases of a post-selected state.

    Applies diag(1, e^{-i arg(c_j)}) on site j, diag(1, e^{-i phi}) on every
    site recorded in the ledger, then strips the global phase so the
    amplitude of |10...0> is real positive. Phases come from the explicit
    ledger rather than from arg() of the amplitudes, which would be
    ill-conditioned near zero.
    """
    dims = state.layout.dims
    if any(d != 2 for d in dims):
        raise ValidationError("phase correction expects qubit sites only")
    if not 0 <= j < len(dims):
        raise ValidationError(f"site {j} out of range")
    one_hot = [1 << (len(dims) - 1 - m) for m in range(len(dims))]  # |0..1_m..0>, qubits
    off_sector = np.delete(np.abs(state.amps), one_hot)
    if off_sector.size and float(off_sector.max()) > 1e-9:
        raise ValidationError("state has support outside the single-excitation sector")

    corrections = dict(reference_phases or {})
    corrections[j] = corrections.get(j, 0.0) + cmath.phase(complex(c_j))
    amps = np.array(state.amps)
    t = amps.reshape(dims)
    for site, phi in corrections.items():
        if phi == 0.0:
            continue
        sl = [slice(None)] * len(dims)
        sl[site] = 1
        t[tuple(sl)] *= cmath.exp(-1j * phi)
    head = amps[one_hot[0]]
    if abs(head) == 0.0:
        raise ValidationError("amplitude of |10...0> vanishes; global phase undefined")
    amps *= head.conjugate() / abs(head)
    return StateVector(state.layout, amps)


def distill(
    spec: WPrimeSpec,
    state: StateVector,
    measured_sites: tuple[int, ...],
    reference_phases: Mapping[int, float] | None = None,
) -> DistillationReport:
    """Post-select an evolved state on every measured site reading 0, then
    phase-correct it with the given ledger; shared by both realizations.

    Cross-checks the branch sum, the success probability against the closed
    form and the output against the uniform W state; raises ToleranceError
    on any breach.
    """
    records, success_prob, success_particles = measure_all_branches(state, measured_sites, spec.n)

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
    """Run the full post-selected protocol exactly, enumerating every branch."""
    return distill(spec, *evolved_joint_state(spec))
