"""Dense state-vector runs of both realizations: the oracle for the sector engine.

The joint state is a full tensor-product vector of 2^(2N-1) amplitudes
(2^N * (fock_cutoff + 1)^(N-1) for the cavity scheme), every step is a
local matrix applied through statevec.apply_local, and the measurement
walks all outcome patterns by chained projections, checking that every
failure branch collapses the particles to |00...0>. States larger than
statevec's WDISTILL_MAX_DIM cap (default 2^20 amplitudes) are refused.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from wdistill.errors import ToleranceError, ValidationError
from wdistill.protocol import (
    FIDELITY_TOL,
    PROB_MATCH_TOL,
    WPrimeSpec,
    analytic_success_probability,
)

from .statevec import (
    StateVector,
    SubsystemLayout,
    apply_local,
    drop_collapsed_sites,
    fidelity,
    project_site,
    single_excitation_state,
    site_distribution,
)
from .steps import (
    JCModel,
    UnsupportedModeError,
    _jc_index,
    jc_propagator_closed,
    physical_plan,
    plan,
)


@dataclass(frozen=True)
class BranchRecord:
    """Outcome pattern of the ancilla measurements and its probability."""

    pattern: tuple[int, ...]
    probability: float
    description: str


@dataclass(frozen=True)
class DenseReport:
    """A dense run: every outcome pattern's record, zero-probability ones
    included, and the corrected state over the particle qubits."""

    success_probability_exact: float
    success_probability_analytic: float
    branch_records: tuple[BranchRecord, ...]
    final_state: StateVector
    fidelity_with_w: float
    min_index: int
    cavity_steps: np.ndarray | None = None


def make_w_state(n: int) -> StateVector:
    """Uniform single-excitation state on n qubits, amplitudes 1/sqrt(n)."""
    if n < 2:
        raise ValidationError(f"W state needs n >= 2, got {n}")
    layout = SubsystemLayout((2,) * n, tuple(f"q{i + 1}" for i in range(n)))
    return single_excitation_state(layout, [1.0 / math.sqrt(n)] * n)


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

    Returns (state, ancilla sites in measurement order).
    """
    steps = plan(spec)
    layout, anc_sites = joint_layout(spec)
    state = single_excitation_state(layout, spec.coeffs)
    for step, anc in zip(steps, anc_sites):
        # the step unitary's basis puts the ancilla bit high, see build_step_unitary
        state = apply_local(state, step.u_k, (anc, step.k))
    return state, anc_sites


def jc_hamiltonian(model: JCModel) -> np.ndarray:
    """Atom-cavity Hamiltonian w a+a + w0 Sz + eps (a S+ + a+ S-), truncated.

    Dimension 2*(fock_cutoff+1) on (atom tensor fock) ordering; Sz has
    eigenvalues +-1/2 so bare atomic energies are +-w0/2.
    """
    d = model.fock_cutoff + 1
    h = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for n in range(d):
        h[_jc_index(d, 0, n), _jc_index(d, 0, n)] = model.omega * n - model.omega0 / 2
        h[_jc_index(d, 1, n), _jc_index(d, 1, n)] = model.omega * n + model.omega0 / 2
    for n in range(d - 1):
        g = model.epsilon * math.sqrt(n + 1)
        h[_jc_index(d, 0, n + 1), _jc_index(d, 1, n)] = g
        h[_jc_index(d, 1, n), _jc_index(d, 0, n + 1)] = g
    return h


def evolved_physical_state(spec: WPrimeSpec, model: JCModel):
    """Atoms + cavities after every atom-cavity pass, before photodetection.

    Returns (state, cavity sites in measurement order, step plans).
    """
    if not model.is_resonant:
        raise UnsupportedModeError("physical protocol requires resonant parameters")
    plans = physical_plan(spec, model.params)
    n = spec.n
    fock_dim = model.fock_cutoff + 1
    labels = tuple(f"atom{i + 1}" for i in range(n)) + tuple(f"cav{p.k + 1}" for p in plans)
    layout = SubsystemLayout((2,) * n + (fock_dim,) * (n - 1), labels)
    state = single_excitation_state(layout, spec.coeffs)
    cavity_sites = tuple(n + i for i in range(n - 1))
    for plan_k, cav in zip(plans, cavity_sites):
        u = jc_propagator_closed(model, plan_k.delta_t)
        state = apply_local(state, u, (plan_k.k, cav))
    return state, cavity_sites, plans


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
    amplitude of |10...0> is real positive.
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
) -> DenseReport:
    """Post-select an evolved state on every measured site reading 0, then
    phase-correct it with the given ledger, with the package's cross-checks."""
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
    return DenseReport(
        success_probability_exact=success_prob,
        success_probability_analytic=analytic,
        branch_records=tuple(records),
        final_state=final_state,
        fidelity_with_w=fid,
        min_index=j,
    )


def run_exact(spec: WPrimeSpec) -> DenseReport:
    """Run the full post-selected protocol exactly, enumerating every branch."""
    state, anc_sites = evolved_joint_state(spec)
    return distill(spec, state, anc_sites)


def run_physical(spec: WPrimeSpec, model: JCModel) -> DenseReport:
    """Run the cavity scheme exactly: evolve, photodetect, Ramsey-repair."""
    state, cavity_sites, plans = evolved_physical_state(spec, model)
    ledger = {
        p.k: cmath.phase(spec.coeffs[p.k])
        - (p.accrued_phases["unaffected"] - p.accrued_phases["acting"])
        for p in plans
    }
    dt = np.array([p.delta_t for p in plans])
    return replace(distill(spec, state, cavity_sites, ledger), cavity_steps=dt)


def zero_prefix_cdfs(state: StateVector, sites) -> list[np.ndarray]:
    """Cumulative conditional outcome distributions of each measured site,
    given that every earlier site read 0."""
    cdfs = []
    current = state
    for s in sites:
        cdfs.append(np.cumsum(site_distribution(current, s)))
        _, current = project_site(current, s, 0)
        if current is None:
            raise ToleranceError("all-zero measurement prefix has zero probability")
    return cdfs
