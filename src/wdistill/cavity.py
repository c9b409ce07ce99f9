"""Cavity-QED realization of the distillation protocol.

Atoms carry the entanglement (|g> = 0, |e> = 1); each acting party's ancilla
is a single cavity mode prepared in vacuum. Sending atom k through its cavity
for the right interaction time realizes the amplitude rescaling through
resonant Rabi oscillation: |c_k| cos(eps * dt_k) = min|c_i|. Detecting every
cavity in vacuum post-selects the W state; the leftover e^{+-i w dt/2}
phases are recorded per step and repaired by classical Ramsey-zone pulses.

Each pass conserves excitation number, so the simulation runs in the same
single-excitation sector as the abstract scheme: atom k's pass acts on
{|e,0>, |g,1>} as a 2x2 block and on |g,0> as a phase, whatever the Fock
cutoff.

hbar = 1 throughout. The closed-form propagator requires exact resonance
(w = w0); off-resonant dynamics sit outside the protocol.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import UnsupportedModeError, ValidationError
from .protocol import DistillationReport, SectorState, WPrimeSpec, distill, evolve_sector

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class JCParams:
    """Jaynes-Cummings model parameters and the retained Fock-space cutoff."""

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
        if self.epsilon < 0:
            raise ValidationError(f"coupling epsilon must be >= 0, got {self.epsilon}")
        if int(self.fock_cutoff) < 1:
            raise ValidationError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        object.__setattr__(self, "fock_cutoff", int(self.fock_cutoff))

    @property
    def is_resonant(self) -> bool:
        return abs(self.omega - self.omega0) <= RESONANCE_TOL * max(abs(self.omega), 1.0)


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


def jc_propagator_closed(params: JCParams, t: float) -> np.ndarray:
    """exp(-i H t) at resonance, assembled sector by sector.

    |g,0> picks up e^{+i w t/2}; each excitation sector {|e,n>, |g,n+1>}
    Rabi-oscillates at eps*sqrt(n+1) under a common e^{-i w (n+1/2) t}; the
    dangling |e,cutoff> level is uncoupled in the truncated space.
    """
    if not params.is_resonant:
        raise UnsupportedModeError(
            "closed-form propagator requires resonance (omega == omega0); "
            "off-resonant dynamics are outside the protocol"
        )
    d = params.fock_cutoff + 1
    t = float(t)
    u = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    u[_jc_index(d, 0, 0), _jc_index(d, 0, 0)] = cmath.exp(0.5j * params.omega * t)
    for n in range(d - 1):
        theta = params.epsilon * math.sqrt(n + 1) * t
        common = cmath.exp(-1j * params.omega * (n + 0.5) * t)
        e_n, g_n1 = _jc_index(d, 1, n), _jc_index(d, 0, n + 1)
        u[e_n, e_n] = common * math.cos(theta)
        u[g_n1, g_n1] = common * math.cos(theta)
        u[g_n1, e_n] = -1j * common * math.sin(theta)
        u[e_n, g_n1] = -1j * common * math.sin(theta)
    top = _jc_index(d, 1, d - 1)
    u[top, top] = cmath.exp(-1j * params.omega * (d - 0.5) * t)
    return u


def optimal_interaction_time(
    spec: WPrimeSpec, k: int, epsilon: float, omega: float | None = None
) -> CavityStepPlan:
    """Interaction time dt_k = arccos(min|c_i| / |c_k|) / eps for party k.

    Passing omega fills in the accrued phase-factor angles for the ledger.
    """
    if epsilon <= 0:
        raise ValidationError(f"coupling epsilon must be positive, got {epsilon}")
    if not 0 <= k < spec.n:
        raise ValidationError(f"party index {k} out of range")
    if k == spec.min_index:
        raise ValidationError(f"party {k} holds the minimal coefficient and must not interact")
    ratio = spec.min_magnitude / abs(spec.coeffs[k])
    delta_t = math.acos(min(1.0, ratio)) / epsilon
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


def evolved_physical_state(
    spec: WPrimeSpec, params: JCParams
) -> tuple[SectorState, tuple[CavityStepPlan, ...]]:
    """Atoms + cavities after every atom-cavity pass, before photodetection.

    Returns (state, step plans); cavity t belongs to plans[t]. Shared by the
    physical runner and the trajectory sampler.
    """
    if not params.is_resonant:
        raise UnsupportedModeError("physical protocol requires resonant parameters")
    plans = physical_plan(spec, params)
    d = params.fock_cutoff + 1
    state = evolve_sector(
        spec.coeffs,
        ((p.k, jc_propagator_closed(params, p.delta_t)) for p in plans),
        vac=_jc_index(d, 0, 0),
        pair=(_jc_index(d, 1, 0), _jc_index(d, 0, 1)),
        mode_dim=d,
    )
    return state, plans


def run_physical(spec: WPrimeSpec, params: JCParams) -> DistillationReport:
    """Run the cavity scheme exactly: evolve, photodetect, Ramsey-repair.

    Step k leaves atom k's excited term carrying arg(c_k) minus the ledger's
    unaffected-minus-acting angle (omega*dt_k) relative to the spectator
    terms; the shared runner undoes exactly that phase on each atom.
    """
    state, plans = evolved_physical_state(spec, params)
    ledger = {
        p.k: cmath.phase(spec.coeffs[p.k])
        - (p.accrued_phases["unaffected"] - p.accrued_phases["acting"])
        for p in plans
    }
    return replace(distill(spec, state, ledger), cavity_steps=plans)
