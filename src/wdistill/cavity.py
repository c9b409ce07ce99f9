"""Cavity-QED realization of the distillation protocol.

Atoms carry the entanglement (|g> = 0, |e> = 1); each acting party's ancilla
is a single cavity mode prepared in vacuum. Sending atom k through its cavity
for the right interaction time realizes the amplitude rescaling through
resonant Rabi oscillation: |c_k| cos(eps * dt_k) = min|c_i|. Detecting every
cavity in vacuum post-selects the W state; the leftover e^{+-i w dt/2}
phases are recorded per step and repaired by classical Ramsey-zone pulses.

Each pass conserves excitation number, so the simulation runs in the same
single-excitation sector as the abstract scheme: atom k's pass acts on
{|e,0>, |g,1>} as a 2x2 Rabi rotation and on |g,0> as a phase, however
many photons the cavity could hold, and jc_steps gives those entries in
closed form. That closed form is the resonant model, mode and atomic
transition both at w, so w and the coupling eps are all a result depends on.
The Ramsey repair is one array of phases, one entry per atom (see
run_physical).

hbar = 1 throughout.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .protocol import (
    DistillationReport,
    WPrimeSpec,
    acting_parties,
    distill,
    evolve_sector,
)


@dataclass(frozen=True)
class JCParams:
    """Resonant Jaynes-Cummings parameters: frequency omega, coupling epsilon."""

    omega: float
    epsilon: float

    def __post_init__(self):
        for name in ("omega", "epsilon"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.epsilon <= 0:
            raise ValidationError(f"coupling epsilon must be > 0, got {self.epsilon}")


def jc_steps(
    spec: WPrimeSpec, params: JCParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, complex]:
    """(dt, keep, fire, spectator): every acting atom's pass in closed form.

    At resonance a pass of duration dt multiplies |g,0> by e^{+i w dt/2}
    and rotates (|e,0>, |g,1>) by e^{-i w dt/2} [[cos, -i sin], [-i sin,
    cos]](eps dt). Relative to the spectator phase, the excited atom keeps
    keep = e^{-i w dt} cos(eps dt) and hands fire = -i e^{-i w dt}
    sin(eps dt) to its cavity; spectator = e^{i w sum(dt)/2} is the product
    of every pass's |g,0> phase. dt_k = arccos(r_k) / eps with r_k =
    min|c_i| / |c_k|, and keep takes r_k for cos(eps dt_k): cos(arccos r)
    errs by an ulp of 1, not of r. Arrays are in acting_parties order.
    Raises ValidationError if a dt or w sum(dt) is not finite.
    """
    c = spec.coeffs[acting_parties(spec)]
    # hypot rounds |c_k| as abs() rounded min|c_i|, which np.abs need not:
    # a party tied at the minimum gets ratio 1 and dt = 0 exactly
    r = np.minimum(1.0, spec.min_magnitude / np.hypot(c.real, c.imag))
    # libm acos: np.arccos's SIMD path rounds some inputs differently (see run_physical)
    with np.errstate(over="ignore"):  # an overflowed dt is rejected below
        dt = np.fromiter(map(math.acos, r.tolist()), np.float64, len(r)) / params.epsilon
    try:
        total = math.fsum(dt)  # inf if a dt is: every dt is >= 0
    except OverflowError:  # finite times whose sum is beyond the double range
        total = math.inf
    if not math.isfinite(params.omega * total):
        raise ValidationError(
            f"coupling epsilon = {params.epsilon!r} with omega = {params.omega!r} gives interaction "
            "times dt or a Ramsey angle omega * sum(dt) beyond the double range"
        )
    turn = np.exp(-1j * params.omega * dt)
    spectator = cmath.exp(0.5j * params.omega * total)
    return dt, turn * r, -1j * turn * np.sin(params.epsilon * dt), spectator


def run_physical(spec: WPrimeSpec, params: JCParams) -> DistillationReport:
    """Run the cavity scheme exactly: evolve, photodetect, Ramsey-repair.

    Pass k leaves atom k's excited term carrying arg(c_k) - omega*dt_k
    relative to the spectator terms, and the minimal atom, which no pass
    acts on, keeps arg(c_j); the shared runner undoes exactly these phases.
    """
    dt, *steps = jc_steps(spec, params)
    # cmath.phase, not np.angle: np.angle's SIMD path differs from atan2 by
    # an ulp on some inputs, which would make report bytes CPU-dependent
    phases = np.fromiter(map(cmath.phase, spec.coeffs.tolist()), np.float64, spec.n)
    phases[acting_parties(spec)] -= params.omega * dt
    return replace(distill(spec, evolve_sector(spec, *steps), phases), cavity_steps=dt)
