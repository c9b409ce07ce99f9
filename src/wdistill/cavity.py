"""Cavity-QED realization of the distillation protocol.

Atoms carry the entanglement (|g> = 0, |e> = 1); each acting party's ancilla
is a single cavity mode prepared in vacuum. Sending atom k through its cavity
for the right interaction time realizes the amplitude rescaling through
resonant Rabi oscillation: |c_k| cos(eps * dt_k) = min|c_i|. Detecting every
cavity in vacuum post-selects the W state; each atom's leftover phase, its
Ramsey angle w dt_k mod 2 pi, is repaired by a classical Ramsey-zone pulse.

Each pass conserves excitation number, so the simulation runs in the same
single-excitation sector as the abstract scheme: atom k's pass acts on
{|e,0>, |g,1>} as a 2x2 Rabi rotation and on |g,0> as a phase, however
many photons the cavity could hold, and jc_steps gives those entries in
closed form. That closed form is the resonant model, mode and atomic
transition both at w, so w and the coupling eps are all the state depends
on. The outcome probabilities are the abstract scheme's, from the magnitudes
alone (protocol.measure_all_branches). The Ramsey repair is one array of
phases, one entry per atom, built from the same reduced angles the passes
apply (see run_physical).

hbar = 1 throughout.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .protocol import DistillationReport, WPrimeSpec, distill, evolve_sector


@dataclass(frozen=True)
class JCParams:
    """Resonant Jaynes-Cummings parameters: frequency omega, coupling epsilon."""

    omega: float
    epsilon: float

    def __post_init__(self):
        for name in ("omega", "epsilon"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):  # float() would take a bool or a str
                raise ValidationError(f"{name} must be a real number, got {v!r}")
            try:
                finite = math.isfinite(v := float(v))
            except OverflowError:  # an int beyond the double range
                finite = False
            if not finite:
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.epsilon <= 0:
            raise ValidationError(f"coupling epsilon must be > 0, got {self.epsilon}")


def jc_steps(
    spec: WPrimeSpec, params: JCParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dt, theta, keep, fire): every acting atom's pass in closed form.

    At resonance a pass of duration dt multiplies |g,0> by e^{+i w dt/2}
    and rotates (|e,0>, |g,1>) by e^{-i w dt/2} [[cos, -i sin], [-i sin,
    cos]](eps dt). Dropping the pass's global phase e^{+i w dt/2}, which
    no measurement sees, the excited atom keeps keep = e^{-i theta}
    cos(eps dt) and hands fire = -i e^{-i theta} sin(eps dt) to its
    cavity, where theta = w dt reduced mod 2 pi is the Ramsey angle
    the repair undoes. dt_k = atan2(s_k, min|c_i|) / eps, s_k^2 =
    spec.mode_weights[k], is arccos(r_k) / eps with r_k = min|c_i| / |c_k|
    but keeps its digits as r_k nears 1; keep takes r_k for cos(eps dt_k),
    which errs by an ulp of 1, not of r. Arrays are in spec.acting order.
    Raises ValidationError if a dt or w dt is not finite.
    """
    # |c_k| is rounded as min|c_i| was (spec.magnitudes): a party tied at
    # the minimum gets ratio 1, s_k = 0 and dt = 0 exactly
    r = spec.min_magnitude / spec.magnitudes[spec.acting]
    # libm atan2: numpy's SIMD paths may round some inputs differently (see run_physical)
    angles = map(math.atan2, np.sqrt(spec.mode_weights).tolist(), repeat(spec.min_magnitude))
    with np.errstate(over="ignore", invalid="ignore"):  # dt = inf, w dt = 0 * inf: rejected below
        dt = np.fromiter(angles, np.float64, len(r)) / params.epsilon
        angle = params.omega * dt
    if not np.isfinite(angle).all():  # w dt is finite only where dt is
        raise ValidationError(
            f"coupling epsilon = {params.epsilon!r} with omega = {params.omega!r} gives interaction "
            "times dt or a Ramsey angle omega * dt beyond the double range"
        )
    theta = np.remainder(angle, 2 * math.pi)
    turn = np.exp(-1j * theta)
    return dt, theta, turn * r, -1j * turn * np.sin(params.epsilon * dt)


def run_physical(spec: WPrimeSpec, params: JCParams) -> DistillationReport:
    """Run the cavity scheme exactly: evolve, photodetect, Ramsey-repair.

    Pass k leaves atom k's excited term carrying arg(c_k) - theta_k, with
    theta_k its reduced Ramsey angle (jc_steps), and the minimal atom, which
    no pass acts on, keeps arg(c_j); the shared runner undoes exactly these
    phases.
    """
    dt, theta, *steps = jc_steps(spec, params)
    # cmath.phase, not np.angle: np.angle's SIMD path differs from atan2 by
    # an ulp on some inputs, which would make report bytes CPU-dependent
    phases = np.fromiter(map(cmath.phase, spec.coeffs.tolist()), np.float64, spec.n)
    phases[spec.acting] -= theta
    return replace(distill(spec, *evolve_sector(spec, *steps), phases), cavity_steps=dt)
