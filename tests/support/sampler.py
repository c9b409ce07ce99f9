"""Matrix-form reference sampler: the oracle for the streaming run_trials.

It draws the whole trials x (N-1) matrix of uniforms up front, takes each
outcome as the inverse CDF of its uniform (the first index whose cumulative
probability exceeds u, clamped to the last outcome in case the CDF rounds
below 1) and counts each trial's first failing mode. Same
SplitMix64 stream and the same conditional CDFs as wdistill.montecarlo.
"""
from __future__ import annotations

import math

import numpy as np

from wdistill.cavity import jc_steps
from wdistill.errors import ToleranceError
from wdistill.montecarlo import TrialConfig, TrialStats
from wdistill.protocol import (
    SectorState,
    WPrimeSpec,
    analytic_success_probability,
    ancilla_steps,
    evolve_sector,
    zero_prefix_weights,
)

from .steps import JCModel

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer (Steele, Lea, Flood 2014); uint64 wraparound intended
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _zero_prefix_cdfs(state: SectorState, mode_dim: int) -> np.ndarray:
    """Cumulative conditional outcome distributions of each measured mode,
    given that every earlier mode read 0 (row t: mode t over its mode_dim
    outcomes, 2 for an ancilla qubit, fock_cutoff + 1 for a cavity). Inside
    the single-excitation sector only outcomes 0 and 1 occur: mode t reads 1
    with probability |a_t|^2 / R[t], R being the running remaining weight of
    zero_prefix_weights."""
    remaining = zero_prefix_weights(state)
    if remaining[-1] == 0.0:
        raise ToleranceError("all-zero measurement prefix has zero probability")
    probs = np.zeros((len(remaining) - 1, mode_dim))
    probs[:, 0] = remaining[1:] / remaining[:-1]
    probs[:, 1] = np.abs(state.modes) ** 2 / remaining[:-1]
    return np.cumsum(probs, axis=1)


def zero_prefix_cdfs(spec: WPrimeSpec, model: JCModel | None = None) -> np.ndarray:
    """_zero_prefix_cdfs of the evolved state of either scheme: the
    abstract one when model is None, else the cavity one with
    model.fock_cutoff + 1 outcomes per mode."""
    if model is None:
        return _zero_prefix_cdfs(evolve_sector(spec, *ancilla_steps(spec)), 2)
    return _zero_prefix_cdfs(evolve_sector(spec, *jc_steps(spec, model.params)[1:]), model.fock_cutoff + 1)


def trial_uniforms(seed: int, trials: int, draws: int) -> np.ndarray:
    """(trials, draws) matrix of uniforms in [0, 1), pure in (seed, i, t)."""
    mask = (1 << 64) - 1
    idx = np.arange(1, trials + 1, dtype=np.uint64)
    base = _mix64(np.uint64(seed) + idx * _GAMMA)
    out = np.empty((trials, draws), dtype=np.float64)
    for t in range(draws):
        # scalar key reduced in Python ints: numpy warns on scalar wraparound
        step_key = np.uint64(((t + 1) * int(_GAMMA)) & mask)
        h = _mix64(base + step_key)
        out[:, t] = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out


def run_trials(spec: WPrimeSpec, config: TrialConfig, model: JCModel | None = None) -> TrialStats:
    """Sample config.trials runs of the protocol and tally the outcomes.

    model is the cavity model config.params came from, whose cutoff sets the
    outcomes per mode; None with the abstract scheme's config."""
    if config.params != (None if model is None else model.params):
        raise ValueError("config.params must be model.params")
    cdfs = zero_prefix_cdfs(spec, model)
    n_steps = len(cdfs)

    u = trial_uniforms(config.seed, config.trials, n_steps)
    outcomes = np.empty((config.trials, n_steps), dtype=np.int64)
    for t, cdf in enumerate(cdfs):
        col = np.searchsorted(cdf, u[:, t], side="right")
        outcomes[:, t] = np.minimum(col, len(cdf) - 1)  # cdf may round below 1

    failed = outcomes != 0
    any_fail = failed.any(axis=1)
    successes = int(config.trials - any_fail.sum())
    # any nonzero outcome is a failure of its mode, whatever its digit
    fired = np.bincount(failed[any_fail].argmax(axis=1), minlength=n_steps)

    empirical = successes / config.trials
    analytic = analytic_success_probability(spec)
    std_error = math.sqrt(empirical * (1.0 - empirical) / config.trials)
    if std_error > 0.0:
        z = (empirical - analytic) / std_error
    else:
        # degenerate p-hat in {0, 1}: zero when consistent with the target
        diff = empirical - analytic
        z = 0.0 if abs(diff) <= 1e-9 else math.copysign(math.inf, diff)
    return TrialStats(
        trials=config.trials,
        successes=successes,
        empirical_p=empirical,
        analytic_p=analytic,
        std_error=std_error,
        z_score=z,
        fired=tuple(int(c) for c in fired),
        seed=config.seed,
    )
