"""Seeded trajectory sampling of either protocol variant.

Random stream construction (fixed, documented): trial i runs a SplitMix64
sequence whose initial state is the mix of (seed + (i+1)*GAMMA); draw t of
the trial is mix(state + (t+1)*GAMMA). Every uniform is therefore a pure
function of (seed, trial index, draw index), so results are bit-identical
regardless of execution order, chunking, or parallelism.

A trial measures its ancillas/cavities in protocol order against the exact
conditional Born probabilities, one uniform u per measured site. The
outcome is the inverse CDF in outcome-index order: the first index whose
cumulative probability exceeds u, clamped to the last outcome in case the
CDF rounds below 1. A trial stops at the first non-|0>/non-vacuum
detection; failure branches cannot recover, so this truncation does not
change the success/failure classification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import JCParams, evolved_physical_state
from .errors import ToleranceError, ValidationError
from .protocol import (
    SectorState,
    WPrimeSpec,
    analytic_success_probability,
    evolved_joint_state,
    zero_prefix_weights,
)

SCHEMES = ("abstract", "cavity")

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class TrialConfig:
    trials: int
    seed: int
    scheme: str = "abstract"
    params: JCParams | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "cavity" and self.params is None:
            raise ValidationError("cavity scheme requires JC parameters")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    successes: int
    empirical_p: float
    analytic_p: float
    std_error: float
    z_score: float
    outcome_histogram: dict[str, int]
    seed: int


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer (Steele, Lea, Flood 2014); uint64 wraparound intended
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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


def _zero_prefix_cdfs(state: SectorState) -> np.ndarray:
    """Cumulative conditional outcome distributions of each measured mode,
    given that every earlier mode read 0 (row t: mode t over its mode_dim
    outcomes). Inside the single-excitation sector only outcomes 0 and 1
    occur: mode t reads 1 with probability |a_t|^2 / R[t], R being the
    running remaining weight of zero_prefix_weights."""
    remaining = zero_prefix_weights(state)
    if remaining[-1] == 0.0:
        raise ToleranceError("all-zero measurement prefix has zero probability")
    probs = np.zeros((len(remaining) - 1, state.mode_dim))
    probs[:, 0] = remaining[1:] / remaining[:-1]
    probs[:, 1] = np.abs(state.modes) ** 2 / remaining[:-1]
    return np.cumsum(probs, axis=1)


def run_trials(spec: WPrimeSpec, config: TrialConfig) -> TrialStats:
    """Sample config.trials runs of the protocol and tally the outcomes.

    Deterministic given (spec, config). The histogram keys are the measured
    outcome patterns, truncated at the first failing position ("01" means
    the first site read 0 and the second read 1); the all-zero key is the
    success pattern.
    """
    if config.scheme == "cavity":
        state = evolved_physical_state(spec, config.params)[0]
    else:
        state = evolved_joint_state(spec)[0]
    cdfs = _zero_prefix_cdfs(state)
    n_steps = len(cdfs)

    u = trial_uniforms(config.seed, config.trials, n_steps)
    outcomes = np.empty((config.trials, n_steps), dtype=np.int64)
    for t, cdf in enumerate(cdfs):
        col = np.searchsorted(cdf, u[:, t], side="right")
        outcomes[:, t] = np.minimum(col, len(cdf) - 1)  # cdf may round below 1

    failed = outcomes != 0
    any_fail = failed.any(axis=1)
    successes = int(config.trials - any_fail.sum())

    histogram: dict[str, int] = {}
    if successes:
        histogram["0" * n_steps] = successes
    if any_fail.any():
        first = failed[any_fail].argmax(axis=1)
        digit = outcomes[any_fail, first]
        max_dim = int(outcomes.max()) + 1
        codes, counts = np.unique(first * max_dim + digit, return_counts=True)
        for code, count in zip(codes, counts):
            t, d = divmod(int(code), max_dim)
            histogram["0" * t + str(d)] = int(count)
    histogram = dict(sorted(histogram.items()))

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
        outcome_histogram=histogram,
        seed=config.seed,
    )


def confidence_interval(stats: TrialStats, z: float) -> tuple[float, float]:
    """Wilson score interval for the empirical success probability.

    Preferred over the normal approximation because uniform specifications
    put the success probability at the p = 1 boundary.
    """
    if stats.trials < 1:
        raise ValidationError("need at least one trial")
    n = stats.trials
    p = stats.empirical_p
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if stats.successes == 0 else max(0.0, center - half)
    hi = 1.0 if stats.successes == n else min(1.0, center + half)
    return lo, hi
