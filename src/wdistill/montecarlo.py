"""Seeded trajectory sampling of either protocol variant.

Random stream construction (fixed, documented): trial i runs a SplitMix64
sequence whose initial state is the mix of (seed + (i+1)*GAMMA); draw t of
the trial is mix(state + (t+1)*GAMMA). Every draw is therefore a pure
function of (seed, trial index, draw index), so results are bit-identical
regardless of execution order, chunking, or parallelism.

A trial measures its ancillas/cavities in protocol order against the exact
conditional Born probabilities, one draw per measured site; the draw's top
53 bits k give the uniform u = k * 2^-53. The outcome is the inverse CDF in
outcome-index order, and inside the single-excitation sector only two
outcomes occur: 0 when u < P(mode t reads 0 | modes before it read 0) =
R[t+1]/R[t], R being the remaining weights of zero_prefix_weights, else 1.
That comparison is evaluated exactly as the integer one
k < ceil(R[t+1]/R[t] * 2^53) (_zero_limits). A trial stops at the first
non-|0>/non-vacuum detection; failure branches cannot recover, so this
truncation does not change the success/failure classification.

Trials run in fixed chunks, and each step draws only for the trials of the
chunk still alive, tallying failures per step: memory is bounded by the
chunk size whatever the number of trials, and no draw is made after a
trial's first failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import JCParams, jc_steps
from .errors import ToleranceError, ValidationError
from .protocol import (
    SectorState,
    WPrimeSpec,
    analytic_success_probability,
    ancilla_steps,
    evolve_sector,
    zero_prefix_weights,
)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# trials per chunk: bounds the sampler's memory, never its results
_CHUNK = 1 << 16


@dataclass(frozen=True)
class TrialConfig:
    """params selects the scheme: None the abstract one, JCParams the cavity."""

    trials: int
    seed: int
    params: JCParams | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    successes: int
    empirical_p: float
    analytic_p: float
    std_error: float
    z_score: float
    # entry t: the trials whose first failure was mode t, modes in measurement order
    fired: tuple[int, ...]
    seed: int


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014), in place on x;
    scratch is a uint64 buffer of x's size. uint64 wraparound intended."""
    np.bitwise_xor(x, np.right_shift(x, np.uint64(30), out=scratch), out=x)
    np.multiply(x, np.uint64(0xBF58476D1CE4E5B9), out=x)
    np.bitwise_xor(x, np.right_shift(x, np.uint64(27), out=scratch), out=x)
    np.multiply(x, np.uint64(0x94D049BB133111EB), out=x)
    return np.bitwise_xor(x, np.right_shift(x, np.uint64(31), out=scratch), out=x)


def _zero_limits(state: SectorState) -> np.ndarray:
    """Integer form of the inverse-CDF rule: draw h reads 0 at step t iff
    (h >> 11) < limits[t].

    Mode t reads 0, given that every earlier mode did, with probability
    q_t = R[t+1]/R[t] (zero_prefix_weights). A draw is u = k * 2^-53 with
    k = h >> 11 < 2^53, and scaling by a power of two is exact, so u < q_t
    iff k < q_t * 2^53; for an integer k that is k < ceil(q_t * 2^53), a
    limit <= 2^53.
    """
    remaining = zero_prefix_weights(state)
    # the weights are nonnegative partial sums: any NaN or inf reaches the total
    if not math.isfinite(remaining[0]):
        raise ToleranceError(f"state weight {float(remaining[0])!r} is not finite")
    if remaining[-1] == 0.0:
        raise ToleranceError("all-zero measurement prefix has zero probability")
    return np.ceil(remaining[1:] / remaining[:-1] * 2.0**53).astype(np.uint64)


def _tally(seed: int, trials: int, limits: np.ndarray) -> tuple[int, np.ndarray]:
    """Successes and per-step failure counts of trials 0..trials-1.

    Trials run in chunks of _CHUNK, and each step draws only for the trials
    of the chunk that are still alive, so memory is O(_CHUNK) whatever the
    trial count and no draw past a trial's first failure is made.
    """
    # scalar keys reduced in Python ints: numpy warns on scalar wraparound
    step_keys = [np.uint64((t + 1) * int(_GAMMA) % 2**64) for t in range(len(limits))]
    fired = np.zeros(len(limits), dtype=np.int64)
    successes = 0
    draws = np.empty(min(_CHUNK, trials), dtype=np.uint64)
    scratch = np.empty_like(draws)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        # trial i's state: mix(seed + (i+1)*GAMMA)
        alive = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        np.multiply(alive, _GAMMA, out=alive)
        np.add(alive, np.uint64(seed), out=alive)
        _mix64(alive, scratch[: hi - lo])
        for t, (key, limit) in enumerate(zip(step_keys, limits)):
            m = len(alive)
            draw = _mix64(np.add(alive, key, out=draws[:m]), scratch[:m])
            zero = np.right_shift(draw, np.uint64(11), out=scratch[:m]) < limit
            alive = alive[zero]
            fired[t] += m - len(alive)
            if not len(alive):
                break
        successes += len(alive)
    return successes, fired


def run_trials(spec: WPrimeSpec, config: TrialConfig) -> TrialStats:
    """Sample config.trials runs of the protocol, deterministic given (spec,
    config): the successes, and per mode the trials in which it fired."""
    steps = ancilla_steps(spec) if config.params is None else jc_steps(spec, config.params)[1:]
    limits = _zero_limits(evolve_sector(spec, *steps))
    successes, fired = _tally(config.seed, config.trials, limits)

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
        fired=tuple(fired.tolist()),
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
