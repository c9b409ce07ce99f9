"""Seeded trajectory sampling of the protocol. Both schemes rescale each
acting party to min|c_i|, so their detections have the same statistics, and
the sampler draws them from the real weights of the magnitudes
(protocol.zero_prefix_weights); it evolves no state.

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

Trials run in fixed chunks, tallying failures per step. A chunk draws on
for its failed trials and ignores those draws, and drops their states once
carrying them through the steps left would draw at least _COMPACT times
the states it holds. The chunks are shared among W workers, W the smallest
of the chunk count, the CPUs this process may run on (its affinity) and
_MAX_WORKERS. Each worker's buffers are allocated once per call and a
chunk works on views of them, so memory is O(_CHUNK) per worker, at most
_MAX_WORKERS * O(_CHUNK), whatever the number of trials or CPUs.
Every draw is still the same function of (seed, trial, step), and the
counts are integer sums, so W changes no result.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .protocol import WPrimeSpec, analytic_success_probability, zero_prefix_weights

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# _mix64's shifts and multipliers, built once rather than at every call
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MULT_1, _MULT_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# trials per chunk: bounds the memory, never the results. A worker holds 26
# bytes per trial of _CHUNK (states, draws and scratch as uint64, keep and
# live as bool), all workers share an 8-byte start offset per trial, and a
# compaction copies the states it keeps once more for a moment. Larger chunks
# mean fewer numpy calls per trial, each of which hands the GIL on. Timed on
# a 2-vCPU host, two workers, 10^6 trials over 16 N=8 specs (median of 10
# alternating runs), with run_trials' tracemalloc peak on one N=8 spec:
#   _CHUNK           32768    40960    49152    65536
#   _tally (ms)      15.6     14.7     14.2     13.7
#   traced peak (MB) 1.98     2.47     2.96     3.94
# 40960 is the largest of these whose peak stays under 2.5 MB
_CHUNK = 40960
# a chunk drops its failed trials' states once carrying them through the
# steps left would draw at least _COMPACT times the states it holds. Timed on
# a 2-vCPU host, one worker, 10^6 trials: at N=8 32.7 ms compacting at every
# step, 24.1, 24.0, 23.9 ms at 1, 2, never; at N=64 176 ms, then 164, 159, 162
# ms at 1, 2, 3. Boolean indexing beat np.compress (159 vs 166 ms at N=64)
_COMPACT = 2
# workers at most: the count measured (2 on a 2-vCPU host, where it took
# 10^6 trials at N=8 from 51.5 to 30.5 ms); it also bounds the memory
_MAX_WORKERS = 2
# the Wilson interval's z: 1.96, a 95% two-sided interval
WILSON_Z = 1.96


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class TrialConfig:
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("trials", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # an int subclass, but no count or seed
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    successes: int
    empirical_p: float
    std_error: float
    z_score: float
    # entry t: the trials whose first failure was mode t, modes in measurement order
    fired: tuple[int, ...]
    seed: int


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014), in place on x;
    scratch is a uint64 buffer of x's size. uint64 wraparound intended."""
    np.bitwise_xor(x, np.right_shift(x, _SHIFT_1, out=scratch), out=x)
    np.multiply(x, _MULT_1, out=x)
    np.bitwise_xor(x, np.right_shift(x, _SHIFT_2, out=scratch), out=x)
    np.multiply(x, _MULT_2, out=x)
    return np.bitwise_xor(x, np.right_shift(x, _SHIFT_3, out=scratch), out=x)


def _zero_limits(spec: WPrimeSpec) -> np.ndarray:
    """Integer form of the inverse-CDF rule: draw h reads 0 at step t iff
    (h >> 11) < limits[t].

    Mode t reads 0, given that every earlier mode did, with probability
    q_t = R[t+1]/R[t] (zero_prefix_weights). A draw is u = k * 2^-53 with
    k = h >> 11 < 2^53, and scaling by a power of two is exact, so u < q_t
    iff k < q_t * 2^53; for an integer k that is k < ceil(q_t * 2^53), a
    limit <= 2^53.
    """
    remaining = zero_prefix_weights(spec)
    # the weights are nonnegative partial sums: any NaN or inf reaches the total
    if not math.isfinite(remaining[0]):
        raise ToleranceError(f"state weight {float(remaining[0])!r} is not finite")
    return np.ceil(remaining[1:] / remaining[:-1] * 2.0**53).astype(np.uint64)


def _tally(seed: int, trials: int, limits: np.ndarray) -> tuple[int, np.ndarray]:
    """Successes and per-step failure counts of trials 0..trials-1.

    Trials run in chunks of _CHUNK. Each step draws for every state the
    chunk holds, counts only the trials that have not failed, and drops the
    failed trials' states when that pays (_COMPACT). The calling thread and
    W - 1 helper threads take chunks from one shared iterator, each into its
    own buffers, allocated once per call, and its own counts; numpy's uint64
    passes release the GIL. With one worker no thread starts, and a worker
    that fails ends the rest after their chunk.
    """
    n_steps = len(limits)
    gamma = int(_GAMMA)
    # scalar keys reduced in Python ints: numpy warns on scalar wraparound
    step_keys = [np.uint64((t + 1) * gamma % 2**64) for t in range(n_steps)]
    # (h >> 11) < L iff h <= L * 2^11 - 1, and L in [1, 2^53] keeps that in uint64
    thresholds = [np.uint64(int(limit) * 2**11 - 1) for limit in limits]
    size = min(_CHUNK, trials)
    # offsets[i] = (i+1)*GAMMA: trial lo + i starts from mix(seed + lo*GAMMA +
    # offsets[i]); array arithmetic wraps silently. Read-only, shared
    offsets = np.multiply(np.arange(1, size + 1, dtype=np.uint64), _GAMMA)
    starts = iter(range(0, trials, _CHUNK))
    workers = min(-(-trials // _CHUNK), _usable_cpus(), _MAX_WORKERS)
    # row j: worker j's trials by first failed step, the last bin for none
    counts = np.zeros((workers, n_steps + 1), dtype=np.int64)
    errors: list[Exception] = []

    # worker j's states, draws and scratch rows, and its keep and live rows,
    # all allocated by the calling thread: on a 2-vCPU host with another
    # process busy, buffers each helper allocated itself, in its own malloc
    # arena, raised sample-large's peak RSS by 1.3 MB
    words = np.empty((workers, 3, size), dtype=np.uint64)
    flags = np.empty((workers, 2, size), dtype=bool)

    def work(j: int) -> None:
        fails = [0] * (n_steps + 1)
        try:
            for lo in starts:
                # m states in the states row; while k < m, live marks the k
                # not yet failed
                m = k = min(size, trials - lo)
                states_row, draws_row, scratch_row = words[j]
                states, draws, scratch = states_row[:m], draws_row[:m], scratch_row[:m]
                keep, live = flags[j, 0, :m], flags[j, 1, :m]
                np.add(offsets[:m], np.uint64((seed + lo * gamma) % 2**64), out=states)
                _mix64(states, scratch)
                for t, (key, threshold) in enumerate(zip(step_keys, thresholds)):
                    draw = _mix64(np.add(states, key, out=draws), scratch)
                    kept = np.less_equal(draw, threshold, out=keep)
                    if k < m:
                        kept &= live
                    k_before, k = k, np.count_nonzero(kept)
                    fails[t] += k_before - k
                    if not k:
                        break
                    if k < m and (m - k) * (n_steps - 1 - t) >= _COMPACT * m:
                        # the live states into the draws row, which then holds
                        # them; boolean indexing makes a transient copy of k
                        draws_row[:k] = states[kept]
                        states_row, draws_row = draws_row, states_row
                        m = k
                        states, draws, scratch = states_row[:m], draws_row[:m], scratch_row[:m]
                        keep, live = keep[:m], live[:m]
                    else:
                        keep, live = live, keep
                fails[-1] += k
            counts[j] = fails
        except Exception as exc:  # a thread would only print it: the caller raises it
            errors.append(exc)
        finally:
            # a worker that stops early, by an error or Ctrl-C in the calling
            # thread, leaves the others no chunk beyond the one they hold
            for _ in starts:
                pass

    threads = [threading.Thread(target=work, args=(j,)) for j in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    total = counts.sum(axis=0)
    if total.sum() != trials:
        raise ToleranceError(f"tally counted {total.sum()} trials, expected {trials}")
    return int(total[-1]), total[:-1]


def run_trials(spec: WPrimeSpec, config: TrialConfig) -> TrialStats:
    """Sample config.trials runs of the protocol, deterministic given (spec,
    config): the successes, and per mode the trials in which it fired."""
    limits = _zero_limits(spec)
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
        std_error=std_error,
        z_score=z,
        fired=tuple(fired.tolist()),
        seed=config.seed,
    )


def confidence_interval(stats: TrialStats) -> tuple[float, float]:
    """Wilson score interval at z = WILSON_Z for the empirical success
    probability.

    Preferred over the normal approximation because uniform specifications
    put the success probability at the p = 1 boundary.
    """
    if stats.trials < 1:
        raise ValidationError("need at least one trial")
    z = WILSON_Z
    n = stats.trials
    p = stats.empirical_p
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if stats.successes == 0 else max(0.0, center - half)
    hi = 1.0 if stats.successes == n else min(1.0, center + half)
    return lo, hi
