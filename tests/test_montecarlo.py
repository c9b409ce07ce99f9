import copy
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_spec
from support import dense, sampler
from support.sampler import trial_uniforms
from support.statevec import project_site, site_distribution
from support.steps import JCModel
from wdistill import montecarlo
from wdistill.cli import _outcome_rows, load_spec
from wdistill.errors import ToleranceError, ValidationError
from wdistill.montecarlo import (
    TrialConfig,
    TrialStats,
    _zero_limits,
    confidence_interval,
    run_trials,
)
from wdistill.protocol import WPrimeSpec, run_exact, zero_prefix_weights

NEAR_TIE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "near_tie.json")


def wilson_oracle(p: float, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval written out directly from the formula."""
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return center - half, center + half


def reference_walk(spec: WPrimeSpec, uniforms: np.ndarray) -> list[tuple[int, ...]]:
    """Measure every ancilla of every trial by chained projections on the
    dense state (no early stop), using the sampler's inverse-CDF convention."""
    state, sites = dense.evolved_joint_state(spec)
    patterns = []
    for row in uniforms:
        current = state
        outcome_row = []
        for u, site in zip(row, sites):
            cdf = np.cumsum(site_distribution(current, site))
            o = min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)
            outcome_row.append(o)
            _, current = project_site(current, site, o)
        patterns.append(tuple(outcome_row))
    return patterns


class TestTrialConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            TrialConfig(trials=0, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            TrialConfig(trials=1, seed=-1)
        with pytest.raises(ValidationError):
            TrialConfig(trials=1, seed=2**64)

    @pytest.mark.parametrize(
        "field,value", [("seed", 1.7), ("seed", -0.5), ("trials", 2.5), ("seed", True), ("trials", True)]
    )
    def test_rejects_a_non_integer(self, field, value):
        # a float seed would sample as its truncation, and bool is no count
        with pytest.raises(ValidationError, match=rf"^{field} must be an integer, got {value!r}$"):
            TrialConfig(**{"trials": 10, "seed": 1, field: value})

    def test_numpy_integers_are_stored_as_int(self):
        config = TrialConfig(trials=np.int64(10), seed=np.uint64(2**64 - 1))
        assert (config.trials, config.seed) == (10, 2**64 - 1)
        assert type(config.trials) is int and type(config.seed) is int


class TestTrialUniforms:
    def test_deterministic(self):
        np.testing.assert_array_equal(trial_uniforms(9, 40, 3), trial_uniforms(9, 40, 3))

    def test_trial_streams_do_not_depend_on_batch_size(self):
        # trial i's draws are a pure function of (seed, i, t): slicing a
        # bigger batch reproduces a smaller one, so chunked or parallel
        # execution cannot change results
        small = trial_uniforms(123, 10, 4)
        large = trial_uniforms(123, 1000, 4)
        np.testing.assert_array_equal(small, large[:10])

    def test_range_and_spread(self):
        u = trial_uniforms(5, 2000, 2)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.02


class TestRunTrials:
    def test_uniform_spec_always_succeeds(self):
        spec = WPrimeSpec([0.5] * 4)
        stats = run_trials(spec, TrialConfig(trials=2000, seed=3))
        assert stats.successes == 2000
        assert stats.empirical_p == 1.0
        assert stats.z_score == 0.0
        assert stats.fired == (0, 0, 0)

    def test_worked_spec_concentrates(self, worked_spec):
        stats = run_trials(worked_spec, TrialConfig(trials=100_000, seed=42))
        assert abs(stats.empirical_p - 0.6) <= 4 * math.sqrt(0.6 * 0.4 / 100_000)
        assert abs(stats.z_score) <= 4.0

    def test_deterministic_stats(self, worked_spec):
        config = TrialConfig(trials=5000, seed=7)
        assert run_trials(worked_spec, config) == run_trials(worked_spec, config)

    def test_histogram_sums_to_trials(self, worked_spec):
        stats = run_trials(worked_spec, TrialConfig(trials=12345, seed=11))
        assert len(stats.fired) == worked_spec.n - 1
        assert stats.successes + sum(stats.fired) == 12345

    def test_histogram_matches_exact_branches(self, worked_spec):
        trials = 100_000
        stats = run_trials(worked_spec, TrialConfig(trials=trials, seed=5))
        report = run_exact(worked_spec)
        table = _outcome_rows(worked_spec, "probability", report.success_probability_exact, report.fire_probabilities)
        exact = dict(zip(table["fired"], table["probability"]))
        # the worked spec's minimal party is the last: mode t belongs to party t + 1
        assert list(exact) == [None, 1, 2]
        counts = {None: stats.successes, 1: stats.fired[0], 2: stats.fired[1]}
        for fired, p in exact.items():
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[fired] / trials - p) <= 5 * se, fired

    def test_early_stop_equivalence(self):
        rng = np.random.default_rng(8)
        spec = random_spec(rng, 4)
        trials, seed = 400, 99
        stats = run_trials(spec, TrialConfig(trials=trials, seed=seed))
        full = reference_walk(spec, trial_uniforms(seed, trials, spec.n - 1))
        # same classification, and nothing after a failure can read nonzero
        successes = sum(1 for p in full if not any(p))
        assert successes == stats.successes
        for pattern in full:
            if any(pattern):
                first = next(i for i, o in enumerate(pattern) if o)
                assert all(o == 0 for o in pattern[first + 1 :])
        # the per-mode failure counts match the full walk exactly
        fired = [0] * (spec.n - 1)
        for pattern in full:
            if any(pattern):
                fired[next(i for i, o in enumerate(pattern) if o)] += 1
        assert stats.fired == tuple(fired)

    def test_cavity_scheme_agrees_with_abstract(self, worked_spec):
        # the one sampler counts exactly what the reference sampler counts on
        # the cavity scheme's own evolved state, at the CLI's default coupling
        config = TrialConfig(trials=20_000, seed=21)
        model = JCModel(omega=50, omega0=50, epsilon=1.0, fock_cutoff=1)
        assert run_trials(worked_spec, config) == sampler.run_trials(worked_spec, config, model)

    def test_statistical_soundness_over_random_specs(self):
        rng = np.random.default_rng(314)
        violations = 0
        for i in range(20):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            stats = run_trials(spec, TrialConfig(trials=100_000, seed=1000 + i))
            if abs(stats.z_score) > 4.0:
                violations += 1
        assert violations <= 1

    def test_single_trial_is_binary(self, worked_spec):
        for seed in range(5):
            stats = run_trials(worked_spec, TrialConfig(trials=1, seed=seed))
            assert stats.empirical_p in (0.0, 1.0)


def _streaming_specs():
    rng = np.random.default_rng(77)
    specs = {f"random{n}": random_spec(rng, n) for n in range(2, 10)}
    specs["near_tie"] = load_spec(NEAR_TIE)[0]
    specs["uniform"] = WPrimeSpec([0.5] * 4)  # p = 1: no trial fails
    # p ~ 0.007: conditional zero-probabilities below 1/2, whose thresholds
    # cdf[t, 0] * 2^53 are not integers
    skewed = np.array([1.0, 0.3j, 0.05, -0.6])
    specs["skewed"] = WPrimeSpec(skewed / np.linalg.norm(skewed))
    return specs


STREAMING_SPECS = _streaming_specs()
FOCK = (None, 1, 2, 3)  # None: the abstract scheme
# chunk size -> trial count; None runs all trials as one chunk
CHUNK_TRIALS = {1: 301, 7: 2_000, 4096: 10_001, None: 10_001}


def _model(fock: int | None) -> JCModel | None:
    return None if fock is None else JCModel(omega=13.5, omega0=13.5, epsilon=0.7, fock_cutoff=fock)


def _cdfs(spec: WPrimeSpec, fock: int | None) -> np.ndarray:
    """The reference sampler's CDF matrix of the package's weights (the
    magnitudes'), fock + 1 outcomes per cavity."""
    mode_dim = 2 if fock is None else fock + 1
    return sampler._zero_prefix_cdfs(spec.mode_weights, zero_prefix_weights(spec), mode_dim)


class TestStreaming:
    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_chunking_never_changes_the_stats(self, monkeypatch, name, fock):
        spec = STREAMING_SPECS[name]
        seed = 17 * spec.n + (fock or 0)
        for chunk, trials in CHUNK_TRIALS.items():
            config = TrialConfig(trials=trials, seed=seed)
            expected = sampler.run_trials(spec, config, _model(fock))
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk or trials)
            for workers in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda w=workers: w)
                monkeypatch.setattr(montecarlo, "_MAX_WORKERS", workers)
                stats = run_trials(spec, config)
                assert stats == expected, (chunk, workers)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread started for one chunk")

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo.threading, "Thread", no_thread)
        spec = STREAMING_SPECS["random8"]
        for trials in (1, 1000, montecarlo._CHUNK):
            config = TrialConfig(trials=trials, seed=3)
            assert run_trials(spec, config) == sampler.run_trials(spec, config, None)

    def test_workers_are_capped_whatever_the_cpus(self, monkeypatch):
        # each worker holds O(_CHUNK): a 64-CPU host must not hold 64 of them
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        monkeypatch.setattr(montecarlo.threading, "Thread", CountedThread)
        spec = STREAMING_SPECS["random8"]
        config = TrialConfig(trials=64 * 64, seed=3)
        assert run_trials(spec, config) == sampler.run_trials(spec, config, None)
        assert len(started) == montecarlo._MAX_WORKERS - 1 == 1

    def test_workers_racing_for_chunks_lose_none(self, monkeypatch):
        # more workers than the cap, switching every microsecond, on 286
        # chunks: a chunk taken twice or dropped moves a count
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_MAX_WORKERS", 3)
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        spec = STREAMING_SPECS["random8"]
        config = TrialConfig(trials=2000, seed=11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = run_trials(spec, config)
        finally:
            sys.setswitchinterval(interval)
        assert stats == sampler.run_trials(spec, config, None)

    # Each step of a chunk draws for every state it holds: the failed trials
    # it carries as well as the live ones. The regimes below are forced by
    # the spec, trial count and chunk size; each compares run_trials at 1, 2
    # and 3 workers with the reference sampler, and reads which states were
    # drawn for from the sizes of the one-worker run's draws (per chunk, its
    # seeding draw, then one per step).
    def _run_regime(self, monkeypatch, spec, trials, chunk) -> tuple[TrialStats, list[int]]:
        config = TrialConfig(trials=trials, seed=5)
        expected = sampler.run_trials(spec, config, None)
        real, sizes = montecarlo._mix64, []
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_mix64", lambda x, scratch: sizes.append(len(x)) or real(x, scratch))
        for workers in (3, 2, 1):
            sizes.clear()
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda w=workers: w)
            monkeypatch.setattr(montecarlo, "_MAX_WORKERS", workers)
            assert run_trials(spec, config) == expected, workers
        return expected, sizes

    @staticmethod
    def _live_draws(stats: TrialStats) -> int:
        """The draws of a run that draws only for trials not yet failed."""
        failed_before = np.cumsum((0,) + stats.fired[:-1])
        return stats.trials + int(np.sum(stats.trials - failed_before))

    def test_more_steps_than_chunk_states_draw_only_for_live_trials(self, monkeypatch):
        # N - 1 = 99 steps over 5 chunks of at most 16 states. A chunk of m
        # states carries d failed ones past a step with s steps left only
        # while d * s < _COMPACT * m <= 32, so d <= min(16, 31 // s) and no
        # state is carried with 32 or more steps left: at most
        # sum over s = 1..31 of min(16, 31 // s) = 98 extra draws per chunk
        spec = random_spec(np.random.default_rng(100), 100)
        stats, sizes = self._run_regime(monkeypatch, spec, 16 * 4 + 5, 16)
        extra = sum(min(16, 31 // s) for s in range(1, 32))
        assert extra == 98
        live = self._live_draws(stats)
        assert live <= sum(sizes) <= live + 5 * extra

    def test_few_steps_carry_every_state(self, monkeypatch):
        # N = 8: 7 steps over chunks of 4096, no chunk drops a state
        stats, sizes = self._run_regime(monkeypatch, STREAMING_SPECS["random8"], 10_000, 4096)
        assert sizes == [m for m in (4096, 4096, 1808) for _ in range(8)]
        assert sum(sizes) > self._live_draws(stats)

    def test_a_chunk_drops_states_then_carries_them(self, monkeypatch):
        # 63 steps over chunks of 25: failures are dropped while many steps
        # are left, then carried to the end
        spec = load_spec(os.path.join(os.path.dirname(NEAR_TIE), "random64.json"))[0]
        stats, sizes = self._run_regime(monkeypatch, spec, 50, 25)
        assert min(sizes) < 25
        assert sum(sizes) > self._live_draws(stats)

    def test_every_trial_failing_at_the_first_step(self, monkeypatch):
        # q_0 ~ 3e-18 rounds to the limit 1: no draw passes it
        coeffs = np.array([1.0, 1e-9, 1e-9, 1e-9])
        spec = WPrimeSpec(coeffs / np.linalg.norm(coeffs))
        assert list(_zero_limits(spec)) == [1, 2**53, 2**53]
        stats, sizes = self._run_regime(monkeypatch, spec, 10_001, 4096)
        assert (stats.successes, stats.fired) == (0, (10_001, 0, 0))
        assert sizes == [4096, 4096, 4096, 4096, 1809, 1809]

    def test_no_trial_ever_failing(self, monkeypatch):
        stats, sizes = self._run_regime(monkeypatch, STREAMING_SPECS["uniform"], 10_001, 4096)
        assert (stats.successes, stats.fired) == (10_001, (0, 0, 0))
        assert sizes == [m for m in (4096, 4096, 1809) for _ in range(4)]

    def test_a_chunk_whose_carried_trials_all_fail(self, monkeypatch):
        # chunks of 4 over 3 steps: every failure is carried, and a chunk
        # whose trials fail at two different steps, all before the last,
        # stops drawing once its last live trial fails
        spec = STREAMING_SPECS["skewed"]
        trials = 4 * 100
        stats, sizes = self._run_regime(monkeypatch, spec, trials, 4)
        assert set(sizes) == {4}
        reads_one = trial_uniforms(5, trials, spec.n - 1) * 2.0**53 >= _zero_limits(spec)
        first = np.where(reads_one.any(axis=1), reads_one.argmax(axis=1), spec.n - 1).reshape(-1, 4)
        assert np.any((first.max(axis=1) < spec.n - 2) & (first.min(axis=1) < first.max(axis=1)))
        assert len(sizes) < (1 + spec.n - 1) * trials // 4

    def test_one_failure_is_dropped_at_the_compact_boundary(self, monkeypatch):
        # 4 trials; the one whose draw sits on step 0's limit fails there.
        # With 8 steps left, 1 * 8 >= _COMPACT * 4 drops it before step 1;
        # with 7 it is carried to the end
        assert montecarlo._COMPACT == 2
        real, sizes = montecarlo._mix64, []
        monkeypatch.setattr(montecarlo, "_mix64", lambda x, scratch: sizes.append(len(x)) or real(x, scratch))
        k = (trial_uniforms(9, 4, 1)[:, 0] * 2.0**53).astype(np.int64)
        for steps, drawn in ((9, [4, 4] + [3] * 8), (8, [4] * 9)):
            sizes.clear()
            limits = np.array([k.max()] + [2**53] * (steps - 1), dtype=np.uint64)
            successes, fired = montecarlo._tally(9, 4, limits)
            assert (successes, list(fired)) == (3, [1] + [0] * (steps - 1))
            assert sizes == drawn, steps

    def _fault_in_helper(self, monkeypatch, fault: BaseException) -> list[int]:
        # the helper's first draw waits until the calling thread has drawn,
        # and fails; the caller's draws go on once it has: the sizes of the
        # caller's draws are returned
        real, caller_draws = montecarlo._mix64, []
        caller_drew, helper_drew = threading.Event(), threading.Event()

        def faulty(x, scratch):
            if threading.current_thread() is threading.main_thread():
                caller_draws.append(len(x))
                caller_drew.set()
                helper_drew.wait(timeout=30)
                return real(x, scratch)
            caller_drew.wait(timeout=30)
            helper_drew.set()
            raise fault

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "_mix64", faulty)
        return caller_draws

    def test_a_failing_helper_fails_the_run(self, monkeypatch):
        caller_draws = self._fault_in_helper(monkeypatch, RuntimeError("helper fault"))
        with pytest.raises(RuntimeError, match="helper fault"):
            run_trials(STREAMING_SPECS["random8"], TrialConfig(trials=1000, seed=1))
        # the caller ends soon after: at most 2 of its 15 chunks, 8 draws each
        assert 1 <= len(caller_draws) <= 16

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_lost_chunk_fails_the_count(self, monkeypatch):
        # SystemExit ends a thread without a trace: its chunk's trials go
        # uncounted, and the helper leaves the caller none after its own
        self._fault_in_helper(monkeypatch, SystemExit())
        with pytest.raises(ToleranceError, match=r"tally counted 64 trials, expected 1000"):
            run_trials(STREAMING_SPECS["random8"], TrialConfig(trials=1000, seed=1))

    def test_a_fault_in_the_caller_stops_the_helpers(self, monkeypatch):
        # as Ctrl-C does: a BaseException in the calling thread, once the
        # helper has drawn, ends the helper after the chunk it holds
        class Interrupt(BaseException):
            pass

        real, helper_draws, helper_drew = montecarlo._mix64, [], threading.Event()

        def faulty(x, scratch):
            if threading.current_thread() is threading.main_thread():
                helper_drew.wait(timeout=30)
                raise Interrupt
            helper_draws.append(len(x))
            helper_drew.set()
            time.sleep(0.01)  # leaves the calling thread the GIL
            return real(x, scratch)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "_mix64", faulty)
        threads = threading.active_count()
        with pytest.raises(Interrupt):
            # one step that every draw passes: two draws per chunk, 100 chunks
            montecarlo._tally(1, 64 * 100, np.array([2**53], dtype=np.uint64))
        # the chunk held at the fault and at most one more, and joined
        assert 1 <= len(helper_draws) <= 4
        assert threading.active_count() == threads

    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_limits_are_the_reference_cdfs_first_column(self, name, fock):
        spec = STREAMING_SPECS[name]
        expected = np.ceil(_cdfs(spec, fock)[:, 0] * 2.0**53).astype(np.uint64)
        np.testing.assert_array_equal(_zero_limits(spec), expected)

    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_integer_rule_matches_inverse_cdf_at_the_boundary(self, name, fock):
        cdfs = _cdfs(STREAMING_SPECS[name], fock)
        limits = _zero_limits(STREAMING_SPECS[name])
        for cdf, limit in zip(cdfs, limits):
            thr = cdf[0] * 2.0**53
            for k in {math.floor(thr) - 1, math.floor(thr), math.ceil(thr), 2**53 - 1}:
                if not 0 <= k < 2**53:
                    continue
                inverse_cdf_zero = np.searchsorted(cdf, k * 2.0**-53, side="right") == 0
                assert (np.uint64(k) < limit) == inverse_cdf_zero, (cdf, k)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_limits_reject_a_non_finite_weight(self, bad):
        # a NaN limit would cast to some uint64 and the sampler would run on it;
        # a valid spec cannot hold such a weight, so a copy is given one
        spec = copy.copy(STREAMING_SPECS["random8"])
        weights = spec.mode_weights.copy()
        weights[2] = bad
        object.__setattr__(spec, "mode_weights", weights)
        with pytest.raises(ToleranceError, match=f"state weight {bad!r} is not finite"):
            _zero_limits(spec)

    def test_tally_compares_the_draw_with_the_limit(self):
        # trial 0's first draw k sits exactly on the limit: k < k reads 1,
        # k < k + 1 reads 0
        seed = 2024
        k = int(trial_uniforms(seed, 1, 1)[0, 0] * 2.0**53)
        on_limit = montecarlo._tally(seed, 1, np.array([k], dtype=np.uint64))
        above = montecarlo._tally(seed, 1, np.array([k + 1], dtype=np.uint64))
        assert (on_limit[0], list(on_limit[1])) == (0, [1])
        assert (above[0], list(above[1])) == (1, [0])
        # the extreme limits: L = 2^53 (threshold 2^64 - 1) passes every
        # draw, and L = 1 passes only h >> 11 == 0, which none of these is
        for seed in range(200):
            assert trial_uniforms(seed, 1, 1)[0, 0] > 0.0
            top = montecarlo._tally(seed, 1, np.array([2**53], dtype=np.uint64))
            bottom = montecarlo._tally(seed, 1, np.array([1], dtype=np.uint64))
            assert (top[0], list(top[1])) == (1, [0])
            assert (bottom[0], list(bottom[1])) == (0, [1])

    def test_tally_threshold_is_exact_in_the_low_bits(self, monkeypatch):
        # with an identity mix, trial 0's first draw is seed + 2*GAMMA, so the
        # seed sets it: h = L * 2^11 - 1 reads 0 and h = L * 2^11 reads 1
        monkeypatch.setattr(montecarlo, "_mix64", lambda x, scratch: x)

        def reads_zero(h: int, limit: int) -> bool:
            seed = (h - 2 * int(montecarlo._GAMMA)) % 2**64
            successes, fired = montecarlo._tally(seed, 1, np.array([limit], dtype=np.uint64))
            assert successes + fired[0] == 1
            return successes == 1

        for limit in (1, 2, 12345, 2**52 + 1, 2**53):
            assert reads_zero(limit * 2**11 - 1, limit), limit
            assert reads_zero(0, limit), limit
            if limit < 2**53:
                assert not reads_zero(limit * 2**11, limit), limit

    def test_rounded_cdf_reports_digit_one(self):
        # where cdf[t, 1] rounds below 1, the largest draw u = 1 - 2^-53 lies
        # past it: the clamped inverse CDF reads digit fock, an outcome
        # outside the sector with probability 0; the integer rule reads it
        # as a failure, which run_trials counts in fired[t]
        u = 1.0 - 2.0**-53
        rounded = 0
        for fock in (2, 3):
            for spec in STREAMING_SPECS.values():
                cdfs = _cdfs(spec, fock)
                for cdf, limit in zip(cdfs, _zero_limits(spec)):
                    if cdf[1] > u:
                        continue
                    rounded += 1
                    clamped = min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)
                    assert clamped == fock and cdf[fock] - cdf[1] == 0.0
                    assert not np.uint64(2**53 - 1) < limit
        assert rounded > 0

    def test_memory_is_flat_in_trials(self):
        # the matrix form holds >= 112 MB here (10^6 x 7 float64 uniforms
        # plus int64 outcomes)
        spec = STREAMING_SPECS["random8"]
        run_trials(spec, TrialConfig(trials=10, seed=1))  # warm caches
        tracemalloc.start()
        try:
            run_trials(spec, TrialConfig(trials=1_000_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_memory_is_the_workers_buffers(self, monkeypatch):
        # two workers over 25 chunks of 4096. Each has, allocated once per
        # call, three uint64 rows (states, draws, scratch) and two bool rows
        # (keep, live) of _CHUNK, (3 * 8 + 2) * _CHUNK bytes, and both read
        # one shared 8 * _CHUNK-byte table of start offsets. random8 drops
        # no state at this chunk size (test_few_steps_carry_every_state), so
        # no compaction copy adds to that. The slack covers the counts,
        # lists and scalars of the call and the helper thread's objects
        # (~8.5 KB on Python 3.11, numpy 2.4): 16 KiB, half of one uint64
        # row, so one more row held by a worker, or a third worker, exceeds
        # the bound
        chunk = 4096
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_MAX_WORKERS", 2)
        limits = _zero_limits(STREAMING_SPECS["random8"])
        montecarlo._tally(1, 10, limits)  # warm caches
        tracemalloc.start()
        try:
            montecarlo._tally(1, 100_000, limits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (3 * 8 + 2) * chunk + 8 * chunk + 16 * 1024

    @pytest.mark.parametrize(
        "name, chunk, trials",
        [
            # the module's chunk size, no power of two, with a one-trial
            # last chunk: the offsets table's first entry
            pytest.param("random8", None, None, id="one-trial-last-chunk"),
            # 63 steps over two chunks of 37 and one of 30, which drops states
            pytest.param("random64", 37, 2 * 37 + 30, id="last-chunk-compacts"),
        ],
    )
    def test_a_short_last_chunk_matches_the_reference(self, monkeypatch, name, chunk, trials):
        if name == "random64":
            spec = load_spec(os.path.join(os.path.dirname(NEAR_TIE), "random64.json"))[0]
        else:
            spec = STREAMING_SPECS[name]
        chunk = chunk or montecarlo._CHUNK
        trials = trials or 2 * chunk + 1
        config = TrialConfig(trials=trials, seed=8)
        expected = sampler.run_trials(spec, config, None)
        # per draw, its size and its first word before mixing
        real, calls = montecarlo._mix64, []
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(montecarlo, "_mix64", lambda x, scratch: calls.append((len(x), int(x[0]))) or real(x, scratch))
        for workers in (3, 2, 1):
            calls.clear()
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda w=workers: w)
            monkeypatch.setattr(montecarlo, "_MAX_WORKERS", workers)
            assert run_trials(spec, config) == expected, workers
        # the one-worker run seeds the last chunk, trial 2 * chunk, from
        # seed + (2 * chunk + 1) * GAMMA, then draws for its states
        last = trials - 2 * chunk
        start = (config.seed + (2 * chunk + 1) * int(montecarlo._GAMMA)) % 2**64
        seeded = calls.index((last, start))
        sizes = [size for size, _ in calls[seeded:]]
        assert sizes[:2] == [last, last]
        if last > 1:
            assert min(sizes) < last  # it dropped states, then drew for the rest


class TestConfidenceInterval:
    def _stats(self, successes: int, trials: int) -> TrialStats:
        p = successes / trials
        return TrialStats(
            trials=trials,
            successes=successes,
            empirical_p=p,
            std_error=math.sqrt(p * (1 - p) / trials),
            z_score=0.0,
            fired=(),
            seed=0,
        )

    def test_all_successes_hits_upper_boundary(self):
        lo, hi = confidence_interval(self._stats(100, 100))
        assert hi == 1.0 and 0.0 <= lo < 1.0

    def test_no_successes_hits_lower_boundary(self):
        lo, hi = confidence_interval(self._stats(0, 100))
        assert lo == 0.0 and 0.0 < hi <= 1.0

    def test_worked_numeric_example(self):
        lo, hi = confidence_interval(self._stats(6000, 10_000))
        oracle_lo, oracle_hi = wilson_oracle(0.6, 10_000, 1.96)
        assert lo == pytest.approx(oracle_lo, abs=1e-12)
        assert hi == pytest.approx(oracle_hi, abs=1e-12)
        assert lo == pytest.approx(0.5903613659779724, abs=1e-12)
        assert hi == pytest.approx(0.6095618315264743, abs=1e-12)

    def test_rejects_zero_trials(self):
        # TrialStats is public, so a caller can build one with no trials
        stats = TrialStats(trials=0, successes=0, empirical_p=0.0, std_error=0.0, z_score=0.0, fired=(), seed=0)
        with pytest.raises(ValidationError, match="^need at least one trial$"):
            confidence_interval(stats)

    def test_contains_empirical_p(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            trials = int(rng.integers(1, 5000))
            successes = int(rng.integers(0, trials + 1))
            stats = self._stats(successes, trials)
            lo, hi = confidence_interval(stats)
            assert 0.0 <= lo <= stats.empirical_p <= hi <= 1.0
