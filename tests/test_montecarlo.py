import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_spec
from support import dense, sampler
from support.sampler import trial_uniforms
from support.statevec import project_site, site_distribution
from support.steps import JCModel
from wdistill import montecarlo
from wdistill.cavity import JCParams, jc_steps
from wdistill.cli import _branch_rows, load_spec
from wdistill.errors import ToleranceError, ValidationError
from wdistill.montecarlo import (
    TrialConfig,
    TrialStats,
    _zero_limits,
    confidence_interval,
    run_trials,
)
from wdistill.protocol import SectorState, WPrimeSpec, ancilla_steps, evolve_sector, run_exact

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
        assert stats.analytic_p == pytest.approx(0.6, abs=1e-12)
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
        exact = {row["fired"]: row["probability"] for row in _branch_rows(run_exact(worked_spec))}
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
        trials = 20_000
        params = JCParams(omega=50, epsilon=1.0)
        abstract = run_trials(worked_spec, TrialConfig(trials=trials, seed=21))
        cavity = run_trials(worked_spec, TrialConfig(trials=trials, seed=21, params=params))
        # identical streams against numerically identical Born probabilities
        assert abs(cavity.empirical_p - abstract.empirical_p) <= 2.0 / trials

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


def _config(trials: int, seed: int, fock: int | None) -> TrialConfig:
    if fock is None:
        return TrialConfig(trials=trials, seed=seed)
    return TrialConfig(trials=trials, seed=seed, params=_model(fock).params)


def _state(spec: WPrimeSpec, fock: int | None):
    if fock is None:
        return evolve_sector(spec, *ancilla_steps(spec))
    return evolve_sector(spec, *jc_steps(spec, _model(fock).params)[1:])


def _cdfs(spec: WPrimeSpec, fock: int | None) -> np.ndarray:
    """The reference sampler's CDF matrix, fock + 1 outcomes per cavity."""
    return sampler.zero_prefix_cdfs(spec, _model(fock))


class TestStreaming:
    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_chunking_never_changes_the_stats(self, monkeypatch, name, fock):
        spec = STREAMING_SPECS[name]
        seed = 17 * spec.n + (fock or 0)
        for chunk, trials in CHUNK_TRIALS.items():
            config = _config(trials, seed, fock)
            expected = sampler.run_trials(spec, config, _model(fock))
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk or trials)
            stats = run_trials(spec, config)
            assert stats == expected, chunk

    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_limits_are_the_reference_cdfs_first_column(self, name, fock):
        spec = STREAMING_SPECS[name]
        expected = np.ceil(_cdfs(spec, fock)[:, 0] * 2.0**53).astype(np.uint64)
        np.testing.assert_array_equal(_zero_limits(_state(spec, fock)), expected)

    @pytest.mark.parametrize("fock", FOCK)
    @pytest.mark.parametrize("name", sorted(STREAMING_SPECS))
    def test_integer_rule_matches_inverse_cdf_at_the_boundary(self, name, fock):
        cdfs = _cdfs(STREAMING_SPECS[name], fock)
        limits = _zero_limits(_state(STREAMING_SPECS[name], fock))
        for cdf, limit in zip(cdfs, limits):
            thr = cdf[0] * 2.0**53
            for k in {math.floor(thr) - 1, math.floor(thr), math.ceil(thr), 2**53 - 1}:
                if not 0 <= k < 2**53:
                    continue
                inverse_cdf_zero = np.searchsorted(cdf, k * 2.0**-53, side="right") == 0
                assert (np.uint64(k) < limit) == inverse_cdf_zero, (cdf, k)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_limits_reject_a_non_finite_weight(self, bad):
        # a NaN limit would cast to some uint64 and the sampler would run on it
        state = _state(STREAMING_SPECS["random8"], None)
        amps = state.amps.copy()
        amps[state.n + 2] = complex(bad, 0.0)
        with pytest.raises(ToleranceError, match=f"state weight {bad!r} is not finite"):
            _zero_limits(SectorState(state.n, amps))

    def test_tally_compares_the_draw_with_the_limit(self):
        # trial 0's first draw k sits exactly on the limit: k < k reads 1,
        # k < k + 1 reads 0
        seed = 2024
        k = int(trial_uniforms(seed, 1, 1)[0, 0] * 2.0**53)
        on_limit = montecarlo._tally(seed, 1, np.array([k], dtype=np.uint64))
        above = montecarlo._tally(seed, 1, np.array([k + 1], dtype=np.uint64))
        assert (on_limit[0], list(on_limit[1])) == (0, [1])
        assert (above[0], list(above[1])) == (1, [0])

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
                for cdf, limit in zip(cdfs, _zero_limits(_state(spec, fock))):
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


class TestConfidenceInterval:
    def _stats(self, successes: int, trials: int) -> TrialStats:
        p = successes / trials
        return TrialStats(
            trials=trials,
            successes=successes,
            empirical_p=p,
            analytic_p=p,
            std_error=math.sqrt(p * (1 - p) / trials),
            z_score=0.0,
            fired=(),
            seed=0,
        )

    def test_all_successes_hits_upper_boundary(self):
        lo, hi = confidence_interval(self._stats(100, 100), 1.96)
        assert hi == 1.0 and 0.0 <= lo < 1.0

    def test_no_successes_hits_lower_boundary(self):
        lo, hi = confidence_interval(self._stats(0, 100), 1.96)
        assert lo == 0.0 and 0.0 < hi <= 1.0

    def test_worked_numeric_example(self):
        lo, hi = confidence_interval(self._stats(6000, 10_000), 1.96)
        oracle_lo, oracle_hi = wilson_oracle(0.6, 10_000, 1.96)
        assert lo == pytest.approx(oracle_lo, abs=1e-12)
        assert hi == pytest.approx(oracle_hi, abs=1e-12)
        assert lo == pytest.approx(0.5903613659779724, abs=1e-12)
        assert hi == pytest.approx(0.6095618315264743, abs=1e-12)

    def test_contains_empirical_p(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            trials = int(rng.integers(1, 5000))
            successes = int(rng.integers(0, trials + 1))
            stats = self._stats(successes, trials)
            lo, hi = confidence_interval(stats, 1.96)
            assert 0.0 <= lo <= stats.empirical_p <= hi <= 1.0
