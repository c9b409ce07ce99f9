"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion (without -s the lines still appear for any failing criterion).
"""
import json
import math
import time

import numpy as np

from conftest import WORKED_COEFFS, random_spec
from support import dense
from support.linalg import is_unitary, propagator
from support.statevec import StateVector, apply_local, drop_collapsed_sites, project_site
from support.steps import JCModel, jc_propagator_closed, plan
from wdistill.cavity import JCParams, jc_steps, run_physical
from wdistill.cli import main
from wdistill.montecarlo import TrialConfig, run_trials
from wdistill.protocol import (
    WPrimeSpec,
    acting_parties,
    analytic_success_probability,
    run_exact,
)


def _finish(num: int, name: str, failures: list[str], elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {num} [{status}]: {name}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _simplex_grid(side: int = 20):
    """side x side grid of sorted squared magnitudes x >= y >= z > 0."""
    for i in range(1, side + 1):
        z = (i / side) / 3.0
        for j in range(1, side + 1):
            y = z + (j / side) * ((1.0 - z) / 2.0 - z)
            x = 1.0 - z - y
            yield x, y, z


def _criterion2_specs():
    rng = np.random.default_rng(20_240_601)
    return [random_spec(rng, int(rng.integers(2, 9))) for _ in range(200)]


def test_criterion_1_three_party_law():
    failures = []
    start = time.perf_counter()
    for x, y, z in _simplex_grid():
        spec = WPrimeSpec([math.sqrt(x), math.sqrt(y), math.sqrt(z)])
        p = run_exact(spec).success_probability_exact
        if abs(p - 3.0 * z) > 1e-10:
            failures.append(f"grid point z={z}: P={p!r} vs 3z={3 * z!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(1, "three-party success law P = 3|c|^2 on a 20x20 grid", failures, elapsed)


def test_criterion_2_n_party_law():
    failures = []
    start = time.perf_counter()
    for spec in _criterion2_specs():
        p = run_exact(spec).success_probability_exact
        if abs(p - analytic_success_probability(spec)) > 1e-10:
            failures.append(f"n={spec.n}: exact {p!r} vs analytic")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(2, "N-party law P = N min|c_i|^2 on 200 random complex specs", failures, elapsed)


def test_criterion_3_perfect_output():
    failures = []
    for x, y, z in _simplex_grid():
        spec = WPrimeSpec([math.sqrt(x), math.sqrt(y), math.sqrt(z)])
        fid = run_exact(spec).fidelity_with_w
        if abs(fid - 1.0) > 1e-12:
            failures.append(f"grid z={z}: fidelity {fid!r}")
    for spec in _criterion2_specs():
        fid = run_exact(spec).fidelity_with_w
        if abs(fid - 1.0) > 1e-12:
            failures.append(f"random n={spec.n}: fidelity {fid!r}")
    _finish(3, "corrected output fidelity is 1 for every criterion-1/2 spec", failures)


def test_criterion_4_physical_abstract_equivalence():
    failures = []
    rng = np.random.default_rng(77_001)
    start = time.perf_counter()
    for _ in range(100):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        w = rng.uniform(1.0, 100.0)
        params = JCParams(omega=w, epsilon=rng.uniform(0.5, 5.0))
        p_abs = run_exact(spec).success_probability_exact
        rep = run_physical(spec, params)
        if abs(rep.success_probability_exact - p_abs) > 1e-10:
            failures.append(f"n={spec.n}: physical {rep.success_probability_exact!r} vs {p_abs!r}")
        if abs(rep.fidelity_with_w - 1.0) > 1e-12:
            failures.append(f"n={spec.n}: physical fidelity {rep.fidelity_with_w!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _finish(4, "cavity scheme reproduces the abstract probabilities and output", failures, elapsed)


def test_criterion_5_jc_oracle():
    failures = []
    rng = np.random.default_rng(5150)
    for _ in range(50):
        w = rng.uniform(1.0, 100.0)
        model = JCModel(
            omega=w, omega0=w, epsilon=rng.uniform(0.5, 5.0), fock_cutoff=int(rng.integers(1, 4))
        )
        t = rng.uniform(0.0, 10.0 / model.epsilon)
        closed = jc_propagator_closed(model, t)
        oracle = propagator(dense.jc_hamiltonian(model), t)
        dev = np.max(np.abs(closed - oracle))
        if dev > 1e-10:
            failures.append(f"propagator deviation {dev!r}")
        d = model.fock_cutoff + 1
        excitation = np.array([a + n for a in (0, 1) for n in range(d)])
        mixing = excitation[:, None] != excitation[None, :]
        for u in (closed, oracle):
            leak = np.max(np.abs(u[mixing]))
            if leak > 1e-12:
                failures.append(f"excitation-sector leakage {leak!r}")
    _finish(5, "closed-form cavity propagator matches the eigendecomposition oracle", failures)


def test_criterion_6_timing_law():
    failures = []
    rng = np.random.default_rng(606)
    for _ in range(50):
        spec = random_spec(rng, int(rng.integers(2, 8)))
        eps = rng.uniform(0.5, 5.0)
        min_mag = min(abs(c) for c in spec.coeffs)
        dts = jc_steps(spec, JCParams(omega=1.0, epsilon=eps))[0]
        for k, dt in zip(acting_parties(spec), dts):
            resid = abs(abs(spec.coeffs[k]) * math.cos(eps * dt) - min_mag)
            if resid > 1e-12:
                failures.append(f"timing identity residual {resid!r}")
    worked = WPrimeSpec(WORKED_COEFFS)
    dt = jc_steps(worked, JCParams(omega=1.0, epsilon=1.0))[0][0]
    if abs(dt - 0.8860771) > 1e-7:
        failures.append(f"worked interaction time {dt!r} vs 0.8860771")
    _finish(6, "interaction times satisfy |c_k| cos(eps dt) = min|c_i|", failures)


def test_criterion_7_monte_carlo_concordance():
    failures = []
    start = time.perf_counter()
    trials = 100_000
    spec = WPrimeSpec(WORKED_COEFFS)
    stats = run_trials(spec, TrialConfig(trials=trials, seed=42))
    if abs(stats.empirical_p - 0.6) > 4 * math.sqrt(0.6 * 0.4 / trials):
        failures.append(f"empirical {stats.empirical_p!r} outside the 4-sigma band around 0.6")
    # modes in measurement order: parties 1 and 2 act, party 3 is minimal
    for mode, p in ((0, 0.3), (1, 0.1)):
        freq = stats.fired[mode] / trials
        if abs(freq - p) > 5 * math.sqrt(p * (1 - p) / trials):
            failures.append(f"mode {mode} fired: frequency {freq!r} vs {p}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _finish(7, "10^5-trial sampling concentrates on the exact branch probabilities", failures, elapsed)


def test_criterion_8_property_suites(tmp_path):
    failures = []
    rng = np.random.default_rng(808)

    # unitarity of every constructed matrix
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        for step in plan(spec):
            if not is_unitary(step.u_k, 1e-12):
                failures.append(f"step unitary for n={spec.n} fails the 1e-12 check")
        w = rng.uniform(1.0, 60.0)
        model = JCModel(omega=w, omega0=w, epsilon=rng.uniform(0.5, 4.0))
        if not is_unitary(jc_propagator_closed(model, rng.uniform(0.0, 5.0)), 1e-12):
            failures.append("cavity propagator fails the 1e-12 unitarity check")

    # step-order invariance of the evolved (dense) joint state
    for _ in range(5):
        spec = random_spec(rng, int(rng.integers(3, 7)))
        steps = plan(spec)
        layout, anc_sites = dense.joint_layout(spec)
        amps = np.zeros(layout.size, dtype=complex)
        for m, c in enumerate(spec.coeffs):
            occ = [0] * layout.n_sites
            occ[m] = 1
            amps[layout.ravel(occ)] = c
        initial = StateVector(layout, amps)
        pairs = list(zip(steps, anc_sites))
        forward = initial
        backward = initial
        for step, anc in pairs:
            forward = apply_local(forward, step.u_k, (anc, step.k))
        for step, anc in pairs[::-1]:
            backward = apply_local(backward, step.u_k, (anc, step.k))
        if np.max(np.abs(forward.amps - backward.amps)) > 1e-12:
            failures.append("step order changed the evolved state beyond 1e-12")

    # failure branches of the dense state collapse the particles to |00...0>
    for _ in range(5):
        spec = random_spec(rng, int(rng.integers(2, 6)))
        state, anc_sites = dense.evolved_joint_state(spec)
        for pos in range(len(anc_sites)):
            pattern = [0] * len(anc_sites)
            pattern[pos] = 1
            current, prob = state, 1.0
            for site, outcome in zip(anc_sites, pattern):
                p, current = project_site(current, site, outcome)
                prob *= p
                if current is None:
                    break
            if current is None or prob == 0.0:
                continue
            particles = drop_collapsed_sites(current, dict(zip(anc_sites, pattern)))
            if abs(abs(particles.amps[0]) ** 2 - 1.0) > 1e-12:
                failures.append(f"failure branch {pattern} left particle weight elsewhere")

    # probabilities and corrected output do not depend on the mode frequency
    spec = random_spec(rng, 4)
    rep_a = run_physical(spec, JCParams(omega=2.0, epsilon=1.1))
    rep_b = run_physical(spec, JCParams(omega=93.0, epsilon=1.1))
    if abs(rep_a.success_probability_exact - rep_b.success_probability_exact) > 1e-12:
        failures.append("success probability depends on the mode frequency")
    if np.max(np.abs(rep_a.final_state - rep_b.final_state)) > 1e-12:
        failures.append("corrected final state depends on the mode frequency")

    # sampled runs are deterministic down to the report bytes
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"coefficients": [[c, 0.0] for c in WORKED_COEFFS]}), encoding="utf-8"
    )
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(
            ["sample", str(spec_path), "--trials", "20000", "--seed", "31", "--out", str(out)]
        )
        if code != 0:
            failures.append(f"sample command exited {code}")
    if out_a.read_bytes() != out_b.read_bytes():
        failures.append("repeated sampled reports are not byte-identical")

    _finish(8, "unitarity, order-invariance, collapse, frequency-independence, determinism", failures)
