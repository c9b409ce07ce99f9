"""The closed-form step entries against the full per-party step matrices.

The package describes every step by its block entries alone
(protocol.ancilla_steps, cavity.jc_steps) and applies them without ever
building a matrix. Here each party's reference matrix from support.steps,
built independently entry by entry, must keep the single-excitation sector
exactly: no nonzero entry may link its vacuum ket or its one-excitation
pair to any other ket. Its block, relative to its spectator phase, must
equal the runtime's entries, and the product of its spectator phases the
runtime's spectator.
"""
import math
import os

import numpy as np
import pytest

from conftest import random_spec
from support.steps import (
    ANCILLA_PAIR,
    ANCILLA_VAC,
    jc_propagator_closed,
    jc_sector_kets,
    leaked_entries,
    JCModel,
    physical_plan,
    plan,
)
from wdistill.cavity import jc_steps
from wdistill.cli import load_spec
from wdistill.protocol import WPrimeSpec, ancilla_steps

ENTRY_TOL = 1e-15
# per radian of the total spectator angle w * sum(dt) / 2 (at least one):
# the reference rounds each pass's angle and the runtime their sum, so the
# two phases can agree only to a few ulps of that angle
SPECTATOR_TOL = 1e-14

NEAR_TIE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "near_tie.json")


def _specs():
    rng = np.random.default_rng(707)
    specs = {f"random{n}": random_spec(rng, n) for n in range(2, 10)}
    specs["near_tie"] = load_spec(NEAR_TIE)[0]
    tie = math.sqrt(0.2)
    specs["three_way_tie"] = WPrimeSpec([math.sqrt(0.4) * 1j, tie, 1j * tie, -tie])
    return specs


SPECS = _specs()
CASES = [(name, fock) for name in SPECS for fock in (None, 1, 2, 3)]


def _reference(name: str, fock: int | None):
    """(reference matrices, vac, pair, runtime keep, fire, spectator,
    spectator angle)."""
    spec = SPECS[name]
    if fock is None:
        keep, fire = ancilla_steps(spec)
        return [s.u_k for s in plan(spec)], ANCILLA_VAC, ANCILLA_PAIR, keep, fire, 1.0, 0.0
    rng = np.random.default_rng([spec.n, fock])
    w = rng.uniform(0.5, 100.0)
    model = JCModel(omega=w, omega0=w, epsilon=rng.uniform(0.2, 5.0), fock_cutoff=fock)
    dt, keep, fire, spectator = jc_steps(spec, model.params)
    # the matrices are taken at the runtime's times: omega * dt reaches ~10^2,
    # so an ulp of dt would move the phases by more than ENTRY_TOL
    reference_dt = [p.delta_t for p in physical_plan(spec, model.params)]
    np.testing.assert_allclose(dt, reference_dt, rtol=2 * np.finfo(float).eps, atol=0)
    vac, pair = jc_sector_kets(fock + 1)
    angle = 0.5 * w * math.fsum(dt)
    return [jc_propagator_closed(model, t) for t in dt], vac, pair, keep, fire, spectator, angle


@pytest.mark.parametrize("name,fock", CASES)
def test_step_matrices_keep_the_sector(name, fock):
    mats, vac, pair, *_ = _reference(name, fock)
    assert len(mats) == SPECS[name].n - 1
    for u in mats:
        assert leaked_entries(u, vac, pair) == []


@pytest.mark.parametrize("name,fock", CASES)
def test_block_entries_match_the_matrices(name, fock):
    mats, vac, pair, keep, fire, spectator, angle = _reference(name, fock)
    phases = np.array([u[vac, vac] for u in mats])
    column = np.array([u[list(pair), pair[0]] for u in mats]) / phases[:, None]
    assert keep.shape == fire.shape == phases.shape
    assert np.max(np.abs(column[:, 0] - keep)) <= ENTRY_TOL
    assert np.max(np.abs(column[:, 1] - fire)) <= ENTRY_TOL
    assert abs(np.prod(phases) - spectator) <= SPECTATOR_TOL * max(1.0, angle)

