"""The single-excitation sector engine against the dense state-vector oracle.

Both realizations, N = 2..9 with random complex phases, Fock cutoffs 1-3
(as far as the oracle's 2^20-amplitude cap allows),
the golden near-tie spec, and exact ties, where some failure patterns have
probability exactly zero.
"""
import math
import os

import numpy as np
import pytest

from conftest import random_spec
from support import branch_rows, dense
from support.sampler import zero_prefix_cdfs
from support.steps import JCModel
from wdistill.cavity import run_physical
from wdistill.cli import load_spec
from wdistill.protocol import WPrimeSpec, run_exact

AGREE_TOL = 1e-14
CDF_TOL = 1e-15
# largest N whose dense state fits the oracle's 2^20-amplitude cap, per
# Fock cutoff (None: the abstract scheme)
MAX_N = {None: 9, 1: 9, 2: 8, 3: 7}

NEAR_TIE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "near_tie.json")


def _specs():
    rng = np.random.default_rng(2024)
    specs = {f"random{n}_{i}": random_spec(rng, n) for n in range(2, 10) for i in range(2)}
    specs["near_tie"] = load_spec(NEAR_TIE)[0]
    specs["uniform"] = WPrimeSpec([0.5] * 4)
    # three parties tie exactly at the minimum, with phases that keep |c| exact
    tie = math.sqrt(0.2)
    specs["three_way_tie"] = WPrimeSpec([math.sqrt(0.4) * 1j, tie, 1j * tie, -tie])
    return specs


SPECS = _specs()
CASES = [
    (name, fock)
    for name, spec in SPECS.items()
    for fock in (None, 1, 2, 3)
    if spec.n <= MAX_N[fock]
]


def _model(fock: int) -> JCModel:
    return JCModel(omega=13.5, omega0=13.5, epsilon=0.7, fock_cutoff=fock)


def _runs(spec: WPrimeSpec, fock: int | None):
    if fock is None:
        return run_exact(spec), dense.run_exact(spec)
    return run_physical(spec, _model(fock).params), dense.run_physical(spec, _model(fock))


@pytest.mark.parametrize("name,fock", CASES)
def test_reports_match_dense(name, fock):
    spec = SPECS[name]
    sector, oracle = _runs(spec, fock)
    assert abs(sector.success_probability_exact - oracle.success_probability_exact) <= AGREE_TOL
    assert abs(sector.fidelity_with_w - oracle.fidelity_with_w) <= AGREE_TOL

    reachable = {r.pattern: r.probability for r in oracle.branch_records if r.probability > 0.0}
    rows = branch_rows(spec, sector)
    assert rows.keys() == reachable.keys()
    for digits, row in rows.items():
        assert abs(row["probability"] - reachable[digits]) <= AGREE_TOL
    # success first, then the fired parties ascending, zero rows left out
    fired = [row["fired"] for row in rows.values()]
    assert fired[0] is None and fired[1:] == sorted(fired[1:])

    one_hot = [1 << (spec.n - 1 - m) for m in range(spec.n)]
    assert np.max(np.abs(sector.final_state - oracle.final_state.amps[one_hot])) <= AGREE_TOL


@pytest.mark.parametrize("name,fock", CASES)
def test_sampler_cdfs_match_dense(name, fock):
    spec = SPECS[name]
    if fock is None:
        cdfs = zero_prefix_cdfs(spec)
        dense_state, sites = dense.evolved_joint_state(spec)
    else:
        cdfs = zero_prefix_cdfs(spec, _model(fock))
        dense_state, sites, _ = dense.evolved_physical_state(spec, _model(fock))
    expected = dense.zero_prefix_cdfs(dense_state, sites)
    assert cdfs.shape == (len(expected), len(expected[0]))
    assert np.max(np.abs(cdfs - np.array(expected))) <= CDF_TOL


def test_ties_drop_exactly_the_zero_rows():
    # the tied parties' ancillas never fire: only success and party 1's row
    for fock in (None, 1, 2):
        sector, _ = _runs(SPECS["three_way_tie"], fock)
        assert list(branch_rows(SPECS["three_way_tie"], sector)) == [(0, 0, 0), (1, 0, 0)]
    sector, _ = _runs(SPECS["uniform"], None)
    assert list(branch_rows(SPECS["uniform"], sector)) == [(0, 0, 0)]
