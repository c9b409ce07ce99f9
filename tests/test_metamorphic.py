"""Metamorphic relations of the CLI reports: symmetries of the protocol that
must leave named report bytes unchanged.

Every step is a local unitary followed by post-selection, so an outcome
probability depends on the magnitudes |c_i| alone: a phase on a party, a
conjugation, the mode frequency omega and the coupling epsilon change none
of them. The two schemes rescale each party alike, so `cavity`'s `branches`
and `success_probability_exact` are `distill`'s. Floats render at 17
significant digits, which round-trips a double, so equal parsed values are
equal bytes.

Each spec is random complex, N in [2, 40], with "normalize": true, so a
report's rows are the file's rows rescaled.
"""
import json
import math

import numpy as np
import pytest

from wdistill.cli import main

SEEDS = range(8)


def _rows(seed: int) -> list[list[float]]:
    rng = np.random.default_rng([2026, seed])
    n = int(rng.integers(2, 41))
    mags = np.sqrt(rng.uniform(0.2, 1.0, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([mags * np.cos(phases), mags * np.sin(phases)]).tolist()


def _report(tmp_path, capsys, rows, command: str, *flags: str) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"coefficients": rows, "normalize": True}), encoding="utf-8")
    assert main([command, str(path), *flags]) == 0
    return capsys.readouterr().out


def _probabilities(text: str):
    doc = json.loads(text)
    return doc["branches"], doc["success_probability_exact"]


def _without_factor(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith('  "normalization_factor": ')]


@pytest.fixture
def run(tmp_path, capsys):
    return lambda rows, command, *flags: _report(tmp_path, capsys, rows, command, *flags)


@pytest.mark.parametrize("seed", SEEDS)
def test_cavity_probabilities_ignore_the_mode_frequency(run, seed):
    # symmetry: omega only turns each atom's Ramsey phase
    rows = _rows(seed)
    omega = float(np.random.default_rng(seed).uniform(0.5, 1000.0))
    expected = _probabilities(run(rows, "distill"))
    assert _probabilities(run(rows, "cavity")) == expected
    assert _probabilities(run(rows, "cavity", "--omega", repr(omega))) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_cavity_probabilities_ignore_a_power_of_two_coupling(run, seed):
    # symmetry: epsilon * 2^k scales every interaction time by 2^-k, which
    # leaves each pass's Rabi angle and moves only its Ramsey phase
    rows = _rows(seed)
    k = int(np.random.default_rng(seed).integers(-8, 9)) or 1
    expected = _probabilities(run(rows, "distill"))
    assert _probabilities(run(rows, "cavity", "--epsilon", repr(math.ldexp(1.3, k)))) == expected


@pytest.mark.parametrize("command", ["distill", "cavity"])
@pytest.mark.parametrize("seed", SEEDS)
def test_probabilities_ignore_a_quarter_turn_on_one_party(run, seed, command):
    # symmetry: c_k -> i c_k, i.e. (re, im) -> (-im, re), is a phase on party k
    rows = _rows(seed)
    k = int(np.random.default_rng(seed).integers(len(rows)))
    turned = [list(row) for row in rows]
    turned[k] = [-rows[k][1], rows[k][0]]
    expected = _probabilities(run(rows, "distill"))
    assert _probabilities(run(rows, command)) == expected
    assert _probabilities(run(turned, command)) == expected


@pytest.mark.parametrize("command", ["distill", "cavity"])
@pytest.mark.parametrize("seed", SEEDS)
def test_probabilities_ignore_conjugation(run, seed, command):
    # symmetry: c_i -> conj(c_i) for every party keeps every |c_i|
    rows = _rows(seed)
    conjugated = [[re, -im] for re, im in rows]
    expected = _probabilities(run(rows, "distill"))
    assert _probabilities(run(conjugated, command)) == expected


@pytest.mark.parametrize(
    "argv",
    [["distill"], ["cavity"], ["sample", "--trials", "2000", "--seed", "3"]],
    ids=["distill", "cavity", "sample"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_row_scaling_moves_only_the_normalization_factor(run, seed, argv):
    # symmetry: every row times 2^k is the same state once normalized, and
    # the rescale is exact in binary, so only the factor moves, by 2^-k
    rows = _rows(seed)
    k = int(np.random.default_rng(seed).integers(-30, 31)) or 1
    base = run(rows, *argv)
    scaled = run([[math.ldexp(x, k) for x in row] for row in rows], *argv)
    assert _without_factor(scaled) == _without_factor(base)
    factor = json.loads(base)["normalization_factor"]
    assert json.loads(scaled)["normalization_factor"] == math.ldexp(factor, -k)


@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_coupling_scales_every_delta_t_exactly(run, seed):
    # symmetry: dt_k = atan2(s_k, min|c_i|) / epsilon, and dividing by 2^k is exact
    rows = _rows(seed)
    k = int(np.random.default_rng(seed).integers(-8, 9)) or 1
    base = json.loads(run(rows, "cavity", "--epsilon", "1.3"))["steps"]
    scaled = json.loads(run(rows, "cavity", "--epsilon", repr(math.ldexp(1.3, k))))["steps"]
    assert [row["user"] for row in scaled] == [row["user"] for row in base]
    assert [row["delta_t"] for row in scaled] == [math.ldexp(row["delta_t"], -k) for row in base]
