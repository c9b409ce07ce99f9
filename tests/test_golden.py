"""Byte-for-byte regression of the CLI reports.

tests/golden/ holds three coefficient files (the worked N=3 spec, a random
complex N=5 spec, and an N=4 spec whose two smallest magnitudes differ by
4e-13, inside MAG_TIE_TOL) and the exact stdout of every subcommand on
them. Any engine change must reproduce these bytes; a file is regenerated
only when a change deliberately moves its bytes, and the change log says
which.
"""
import os

import pytest

from wdistill.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SPEC_COMMANDS = {
    "distill": ["distill"],
    "cavity_fock1": ["cavity", "--fock", "1"],
    "cavity_fock2": ["cavity", "--fock", "2", "--omega", "13.5", "--epsilon", "0.7"],
    "sample_abstract": ["sample", "--trials", "10000", "--seed", "42"],
    "sample_cavity": ["sample", "--trials", "10000", "--seed", "42", "--scheme", "cavity"],
}

CASES = {
    f"{spec}.{name}": [cmd[0], os.path.join(GOLDEN, f"{spec}.json"), *cmd[1:]]
    for spec in ("worked", "random5", "near_tie")
    for name, cmd in SPEC_COMMANDS.items()
}
CASES["sweep"] = ["sweep", "--n", "4", "--steps", "6"]
CASES["wstate"] = ["wstate", "--n", "4"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == expected
