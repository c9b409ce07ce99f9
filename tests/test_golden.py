"""Byte-for-byte regression of the CLI reports.

tests/golden/ holds four coefficient files (the worked N=3 spec, random
complex N=5 and N=64 specs, and an N=4 spec whose two smallest magnitudes
differ by 4e-13, inside MAG_TIE_TOL) and the exact stdout of every
subcommand on them. The sample_few reports run 50 trials: on random64's 63
steps the sampler's chunk drops its failed trials while the steps left
outnumber the trials it holds, then carries them. Any engine change must
reproduce these bytes; a file is regenerated only when a change
deliberately moves its bytes, and the change log says which.

Report bytes could also depend on which SIMD kernels numpy dispatches to
(e.g. np.angle, np.arccos and complex |z|^2 of an array round some inputs
differently with and without AVX-512 or AVX2), so the goldens are also rerun
with numpy's AVX-512 kernels switched off, and with every dispatched kernel
off, leaving numpy's baseline (no AVX2 on x86-64). The N=64 spec has enough
coefficients that swapping libm acos for np.arccos, or taking the
probabilities from |amplitude|^2 of the evolved state, moves its reports.
"""
import json
import os
import subprocess
import sys

import pytest

from wdistill.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

SPEC_COMMANDS = {
    "distill": ["distill"],
    "cavity_fock1": ["cavity", "--fock", "1"],
    "cavity_fock2": ["cavity", "--fock", "2", "--omega", "13.5", "--epsilon", "0.7"],
    "sample_abstract": ["sample", "--trials", "10000", "--seed", "42"],
    "sample_cavity": ["sample", "--trials", "10000", "--seed", "42", "--scheme", "cavity"],
    "sample_few": ["sample", "--trials", "50", "--seed", "42"],
}

CASES = {
    f"{spec}.{name}": [cmd[0], os.path.join(GOLDEN, f"{spec}.json"), *cmd[1:]]
    for spec in ("worked", "random5", "random64", "near_tie")
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


# runs every case in one interpreter: argv of cases as JSON in, then the
# dispatched-feature flags and each case's (exit code, stdout) as JSON out
_RERUN = """
import contextlib, io, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
from wdistill.cli import main
features = {f: bool(__cpu_features__[f]) for f in sys.argv[2:]}
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    outputs[name] = [code, buf.getvalue()]
json.dump({"features": features, "outputs": outputs}, sys.stdout)
"""


def _dispatched_features(avx512_only: bool) -> list[str]:
    """The targets above its baseline that numpy dispatches to on this CPU:
    the AVX-512-level ones, or all of them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [
        f
        for f in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(f) and (not avx512_only or f == "X86_V4" or f.startswith("AVX512"))
    ]


def _rerun_without(features: list[str]) -> dict:
    """Every case in a child interpreter with the given dispatch targets off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RERUN, json.dumps(CASES), *features],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rerun = json.loads(proc.stdout)
    assert rerun["features"] == {f: False for f in features}
    return rerun["outputs"]


def test_goldens_hold_without_avx512_dispatch():
    # AVX-512 off, then every dispatched target off: numpy's baseline kernels
    runs = [f for f in (_dispatched_features(True), _dispatched_features(False)) if f]
    if not runs:
        pytest.skip("numpy dispatches no kernel above its baseline on this CPU")
    for features in runs:
        outputs = _rerun_without(features)
        for name in sorted(CASES):
            with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
                assert outputs[name] == [0, fh.read()], (name, features)
