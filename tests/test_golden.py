"""Byte-for-byte regression of the CLI reports.

tests/golden/ holds four coefficient files (the worked N=3 spec, random
complex N=5 and N=64 specs, and an N=4 spec whose two smallest magnitudes
differ by 4e-13, inside MAG_TIE_TOL) and the exact stdout of every
subcommand on them. Any engine change must reproduce these bytes; a file
is regenerated only when a change deliberately moves its bytes, and the
change log says which.

Report bytes also depend on which SIMD kernels numpy dispatches to (e.g.
np.angle and np.arccos of an array round some inputs differently with and
without AVX-512), so the goldens are also rerun with numpy's AVX-512 kernels
switched off. The N=64 spec has enough coefficients that swapping libm
acos for np.arccos moves its cavity reports.
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


def _avx512_features() -> list[str]:
    """The AVX-512-level targets numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [
        f
        for f in umath.__cpu_dispatch__
        if (f == "X86_V4" or f.startswith("AVX512")) and umath.__cpu_features__.get(f)
    ]


def test_goldens_hold_without_avx512_dispatch():
    features = _avx512_features()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
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
    for name in sorted(CASES):
        with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
            assert rerun["outputs"][name] == [0, fh.read()], name
