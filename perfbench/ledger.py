"""Known-defect ledger: which valid wide-range ops the program fails on.

small-batch runs a fixed, seeded set of probe ops (PROBE_SPECS specs, each
through distill, cavity and sample) outside its timed loop. Magnitude
ratios min|c|/max|c| are log-uniform down to 1e-200, plus near-ties inside
the 1e-12 tie tolerance. Every probe runs and every failure is counted; the
ledger below predicts, per probe, whether the seed program fails it, so the
run reports predicted, observed, unexpected (a new failure) and fixed (a
ledger entry that no longer fails) separately.

Entries, as reproduced at the seed commit:

underflow   distill, cavity, sample exit 3 once min|c| <~ 2e-162, because
            |c|^2 underflows to 0 ("success branch has zero probability",
            "all-zero measurement prefix has zero probability").
cavity-acos cavity exits 3 once min|c|/max|c| <~ 1e-10.5: the repaired
            fidelity is 0.99999999999 at 1e-11 and ~0.5 below 1e-18,
            because cos(acos(r)) carries ~1e-17 absolute error.

Each entry's onset depends on the last digits of the coefficients over
about one decade of ratio. Probes are not drawn inside those two transition
bands, so each probe's prediction is exact; both sides of every band are
sampled.
"""
from __future__ import annotations

import random

LOG10_RATIO_MIN = -200.0
# (lo, hi) open bands of log10(min|c|/max|c|) where an entry's onset lies
TRANSITION_BANDS = ((-163.0, -161.0), (-12.0, -10.0))
UNDERFLOW_BELOW = -163.0
CAVITY_ACOS_BELOW = -12.0


def probe_log10_ratio(rng: random.Random) -> float:
    while True:
        lr = rng.uniform(LOG10_RATIO_MIN, 0.0)
        if not any(lo < lr < hi for lo, hi in TRANSITION_BANDS):
            return lr


def predicted_failure(kind: str, log10_ratio: float | None) -> str | None:
    """Ledger entry a probe op is predicted to fail by at the seed, or None."""
    if log10_ratio is None:
        return None
    if log10_ratio <= UNDERFLOW_BELOW:
        return "underflow"
    if kind == "cavity" and log10_ratio <= CAVITY_ACOS_BELOW:
        return "cavity-acos"
    return None
