"""Output checker that does not depend on report layout.

It reads only the named scalar fields of a report (never `branches`), and
compares them with values the benchmark computes itself from the
coefficients it generated. Each check returns None when the output is
correct, else a one-line reason.
"""
from __future__ import annotations

import csv
import io
import json
import math

PROB_TOL = 1e-10
FIDELITY_TOL = 1e-12
# Wilson score interval half-width in standard errors: wide enough that a
# correct sampler fails about once in 5e8 ops
WILSON_Z = 6.0


def analytic_p(coeffs) -> float:
    """N * min|c_i|^2, from the coefficients as generated."""
    return len(coeffs) * min(abs(c) for c in coeffs) ** 2


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _fields(stdout: str, *names):
    doc = json.loads(stdout)
    return [doc[name] for name in names]


def check_exact(stdout: str, coeffs) -> str | None:
    """distill / cavity: p_exact matches N*min|c|^2 and fidelity with W is 1."""
    try:
        p_exact, fid = _fields(stdout, "success_probability_exact", "fidelity_with_w")
        p_exact, fid = float(p_exact), float(fid)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    p = analytic_p(coeffs)
    if not abs(p_exact - p) <= PROB_TOL:
        return f"p_exact {p_exact!r} vs closed form {p!r}"
    if not abs(fid - 1.0) <= FIDELITY_TOL:
        return f"fidelity_with_w {fid!r} not 1 within {FIDELITY_TOL}"
    return None


def check_sample(stdout: str, coeffs, trials: int) -> str | None:
    """sample: the closed-form p lies in a z=6 Wilson interval of the estimate."""
    try:
        got_trials, empirical = _fields(stdout, "trials", "empirical_p")
        empirical = float(empirical)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got_trials != trials:
        return f"report has {got_trials!r} trials, asked for {trials}"
    if not 0.0 <= empirical <= 1.0:
        return f"empirical_p {empirical!r} outside [0, 1]"
    lo, hi = wilson_interval(round(empirical * trials), trials)
    p = analytic_p(coeffs)
    if not lo <= p <= hi:
        return f"closed-form p {p!r} outside Wilson interval [{lo!r}, {hi!r}] of empirical_p {empirical!r}"
    return None


def check_sweep(stdout: str, n: int, steps: int) -> str | None:
    """sweep: one row per step, each exact value equal to its analytic n*m."""
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        values = [(float(r["min_coeff_sq"]), float(r["analytic_p"]), float(r["exact_p"])) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable sweep: {exc!r}"
    if len(values) != steps:
        return f"{len(values)} sweep rows, expected {steps}"
    for i, (m, analytic, exact) in enumerate(values, start=1):
        want = (i / steps) * (1.0 / n)
        if not abs(m - want) <= 1e-15:
            return f"row {i}: min_coeff_sq {m!r}, expected {want!r}"
        if not (abs(analytic - n * m) <= PROB_TOL and abs(exact - analytic) <= PROB_TOL):
            return f"row {i}: exact {exact!r} vs analytic {analytic!r} vs n*m {n * m!r}"
    return None


def check_op(op: dict, stdout: str) -> str | None:
    kind = op["kind"]
    if kind == "sample":
        return check_sample(stdout, op["coeffs"], op["trials"])
    if kind == "sweep":
        return check_sweep(stdout, op["n"], op["steps"])
    return check_exact(stdout, op["coeffs"])
