"""List-based reference ingest: the oracle for wdistill.cli.load_spec.

This is the coefficient-file loader the CLI used before it parsed rows into
one float64 array: each row becomes a Python complex, the squares come from
abs() of a complex at a power-of-two scale of the largest component, and
the spec is built from a list of rescaled complex numbers. The builtin
sum() it used is written out as a left-to-right loop, because sum() of
floats is compensated from Python 3.12 on; the loop is the file-order sum
on every Python. The array loader must return bit-identical coefficients
and factor, and raise the same error with the same message.
"""
from __future__ import annotations

import json
import math

from wdistill.cli import FILE_NORM_TOL, UsageError
from wdistill.errors import SpecError
from wdistill.protocol import WPrimeSpec


def load_spec(path: str) -> tuple[WPrimeSpec, float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "coefficients" not in doc:
        raise SpecError(f"{path}: expected an object with a 'coefficients' array")
    rows = doc["coefficients"]
    if not isinstance(rows, list) or len(rows) < 2:
        raise SpecError("need at least 2 coefficient pairs")
    coeffs = []
    for i, row in enumerate(rows):
        try:
            ok = (
                isinstance(row, (list, tuple))
                and len(row) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
                and all(math.isfinite(float(x)) for x in row)
            )
        except OverflowError:  # an integer beyond the double range
            ok = False
        if not ok:
            raise SpecError(f"coefficient {i}: expected a [re, im] pair of finite numbers")
        coeffs.append(complex(float(row[0]), float(row[1])))
    normalize = doc.get("normalize", False)
    if not isinstance(normalize, bool):
        raise SpecError("'normalize' must be a boolean")
    peak = max(max(abs(c.real), abs(c.imag)) for c in coeffs)
    if peak == 0.0:
        raise SpecError("all coefficients are zero")
    e = math.frexp(peak)[1]
    total = 0.0
    for c in coeffs:
        total += abs(complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))) ** 2
    if not normalize:
        try:
            norm_sq = math.ldexp(total, 2 * e)
        except OverflowError:
            norm_sq = math.inf
        if abs(norm_sq - 1.0) > FILE_NORM_TOL:
            raise SpecError(
                f"sum of squared magnitudes is {norm_sq!r}, not 1 within {FILE_NORM_TOL} "
                "(set \"normalize\": true to rescale)"
            )
    try:
        factor = math.ldexp(1.0 / math.sqrt(total), -e)
    except OverflowError:
        raise SpecError(
            f"largest coefficient component {peak!r} is too small to rescale: "
            "the normalization factor overflows"
        ) from None
    return WPrimeSpec([c * factor for c in coeffs]), factor
