"""Command-line frontend: distill, cavity, sample, sweep, wstate.

Reports are emitted as a single key-sorted JSON document (UTF-8, trailing
newline) with floats rendered at 17 significant digits, so repeated runs are
byte-identical and values round-trip exactly. Exit codes: 0 ok, 1 usage
error, 2 invalid coefficient specification, 3 internal numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from .cavity import JCParams, run_physical
from .errors import SpecError, ToleranceError, ValidationError
from .montecarlo import TrialConfig, confidence_interval, run_trials
from .protocol import DistillationReport, WPrimeSpec, acting_parties, make_w_state, run_exact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_SPEC = 2
EXIT_NUMERICAL = 3

# 2: `branches` lists only the patterns with nonzero probability
# 3: a row per outcome names the party whose mode fired; jc_params is {epsilon, omega}
REPORT_SCHEMA = 3
FILE_NORM_TOL = 1e-6
WILSON_Z = 1.96


class UsageError(Exception):
    """Bad invocation (unreadable file, out-of-range flag): exit code 1."""


# ---------------------------------------------------------------------------
# report rendering: key-sorted JSON with fixed 17-significant-digit floats

def _render(value, level: int = 0) -> str:
    pad, inner = "  " * level, "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _render(v, level + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_render(value[k], level + 1)}"
            for k in sorted(value, key=str)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value)!r}")


def render_report(doc: dict) -> str:
    return _render(doc) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# coefficient-file ingestion

def load_spec(path: str, allow_unnormalized: bool = False) -> tuple[WPrimeSpec, float]:
    """Parse a coefficient file into a spec plus the applied rescale factor.

    The file is JSON: {"coefficients": [[re, im], ...], "normalize": bool}.
    Without the normalize flag the squared magnitudes must sum to 1 within
    1e-6; ingestion always rescales exactly so downstream code sees a unit
    vector. The rows load into one (N, 2) float64 array whose squares are
    taken at a power-of-two scale of the largest component, exact in binary,
    so no magnitude a double can hold overflows or underflows them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError(f"{path} nests JSON too deeply to parse") from None
    if not isinstance(doc, dict) or "coefficients" not in doc:
        raise SpecError(f"{path}: expected an object with a 'coefficients' array")
    rows = doc["coefficients"]
    if not isinstance(rows, list) or len(rows) < 2:
        raise SpecError("need at least 2 coefficient pairs")
    # exact types per row: numpy's float conversion takes bools and numeric strings
    for i, row in enumerate(rows):
        x, y = row if type(row) is list and len(row) == 2 else (None, None)
        try:
            ok = type(x) in (int, float) and type(y) in (int, float) and math.isfinite(x) and math.isfinite(y)
        except OverflowError:  # an integer beyond the double range
            ok = False
        if not ok:
            raise SpecError(f"coefficient {i}: expected a [re, im] pair of finite numbers")
    pairs = np.fromiter(chain.from_iterable(rows), np.float64, 2 * len(rows)).reshape(-1, 2)
    normalize = doc.get("normalize", False)
    if not isinstance(normalize, bool):
        raise SpecError("'normalize' must be a boolean")
    peak = float(np.abs(pairs).max())
    if peak == 0.0:
        raise SpecError("all coefficients are zero")
    e = math.frexp(peak)[1]
    # float_power is libm pow like Python's ** (np.square rounds some squares apart);
    # add.accumulate sums in file order on every Python (sum() is compensated on 3.12+)
    scaled = np.ldexp(pairs, -e)
    total = np.add.accumulate(np.float_power(np.hypot(scaled[:, 0], scaled[:, 1]), 2))[-1]
    if not (normalize or allow_unnormalized):
        try:
            norm_sq = math.ldexp(total, 2 * e)
        except OverflowError:
            norm_sq = math.inf
        if abs(norm_sq - 1.0) > FILE_NORM_TOL:
            raise SpecError(
                f"sum of squared magnitudes is {norm_sq!r}, not 1 within {FILE_NORM_TOL} "
                "(pass --allow-unnormalized or set \"normalize\": true to rescale)"
            )
    try:
        factor = math.ldexp(1.0 / math.sqrt(total), -e)
    except OverflowError:
        raise SpecError(
            f"largest coefficient component {peak!r} is too small to rescale: "
            "the normalization factor overflows"
        ) from None
    return WPrimeSpec(pairs.view(np.complex128)[:, 0] * factor), factor


# ---------------------------------------------------------------------------
# report assembly

def _outcome_rows(key: str, success, per_mode, min_index: int) -> list[dict]:
    """One row per outcome with a nonzero value: success ("fired": null), then
    each mode that fired, named by its party's 1-based index, ascending."""
    modes = np.flatnonzero(per_mode)
    parties = (modes + 1 + (modes >= min_index)).tolist()
    rows = [{"fired": None, key: success}] if success else []
    return rows + [{"fired": k, key: v} for k, v in zip(parties, np.asarray(per_mode)[modes].tolist())]


def _branch_rows(report: DistillationReport) -> list[dict]:
    fire = report.fire_probabilities
    return _outcome_rows("probability", report.success_probability_exact, fire, report.min_index)


def _base_report(spec: WPrimeSpec, factor: float, scheme: str) -> dict:
    return {
        "report_schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "scheme": scheme,
        "n": spec.n,
        "normalization_factor": float(factor),
    }


def _exact_report(spec: WPrimeSpec, factor: float, scheme: str, report: DistillationReport) -> dict:
    doc = _base_report(spec, factor, scheme)
    doc.update(
        {
            "min_index": report.min_index + 1,
            "success_probability_analytic": report.success_probability_analytic,
            "success_probability_exact": report.success_probability_exact,
            "fidelity_with_w": report.fidelity_with_w,
            "branches": _branch_rows(report),
        }
    )
    return doc


def _jc_params(args) -> JCParams:
    """JC parameters from the flags. The Fock cutoff changes no result (a
    cavity never holds two photons), so --fock is only validated."""
    params = JCParams(omega=args.omega, epsilon=args.epsilon)
    if args.fock < 1:
        raise ValidationError(f"fock_cutoff must be >= 1, got {args.fock}")
    return params


def cmd_distill(args) -> int:
    spec, factor = load_spec(args.spec_path, args.allow_unnormalized)
    doc = _exact_report(spec, factor, "abstract", run_exact(spec))
    _emit(render_report(doc), args.out)
    return EXIT_OK


def cmd_cavity(args) -> int:
    params = _jc_params(args)
    spec, factor = load_spec(args.spec_path, args.allow_unnormalized)
    report = run_physical(spec, params)
    doc = _exact_report(spec, factor, "cavity", report)
    doc["jc_params"] = asdict(params)
    users = (acting_parties(spec) + 1).tolist()
    doc["steps"] = [{"user": k, "delta_t": t} for k, t in zip(users, report.cavity_steps.tolist())]
    _emit(render_report(doc), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    spec, factor = load_spec(args.spec_path, args.allow_unnormalized)
    # the JC flags are validated under either scheme, and read by the cavity one
    params = _jc_params(args)
    cavity = args.scheme == "cavity"
    config = TrialConfig(trials=args.trials, seed=args.seed, params=params if cavity else None)
    stats = run_trials(spec, config)
    lo, hi = confidence_interval(stats, WILSON_Z)
    doc = _base_report(spec, factor, args.scheme)
    doc.update(
        {
            "seed": stats.seed,
            "trials": stats.trials,
            "successes": stats.successes,
            "empirical_p": stats.empirical_p,
            "success_probability_analytic": stats.analytic_p,
            "std_error": stats.std_error,
            "z_score": stats.z_score,
            "wilson_z": WILSON_Z,
            "wilson_interval": [lo, hi],
            "histogram": _outcome_rows("count", stats.successes, stats.fired, spec.min_index),
        }
    )
    if cavity:
        doc["jc_params"] = asdict(params)
    _emit(render_report(doc), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.steps < 2:
        raise UsageError(f"--steps must be >= 2, got {args.steps}")
    n = args.n
    lines = ["min_coeff_sq,analytic_p,exact_p"]
    # one-parameter family: one squared magnitude m, the rest equal; m runs
    # from just above 0 to the uniform point 1/n
    for i in range(1, args.steps + 1):
        m = (i / args.steps) * (1.0 / n)
        rest = math.sqrt((1.0 - m) / (n - 1))
        spec = WPrimeSpec([rest] * (n - 1) + [math.sqrt(m)])
        report = run_exact(spec)
        lines.append(
            f"{format(m, '.17g')},{format(report.success_probability_analytic, '.17g')},"
            f"{format(report.success_probability_exact, '.17g')}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_wstate(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    n = args.n
    amps = make_w_state(n)
    # ascending ket order: the excited party runs from last to first
    rows = [f"{'0' * m}1{'0' * (n - 1 - m)} {amps[m].real:.8f}" for m in reversed(range(n))]
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_spec_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec_path", help="JSON coefficient file")
    p.add_argument(
        "--allow-unnormalized",
        action="store_true",
        help="rescale the coefficients to a unit vector instead of rejecting",
    )


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_jc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=1.0, help="atom-cavity coupling (default 1)")
    p.add_argument("--omega", type=float, default=50.0, help="resonant mode/transition frequency (default 50)")
    p.add_argument("--fock", type=int, default=1, help="cavity Fock-space cutoff (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wdistill", description="W-state distillation simulator")
    parser.add_argument("--version", action="version", version=f"wdistill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("distill", help="run the exact post-selected protocol")
    _add_spec_arg(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("cavity", help="run the atom-cavity realization")
    _add_spec_arg(p)
    _add_jc_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("sample", help="Monte Carlo trajectory sampling")
    _add_spec_arg(p)
    p.add_argument("--trials", type=int, default=10000, help="number of trials (default 10000)")
    p.add_argument("--seed", type=int, default=1, help="64-bit seed (default 1)")
    p.add_argument("--scheme", choices=["abstract", "cavity"], default="abstract")
    _add_jc_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="success probability vs the smallest squared magnitude")
    p.add_argument("--n", type=int, required=True, help="number of parties")
    p.add_argument("--steps", type=int, required=True, help="number of sweep rows")
    _add_out_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wstate", help="print the W-state amplitude table")
    p.add_argument("--n", type=int, required=True, help="number of parties")
    _add_out_arg(p)
    p.set_defaults(func=cmd_wstate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"wdistill: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecError as exc:
        print(f"wdistill: invalid spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except ValidationError as exc:
        print(f"wdistill: invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except ToleranceError as exc:
        print(f"wdistill: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
