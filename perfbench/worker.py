"""One workload in one fresh interpreter (started by run.py).

Set-up: import wdistill.cli, write the workload's spec files, run one
untimed warm-up op, then print "ready". The parent answers on stdin with
"quit" (a set-up-only child) or a JSON object {"seconds": s, "trace": 0|1}:
the child then runs the closed loop (one client, next op after the previous
one returns) for s seconds and prints one JSON result line.

With trace 0 every op runs untraced. With trace 1 ops run in pairs, once
untraced and once with the spans.py wrappers installed, alternating which
goes first, so the two halves see the same ops and trace.overhead_frac
compares like with like.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import check_op  # noqa: E402
from ledger import predicted_failure  # noqa: E402
from spans import ROOT, Patch, Tracer, layer_metrics  # noqa: E402
from workloads import Workload  # noqa: E402

MAX_ERRORS = 5


def run_op(main, op) -> tuple[object, str, str, float]:
    """(exit code or raised exception repr, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(op["argv"]))
        except Exception as exc:  # a raise is a counted failure, not a benchmark crash
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def classify(op, code, stdout, stderr) -> tuple[str, str | None]:
    """ok | wrong (exit 0, failed the checker) | refused (exit 1 or 2) | failed."""
    if code == 0:
        reason = check_op(op, stdout)
        return ("ok", None) if reason is None else ("wrong", reason)
    if code in (1, 2):
        return "refused", stderr.strip()
    return "failed", f"exit {code}: {stderr.strip()}"


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.outcomes: Counter = Counter()
        self.kinds: Counter = Counter()
        self.errors: list[str] = []
        self.trials = 0
        self.check_s = 0.0

    def add(self, op, code, stdout, stderr, elapsed) -> None:
        start = time.perf_counter()
        outcome, reason = classify(op, code, stdout, stderr)
        self.check_s += time.perf_counter() - start
        self.times.append(elapsed)
        self.outcomes[outcome] += 1
        self.kinds[op["kind"]] += 1
        if outcome == "ok" and op["kind"] == "sample":
            self.trials += op["trials"]
        if reason and len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{outcome} {' '.join(op['argv'])}: {reason}")

    def summary(self, wall: float) -> dict:
        return {
            "times": self.times,
            "outcomes": dict(self.outcomes),
            "kinds": dict(self.kinds),
            "errors": self.errors,
            "trials": self.trials,
            "wall_s": wall - self.check_s,
        }


def timed_loop(main, wl: Workload, seconds: float, rerun_index: int) -> tuple[dict, str | None]:
    tally, first_out = Tally(), None
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        op = wl.op(i)
        code, out, err, elapsed = run_op(main, op)
        tally.add(op, code, out, err, elapsed)
        if i == rerun_index:
            first_out = out
        i += 1
    return tally.summary(time.perf_counter() - start), first_out


def traced_loop(main, wl: Workload, seconds: float) -> dict:
    tally, tracer = Tally(), Tracer()
    patch = Patch(tracer)
    spent = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        op = wl.op(i)
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with patch:
                    root = tracer.open(ROOT)
                    code, out, err, elapsed = run_op(main, op)
                    tracer.close(root)
                tracer.count("cli.report_bytes", len(out.encode("utf-8")))
                tracer.end_op()
            else:
                code, out, err, elapsed = run_op(main, op)
            spent[traced] += elapsed
            tally.add(op, code, out, err, elapsed)
        i += 1
    metrics, missing = layer_metrics(tracer, patch.present_labels)
    metrics["trace.overhead_frac"] = {"value": spent[True] / spent[False] - 1.0, "unit": "ratio"}
    summary = tally.summary(time.perf_counter() - start)
    summary.update(
        {
            "layers": metrics,
            "missing": missing,
            "missing_wrap_points": [site for site, _ in patch.missing],
            "hook_errors": tracer.hook_errors,
            "op_mean_traced_s": tracer.busy[ROOT] / tracer.ops,
        }
    )
    return summary


def run_probes(main, wl: Workload) -> dict:
    """Known-defect probes: every one runs, every outcome is counted."""
    wl.write_probes()
    observed, predicted, unexpected, fixed = 0, 0, [], []
    refused = 0
    by_entry: Counter = Counter()
    for op in wl.probes:
        code, out, err, _ = run_op(main, op)
        outcome, reason = classify(op, code, out, err)
        entry = predicted_failure(op["kind"], op["log10_ratio"])
        bad = outcome != "ok"
        observed += outcome in ("failed", "wrong")
        refused += outcome == "refused"
        predicted += entry is not None
        if entry is not None and bad:
            by_entry[entry] += 1
        label = f"{op['kind']} log10_ratio={op['log10_ratio']}"
        if bad and entry is None:
            unexpected.append(f"{label}: {outcome}: {reason}")
        elif entry is not None and not bad:
            fixed.append(f"{label}: {entry}")
    return {
        "attempted": len(wl.probes),
        "failed": observed,
        "refused": refused,
        "predicted": predicted,
        "by_entry": dict(by_entry),
        "unexpected": unexpected,
        "fixed": fixed,
    }


def main_worker(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    from wdistill.cli import main
    import numpy

    wl = Workload(args.workload, args.seed, args.workdir)
    wl.write()
    warm = wl.op(0)
    code, out, err, _ = run_op(main, warm)
    warm_outcome, warm_reason = classify(warm, code, out, err)
    print("ready", flush=True)

    command = sys.stdin.readline().strip()
    if not command.startswith("{"):
        return 0
    params = json.loads(command)
    seconds, trace = float(params["seconds"]), int(params["trace"])

    rerun_index = wl.first_index("sample")
    if trace:
        result = traced_loop(main, wl, seconds)
        first_out = None
    else:
        result, first_out = timed_loop(main, wl, seconds, rerun_index)
    if first_out is None:
        first_out = run_op(main, wl.op(rerun_index))[1]
    rerun_out = run_op(main, wl.op(rerun_index))[1]

    result.update(
        {
            "warmup": warm_outcome if warm_reason is None else f"{warm_outcome}: {warm_reason}",
            "rerun_identical": rerun_out == first_out,
            "rerun_argv": wl.op(rerun_index)["argv"],
            "probes": run_probes(main, wl) if wl.probes else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
