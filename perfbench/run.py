"""wdistill benchmark: three seeded workloads through the public CLI.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                 # every workload, end-to-end table
    python3 perfbench/run.py --all --trace 1       # plus the traced per-layer table

Each workload runs in fresh child interpreters (worker.py), one at a time,
never in parallel. setup_s is the median over SETUP_REPS children of the
time from spawning the interpreter to its "ready" (import, spec files,
warm-up op); the last child then runs the timed closed loop. With
--workload, the last line of stdout is one JSON object with keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A full record with run metadata goes to
.perfbench_out/. The exit code is non-zero only when the benchmark itself
breaks (no wdistill source, a child that crashes or hangs); failed or wrong
ops are reported, not fatal.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
TAIL_BEYOND = 10
CHILD_GRACE_S = 150

# Share of traced op time each workload's target layers must take (or stay
# under) for the workload to serve its stated purpose.
PURPOSE = {
    "exact-large": (("protocol.measure_s", "protocol.evolve_s", "cavity.evolve_s"), ">=", 0.90),
    "sample-large": (("montecarlo.uniforms_s", "montecarlo.cdf_s", "montecarlo.tally_s"), ">=", 0.90),
    "small-batch": (("statevec.apply_local_s", "statevec.project_s"), "<", 0.50),
}


class BenchError(RuntimeError):
    """The benchmark itself broke (as opposed to the program failing an op)."""


def workload_why(name: str) -> str:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", ()) if w.get("name") == name), "")


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(name: str, seed: int, k: int, command: str | None, timeout: float) -> tuple[float, dict | None]:
    """Spawn one worker; return (set-up seconds, result or None for a set-up-only child)."""
    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}-{k}")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", name, "--seed", str(seed), "--workdir", workdir]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError(f"{name}: worker did not get ready (exit {proc.wait()})")
        out, _ = proc.communicate((command or "quit") + "\n", timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}")
        return setup, (json.loads(out.strip().splitlines()[-1]) if command else None)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def tail(times: list[float]) -> dict:
    """The op with TAIL_BEYOND slower ops beyond it (the slowest op when
    there are too few), with its percentile and the op count."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {"value": ordered[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "ops_beyond": beyond, "ops": n}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setups = [run_child(name, seed, k, None, CHILD_GRACE_S)[0] for k in range(SETUP_REPS - 1)]
    command = json.dumps({"seconds": seconds, "trace": trace})
    setup, result = run_child(name, seed, SETUP_REPS - 1, command, seconds + CHILD_GRACE_S)
    setups.append(setup)
    try:
        os.rmdir(os.path.join(ROOT, WORK_DIR))
    except OSError:
        pass

    outcomes = result["outcomes"]
    attempted = sum(outcomes.values())
    if attempted < 1:
        raise BenchError(f"{name}: no op completed")
    ok = outcomes.get("ok", 0)
    record = {
        "workload": name,
        "why": workload_why(name),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "meta": {
            "python": result["python"],
            "numpy": result["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": git_commit(),
        },
        "ops": {"attempted": attempted, "outcomes": outcomes, "kinds": result["kinds"]},
        "failed_frac": (attempted - ok - outcomes.get("refused", 0)) / attempted,
        "refused_frac": outcomes.get("refused", 0) / attempted,
        "correct": outcomes.get("wrong", 0) == 0 and result["rerun_identical"] and result["warmup"] == "ok",
        "rerun": {"argv": result["rerun_argv"], "identical": result["rerun_identical"]},
        "warmup": result["warmup"],
        "errors": result["errors"],
        "probes": result["probes"],
        "setup_runs_s": setups,
    }
    if trace:
        layers = result["layers"]
        record["metrics"] = layers
        record["missing"] = result["missing"]
        record["missing_wrap_points"] = result["missing_wrap_points"]
        record["hook_errors"] = result["hook_errors"]
        record["op_mean_traced_s"] = result["op_mean_traced_s"]
        names, rel, bound = PURPOSE[name]
        share = sum(layers[m]["value"] for m in names) / result["op_mean_traced_s"]
        record["purpose"] = {"layers": names, "share": share, "rule": f"{rel} {bound}",
                             "met": share >= bound if rel == ">=" else share < bound}
    else:
        record["tail"] = tail(result["times"])
        wall = result["wall_s"]
        record["metrics"] = {
            "op_p50_s": {"value": statistics.median(result["times"]), "unit": "s"},
            "op_tail_s": {"value": record["tail"]["value"], "unit": "s"},
            "ops_per_s": {"value": (ok + outcomes.get("wrong", 0)) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] * 1024 / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        record["trials_per_s"] = result["trials"] / wall
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    out_path = os.path.join(ROOT, OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(rec: dict) -> None:
    meta = rec["meta"]
    print(f"== {rec['workload']}  seed={rec['seed']} seconds={rec['seconds']:g} trace={rec['trace']}")
    print(f"   why: {rec['why']}")
    print(f"   python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
          f"cpu {meta['cpu']}, commit {meta['commit']}")
    ops = rec["ops"]
    print(f"   ops {ops['attempted']} {ops['kinds']} outcomes {ops['outcomes']}")
    missing = set(rec.get("missing", ()))
    for metric, m in rec["metrics"].items():
        shown = "missing" if metric in missing else f"{_fmt(m['value'])} {m['unit']}"
        print(f"   {metric:<30} {shown}")
    if "tail" in rec:
        t = rec["tail"]
        print(f"   {'':<30} (op_tail_s is p{t['percentile']:.3f}: {t['ops_beyond']} of {t['ops']} ops beyond it)")
        trials = f"{_fmt(rec['trials_per_s'])} 1/s" if rec["trials_per_s"] else "n/a (no sample ops)"
        print(f"   {'trials_per_s':<30} {trials}")
    print(f"   {'failed_frac':<30} {_fmt(rec['failed_frac'])} ratio")
    print(f"   {'refused_frac':<30} {_fmt(rec['refused_frac'])} ratio")
    if "purpose" in rec:
        p = rec["purpose"]
        print(f"   purpose: share of op time in {'+'.join(p['layers'])} = {p['share']:.3f} "
              f"({p['rule']} required) {'met' if p['met'] else 'NOT MET'}")
    if rec.get("missing_wrap_points") or rec.get("hook_errors"):
        print(f"   missing wrap points {rec['missing_wrap_points']}; hook errors {rec['hook_errors']}")
    probes = rec["probes"]
    if probes:
        print(f"   known-defect probes: {probes['failed']} of {probes['attempted']} failed "
              f"(failed_frac {_fmt(probes['failed'] / probes['attempted'])}, refused {probes['refused']}); "
              f"ledger predicts {probes['predicted']} {probes['by_entry']}; "
              f"unexpected {len(probes['unexpected'])}, fixed {len(probes['fixed'])}")
        for line in probes["unexpected"][:5] + probes["fixed"][:5]:
            print(f"     {line}")
    print(f"   rerun of {' '.join(rec['rerun']['argv'][:2])}...: "
          f"{'byte-identical' if rec['rerun']['identical'] else 'DIFFERS'}; warm-up {rec['warmup']}")
    for line in rec["errors"]:
        print(f"   error: {line}")


def result_line(rec: dict) -> str:
    outcomes = rec["ops"]["outcomes"]
    attempted = rec["ops"]["attempted"]
    return json.dumps({
        "correct": rec["correct"],
        "attempted": attempted,
        "failed": attempted - outcomes.get("ok", 0),
        "metrics": rec["metrics"],
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wdistill", "cli.py")):
        print(f"perfbench: no wdistill source at {os.path.join(ROOT, 'src', 'wdistill')}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_record(rec)
            print(result_line(rec))
            return 0
        for name in WORKLOADS:
            for trace in sorted({0, args.trace}):
                print_record(run_workload(name, args.seed, args.seconds, trace))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
