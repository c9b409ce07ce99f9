"""Tests of the benchmark itself (not of wdistill).

Run with `python -m pytest perfbench -q`; the repository's own test run
collects only `tests/`, so these stay out of it.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import ledger  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wdistill.cli import main  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    # op [0, 10] > command [1, 9] > {ingest [2, 3], run [4, 8] > measure [5, 7]}
    synthetic = [
        ("op", 0.0, 10.0, -1),
        ("cli.command", 1.0, 9.0, 0),
        ("cli.ingest", 2.0, 3.0, 1),
        ("protocol.run_exact", 4.0, 8.0, 1),
        ("protocol.measure", 5.0, 7.0, 3),
    ]
    assert spans.self_times(synthetic) == pytest.approx([2.0, 3.0, 1.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    synthetic = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 12.0, 0)]
    # children cover [1, 10] of the parent's [0, 10]
    assert spans.self_times(synthetic)[0] == pytest.approx(1.0)


def test_tracer_folds_spans_per_op():
    t = spans.Tracer()
    outer = t.open("cli.command")
    inner = t.open("protocol.measure")
    t.close(inner)
    t.close(outer)
    t.end_op()
    assert t.ops == 1 and t.spans == []
    assert t.busy["cli.command"] >= t.busy["protocol.measure"] >= 0.0
    assert t.self_time["cli.command"] == pytest.approx(t.busy["cli.command"] - t.busy["protocol.measure"])


# --- wrapping ----------------------------------------------------------------

def _attrs():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.WRAP_POINTS}


def test_patch_wraps_and_restores_every_attribute(tmp_path):
    before = _attrs()
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    assert patch.missing == []
    with patch:
        for key, fn in _attrs().items():
            assert fn is not before[key] and fn.__wrapped__ is before[key]
    assert _attrs() == before


def test_patch_restores_after_an_exception():
    before = _attrs()
    with pytest.raises(RuntimeError):
        with spans.Patch(spans.Tracer()):
            raise RuntimeError("boom")
    assert _attrs() == before


def test_traced_op_records_layers(tmp_path, capsys):
    wl = workloads.Workload("small-batch", 3, str(tmp_path))
    wl.write()
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    with patch:
        root = tracer.open(spans.ROOT)
        assert main(wl.op(0)["argv"]) == 0
        tracer.close(root)
    tracer.end_op()
    capsys.readouterr()
    metrics, missing = spans.layer_metrics(tracer, patch.present_labels)
    assert missing == []
    assert metrics["protocol.measure_s"]["value"] > 0.0
    assert metrics["protocol.branches_enumerated"]["value"] >= metrics["protocol.branches_reachable"]["value"] > 0


def test_missing_lookup_site_is_reported_not_zeroed():
    points = [p for p in spans.WRAP_POINTS if p[2] != "montecarlo.cdf"]
    points.append(("wdistill.montecarlo", "no_such_function", "montecarlo.cdf", None))
    patch = spans.Patch(spans.Tracer(), points)
    assert patch.missing == [("wdistill.montecarlo.no_such_function", "montecarlo.cdf")]
    _, missing = spans.layer_metrics(spans.Tracer(), patch.present_labels)
    assert missing == ["montecarlo.cdf_s"]


# --- generator ---------------------------------------------------------------

def _spec_files(name, seed, tmp_path):
    wl = workloads.Workload(name, seed, str(tmp_path / f"{name}-{seed}"))
    wl.write()
    wl.write_probes()
    return {f: open(os.path.join(wl.workdir, f), "rb").read() for f in sorted(os.listdir(wl.workdir))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    first = _spec_files(name, 7, tmp_path / "a")
    assert first == _spec_files(name, 7, tmp_path / "b")
    other = _spec_files(name, 8, tmp_path / "c")
    assert first.keys() == other.keys()
    assert all(first[f] != other[f] for f in first)


def test_specs_are_normalized_and_probes_avoid_transition_bands(tmp_path):
    wl = workloads.Workload("small-batch", 1, str(tmp_path))
    for coeffs in [*wl.specs.values(), *wl.probe_specs.values()]:
        assert abs(sum(abs(c) ** 2 for c in coeffs) - 1.0) < 1e-12
    ratios = [op["log10_ratio"] for op in wl.probes if op["log10_ratio"] is not None]
    assert ratios and all(
        not lo < r < hi for r in ratios for lo, hi in ledger.TRANSITION_BANDS
    )


# --- checker -----------------------------------------------------------------

COEFFS = [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)]


def _report(**fields):
    doc = {"success_probability_exact": 0.6, "fidelity_with_w": 1.0}
    doc.update(fields)
    return json.dumps(doc)


def test_checker_accepts_a_correct_report():
    assert check.check_exact(_report(success_probability_exact=3 * 0.2 + 1e-12), COEFFS) is None


@pytest.mark.parametrize(
    "doctored",
    [{"success_probability_exact": 0.6 + 1e-6}, {"fidelity_with_w": 0.99}, {"fidelity_with_w": None}],
)
def test_checker_flags_a_doctored_report(doctored):
    assert check.check_exact(_report(**doctored), COEFFS) is not None


def test_checker_reads_no_branches():
    assert check.check_exact(_report(branches="not a list"), COEFFS) is None


def test_sample_checker_uses_a_wide_wilson_interval():
    p = check.analytic_p(COEFFS)
    good = json.dumps({"trials": 10_000, "empirical_p": round(p * 10_000 + 30) / 10_000})
    bad = json.dumps({"trials": 10_000, "empirical_p": p - 0.05})
    assert check.check_sample(good, COEFFS, 10_000) is None
    assert check.check_sample(bad, COEFFS, 10_000) is not None


def test_sweep_checker_flags_a_doctored_row(tmp_path, capsys):
    assert main(["sweep", "--n", "5", "--steps", "4"]) == 0
    text = capsys.readouterr().out
    assert check.check_sweep(text, 5, 4) is None
    lines = text.splitlines()
    m, analytic, exact = lines[2].split(",")
    lines[2] = f"{m},{analytic},{float(exact) + 1e-6!r}"
    assert check.check_sweep("\n".join(lines) + "\n", 5, 4) is not None
