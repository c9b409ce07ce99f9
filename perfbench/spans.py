"""Per-layer tracing from outside the program.

Module-level functions of wdistill are wrapped at the attribute their caller
looks up (a function imported into another module is wrapped there too),
for the duration of one op, and restored afterwards. Each wrapper records a
span (label, start, end, parent); counters are read off arguments and
results by hooks that run inside their own "trace.hook" span, so hook cost
lands in no layer's time. Spans are aggregated per op in memory.

A label's busy time is the summed duration of its spans (a span nested in
one of the same label is not recorded). Its self time subtracts the part
of each span's interval that its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

HOOK = "trace.hook"
ROOT = "op"


def self_times(spans) -> list[float]:
    """Self time of each (label, start, end, parent_index) span."""
    children = defaultdict(list)
    for label, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus per-label totals accumulated over ops."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self.ops = 0
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, str] = {}

    def open(self, label: str) -> int:
        idx = len(self.spans)
        self.spans.append([label, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._active[label] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def active(self, label: str) -> bool:
        return self._active[label] > 0

    def end_op(self) -> None:
        """Fold the finished op's spans into the per-label totals."""
        for (label, start, end, _), own in zip(self.spans, self_times(self.spans)):
            self.busy[label] += end - start
            self.self_time[label] += own
            self.calls[label] += 1
        self.spans.clear()
        self.ops += 1

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)


# ---------------------------------------------------------------------------
# hooks: read counters off a wrapped call's arguments and result


def _evolved(t, args, result):
    state = result[0]
    t.count("statevec.nonzero", int((state.amps != 0).sum()))
    t.count("statevec.evolved_dim", state.amps.size)


def _evolved_physical(t, args, result):
    _evolved(t, args, result)
    t.peak("cavity.fock_dim", args[1].fock_cutoff + 1)


def _branches(t, args, result):
    records = result[0]
    t.count("protocol.branches_enumerated", len(records))
    t.count("protocol.branches_reachable", sum(1 for r in records if r.probability > 0.0))


def _apply_local(t, args, result):
    t.count("statevec.bytes", args[0].amps.nbytes + result.amps.nbytes)
    t.peak("statevec.state_dim_max", args[0].amps.size)


def _project(t, args, result):
    collapsed = result[1]
    t.count("statevec.bytes", args[0].amps.nbytes + (collapsed.amps.nbytes if collapsed is not None else 0))
    t.peak("statevec.state_dim_max", args[0].amps.size)


def _uniforms(t, args, result):
    trials, draws = int(args[1]), int(args[2])
    t.count("montecarlo.uniforms_drawn", trials * draws)
    t.peak("montecarlo.uniform_matrix_bytes", trials * draws * 8)


def _histogram(t, args, result):
    # a histogram key is the outcome prefix a trial measured: its length is
    # the number of uniforms that trial consumed
    t.count("montecarlo.uniforms_used", sum(len(k) * v for k, v in result.outcome_histogram.items()))


# (module, attribute, span label, hook); several lookup sites may share a label
WRAP_POINTS = [
    ("wdistill.cli", "load_spec", "cli.ingest", None),
    ("wdistill.cli", "render_report", "cli.render", None),
    *[("wdistill.cli", f"cmd_{c}", "cli.command", None) for c in ("distill", "cavity", "sample", "sweep", "wstate")],
    ("wdistill.cli", "run_exact", "protocol.run_exact", None),
    ("wdistill.cli", "run_physical", "cavity.run_physical", None),
    ("wdistill.cli", "run_trials", "montecarlo.run_trials", _histogram),
    ("wdistill.protocol", "evolved_joint_state", "protocol.evolve", _evolved),
    ("wdistill.montecarlo", "evolved_joint_state", "protocol.evolve", _evolved),
    ("wdistill.protocol", "measure_all_branches", "protocol.measure", _branches),
    ("wdistill.cavity", "measure_all_branches", "protocol.measure", _branches),
    ("wdistill.protocol", "phase_correction", "protocol.repair", None),
    ("wdistill.protocol", "fidelity", "protocol.repair", None),
    ("wdistill.protocol", "make_w_state", "protocol.repair", None),
    ("wdistill.cavity", "make_w_state", "protocol.repair", None),
    ("wdistill.cavity", "evolved_physical_state", "cavity.evolve", _evolved_physical),
    ("wdistill.montecarlo", "evolved_physical_state", "cavity.evolve", _evolved_physical),
    ("wdistill.cavity", "jc_propagator_closed", "cavity.propagator", None),
    ("wdistill.cavity", "ramsey_phase", "cavity.repair", None),
    ("wdistill.cavity", "fidelity", "cavity.repair", None),
    ("wdistill.protocol", "apply_local", "statevec.apply_local", _apply_local),
    ("wdistill.cavity", "apply_local", "statevec.apply_local", _apply_local),
    ("wdistill.protocol", "project_site", "statevec.project", _project),
    ("wdistill.montecarlo", "project_site", "statevec.project", _project),
    ("wdistill.montecarlo", "trial_uniforms", "montecarlo.uniforms", _uniforms),
    ("wdistill.montecarlo", "_zero_prefix_cdfs", "montecarlo.cdf", None),
]


def _wrapper(tracer: Tracer, label: str, fn, hook):
    def wrapped(*args, **kwargs):
        if tracer.active(label):
            return fn(*args, **kwargs)
        idx = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            h = tracer.open(HOOK)
            try:
                hook(tracer, args, result)
            except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                # the program changed shape under the hook: report, don't crash
                tracer.hook_errors[f"{hook.__name__}@{label}"] = repr(exc)
            finally:
                tracer.close(h)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


class Patch:
    """Install wrappers for one op (`with Patch(tracer):`) and restore every
    original attribute on exit. Lookup sites that no longer exist are
    skipped and listed in `missing`."""

    def __init__(self, tracer: Tracer, points=WRAP_POINTS):
        self.tracer = tracer
        self.targets = []
        self.missing = []
        for module_name, attr, label, hook in points:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.targets.append((module, attr, getattr(module, attr), label, hook))
            else:
                self.missing.append((f"{module_name}.{attr}", label))
        self.present_labels = {label for *_, label, _ in self.targets}

    def __enter__(self):
        for module, attr, fn, label, hook in self.targets:
            setattr(module, attr, _wrapper(self.tracer, label, fn, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn, _, _ in self.targets:
            setattr(module, attr, fn)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, labels the metric needs, value from tracer)


def _per_op(value):
    return lambda t: value(t) / t.ops if t.ops else 0.0


def _ratio(num, den):
    return lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0


LAYER_METRICS = [
    ("cli.ingest_s", "s", ("cli.ingest",), _per_op(lambda t: t.busy["cli.ingest"])),
    ("cli.render_s", "s", ("cli.render",), _per_op(lambda t: t.busy["cli.render"])),
    ("cli.command_self_s", "s", ("cli.command",), _per_op(lambda t: t.self_time["cli.command"])),
    ("cli.report_bytes", "B", (), _per_op(lambda t: t.counts["cli.report_bytes"])),
    ("protocol.evolve_s", "s", ("protocol.evolve",), _per_op(lambda t: t.busy["protocol.evolve"])),
    ("protocol.measure_s", "s", ("protocol.measure",), _per_op(lambda t: t.busy["protocol.measure"])),
    ("protocol.repair_s", "s", ("protocol.repair",), _per_op(lambda t: t.busy["protocol.repair"])),
    ("protocol.branches_enumerated", "count", ("protocol.measure",),
     _per_op(lambda t: t.counts["protocol.branches_enumerated"])),
    ("protocol.branches_reachable", "count", ("protocol.measure",),
     _per_op(lambda t: t.counts["protocol.branches_reachable"])),
    ("protocol.reachable_frac", "ratio", ("protocol.measure",),
     _ratio("protocol.branches_reachable", "protocol.branches_enumerated")),
    ("cavity.evolve_s", "s", ("cavity.evolve",), _per_op(lambda t: t.busy["cavity.evolve"])),
    ("cavity.propagator_s", "s", ("cavity.propagator",), _per_op(lambda t: t.busy["cavity.propagator"])),
    ("cavity.propagator_calls", "count", ("cavity.propagator",), _per_op(lambda t: t.calls["cavity.propagator"])),
    ("cavity.repair_s", "s", ("cavity.repair",), _per_op(lambda t: t.busy["cavity.repair"])),
    ("cavity.fock_dim", "count", ("cavity.evolve",), lambda t: t.maxima["cavity.fock_dim"]),
    ("statevec.apply_local_s", "s", ("statevec.apply_local",), _per_op(lambda t: t.busy["statevec.apply_local"])),
    ("statevec.apply_local_calls", "count", ("statevec.apply_local",),
     _per_op(lambda t: t.calls["statevec.apply_local"])),
    ("statevec.project_s", "s", ("statevec.project",), _per_op(lambda t: t.busy["statevec.project"])),
    ("statevec.project_calls", "count", ("statevec.project",), _per_op(lambda t: t.calls["statevec.project"])),
    ("statevec.state_dim_max", "count", ("statevec.apply_local", "statevec.project"),
     lambda t: t.maxima["statevec.state_dim_max"]),
    ("statevec.nonzero_frac", "ratio", ("protocol.evolve", "cavity.evolve"),
     _ratio("statevec.nonzero", "statevec.evolved_dim")),
    ("statevec.bytes_computed", "B", ("statevec.apply_local", "statevec.project"),
     _per_op(lambda t: t.counts["statevec.bytes"])),
    ("montecarlo.uniforms_s", "s", ("montecarlo.uniforms",), _per_op(lambda t: t.busy["montecarlo.uniforms"])),
    ("montecarlo.cdf_s", "s", ("montecarlo.cdf",), _per_op(lambda t: t.busy["montecarlo.cdf"])),
    ("montecarlo.tally_s", "s", ("montecarlo.run_trials",),
     _per_op(lambda t: t.self_time["montecarlo.run_trials"])),
    ("montecarlo.uniforms_drawn", "count", ("montecarlo.uniforms",),
     _per_op(lambda t: t.counts["montecarlo.uniforms_drawn"])),
    ("montecarlo.uniform_matrix_mb", "MB", ("montecarlo.uniforms",),
     lambda t: t.maxima["montecarlo.uniform_matrix_bytes"] / 1e6),
    ("montecarlo.draws_used_frac", "ratio", ("montecarlo.uniforms", "montecarlo.run_trials"),
     _ratio("montecarlo.uniforms_used", "montecarlo.uniforms_drawn")),
]


def layer_metrics(tracer: Tracer, present_labels) -> tuple[dict, list[str]]:
    """Per-layer metrics (per-op means unless a max or ratio) and the names
    of those whose wrapped functions no longer exist (reported as 0 in the
    numeric result and as missing everywhere else)."""
    metrics, missing = {}, []
    for name, unit, labels, value in LAYER_METRICS:
        if not all(label in present_labels for label in labels):
            missing.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            metrics[name] = {"value": float(value(tracer)), "unit": unit}
    return metrics, missing
