"""Seeded generation of the benchmark's spec files and op sequences.

Everything here is a pure function of (workload name, seed): the same seed
gives byte-identical spec files and the same op sequence. The program under
test only ever sees the spec files and the argv lists built here.

An op is a dict:
  kind    "distill" | "cavity" | "sample" | "sweep"
  argv    argument list for wdistill.cli.main
  coeffs  the generated coefficients (complex), for the output checker
  trials  Monte Carlo trials ("sample" only)
  n, steps  sweep parameters ("sweep" only)
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random

from ledger import probe_log10_ratio

WORKLOADS = ("exact-large", "sample-large", "small-batch")

# exact-large: op costs are independent of the coefficient values, so a few
# specs per size suffice.
EXACT_SPECS = 4
# sample-large: the tally's cost varies a little with the success probability,
# so each run spreads its ops over many specs
SAMPLE_SPECS = 16
SAMPLE_TRIALS = 1_000_000
# small-batch: the last op of each SMALL_CYCLE is a sweep. That puts ~25
# sweeps (~20 ms each, the slowest kind) in a 30 s run, so the op-tail order
# statistic (10 ops beyond it) falls inside the sweep population rather
# than on its edge.
SMALL_CYCLE = 400
SMALL_SPECS = 19  # divides (SMALL_CYCLE - 1) / 3, so each kind uses each spec 7 times per cycle
SMALL_TRIALS = 1000
NEAR_TIE_EVERY = 20  # probes; among the small-batch specs the last one is the near-tie
TIE_TOL = 1e-12
# known-defect probes, small-batch only (see ledger.py)
PROBE_SPECS = 48


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    # str seeds hash with SHA-512, so streams are stable across processes
    return random.Random(f"{workload}:{seed}:{stream}")


def _normalized(mags, phases) -> list[complex]:
    coeffs = [m * cmath.exp(1j * p) for m, p in zip(mags, phases)]
    total = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
    return [c / total for c in coeffs]


def random_coeffs(rng: random.Random, n: int) -> list[complex]:
    """Random complex spec with weights uniform in [0.2, 1] before normalizing."""
    mags = [math.sqrt(rng.uniform(0.2, 1.0)) for _ in range(n)]
    return _normalized(mags, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)])


def near_tie_coeffs(rng: random.Random, n: int) -> list[complex]:
    """Spec whose two smallest magnitudes differ by less than the 1e-12 tie tolerance."""
    mags = [math.sqrt(rng.uniform(0.2, 1.0)) for _ in range(n)]
    a, b = rng.sample(range(n), 2)
    mags[a] = 0.9 * min(mags)
    mags[b] = mags[a] + rng.uniform(0.0, 0.5 * TIE_TOL)
    return _normalized(mags, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)])


def wide_range_coeffs(rng: random.Random, n: int, log10_ratio: float) -> list[complex]:
    """Spec with min|c| / max|c| = 10**log10_ratio on a random party."""
    mags = [math.sqrt(rng.uniform(0.2, 1.0)) for _ in range(n)]
    mags[rng.randrange(n)] = max(mags) * 10.0**log10_ratio
    return _normalized(mags, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)])


def write_specs(specs: dict[str, list[complex]], workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, coeffs in specs.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(json.dumps({"coefficients": [[c.real, c.imag] for c in coeffs]}).encode("utf-8"))


def _op(kind, spec_path, coeffs, extra=(), **fields) -> dict:
    return {"kind": kind, "argv": [kind, spec_path, *extra], "coeffs": coeffs, **fields}


class Workload:
    """Spec files plus an endless, seeded op sequence for one workload."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name, self.seed, self.workdir = name, seed, workdir
        self.specs: dict[str, list[complex]] = {}
        self.probe_specs: dict[str, list[complex]] = {}
        self.probes: list[dict] = []
        getattr(self, "_build_" + name.replace("-", "_"))(rng_for(name, seed))

    def path(self, spec_name: str) -> str:
        return os.path.join(self.workdir, spec_name)

    def write(self) -> None:
        write_specs(self.specs, self.workdir)

    def write_probes(self) -> None:
        # probes run after the timed loop, so their files are not set-up work
        write_specs(self.probe_specs, self.workdir)

    def op(self, i: int) -> dict:
        return self._cycle[i % len(self._cycle)]

    def _add(self, name: str, coeffs) -> str:
        self.specs[name] = coeffs
        return self.path(name)

    def _build_exact_large(self, rng):
        self._cycle = []
        for s in range(EXACT_SPECS):
            c10, c8 = random_coeffs(rng, 10), random_coeffs(rng, 8)
            p10, p8 = self._add(f"n10_{s}.json", c10), self._add(f"n8_{s}.json", c8)
            self._cycle += [
                _op("distill", p10, c10),
                _op("cavity", p10, c10, ("--fock", "1")),
                _op("cavity", p8, c8, ("--fock", "2")),
            ]

    def _build_sample_large(self, rng):
        paths = []
        for s in range(SAMPLE_SPECS):
            c = random_coeffs(rng, 8)
            paths.append((self._add(f"n8_{s}.json", c), c))
        self._cycle = []
        for i in range(2 * SAMPLE_SPECS):
            path, c = paths[i // 2]
            extra = ("--trials", str(SAMPLE_TRIALS), "--seed", str(rng.getrandbits(63)),
                     "--scheme", "abstract" if i % 2 == 0 else "cavity")
            self._cycle.append(_op("sample", path, c, extra, trials=SAMPLE_TRIALS))

    def _build_small_batch(self, rng):
        # N and the near-tie slice follow the spec index and each kind walks
        # the specs in order, so every seed gives every kind the same N mix;
        # the seed changes coefficient values, not the cost mix.
        specs = []
        for s in range(SMALL_SPECS):
            n = 2 + s % 5
            tie = s == SMALL_SPECS - 1
            c = near_tie_coeffs(rng, n) if tie else random_coeffs(rng, n)
            specs.append((self._add(f"s{s:03d}.json", c), c))
        self._cycle = []
        for i in range(SMALL_CYCLE):
            if i == SMALL_CYCLE - 1:
                self._cycle.append({"kind": "sweep", "argv": ["sweep", "--n", "5", "--steps", "20"],
                                    "coeffs": None, "n": 5, "steps": 20})
                continue
            kind = ("distill", "cavity", "sample")[i % 3]
            path, c = specs[(i // 3) % SMALL_SPECS]
            extra = ("--trials", str(SMALL_TRIALS), "--seed", str(rng.getrandbits(63))) if kind == "sample" else ()
            self._cycle.append(_op(kind, path, c, extra, trials=SMALL_TRIALS if kind == "sample" else None))
        self._build_probes(rng_for(self.name, self.seed, "probes"))

    def _build_probes(self, rng):
        for s in range(PROBE_SPECS):
            n = rng.randint(2, 6)
            if s % NEAR_TIE_EVERY == NEAR_TIE_EVERY - 1:
                c, lr = near_tie_coeffs(rng, n), None
            else:
                lr = probe_log10_ratio(rng)
                c = wide_range_coeffs(rng, n, lr)
            self.probe_specs[f"probe{s:02d}.json"] = c
            path = self.path(f"probe{s:02d}.json")
            for kind in ("distill", "cavity", "sample"):
                extra = ("--trials", str(SMALL_TRIALS), "--seed", str(s + 1)) if kind == "sample" else ()
                self.probes.append(_op(kind, path, c, extra, trials=SMALL_TRIALS if kind == "sample" else None,
                                       log10_ratio=lr))

    def first_index(self, kind: str) -> int:
        """Index of the first op of a kind (0 when the workload has none)."""
        return next((i for i, op in enumerate(self._cycle) if op["kind"] == kind), 0)
