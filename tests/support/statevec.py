"""Tensor-product state vectors over sites of heterogeneous local dimension.

Index convention is big-endian: site 0 is the most significant index, so a
ket string like |100> reads left to right as sites 0, 1, 2. States are
immutable; every operation returns a new StateVector.

Measurement is Born-rule projective. A zero-probability projection returns
None for the collapsed state instead of a zero vector, so callers cannot
renormalize garbage by accident.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wdistill.errors import ValidationError

from . import ShapeError

# Dense amplitudes: the largest system here is ~2^19 entries. The cap guards
# against accidental huge allocations.
MAX_DIM = 2**20
INGEST_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions of the tensor factors, with optional labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("layout needs at least one site")
        if any(d < 2 for d in dims):
            raise ValidationError(f"every local dimension must be >= 2, got {dims}")
        if math.prod(dims) > MAX_DIM:
            raise ValidationError(f"state dimension {math.prod(dims)} exceeds cap {MAX_DIM}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(dims):
                raise ShapeError("one label per site required")
            object.__setattr__(self, "labels", labels)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def ravel(self, occupation) -> int:
        """Flat index of a basis ket given per-site occupation numbers."""
        occ = tuple(int(o) for o in occupation)
        if len(occ) != self.n_sites:
            raise ShapeError(f"occupation needs {self.n_sites} entries, got {len(occ)}")
        for site, (o, d) in enumerate(zip(occ, self.dims)):
            if not 0 <= o < d:
                raise IndexError(f"occupation {o} out of range for site {site} (dim {d})")
        return int(np.ravel_multi_index(occ, self.dims))

    def unravel(self, index: int) -> tuple[int, ...]:
        """Per-site occupation numbers of a flat basis index."""
        if not 0 <= index < self.size:
            raise IndexError(f"flat index {index} out of range for size {self.size}")
        return tuple(int(o) for o in np.unravel_index(index, self.dims))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the layout, site 0 most significant."""

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if a.size != self.layout.size:
            raise ShapeError(f"expected {self.layout.size} amplitudes, got {a.size}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)


def _require_normalized(state: StateVector, tol: float = INGEST_NORM_TOL) -> None:
    if abs(state.norm_sq() - 1.0) > tol:
        raise ValidationError(f"state is not normalized: sum |amp|^2 = {state.norm_sq()!r}")


def basis_state(layout: SubsystemLayout, occupation) -> StateVector:
    """Computational basis ket with the given per-site occupation."""
    amps = np.zeros(layout.size, dtype=np.complex128)
    amps[layout.ravel(occupation)] = 1.0
    return StateVector(layout, amps)


def single_excitation_state(layout: SubsystemLayout, coeffs) -> StateVector:
    """sum_m coeffs[m] |0..0 1_m 0..0>: site m excited, every other site in 0."""
    amps = np.zeros(layout.size, dtype=np.complex128)
    for m, c in enumerate(coeffs):
        amps[layout.ravel([int(s == m) for s in range(layout.n_sites)])] = c
    return StateVector(layout, amps)


def apply_local(state: StateVector, op, sites) -> StateVector:
    """Apply a matrix to the listed sites (identity elsewhere).

    The operator's basis ordering follows the listed site order, first site
    most significant; op must be square with dimension prod(dims[sites]).
    """
    sites = [int(s) for s in sites]
    dims = state.layout.dims
    for s in sites:
        if not 0 <= s < len(dims):
            raise ValidationError(f"site {s} out of range")
    if len(set(sites)) != len(sites):
        raise ValidationError(f"duplicate sites in {sites}")
    op = np.asarray(op, dtype=np.complex128)
    block = math.prod(dims[s] for s in sites)
    if op.shape != (block, block):
        raise ShapeError(f"operator shape {op.shape} does not match site block {block}")
    t = np.moveaxis(state.tensor(), sites, range(len(sites)))
    moved_shape = t.shape
    t = op @ t.reshape(block, -1)
    t = np.moveaxis(t.reshape(moved_shape), range(len(sites)), sites)
    return StateVector(state.layout, t.reshape(-1))


def _outcome_probability(tensor: np.ndarray, site: int, outcome: int) -> float:
    sl = [slice(None)] * tensor.ndim
    sl[site] = outcome
    block = tensor[tuple(sl)]
    return float(np.vdot(block, block).real)


def project_site(state: StateVector, site: int, outcome: int) -> tuple[float, StateVector | None]:
    """Born-rule projection of one site onto a basis outcome.

    Returns (probability, renormalized post-measurement state); the state is
    None when the probability is zero.
    """
    dims = state.layout.dims
    if not 0 <= site < len(dims):
        raise ValidationError(f"site {site} out of range")
    if not 0 <= outcome < dims[site]:
        raise IndexError(f"outcome {outcome} out of range for site {site} (dim {dims[site]})")
    _require_normalized(state)
    t = state.tensor()
    prob = _outcome_probability(t, site, outcome)
    if prob <= 0.0:
        return 0.0, None
    collapsed = np.zeros_like(t)
    sl = [slice(None)] * t.ndim
    sl[site] = outcome
    collapsed[tuple(sl)] = t[tuple(sl)] / math.sqrt(prob)
    return prob, StateVector(state.layout, collapsed.reshape(-1))


def site_distribution(state: StateVector, site: int) -> np.ndarray:
    """Born probabilities of every outcome of one site, in outcome order."""
    dims = state.layout.dims
    if not 0 <= site < len(dims):
        raise ValidationError(f"site {site} out of range")
    t = state.tensor()
    return np.array([_outcome_probability(t, site, o) for o in range(dims[site])])


def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y> with conjugation on x."""
    if x.layout.dims != y.layout.dims:
        raise ShapeError(f"layout mismatch: {x.layout.dims} vs {y.layout.dims}")
    return complex(np.vdot(x.amps, y.amps))


def fidelity(x: StateVector, y: StateVector) -> float:
    """|<x|y>|^2 for normalized pure states."""
    _require_normalized(x)
    _require_normalized(y)
    return abs(inner_product(x, y)) ** 2


def drop_collapsed_sites(state: StateVector, outcomes: dict[int, int]) -> StateVector:
    """State on the remaining sites after fixing already-projected sites.

    The fixed sites must carry all of the state's weight (i.e. they were
    projected onto those outcomes), so this is plain slicing, not a partial
    trace.
    """
    dims = state.layout.dims
    for s, o in outcomes.items():
        if not 0 <= s < len(dims):
            raise ValidationError(f"site {s} out of range")
        if not 0 <= o < dims[s]:
            raise IndexError(f"outcome {o} out of range for site {s}")
    sl = tuple(outcomes.get(s, slice(None)) for s in range(len(dims)))
    sub = state.tensor()[sl]
    weight = float(np.vdot(sub, sub).real)
    total = state.norm_sq()
    if weight < (1.0 - INGEST_NORM_TOL) * total:
        raise ValidationError("state has weight outside the fixed-site slice")
    keep = [s for s in range(len(dims)) if s not in outcomes]
    labels = tuple(state.layout.labels[s] for s in keep) if state.layout.labels else None
    layout = SubsystemLayout(tuple(dims[s] for s in keep), labels)
    return StateVector(layout, sub.reshape(-1) / math.sqrt(weight))
