"""Dense reference implementation the tests hold the sector engine against.

`statevec` and `linalg` are the tensor-product state vectors and small
matrix routines the simulator used to run on; `steps` holds JCModel, the
detuned, truncated Jaynes-Cummings model, and builds the full per-party
step matrices (the two-qubit unitary and the closed-form Jaynes-Cummings
propagator) whose blocks the package computes in closed form; `dense` is
the dense evolve -> branch walk -> phase correction -> fidelity path over
those matrices, plus the Jaynes-Cummings Hamiltonian whose
eigendecomposition checks the closed-form propagator; `sampler` is the
matrix-form Monte Carlo sampler the streaming one is checked against;
`ingest` is the list-based coefficient-file loader the array one in
wdistill.cli is checked against.
Nothing here is imported by the package.
"""
import numpy as np

from wdistill.cli import _branch_rows


class ShapeError(ValueError):
    """Array/matrix dimensions are inconsistent with the operation."""


def fired_pattern(fired: int | None, n: int, min_index: int) -> tuple[int, ...]:
    """The n-1 mode outcomes of a report row: all 0 on success (fired None),
    else 1 at the mode of the 1-based party fired, modes ordered as the
    acting parties (every party but the 0-based min_index, ascending)."""
    digits = [0] * (n - 1)
    if fired is not None:
        digits[np.delete(np.arange(n), min_index).tolist().index(fired - 1)] = 1
    return tuple(digits)


def branch_rows(spec, report) -> dict[tuple[int, ...], dict]:
    """The branch rows the CLI writes for spec's sector report, in order,
    keyed by their outcome pattern spelled as the dense records spell it."""
    return {fired_pattern(row["fired"], spec.n, spec.min_index): row for row in _branch_rows(spec, report)}
