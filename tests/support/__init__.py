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
from wdistill.cli import _branch_rows


class ShapeError(ValueError):
    """Array/matrix dimensions are inconsistent with the operation."""


def branch_rows(report) -> dict[tuple[int, ...], dict]:
    """A sector report's branch rows as the CLI writes them, in order,
    keyed by their outcome pattern spelled as the dense records spell it."""
    return {tuple(map(int, row["pattern"])): row for row in _branch_rows(report)}
