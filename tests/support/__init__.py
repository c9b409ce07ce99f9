"""Dense reference implementation the tests hold the sector engine against.

`statevec` and `linalg` are the tensor-product state vectors and small
matrix routines the simulator used to run on; `dense` is its dense
evolve -> branch walk -> phase correction -> fidelity path, plus the
Jaynes-Cummings Hamiltonian whose eigendecomposition checks the closed-form
cavity propagator; `sampler` is the matrix-form Monte Carlo sampler the
streaming one is checked against. Nothing here is imported by the package.
"""
