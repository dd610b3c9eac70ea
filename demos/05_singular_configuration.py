"""A provably singular identification configuration.

For the swap target [[0,1],[1,0]] the continuation seed (-S/t_f, 0) leaves
the system rank deficient: with only a time-symmetric field acting through
zero coupling, one combination of the unknowns produces no first-order
response in the final propagator.  The system is built once; its one SVD
gives the rank (3 of 4) and the Newton solve's refusal of the step.  Also
runnable as `hamid demo singularity`.
"""
import numpy as np

from hamid import (
    NewtonConfig,
    SingularJacobianError,
    SinSqEnvelope,
    TimeGrid,
    decompose_target,
    m0_seed,
    sample_field,
    solve_update,
)
from hamid.newton import linearize, system_diagnostic

t_f = 9000.0
swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
dec = decompose_target(swap)
pair = m0_seed(dec, t_f)
print("seed field-free Hamiltonian (-S/t_f):")
print(pair.h0)

grid = TimeGrid(t_f, 2000)
samples = sample_field(SinSqEnvelope(e0=2.0), grid)  # E(t) = sin^2(pi t / t_f)

system = linearize(np.eye(2, dtype=complex), pair, samples, grid).system(swap)
diag = system_diagnostic(system)
print(f"\nsingular values of the reduced system: {np.array(diag.singular_values)}")
print("(the smallest one, and so the condition, are round-off; the rank is not)")
print(f"numerical rank: {diag.numerical_rank} of 4")

try:
    solve_update(system, NewtonConfig())
    print("unexpected: the step was accepted")
except SingularJacobianError as err:
    print(f"\nNewton step refused: {err}")
