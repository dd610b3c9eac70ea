"""Forward propagation basics.

Builds the driven two-level system, propagates it with the norm-preserving
midpoint stepper, and verifies the two headline properties of the scheme:
exact unitarity and second-order accuracy in the time step.
"""
import numpy as np

from hamid import (
    TimeGrid,
    TwoLevelParams,
    cn_error_order,
    propagate,
    sample_field,
    spec_norm,
    two_level_model,
)
from hamid.propagation import HamiltonianPair

params = TwoLevelParams()
pair, field = two_level_model(params)
grid = TimeGrid(params.t_f, 2000)
samples = sample_field(field, grid)

print(f"two-level system: t_f = {params.t_f} a.u., {grid.n_steps} steps")
print(f"pulse amplitude e0 = {field.e0:.6e} a.u. (pi-area pulse)")

states = propagate(np.eye(2, dtype=complex), pair, samples, grid)  # U_0..U_N

# population of the upper level along the pulse
print("\n  time [a.u.]   P(upper)")
for idx in range(0, grid.n_steps + 1, grid.n_steps // 8):
    pop = abs(states[idx][1, 0]) ** 2
    print(f"  {idx * grid.dt:10.0f}   {pop:.6f}")
print("a pi pulse moves all population to the upper level at t_f")

drift = max(spec_norm(s.conj().T @ s - np.eye(2)) for s in states[::100])
print(f"\nmax unitarity defect along the trajectory: {drift:.2e}")

# halving the step divides the constant-generator error by ~4
pair_rand = HamiltonianPair(
    np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([[0.0, 0.4], [0.4, 0.0]])
)
for n in (100, 400):
    ratio = cn_error_order(pair_rand, 0.7, 1.0, n_steps=n)
    print(f"error(dt)/error(dt/2) at n = {n}: {ratio:.4f}  (second order -> 4)")
