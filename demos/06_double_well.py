"""The asymmetric double-well molecule in its truncated eigenbasis.

Builds the 12-level model (spectrum, transition data), shows the resonant
pulse transferring population from the ground state to the third excited
state, and runs a 6-level identification from a slightly perturbed guess.
The identification grid is deliberately coarser than the physics grid; see
the README notes on time-step visibility of weak couplings.
"""
import numpy as np

from hamid import (
    DoubleWellParams,
    NewtonConfig,
    PerturbationSpec,
    TimeGrid,
    build_double_well,
    newton_identify,
    perturb_pair,
    pi_pulse_field,
    propagate_final,
    sample_field,
)
from hamid.models import PICOSECOND_AU

# a short window (0.2 ps) keeps the transfer below quick at full carrier
# resolution; the window is not in the Hamiltonian
model = build_double_well(DoubleWellParams(t_f=0.2 * PICOSECOND_AU))
print("lowest eigenenergies [a.u.]:")
for v, e in enumerate(model.eigenenergies):
    print(f"  v={v:2d}  {e:+.9f}")
print(f"transition 0 -> 3: frequency {model.omega_03:.9f} a.u., dipole {model.mu_03:.3e} a.u.")

# population transfer over the model's window
field = pi_pulse_field(model)
grid = TimeGrid(model.params.t_f, 2**17)
u_n = propagate_final(np.eye(12, dtype=complex), model.pair, sample_field(field, grid), grid)
pops = np.abs(u_n[:, 0]) ** 2
print(f"\nafter the resonant pulse: P(v=0) = {pops[0]:.4f}, P(v=3) = {pops[3]:.4f}")

# identification at 6 levels
small = build_double_well(DoubleWellParams(n_levels=6))
grid = TimeGrid(small.params.t_f, 2**16)
samples = sample_field(pi_pulse_field(small), grid)
u0 = np.eye(6, dtype=complex)
u_tar = propagate_final(u0, small.pair, samples, grid)
guess = perturb_pair(small.pair, PerturbationSpec(eta=1e-5, seed=3))
cfg = NewtonConfig(tol=1e-8, max_iters=20, singular_cond_threshold=1e15)
print("\nidentifying the 6-level pair from an eta = 1e-5 perturbed guess ...")
_, report = newton_identify(u0, u_tar, guess, samples, grid, cfg, truth=small.pair)
fin = report.final()
print(f"flag: {report.flag} after {report.n_iterations} iterations")
print(
    f"final deviations: H0 {fin.dev_h0:.1e}, H1 {fin.dev_h1:.1e}, U {fin.dev_u:.1e}"
)
print("the coupling lands on a nearby alternate solution while the target is met")
