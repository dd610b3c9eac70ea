"""Benchmark systems: a resonantly driven two-level atom and an asymmetric
double-well molecule in its truncated eigenbasis, plus seeded random
Hamiltonian perturbations for basin-of-convergence experiments.

Everything is in atomic units (hbar = 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import PiPulse, SinSqEnvelope
from .propagation import HamiltonianPair

# CODATA atomic unit of time, seconds
AU_TIME_SECONDS = 2.4188843265857e-17
PICOSECOND_AU = 1e-12 / AU_TIME_SECONDS

# default step counts: the two-level run resolves its envelope easily; the
# double-well default keeps the carrier-resolution phase error of the time
# stepper small against the pi-pulse Rabi frequency (0 -> 3 transfer 0.966
# at 2**20 steps, 0.998 at 2**21; the tests assert the 0.95 floor)
TWO_LEVEL_DEFAULT_STEPS = 2000
DOUBLE_WELL_DEFAULT_STEPS = 2**20


@dataclass(frozen=True)
class TwoLevelParams:
    """Rotating-frame two-level atom: H0 = diag(0, delta), H1 = mu * sigma_x.

    e0 = None resolves to 2 pi / (mu t_f), the amplitude whose integrated
    Rabi area mu * e0 * t_f / 2 equals pi (a population-inverting pi pulse
    for the sin^2 envelope, which carries an extra factor 1/2).

    envelope_skew feeds the odd-harmonic asymmetry of SinSqEnvelope; see the
    identification benchmarks for why the symmetric envelope needs it.
    """

    delta: float = 1e-7
    mu: float = 1.0
    t_f: float = 9000.0
    e0: Optional[float] = None
    envelope_skew: float = 0.0

    def __post_init__(self):
        if not self.t_f > 0:
            raise ValueError("t_f must be positive")
        if self.mu == 0:
            raise ValueError("mu must be nonzero")

    @property
    def resolved_e0(self) -> float:
        return 2.0 * np.pi / (self.mu * self.t_f) if self.e0 is None else self.e0


def two_level_model(p: TwoLevelParams = TwoLevelParams()):
    """Hamiltonian pair and sin^2-envelope field of the two-level benchmark."""
    h0 = np.array([[0.0, 0.0], [0.0, p.delta]])
    h1 = np.array([[0.0, p.mu], [p.mu, 0.0]])
    return HamiltonianPair(h0=h0, h1=h1), SinSqEnvelope(e0=p.resolved_e0, skew=p.envelope_skew)


@dataclass(frozen=True)
class SpatialGrid:
    r_min: float = -2.5
    r_max: float = 2.5
    n_points: int = 513

    def __post_init__(self):
        if not self.r_min < self.r_max:
            raise ValueError("r_min must be below r_max")
        if self.n_points < 8:
            raise ValueError("n_points too small")


@dataclass(frozen=True)
class DoubleWellParams:
    """Asymmetric double well V(r) = r^4 - r^2 - r/20, dipole r/2."""

    mass: float = 1000.0
    t_f: float = 2.0 * PICOSECOND_AU
    n_levels: int = 12
    grid: SpatialGrid = field(default_factory=SpatialGrid)

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        if self.grid.n_points < 4 * self.n_levels:
            raise ValueError("grid.n_points must be at least 4 * n_levels")


@dataclass(frozen=True)
class DoubleWellModel:
    pair: HamiltonianPair
    omega_03: float
    mu_03: float
    eigenenergies: np.ndarray
    params: DoubleWellParams

    def to_json_dict(self) -> dict:
        from .linalg import matrix_to_json

        return {
            "omega_03": self.omega_03,
            "mu_03": self.mu_03,
            "eigenenergies": self.eigenenergies.tolist(),
            "h0": matrix_to_json(self.pair.h0),
            "h1": matrix_to_json(self.pair.h1),
        }


def double_well_potential(r: np.ndarray) -> np.ndarray:
    return r**4 - r**2 - r / 20.0


def _sine_basis_hamiltonian(p: DoubleWellParams):
    """Sine-pseudospectral discretization with Dirichlet walls.

    The orthogonal DST-I matrix diagonalizes the particle-in-a-box kinetic
    operator exactly; the potential is diagonal on the interior grid.
    Spectral accuracy here beats second-order differences by many digits at
    a few hundred points (verified by the grid-doubling test).
    """
    n = p.grid.n_points
    length = p.grid.r_max - p.grid.r_min
    h = length / (n + 1)
    x = p.grid.r_min + h * np.arange(1, n + 1)
    k = np.arange(1, n + 1)
    t_k = (np.pi * k / length) ** 2 / (2.0 * p.mass)
    f = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, np.arange(1, n + 1)) * np.pi / (n + 1))
    ham = (f.T * t_k) @ f
    ham[np.diag_indices(n)] += double_well_potential(x)
    return x, ham


def build_double_well(p: DoubleWellParams = DoubleWellParams()) -> DoubleWellModel:
    """Truncated-eigenbasis model: H0 = diag(E_v), H1 = <v| r/2 |w> with the
    diagonal zeroed so the pair lies inside the solver's search space.

    The physical dipole of an asymmetric well has nonzero diagonal elements
    <v| r |v>; zeroing them inside the model keeps forward and inverse runs
    consistent with the zero-diagonal coupling convention at the cost of a
    slight departure from the raw dipole dynamics.
    """
    x, ham = _sine_basis_hamiltonian(p)
    energies, vectors = np.linalg.eigh(ham)
    energies = energies[: p.n_levels]
    vectors = vectors[:, : p.n_levels]
    # deterministic sign convention: largest-magnitude component positive
    for j in range(p.n_levels):
        i = np.argmax(np.abs(vectors[:, j]))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    edge = max(np.max(np.abs(vectors[0, :])), np.max(np.abs(vectors[-1, :])))
    if edge > 1e-8 * np.max(np.abs(vectors)):
        raise ValueError(
            f"eigenfunctions do not decay at the grid boundary (edge amplitude {edge:.3e}); "
            "widen the spatial grid"
        )
    dipole = (vectors.T * (0.5 * x)) @ vectors
    dipole = 0.5 * (dipole + dipole.T)
    mu_03 = float(dipole[0, 3]) if p.n_levels > 3 else 0.0
    h1 = dipole - np.diag(np.diag(dipole))
    model = DoubleWellModel(
        pair=HamiltonianPair(h0=np.diag(energies), h1=h1),
        omega_03=float(energies[3] - energies[0]) if p.n_levels > 3 else float("nan"),
        mu_03=mu_03,
        eigenenergies=energies.copy(),
        params=p,
    )
    return model


def pi_pulse_field(model: DoubleWellModel, t_f: Optional[float] = None) -> PiPulse:
    """Resonant 0 -> 3 transfer pulse (2 pi / (t_f mu_03)) sin^2(4 pi t / t_f) cos(w_03 t)."""
    t_f = model.params.t_f if t_f is None else t_f
    if model.mu_03 == 0.0 or not np.isfinite(model.mu_03):
        raise ValueError("model has no usable 0-3 dipole element")
    return PiPulse(
        amplitude=2.0 * np.pi / (t_f * model.mu_03),
        envelope_freq_mult=4.0,
        carrier_freq=model.omega_03,
    )


@dataclass(frozen=True)
class PerturbationSpec:
    eta: float
    seed: int

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


def perturb_pair(pair: HamiltonianPair, spec: PerturbationSpec) -> HamiltonianPair:
    """(H0 + eta dH0, H1 + eta dH1) with i.i.d. uniform [-1, 1] upper-triangle
    draws mirrored to preserve each operator's symmetry class.  Deterministic
    for a fixed seed."""
    d = pair.dim
    rng = np.random.default_rng(spec.seed)
    dh0 = np.zeros((d, d))
    iu0 = np.triu_indices(d)
    dh0[iu0] = rng.uniform(-1.0, 1.0, size=len(iu0[0]))
    dh0 = dh0 + np.triu(dh0, 1).T
    dh1 = np.zeros((d, d))
    iu1 = np.triu_indices(d, 1)
    dh1[iu1] = rng.uniform(-1.0, 1.0, size=len(iu1[0]))
    dh1 = dh1 + dh1.T
    return pair.shifted(spec.eta * dh0, spec.eta * dh1)
