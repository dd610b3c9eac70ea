"""Benchmark systems: a resonantly driven two-level atom and an asymmetric
double-well molecule in its truncated eigenbasis, plus seeded random
Hamiltonian perturbations for basin-of-convergence experiments.

The perturbations are numpy's ``default_rng(seed).uniform(-1, 1)`` stream,
reproduced with Python integers (``_uniform_draws``): the same numbers,
without loading numpy's random module and, through ``secrets``, OpenSSL
(about 5 MB resident) for a few draws per run.

Everything is in atomic units (hbar = 1).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import PiPulse, SinSqEnvelope, require_count, require_real, require_type
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
        for name in ("delta", "mu", "envelope_skew"):
            require_real(name, getattr(self, name))
        require_real("t_f", self.t_f, positive=True)
        if self.e0 is not None:
            require_real("e0", self.e0)
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
        require_real("r_min", self.r_min)
        require_real("r_max", self.r_max)
        require_count("n_points", self.n_points, 8)
        if not self.r_min < self.r_max:
            raise ValueError("r_min must be below r_max")


@dataclass(frozen=True)
class DoubleWellParams:
    """Asymmetric double well V(r) = r^4 - r^2 - r/20, dipole r/2."""

    mass: float = 1000.0
    t_f: float = 2.0 * PICOSECOND_AU
    n_levels: int = 12
    grid: SpatialGrid = field(default_factory=SpatialGrid)

    def __post_init__(self):
        require_real("mass", self.mass, positive=True)
        require_real("t_f", self.t_f, positive=True)
        # the pi pulse drives the 0 -> 3 transition
        require_count("n_levels", self.n_levels, 4)
        require_type("grid", self.grid, SpatialGrid)
        if self.grid.n_points < 4 * self.n_levels:
            raise ValueError("grid.n_points must be at least 4 * n_levels")


@dataclass(frozen=True)
class DoubleWellModel:
    pair: HamiltonianPair
    omega_03: float
    mu_03: float
    eigenenergies: np.ndarray
    params: DoubleWellParams


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
    h1 = dipole - np.diag(np.diag(dipole))
    model = DoubleWellModel(
        pair=HamiltonianPair(h0=np.diag(energies), h1=h1),
        omega_03=float(energies[3] - energies[0]),
        mu_03=float(dipole[0, 3]),
        eigenenergies=energies.copy(),
        params=p,
    )
    return model


def pi_pulse_field(model: DoubleWellModel) -> PiPulse:
    """Resonant 0 -> 3 transfer pulse (2 pi / (t_f mu_03)) sin^2(4 pi t / t_f)
    cos(w_03 t) over the model's window t_f."""
    t_f = model.params.t_f
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
        require_real("eta", self.eta)
        require_count("seed", self.seed, 0)
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta!r}")


# numpy's SeedSequence (NEP 19): hash and mix multipliers of its entropy pool
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64 (O'Neill, HMC-CS-2014-0905): the 128-bit LCG multiplier of XSL-RR 128/64
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq) that ``PCG64(SeedSequence(seed))`` seeds from:
    the seed's 32-bit words mixed into a pool of four, then
    ``generate_state(4, uint64)`` read as two 128-bit integers."""
    seed = operator.index(seed)
    if seed < 0:  # numpy refuses it too; its words would never shift to zero
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = _HASH_INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _HASH_INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # little-endian pairs of 32-bit words make the four 64-bit words
    w = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _uniform_draws(seed: int, n: int) -> np.ndarray:
    """numpy's ``default_rng(seed).uniform(-1.0, 1.0, n)``, bit for bit:
    PCG64 seeded as numpy seeds it, one XSL-RR output per draw, whose top 53
    bits make a double in [0, 1)."""
    initstate, initseq = _seed_state(seed)
    inc = (initseq << 1 | 1) & _MASK128
    # seeding: a step from state 0, plus initstate, then a second step
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    draws = []
    for _ in range(n):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        draws.append(-1.0 + 2.0 * ((x >> 11) * 2.0**-53))
    return np.array(draws, dtype=float)


def perturb_pair(pair: HamiltonianPair, spec: PerturbationSpec) -> HamiltonianPair:
    """(H0 + eta dH0, H1 + eta dH1) with i.i.d. uniform [-1, 1] upper-triangle
    draws mirrored to preserve each operator's symmetry class: dH0's upper
    triangle with its diagonal first, then dH1's strict upper triangle, from
    one seeded stream.  Deterministic for a fixed seed."""
    d = pair.dim
    iu0, iu1 = np.triu_indices(d), np.triu_indices(d, 1)
    n0 = len(iu0[0])
    draws = _uniform_draws(spec.seed, n0 + len(iu1[0]))
    dh0 = np.zeros((d, d))
    dh0[iu0] = draws[:n0]
    dh0 = dh0 + np.triu(dh0, 1).T
    dh1 = np.zeros((d, d))
    dh1[iu1] = draws[n0:]
    dh1 = dh1 + dh1.T
    return pair.shifted(spec.eta * dh0, spec.eta * dh1)
