"""Crank-Nicolson propagation of evolution operators.

The single step is the Cayley transform

    (I + L_n) U_{n+1} = (I - L_n) U_n,    L_n = i (dt/2) (H0 + E_n H1),

exactly norm preserving for Hermitian generators and second order in time.
The midpoint products Ubar_n = (U_{n+1} + U_n)/2 produced along the way are
exactly what the identification Jacobian sums over, so a streaming variant
folds their Gram accumulation into the time loop without storing the
trajectory (needed at the 10^6-step molecular scale).

When the generator is constant in time (H1 = 0 or a constant field) the
stepper collapses to powers of a single Cayley factor, which is evaluated
through one symmetric eigendecomposition instead of a sequential loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ControlField, TimeGrid, sample_field
from .linalg import (
    DEFAULT_UNITARITY_TOL,
    require_finite,
    require_real_symmetric,
    require_square,
    require_unitary,
    spec_norm,
    unitary_exp,
)

# steps per flush of the streaming Gram accumulators; fixed so summation
# order (and hence output bytes) never depends on run conditions
GRAM_CHUNK = 4096
_CONST_CHUNK = 65536


@dataclass(frozen=True)
class HamiltonianPair:
    """Field-free Hamiltonian h0 (real symmetric) and coupling h1 (real
    symmetric, zero diagonal), in atomic units."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        h0 = require_real_symmetric(self.h0, "h0")
        h1 = require_real_symmetric(self.h1, "h1", zero_diag=True)
        if h0.shape != h1.shape:
            raise ValueError(f"h0 {h0.shape} and h1 {h1.shape} differ in dimension")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def shifted(self, dh0: np.ndarray, dh1: np.ndarray) -> "HamiltonianPair":
        return HamiltonianPair(self.h0 + dh0, self.h1 + dh1)


@dataclass(frozen=True)
class Trajectory:
    """All stored propagator samples U_0..U_N on a grid."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, d, d) complex

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final(self) -> np.ndarray:
        return self.states[-1]

    def midpoint_products(self) -> np.ndarray:
        """Ubar_n = (U_{n+1} + U_n)/2 for every step."""
        return 0.5 * (self.states[1:] + self.states[:-1])


def cn_step(
    u_n: np.ndarray, h0: np.ndarray, h1: np.ndarray, e_n: float, dt: float
) -> np.ndarray:
    """One Cayley step (I + L)^{-1} (I - L) U with L = i (dt/2)(h0 + e_n h1)."""
    u_n = np.asarray(u_n, dtype=complex)
    d = u_n.shape[0]
    if h0.shape != (d, d) or h1.shape != (d, d):
        raise ValueError("Hamiltonian dimensions do not match the state")
    l = (0.5j * dt) * (h0 + e_n * h1)
    eye = np.eye(d)
    return np.linalg.solve(eye + l, (eye - l) @ u_n)


def _validated_samples(samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_steps,):
        raise ValueError(
            f"field has {samples.shape} samples, grid has {grid.n_steps} steps"
        )
    return require_finite(samples, "field samples")


def _constant_value(pair: HamiltonianPair, samples: np.ndarray):
    """Constant effective generator value, or None if truly time dependent."""
    if not np.any(pair.h1):
        return float(samples[0]) if samples.size else 0.0
    if samples.size and np.ptp(samples) == 0.0:
        return float(samples[0])
    return None


def _cayley_eigensystem(pair: HamiltonianPair, e_const: float, dt: float):
    h = pair.h0 + e_const * pair.h1
    w, v = np.linalg.eigh(h)
    # per-step eigenphase of (1 - i w dt/2) / (1 + i w dt/2)
    theta = -2.0 * np.arctan(0.5 * dt * w)
    return theta, v


def propagate(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
) -> Trajectory:
    """Full trajectory U_0..U_N.  Stores every state; use the streaming
    variants where N is large enough for memory to matter."""
    u_0 = require_unitary(u_0, "initial operator", unitarity_tol)
    samples = _validated_samples(samples, grid)
    d = pair.dim
    require_square(u_0, "initial operator")
    if u_0.shape[0] != d:
        raise ValueError("initial operator dimension does not match the pair")
    n = grid.n_steps
    dt = grid.dt
    states = np.empty((n + 1, d, d), dtype=complex)
    states[0] = u_0
    e_const = _constant_value(pair, samples)
    if e_const is not None:
        theta, v = _cayley_eigensystem(pair, e_const, dt)
        powers = np.exp(1j * np.outer(np.arange(1, n + 1), theta))
        states[1:] = (v[None, :, :] * powers[:, None, :]) @ (v.T @ u_0)
        return Trajectory(grid=grid, states=states)
    eye = np.eye(d)
    h0, h1 = pair.h0, pair.h1
    u = u_0
    for i in range(n):
        l = (0.5j * dt) * (h0 + samples[i] * h1)
        u = np.linalg.solve(eye + l, (eye - l) @ u)
        states[i + 1] = u
    return Trajectory(grid=grid, states=states)


def propagate_final(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
) -> np.ndarray:
    """Final state U_N only, without storing the trajectory."""
    u_0 = require_unitary(u_0, "initial operator", unitarity_tol)
    samples = _validated_samples(samples, grid)
    dt = grid.dt
    e_const = _constant_value(pair, samples)
    if e_const is not None:
        theta, v = _cayley_eigensystem(pair, e_const, dt)
        phases = np.exp(1j * grid.n_steps * theta)
        return (v * phases) @ (v.T @ u_0)
    eye = np.eye(pair.dim)
    h0, h1 = pair.h0, pair.h1
    u = u_0
    for i in range(grid.n_steps):
        l = (0.5j * dt) * (h0 + samples[i] * h1)
        u = np.linalg.solve(eye + l, (eye - l) @ u)
    return u


def _accumulate_gram(
    states_block: np.ndarray, e_block: np.ndarray, g0: np.ndarray, g1: np.ndarray
) -> None:
    """Add sum_n flat(Ubar_n) outer conj(flat(Ubar_n)) over one block."""
    ubar = 0.5 * (states_block[1:] + states_block[:-1])
    p = ubar.reshape(e_block.shape[0], -1)
    pc = p.conj()
    g0 += p.T @ pc
    g1 += (p.T * e_block) @ pc


def propagate_with_gram(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
    unitarity_tol: float = DEFAULT_UNITARITY_TOL,
):
    """Propagate while accumulating the two Jacobian Gram sums.

    Returns (U_N, G0, G1) with

        G0[a, b] = sum_n flat(Ubar_n)[a] * conj(flat(Ubar_n))[b]
        G1[a, b] = sum_n E_n * flat(Ubar_n)[a] * conj(flat(Ubar_n))[b]

    where flat() is the row-major flattening of the d x d midpoint product.
    These are reindexed into the Kronecker-form Jacobian blocks by
    :func:`hamid.newton.grams_to_jacobians`.
    """
    u_0 = require_unitary(u_0, "initial operator", unitarity_tol)
    samples = _validated_samples(samples, grid)
    d = pair.dim
    if u_0.shape[0] != d:
        raise ValueError("initial operator dimension does not match the pair")
    n = grid.n_steps
    dt = grid.dt
    g0 = np.zeros((d * d, d * d), dtype=complex)
    g1 = np.zeros((d * d, d * d), dtype=complex)
    e_const = _constant_value(pair, samples)
    if e_const is not None:
        theta, v = _cayley_eigensystem(pair, e_const, dt)
        right = v.T @ u_0
        prev = u_0
        for start in range(0, n, _CONST_CHUNK):
            stop = min(start + _CONST_CHUNK, n)
            powers = np.exp(1j * np.outer(np.arange(start + 1, stop + 1), theta))
            block_states = (v[None, :, :] * powers[:, None, :]) @ right
            block = np.concatenate([prev[None, :, :], block_states], axis=0)
            _accumulate_gram(block, samples[start:stop], g0, g1)
            prev = block_states[-1]
        return prev, g0, g1
    eye = np.eye(d)
    h0, h1 = pair.h0, pair.h1
    buf = np.empty((GRAM_CHUNK + 1, d, d), dtype=complex)
    buf[0] = u_0
    u = u_0
    start = 0
    for i in range(n):
        l = (0.5j * dt) * (h0 + samples[i] * h1)
        u = np.linalg.solve(eye + l, (eye - l) @ u)
        buf[i - start + 1] = u
        if i - start + 1 == GRAM_CHUNK:
            _accumulate_gram(buf, samples[start : start + GRAM_CHUNK], g0, g1)
            buf[0] = buf[GRAM_CHUNK]
            start = i + 1
    tail = n - start
    if tail > 0:
        _accumulate_gram(buf[: tail + 1], samples[start:n], g0, g1)
    return u, g0, g1


def cn_error_order(
    pair: HamiltonianPair,
    field_desc: "ControlField | float",
    t_f: float,
    n_steps: int = 100,
) -> float:
    """Ratio err(dt) / err(dt/2) against the exact constant-generator solution.

    The field must be constant in time (pass a plain number, or a descriptor
    that samples to a constant); a second-order scheme gives a ratio near 4.
    Degenerate cases with zero error return NaN.
    """
    if isinstance(field_desc, (int, float)):
        e_value = float(field_desc)
    else:
        probe = sample_field(field_desc, TimeGrid(t_f=t_f, n_steps=n_steps))
        if probe.size and np.ptp(probe) != 0.0:
            raise ValueError("cn_error_order needs a field that is constant in time")
        e_value = float(probe[0]) if probe.size else 0.0
    h = pair.h0 + e_value * pair.h1
    exact = unitary_exp(-1j * t_f * h)
    eye = np.eye(pair.dim)

    def err(n: int) -> float:
        grid = TimeGrid(t_f=t_f, n_steps=n)
        samples = np.full(n, e_value)
        return spec_norm(propagate_final(eye, pair, samples, grid) - exact)

    e_coarse = err(n_steps)
    e_fine = err(2 * n_steps)
    if e_coarse == 0.0 or e_fine == 0.0:
        return float("nan")
    return e_coarse / e_fine
