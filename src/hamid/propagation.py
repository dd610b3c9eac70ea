"""Crank-Nicolson propagation of evolution operators.

The single step is the Cayley transform

    (I + L_n) U_{n+1} = (I - L_n) U_n,    L_n = i (dt/2) (H0 + E_n H1),

exactly norm preserving for Hermitian generators and second order in time.
The midpoint products Ubar_n = (U_{n+1} + U_n)/2 produced along the way are
exactly what the identification Jacobian sums over, so a streaming variant
folds their Gram accumulation into the time loop without storing the
trajectory (needed at the 10^6-step molecular scale).

One private generator, ``_cayley_blocks``, takes every step.  It slices the
samples into blocks of at most ``GRAM_CHUNK`` steps, builds each block's
Cayley factors C_n = (I + L_n)^{-1} (I - L_n) in one batched LAPACK solve,
and applies them one matrix product U_{n+1} = C_n U_n each, in time order,
into one buffer that every block reuses.  It yields each block's samples
and states (the block's starting U first).  ``propagate`` copies the states
out, ``propagate_final`` keeps the last one, ``propagate_with_gram`` folds
each block into the Gram sums, and ``cn_step`` is a one-sample call.
Constant generators take the same loop.  The factors are never regrouped,
so every entry point (and a loop of ``cn_step`` calls) produces the same
bits; temporary memory is bounded by the block, not by N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TimeGrid
from .linalg import (
    require_finite,
    require_real_symmetric,
    require_unitary,
    spec_norm,
    unitary_exp,
)

# steps per block of the stepping loop (one batched factor solve and one
# flush of the Gram accumulators each); fixed so summation order (and hence
# output bytes) never depends on run conditions
GRAM_CHUNK = 4096


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


def _step_block(
    states: np.ndarray, h0: np.ndarray, h1: np.ndarray, e: np.ndarray, dt: float
) -> None:
    """Step ``states[0]`` over the block's samples ``e`` into ``states[1:]``.

    One batched solve builds every factor C_n = (I + L_n)^{-1} (I - L_n) of
    the block; the steps then apply them one matrix product each, in time
    order."""
    eye = np.eye(states.shape[1])
    l = (0.5j * dt) * (h0 + e[:, None, None] * h1)
    factors = np.linalg.solve(eye + l, eye - l)
    u = states[0]
    # the ndarray method runs np.dot's C routine without numpy's
    # __array_function__ dispatch, a measurable share of a d = 2 step
    for c, dst in zip(factors, states[1:]):
        u = c.dot(u, out=dst)


def _cayley_blocks(
    u: np.ndarray, h0: np.ndarray, h1: np.ndarray, samples: np.ndarray, dt: float
):
    """Cayley steps from U = ``u`` over ``samples``, block by block: the
    package's only stepping loop.

    Blocks hold at most ``GRAM_CHUNK`` samples and are stepped in time order
    into one buffer that every block reuses.  Yields ``(E block, states)``
    with ``states[0]`` the block's starting U and ``states[n + 1] = C_n
    states[n]``; the states are overwritten by the next block, so a caller
    keeps what it needs before asking for it.  A block's factors are freed
    before it is yielded (``_step_block`` has returned), so the caller's work
    on the block (the Gram sums) reuses their memory; held across the yield,
    they raised each call's peak heap enough for the allocator to hand the
    memory back and fault it in again on the next call."""
    buf = np.empty((min(samples.size, GRAM_CHUNK) + 1, *u.shape), dtype=complex)
    buf[0] = u
    for start in range(0, samples.size, GRAM_CHUNK):
        e = samples[start : start + GRAM_CHUNK]
        states = buf[: e.size + 1]
        _step_block(states, h0, h1, e, dt)
        yield e, states
        buf[0] = states[-1]


def cn_step(
    u_n: np.ndarray, h0: np.ndarray, h1: np.ndarray, e_n: float, dt: float
) -> np.ndarray:
    """One Cayley step (I + L)^{-1} (I - L) U with L = i (dt/2)(h0 + e_n h1)."""
    u_n = np.asarray(u_n, dtype=complex)
    if h0.shape != u_n.shape or h1.shape != u_n.shape:
        raise ValueError("Hamiltonian dimensions do not match the state")
    require_finite(np.array([e_n, dt], dtype=float), "field value and time step")
    ((_, states),) = _cayley_blocks(u_n, h0, h1, np.array([e_n], dtype=float), dt)
    return states[1].copy()


def _validated_inputs(u_0, pair: HamiltonianPair, samples, grid: TimeGrid):
    """(U_0, samples) after the checks every propagation entry point makes."""
    u_0 = require_unitary(u_0, "initial operator")
    if u_0.shape != (pair.dim, pair.dim):
        raise ValueError("initial operator dimension does not match the pair")
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_steps,):
        raise ValueError(
            f"field has {samples.shape} samples, grid has {grid.n_steps} steps"
        )
    return u_0, require_finite(samples, "field samples")


def propagate(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """Full trajectory U_0..U_N.  Stores every state; use the streaming
    variants where N is large enough for memory to matter."""
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    blocks = _cayley_blocks(u_0, pair.h0, pair.h1, samples, grid.dt)
    states = np.concatenate([u_0[None], *(block[1:].copy() for _, block in blocks)])
    return Trajectory(grid=grid, states=states)


def propagate_final(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Final state U_N only, without storing the trajectory."""
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    for _, block in _cayley_blocks(u_0, pair.h0, pair.h1, samples, grid.dt):
        pass
    return block[-1].copy()


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
):
    """Propagate while accumulating the two Jacobian Gram sums.

    Returns (U_N, G0, G1) with

        G0[a, b] = sum_n flat(Ubar_n)[a] * conj(flat(Ubar_n))[b]
        G1[a, b] = sum_n E_n * flat(Ubar_n)[a] * conj(flat(Ubar_n))[b]

    where flat() is the row-major flattening of the d x d midpoint product.
    These are reindexed into the Kronecker-form Jacobian blocks by
    :func:`hamid.newton.grams_to_jacobians`.
    """
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    d = pair.dim
    g0 = np.zeros((d * d, d * d), dtype=complex)
    g1 = np.zeros((d * d, d * d), dtype=complex)
    for e, block in _cayley_blocks(u_0, pair.h0, pair.h1, samples, grid.dt):
        _accumulate_gram(block, e, g0, g1)
    return block[-1].copy(), g0, g1


def cn_error_order(
    pair: HamiltonianPair, e_value: float, t_f: float, n_steps: int = 100
) -> float:
    """Ratio err(dt) / err(dt/2) against the exact constant-generator solution.

    The field is the constant ``e_value`` over [0, t_f]; a second-order
    scheme gives a ratio near 4.  Degenerate cases with zero error return
    NaN.
    """
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
