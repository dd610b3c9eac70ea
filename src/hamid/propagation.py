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
Cayley factors C_n = (I + L_n)^{-1} (I - L_n) (at d = 2 in closed form,
2 adj(I + L_n) / det(I + L_n) - I taken in real arithmetic; at every other
d in one batched LAPACK solve), and applies them one real matrix product
each, in time order, into one buffer that every block reuses.  The buffer
holds the transposes W_n = U_n^T, so a step is W_{n+1} = W_n C_n^T: a d x d
complex W read as floats is d x 2d with each entry's real and imaginary
parts side by side in its row, and multiplying it on the right by the
2d x 2d real embedding of C_n^T (each complex entry z as the 2 x 2 block
[[Re z, Im z], [-Im z, Re z]]) is the complex product, taken as one float64
BLAS call, which costs less than the complex one at small d.  The generator
yields each block's samples and transposed states (the block's starting W
first).

Every entry point takes a ``HamiltonianPair`` and returns plain C-ordered
arrays: ``propagate`` the stored states U_0..U_N, ``propagate_final`` U_N,
``propagate_with_gram`` U_N and the Gram sums over flat(W) = vec(U), which
``hamid.newton`` lays out as the Jacobian, and ``cn_step`` one step as a
one-sample call.  Inputs whose generator (dt/2)(H0 + E_n H1) overflows are
refused, since their steps would be NaN.  Constant generators take the same
loop.  The factors are never regrouped, so every entry point (and a loop of
``cn_step`` calls) produces the same bits for a fixed BLAS; temporary
memory is bounded by the block, not by N.

Every buffer of the loop (the block's states, the embedding slice and the
state slab it is multiplied into, and the complex scratch for the factors
and the Gram midpoints) lives in a ``_Workspace``, kept in a private pool
with one idle workspace per dimension, sized to the largest block seen
there.  A call takes its dimension's workspace out of the pool and puts it
back when it ends, so two live propagations (in threads, or one generator
inside another) never share one.  A warm call allocates one block-sized
array, the factors the batched solve returns, and none at d = 2, where the
factors are written into the scratch.  A workspace for ``GRAM_CHUNK``
steps holds 0.21 d^2 MB: 0.84 MB at d = 2, 7.5 MB at d = 6 and 30 MB at
d = 12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import TimeGrid
from .linalg import (
    require_finite,
    require_real_array,
    require_real_symmetric,
    require_unitary,
    spec_norm,
    unitary_exp,
)

# steps per block of the stepping loop (one factor build and one flush of
# the Gram accumulators each); fixed so summation order (and hence
# output bytes) never depends on run conditions
GRAM_CHUNK = 4096

# steps of a block whose factors are embedded as real matrices at once; a
# whole block's embeddings (4096 x 4d^2 floats, 19 MB at d = 12) leave the
# cache before the steps read them, a slice of this size stays resident
# (whole blocks were 5-11% slower per step at d = 6 and 12)
EMBED_SLICE = 256

# at d = 2 a factor is built from products of up to four entries of
# A_n = (dt/2)(H0 + E_n H1); below 2**_CLOSED_FORM_EXP they stay under
# 2**1003, and a step with an entry at or above it takes the batched solve
_CLOSED_FORM_EXP = 250


@dataclass(frozen=True)
class HamiltonianPair:
    """Field-free Hamiltonian h0 (real symmetric) and coupling h1 (real
    symmetric, zero diagonal), in atomic units."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        h0 = require_real_symmetric(self.h0, "h0")
        if h0.size == 0:
            raise ValueError(f"h0 must be at least 1 x 1, got shape {h0.shape}")
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

    @cached_property
    def _entry_max(self) -> tuple:
        """(max|h0|, max|h1|) as Python floats, for the overflow bound."""
        return float(np.abs(self.h0).max()), float(np.abs(self.h1).max())


class _Workspace:
    """The stepping loop's buffers at one dimension d, for blocks of up to
    ``capacity`` steps: the block's transposed states, an ``EMBED_SLICE``-step
    state slab and the factor embeddings (each with its per-step float views
    built once, so a step creates no array), and complex scratch in which
    ``_step_block`` builds the factors (the second half holds them when it
    is done) and which is free for the caller once the block is stepped."""

    __slots__ = ("capacity", "states", "slab", "slab_views", "embedded", "embed_views", "scratch")

    def __init__(self, d: int, capacity: int):
        slice_steps = min(capacity, EMBED_SLICE)
        self.capacity = capacity
        self.states = np.empty((capacity + 1, d, d), dtype=complex)
        self.slab = np.empty((slice_steps, d, d), dtype=complex)
        self.slab_views = list(self.slab.view(float))
        self.embedded = np.empty((slice_steps, d, 2, d, 2))
        self.embed_views = list(self.embedded.reshape(slice_steps, 2 * d, 2 * d))
        self.scratch = np.empty((2, capacity, d, d), dtype=complex)


# d -> the idle workspace at d; a running propagation holds its own out of it
_POOL: dict[int, _Workspace] = {}


def _two_level_factors(
    pair: HamiltonianPair, e: np.ndarray, dt: float, scratch: np.ndarray, out: np.ndarray
) -> None:
    """The 2 x 2 Cayley factors C_n = (I + L_n)^{-1} (I - L_n) of the
    samples ``e`` in closed form, written into ``out``, in real arithmetic
    on the planes of ``scratch`` (one more (n, 2, 2) complex array).

    With A_n = (dt/2)(H0 + E_n H1) real, L_n = i A_n and det(I + L_n) =
    x + i y, x = 1 - det A_n, y = tr A_n, the adjugate gives

        C = I + q (L + det(L) I),    q = -2 / (x + i y) = v - i u,

    with v = m x, u = m y and m = -2 / (x^2 + y^2): entry (j, k != j) is
    a_jk (u + i v), and entry (j, j) is 1 + (a_jj u - det(A) v) + i (a_jj v
    + det(A) u).  C - I is formed without rounding I + L_n, so a factor
    near I keeps the low bits of A_n (LAPACK's solve is off by a few ulps).
    Every entry is taken as it is, since H0 and H1 are symmetric only to
    ``SYMMETRY_TOL``.  Each op is a real ufunc over one plane of the block,
    so step n gets the same bits in any block, alone or not.  x^2 would
    overflow for entries of A_n near 2**256: a step with an entry at or
    above 2**_CLOSED_FORM_EXP takes the batched solve instead."""
    n = e.size
    floats = scratch.view(float).reshape(-1)
    a = floats[: 4 * n].reshape(2, 2, n)
    t0, t1, t2, t3 = floats[4 * n :].reshape(4, n)
    # plane (j, k) of a holds entry (j, k) of every A_n
    planes = a.reshape(4, n)
    np.multiply(pair.h1.reshape(4, 1), e, out=planes)
    np.add(pair.h0.reshape(4, 1), planes, out=planes)
    np.multiply(0.5 * dt, planes, out=planes)
    # a bound on every entry of the block's A_n, taken in Python floats
    h0_max, h1_max = pair._entry_max
    e_max = max(float(e.max()), -float(e.min()))
    big = None
    if 0.5 * abs(dt) * (h0_max + e_max * h1_max) >= 2.0 ** (_CLOSED_FORM_EXP - 1):
        big = np.abs(a).max(axis=(0, 1)) >= 2.0**_CLOSED_FORM_EXP
        a[:, :, big] = 0.0
    a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    # det A in t0, x in t1, m in t3
    np.multiply(a00, a11, out=t0)
    np.multiply(a01, a10, out=t1)
    np.subtract(t0, t1, out=t0)
    np.subtract(1.0, t0, out=t1)
    np.add(a00, a11, out=t2)
    np.multiply(t2, t2, out=t2)
    np.multiply(t1, t1, out=t3)
    np.add(t3, t2, out=t3)
    np.divide(-2.0, t3, out=t3)
    # u in t2, v in t1, then det(A) v in t3 and det(A) u in t0
    np.add(a00, a11, out=t2)
    np.multiply(t3, t2, out=t2)
    np.multiply(t3, t1, out=t1)
    u, v = t2, t1
    for j, k in ((0, 1), (1, 0)):
        np.multiply(a[j, k], u, out=out[:, j, k].real)
        np.multiply(a[j, k], v, out=out[:, j, k].imag)
    np.multiply(t0, v, out=t3)
    np.multiply(t0, u, out=t0)
    for j in range(2):
        c = out[:, j, j]
        np.multiply(a[j, j], u, out=c.real)
        np.subtract(c.real, t3, out=c.real)
        np.add(1.0, c.real, out=c.real)
        np.multiply(a[j, j], v, out=c.imag)
        np.add(c.imag, t0, out=c.imag)
    if big is not None:
        # the ops of the solve at other d, on these steps alone
        eye = np.eye(2)
        l_big = 0.5j * dt * (pair.h0 + e[big, None, None] * pair.h1)
        out[big] = np.linalg.solve(eye + l_big, eye - l_big)


def _step_block(ws: _Workspace, pair: HamiltonianPair, e: np.ndarray, dt: float) -> None:
    """Step ``ws.states[0]`` over the block's samples ``e`` into
    ``ws.states[1 : e.size + 1]``.

    The states are transposes, W_n = U_n^T, so a step is the row product
    W_{n+1} = W_n C_n^T.  The block's factors C_n = (I + L_n)^{-1} (I -
    L_n) are built first in ``ws.scratch``.  At d = 2 they are written in
    closed form into its second half (``_two_level_factors``).  At every
    other d, the generator H0 + E_n H1 is summed in the second half, read
    as floats, L_n formed from that sum in the first half, then I - L_n in
    the second and I + L_n in the first, and one batched LAPACK solve
    returns the factors.  Each W is read as its real view (d x 2d, real and
    imaginary parts interleaved) and each C_n^T as its real 2d x 2d
    embedding, whose 2 x 2 block (j, c) is [[Re, Im], [-Im, Re]] of
    C_n[c, j]; the step is then one float64 matrix product.  The embeddings
    are written ``EMBED_SLICE`` steps at a time into ``ws.embedded``, the
    products into ``ws.slab``, which is then copied into ``ws.states``."""
    n = e.size
    plus, minus = ws.scratch[:, :n]
    if pair.dim == 2:
        _two_level_factors(pair, e, dt, plus, minus)
        factors = minus
    else:
        eye = np.eye(pair.dim)
        # H0 + E_n H1 in the first half of the I - L_n scratch read as
        # floats: contiguous, where minus.real would be strided
        gen = minus.view(float).reshape(-1)[: minus.size].reshape(minus.shape)
        np.multiply(e[:, None, None], pair.h1, out=gen)
        np.add(pair.h0, gen, out=gen)
        np.multiply(0.5j * dt, gen, out=plus)
        np.subtract(eye, plus, out=minus)
        np.add(eye, plus, out=plus)
        factors = np.linalg.solve(plus, minus)
    factors_t = factors.transpose(0, 2, 1)
    w_n = ws.states.view(float)[0]
    for start in range(0, n, EMBED_SLICE):
        part = factors_t[start : start + EMBED_SLICE]
        k = part.shape[0]
        b = ws.embedded[:k]
        # row 2j holds (Re, Im) of C_n[c, j], written as complex numbers;
        # row 2j + 1 holds (-Im, Re), taken from row 2j
        b.view(complex)[:, :, 0, :, 0] = part
        np.negative(b[:, :, 0, :, 1], out=b[:, :, 1, :, 0])
        b[:, :, 1, :, 1] = b[:, :, 0, :, 0]
        # the ndarray method runs np.dot's C routine without numpy's
        # __array_function__ dispatch, a measurable share of a d = 2 step
        for b_n, dst in zip(ws.embed_views[:k], ws.slab_views):
            w_n = w_n.dot(b_n, out=dst)
        ws.states[start + 1 : start + 1 + k] = ws.slab[:k]


def _cayley_blocks(u: np.ndarray, pair: HamiltonianPair, samples: np.ndarray, dt: float):
    """Cayley steps from U = ``u`` over ``samples``, block by block: the
    package's only stepping loop.

    Blocks hold at most ``GRAM_CHUNK`` samples and are stepped in time order
    into the states buffer of a workspace taken from the pool for the
    call's dimension (built if the pool has none, or only one for smaller
    blocks) and put back when the generator ends.  Yields ``(E block,
    states, scratch)`` with ``states[n]`` the transpose W_n = U_n^T
    (``states[0]`` the block's starting state) and ``states[n + 1] =
    states[n] C_n^T``, and ``scratch`` two complex arrays shaped like
    ``states[1:]`` that the caller may overwrite.  Both are overwritten by
    the next block and belong to another call once the generator ends, so a
    caller copies what it keeps inside its loop."""
    d = u.shape[0]
    ws = _POOL.pop(d, None)
    if ws is None or ws.capacity < min(samples.size, GRAM_CHUNK):
        ws = _Workspace(d, min(samples.size, GRAM_CHUNK))
    try:
        ws.states[0] = u.T
        for start in range(0, samples.size, GRAM_CHUNK):
            e = samples[start : start + GRAM_CHUNK]
            _step_block(ws, pair, e, dt)
            states = ws.states[: e.size + 1]
            yield e, states, ws.scratch[:, : e.size]
            ws.states[0] = states[-1]
    finally:
        _POOL[d] = ws


def _require_bounded_generator(pair: HamiltonianPair, e_max: float, dt: float) -> None:
    """Refuse finite inputs whose generator (dt/2)(H0 + E_n H1), with
    |E_n| <= ``e_max``, may overflow, which would make every step NaN.  The
    bound is taken in Python floats, which overflow to inf without a
    warning."""
    h0_max, h1_max = pair._entry_max
    h_max = h0_max + e_max * h1_max
    if not math.isfinite(0.5 * abs(float(dt)) * h_max):
        raise ValueError(
            "the time step, field samples, h0 and h1 overflow the generator "
            "(dt/2)(H0 + E_n H1): 0.5 |dt| (max|H0| + max|E_n| max|H1|) is not finite"
        )


def cn_step(u_n: np.ndarray, pair: HamiltonianPair, e_n: float, dt: float) -> np.ndarray:
    """One Cayley step (I + L)^{-1} (I - L) U with L = i (dt/2)(h0 + e_n h1).
    ``u_n`` need not be unitary, and a negative ``dt`` steps back."""
    u_n = np.asarray(u_n, dtype=complex)
    if u_n.shape != (pair.dim, pair.dim):
        raise ValueError("Hamiltonian dimensions do not match the state")
    e_dt = require_real_array([e_n, dt], "field value and time step")
    require_finite(e_dt, "field value and time step")
    _require_bounded_generator(pair, abs(float(e_dt[0])), e_dt[1])
    for _, states, _ in _cayley_blocks(u_n, pair, e_dt[:1], e_dt[1]):
        u = states[1].T.copy()
    return u


def _validated_inputs(u_0, pair: HamiltonianPair, samples, grid: TimeGrid):
    """(U_0, samples) after the checks every propagation entry point makes."""
    u_0 = require_unitary(u_0, "initial operator")
    if u_0.shape != (pair.dim, pair.dim):
        raise ValueError("initial operator dimension does not match the pair")
    samples = require_real_array(samples, "field samples")
    if samples.shape != (grid.n_steps,):
        raise ValueError(
            f"field has {samples.shape} samples, grid has {grid.n_steps} steps"
        )
    require_finite(samples, "field samples")
    _require_bounded_generator(pair, max(float(samples.max()), -float(samples.min())), grid.dt)
    return u_0, samples


def propagate(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """U_0..U_N as one C-ordered (N + 1, d, d) complex array.  Stores every
    state; use the streaming variants where N is large enough for memory to
    matter."""
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    states = np.empty((samples.size + 1, *u_0.shape), dtype=complex)
    states[0] = u_0
    n = 1
    for e, block, _ in _cayley_blocks(u_0, pair, samples, grid.dt):
        states[n : n + e.size] = block[1:].swapaxes(1, 2)
        n += e.size
    return states


def propagate_final(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Final state U_N only, without storing the trajectory."""
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    for _, block, _ in _cayley_blocks(u_0, pair, samples, grid.dt):
        u_n = block[-1].T.copy()
    return u_n


def _accumulate_gram(
    states_block: np.ndarray,
    e_block: np.ndarray,
    g0: np.ndarray,
    g1: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Add sum_n flat(Wbar_n) outer conj(flat(Wbar_n)) over one block of
    transposed states, where flat(Wbar_n) = vec(Ubar_n) is the column-major
    flattening of the midpoint product.  The midpoints and their conjugates
    are formed in ``scratch``, the block's two free complex arrays."""
    wbar, wbar_c = scratch
    np.add(states_block[1:], states_block[:-1], out=wbar)
    np.multiply(0.5, wbar, out=wbar)
    p = wbar.reshape(e_block.shape[0], -1)
    pc = np.conjugate(p, out=wbar_c.reshape(p.shape))
    g0 += p.T @ pc
    g1 += np.multiply(p.T, e_block, out=p.T) @ pc


def propagate_with_gram(
    u_0: np.ndarray,
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
):
    """Propagate while accumulating the two Jacobian Gram sums.

    Returns (U_N, G0, G1) with

        G0[a, b] = sum_n vec(Ubar_n)[a] * conj(vec(Ubar_n))[b]
        G1[a, b] = sum_n E_n * vec(Ubar_n)[a] * conj(vec(Ubar_n))[b]

    where vec() is the column-major flattening of the d x d midpoint
    product.  :func:`hamid.newton.grams_to_jacobians` lays these out as the
    Kronecker-form Jacobian blocks.
    """
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    d = pair.dim
    g0 = np.zeros((d * d, d * d), dtype=complex)
    g1 = np.zeros((d * d, d * d), dtype=complex)
    for e, block, scratch in _cayley_blocks(u_0, pair, samples, grid.dt):
        _accumulate_gram(block, e, g0, g1, scratch)
        u_n = block[-1].T.copy()
    return u_n, g0, g1


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
