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
Cayley factors C_n = (I + L_n)^{-1} (I - L_n), and applies them one real
matrix product each, in time order, into one buffer that every block
reuses.  The buffer holds the transposes W_n = U_n^T, so a step is W_{n+1}
= W_n C_n^T: a d x d complex W read as floats is d x 2d with each entry's
real and imaginary parts side by side in its row, and multiplying it on the
right by the 2d x 2d real embedding of C_n^T (each complex entry z as the
2 x 2 block [[Re z, Im z], [-Im z, Re z]]) is the complex product, taken as
one float64 BLAS call, which costs less than the complex one at small d.
At d = 2 the factors are taken in closed form, 2 adj(I + L_n) / det(I +
L_n) - I in real arithmetic, which writes the 16 entries of every
embedding as contiguous planes, with no LAPACK call; one transposing copy
per ``EMBED_SLICE`` steps lays them out step by step.  At every other d one
batched LAPACK solve gives the factors, and three strided copies per slice
embed them.

Every entry point takes a unitary U_0, a ``HamiltonianPair`` and the
samples of a ``TimeGrid``, and returns plain C-ordered arrays:
``propagate`` the stored states U_0..U_N, ``propagate_final`` U_N, and
``propagate_with_gram`` U_N and the Gram sums over flat(W) = vec(U), which
``hamid.newton`` lays out as the Jacobian.  A single step is a one-step
grid, and a step back is a step of the negated pair.  One input check,
``_validated_inputs``, serves all three; it also refuses inputs whose
generator bound 0.5 dt (max|H0| + max|E_n| max|H1|) is not below 2**249,
where the d = 2 closed form would overflow: one rule at every d.  Constant
generators take the same loop.  The factors are never regrouped, so every
entry point (and a loop of one-step calls) produces the same bits for a
fixed BLAS; temporary memory is bounded by the block, not by N.

Every buffer of the loop (the block's states, the embedding slice and the
state slab it is multiplied into, and the complex scratch for the factors
and the Gram midpoints) lives in a ``_Workspace``, kept in a private pool
that holds one idle workspace, the one put back last.  A call takes it out
if it fits the call (else builds one) and puts its own back when it ends,
so two live propagations (in threads, or one generator inside another)
never share one.  A warm call allocates one block-sized array, the factors
the batched solve returns, and none at d = 2, where the embedding planes
are written into the scratch and A_n into the states not yet stepped.  A
workspace for ``GRAM_CHUNK`` steps holds 0.21 d^2 MB: 0.84 MB at d = 2,
7.5 MB at d = 6 and 30 MB at d = 12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TimeGrid
from .linalg import (
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

# the refused bound 0.5 |dt| (max|H0| + max|E_n| max|H1|): a d = 2 factor
# multiplies up to four entries of A_n = (dt/2)(H0 + E_n H1), under 2**1003
# below 2**250; one power of two less covers the rounding of the bound
_GENERATOR_LIMIT = 2.0**249


@dataclass(frozen=True)
class HamiltonianPair:
    """Field-free Hamiltonian h0 (real symmetric) and coupling h1 (real
    symmetric, zero diagonal), in atomic units."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        h0, h0_max = require_real_symmetric(self.h0, "h0")
        if h0.size == 0:
            raise ValueError(f"h0 must be at least 1 x 1, got shape {h0.shape}")
        h1, h1_max = require_real_symmetric(self.h1, "h1", zero_diag=True)
        if h0.shape != h1.shape:
            raise ValueError(f"h0 {h0.shape} and h1 {h1.shape} differ in dimension")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        # (max|h0|, max|h1|) as Python floats, for the overflow bound
        object.__setattr__(self, "_entry_max", (h0_max, h1_max))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def shifted(self, dh0: np.ndarray, dh1: np.ndarray) -> "HamiltonianPair":
        return HamiltonianPair(self.h0 + dh0, self.h1 + dh1)


class _Workspace:
    """The stepping loop's buffers at one dimension d, for blocks of up to
    ``capacity`` steps: the block's transposed states, an ``EMBED_SLICE``-step
    state slab and the factor embeddings (each with its per-step float views
    built once, so a step creates no array), and complex scratch in which
    ``_step_block`` builds the factors (at d = 2, the embedding planes) and
    which is free for the caller once the block is stepped."""

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


# d -> the idle workspace, at the d of the call that ended last
_POOL: dict[int, _Workspace] = {}


def _two_level_operands(
    pair: HamiltonianPair, e: np.ndarray, dt: float, temps: np.ndarray, planes: np.ndarray
) -> None:
    """The 4 x 4 real step operands of the samples ``e`` at d = 2, written
    into the (16, n) float array ``planes``, from the 2 x 2 Cayley factors
    C_n = (I + L_n)^{-1} (I - L_n) in closed form; ``temps``, (8, n)
    floats, holds A_n and the per-step scalars.  Plane 8 j + 4 r + 2 c + s
    holds entry (2 j + r, 2 c + s) of every operand, the embedding of C_n^T
    in which entry z = C_n[c, j] is the block [[Re z, Im z], [-Im z, Re z]].

    With A_n = (dt/2)(H0 + E_n H1) real, L_n = i A_n and det(I + L_n) =
    x + i y, x = 1 - det A_n, y = tr A_n, the adjugate gives

        C = I + q (L + det(L) I),    q = -2 / (x + i y) = v - i u,

    with v = m x, u = m y and m = -2 / (x^2 + y^2): entry (j, k != j) is
    a_jk (u + i v), and entry (j, j) is 1 + (a_jj u - det(A) v) + i (a_jj v
    + det(A) u).  C - I is formed without rounding I + L_n, so a factor
    near I keeps the low bits of A_n (LAPACK's solve is off by a few ulps).
    Every entry is taken as it is, since H0 and H1 are symmetric only to
    ``SYMMETRY_TOL``.  Each op is a real ufunc over whole planes, so step n
    gets the same bits in any block, alone or not.  An op spans several
    planes only where every operand is a run of whole planes (or they
    share one layout): numpy copies a broadcast or differently strided
    operand into a buffer.  Re and Im are written once, into the rows
    r = 0, and copied and negated into the rows r = 1.  x^2 would overflow
    for entries of A_n near 2**256: ``_validated_inputs`` keeps them below
    2**250."""
    n = e.size
    # A_n's entries (0, 0), (0, 1), (1, 1), (1, 0), one plane each
    a = temps[:4]
    a00, a01, a11, a10 = a
    t0, t1, t2, t3 = temps[4:]
    for plane, (j, k) in zip(a, ((0, 0), (0, 1), (1, 1), (1, 0))):
        np.multiply(pair.h1[j, k], e, out=plane)
        np.add(pair.h0[j, k], plane, out=plane)
    np.multiply(0.5 * dt, a, out=a)
    # rows 12-15 of the planes are free until the end
    free = planes[12:14]
    # det A in t0, x in t1, y in t2, then m in t3, v = m x in t1, u = m y in t2
    np.multiply(a[:2], a[2:], out=temps[4:6])
    np.subtract(t0, t1, out=t0)
    np.subtract(1.0, t0, out=t1)
    np.add(a00, a11, out=t2)
    np.multiply(temps[5:7], temps[5:7], out=free)
    np.add(free[0], free[1], out=t3)
    np.divide(-2.0, t3, out=t3)
    np.multiply(t3, t1, out=t1)
    np.multiply(t3, t2, out=t2)
    u, v = t2, t1
    # det(A) v and det(A) u
    np.multiply(t0, v, out=free[0])
    np.multiply(t0, u, out=free[1])
    # Re C[c, j] in plane 8 j + 2 c, Im C[c, j] in the next one
    for a_jk, row in ((a10, 2), (a01, 8)):
        np.multiply(a_jk, u, out=planes[row])
        np.multiply(a_jk, v, out=planes[row + 1])
    for a_jj, row in ((a00, 0), (a11, 10)):
        np.multiply(a_jj, u, out=planes[row])
        np.subtract(planes[row], free[0], out=planes[row])
        np.multiply(a_jj, v, out=planes[row + 1])
        np.add(planes[row + 1], free[1], out=planes[row + 1])
    np.add(1.0, planes[::10], out=planes[::10])
    for half in planes.reshape(2, 2, 2, 2, n):
        np.copyto(half[1, :, 1], half[0, :, 0])
        np.negative(half[0, :, 1], out=half[1, :, 0])


def _step_block(ws: _Workspace, pair: HamiltonianPair, e: np.ndarray, dt: float) -> None:
    """Step the transposed state ``ws.states[0]`` over the block's samples
    ``e`` into ``ws.states[1 : e.size + 1]``, W_{n+1} = W_n C_n^T as one
    float64 product of real views each (see the module docstring).  The
    embeddings of C_n^T, whose 2 x 2 block (j, c) is [[Re, Im], [-Im, Re]]
    of C_n[c, j], are written ``EMBED_SLICE`` steps at a time into
    ``ws.embedded``, the products into ``ws.slab``, then copied into
    ``ws.states``.

    At d = 2 the embeddings are built in closed form as 16 float planes in
    ``ws.scratch`` (``_two_level_operands``, with A_n and its temporaries in
    the states not yet stepped), and one transposing copy per slice lays a
    slice of them out step by step.  At every other d, the generator H0 +
    E_n H1 is summed in the second half of the scratch, read as floats, L_n
    formed from that sum in the first half, then I - L_n in the second and
    I + L_n in the first, and one batched LAPACK solve returns the factors,
    which three strided copies per slice embed."""
    n = e.size
    if pair.dim == 2:
        planes = ws.scratch.reshape(-1).view(float)[: 16 * n].reshape(16, n)
        temps = ws.states[1 : n + 1].view(float).reshape(8, n)
        _two_level_operands(pair, e, dt, temps, planes)
    else:
        planes = None
        plus, minus = ws.scratch[:, :n]
        eye = np.eye(pair.dim)
        # H0 + E_n H1 in the first half of the I - L_n scratch read as
        # floats: contiguous, where minus.real would be strided
        gen = minus.view(float).reshape(-1)[: minus.size].reshape(minus.shape)
        np.multiply(e[:, None, None], pair.h1, out=gen)
        np.add(pair.h0, gen, out=gen)
        np.multiply(0.5j * dt, gen, out=plus)
        np.subtract(eye, plus, out=minus)
        np.add(eye, plus, out=plus)
        factors_t = np.linalg.solve(plus, minus).transpose(0, 2, 1)
    w_n = ws.states.view(float)[0]
    # np.dot's C routine, unbound and with a positional out: without numpy's
    # __array_function__ dispatch, a bound method and a keyword, which are a
    # measurable share of a d = 2 step
    dot = np.ndarray.dot
    for start in range(0, n, EMBED_SLICE):
        k = min(EMBED_SLICE, n - start)
        b = ws.embedded[:k]
        if planes is not None:
            np.copyto(b.reshape(k, 16), planes[:, start : start + k].T)
        else:
            # row 2j holds (Re, Im) of C_n[c, j], written as complex
            # numbers; row 2j + 1 holds (-Im, Re), taken from row 2j
            b.view(complex)[:, :, 0, :, 0] = factors_t[start : start + k]
            np.negative(b[:, :, 0, :, 1], out=b[:, :, 1, :, 0])
            b[:, :, 1, :, 1] = b[:, :, 0, :, 0]
        for b_n, dst in zip(ws.embed_views[:k], ws.slab_views):
            w_n = dot(w_n, b_n, dst)
        ws.states[start + 1 : start + 1 + k] = ws.slab[:k]


def _cayley_blocks(u: np.ndarray, pair: HamiltonianPair, samples: np.ndarray, dt: float):
    """Cayley steps from U = ``u`` over ``samples``, block by block: the
    package's only stepping loop.

    Blocks hold at most ``GRAM_CHUNK`` samples and are stepped in time order
    into the states buffer of a workspace taken from the pool for the
    call's dimension (built if the pool has none, or only one for smaller
    blocks) and put back, alone, when the generator ends.  Yields ``(E
    block, states, scratch)`` with ``states[n]`` the transpose W_n = U_n^T
    (``states[0]`` the block's starting state) and ``states[n + 1] =
    states[n] C_n^T``, and ``scratch`` two complex arrays shaped like
    ``states[1:]`` that the caller may overwrite.  Both are overwritten by
    the next block and belong to another call once the generator ends, so a
    caller copies what it keeps inside its loop."""
    global _POOL
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
        # one binding, so the pool never holds two workspaces, in threads too
        _POOL = {d: ws}


def _validated_inputs(u_0, pair: HamiltonianPair, samples, grid: TimeGrid):
    """(U_0, samples) after the checks every propagation entry point makes:
    a unitary U_0 of the pair's dimension, and real, finite samples of the
    grid's length whose generator (dt/2)(H0 + E_n H1) has no entry at or
    above 2**250, where the d = 2 closed form overflows: one rule at every
    d.  The bound is taken in Python floats, which overflow to inf (refused
    too) without a warning."""
    u_0 = require_unitary(u_0, "initial operator")
    if u_0.shape != (pair.dim, pair.dim):
        raise ValueError("initial operator dimension does not match the pair")
    samples = require_real_array(samples, "field samples")
    if samples.shape != (grid.n_steps,):
        raise ValueError(
            f"field has {samples.shape} samples, grid has {grid.n_steps} steps"
        )
    # max and min are NaN or inf exactly when a sample is, so the two
    # reductions of the bound also give the finiteness verdict
    e_hi, e_lo = float(samples.max()), float(samples.min())
    if not (math.isfinite(e_hi) and math.isfinite(e_lo)):
        raise ValueError("field samples has non-finite entries")
    h0_max, h1_max = pair._entry_max
    if not 0.5 * float(grid.dt) * (h0_max + max(e_hi, -e_lo) * h1_max) < _GENERATOR_LIMIT:
        raise ValueError(
            "the time step, field samples, h0 and h1 overflow the generator "
            "(dt/2)(H0 + E_n H1): 0.5 |dt| (max|H0| + max|E_n| max|H1|) is not below 2**249"
        )
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
    are formed in ``scratch``, the block's two free complex arrays.  For
    G1 the midpoints are scaled by E_n in place through their float view:
    a complex-by-real multiply would cast the samples into a buffer."""
    wbar, wbar_c = scratch
    np.add(states_block[1:], states_block[:-1], out=wbar)
    np.multiply(0.5, wbar, out=wbar)
    p = wbar.reshape(e_block.shape[0], -1)
    pc = np.conjugate(p, out=wbar_c.reshape(p.shape))
    g0 += p.T @ pc
    p_floats = p.view(float)
    np.multiply(p_floats, e_block[:, None], out=p_floats)
    g1 += p.T @ pc


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
    product.  :func:`hamid.newton.reduce_system` gathers the Newton system
    from these.
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
