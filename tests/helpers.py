"""Shared test utilities, the complex step loop reference for the stepping
kernel, the stored-trajectory reference for the streaming Jacobian path, the
Kronecker layout of the Jacobian blocks, the LU reference for the SVD step, the Schur reference for the unitary log, the
numpy.random reference for the seeded perturbations, and the
standalone-stage reference for the continuation walk."""
import numpy as np
import scipy.linalg

from hamid import (
    CONTINUATION_FAILED,
    CONTINUATION_OK,
    FLAG_CONVERGED,
    ContinuationReport,
    HamiltonianPair,
    decompose_target,
    intermediate_target,
    m0_seed,
    newton_identify,
    propagate_final,
    spec_norm,
)
from hamid.continuation import ContinuationStage
from hamid.linalg import _BRANCH_SNAP, require_square
from hamid.newton import expand_update


def unitarity_defect(u):
    """||U^dag U - I||_2 of a square matrix."""
    u = require_square(u)
    return spec_norm(u.conj().T @ u - np.eye(u.shape[0]))


def haar_unitary(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(d, rng, scale=1.0):
    h0 = rng.normal(size=(d, d)) * scale
    h0 = 0.5 * (h0 + h0.T)
    h1 = rng.normal(size=(d, d)) * scale
    h1 = 0.5 * (h1 + h1.T)
    np.fill_diagonal(h1, 0.0)
    return HamiltonianPair(h0, h1)


def random_direction(d, rng):
    """Symmetric dH0 and symmetric zero-diagonal dH1 with unit-scale entries."""
    dh0 = rng.uniform(-1, 1, size=(d, d))
    dh0 = 0.5 * (dh0 + dh0.T)
    dh1 = rng.uniform(-1, 1, size=(d, d))
    dh1 = 0.5 * (dh1 + dh1.T)
    np.fill_diagonal(dh1, 0.0)
    return dh0, dh1


def cayley_loop_reference(u_0, pair, samples, dt):
    """U_N by complex Cayley steps: the factors C_n = (I + L_n)^{-1} (I - L_n)
    from one batched solve, then U_{n+1} = C_n U_n as one complex matrix
    product each.  The reference the kernel must match to round-off: at
    d != 2 the factors are the kernel's, bit for bit, and only its
    real-embedded products differ; at d = 2, where the kernel takes the
    factors in closed form, it is an independent reference for both."""
    eye = np.eye(pair.dim)
    l = (0.5j * dt) * (pair.h0 + np.asarray(samples)[:, None, None] * pair.h1)
    u = np.array(u_0, dtype=complex)
    for c in np.linalg.solve(eye + l, eye - l):
        u = c.dot(u)
    return u


def midpoint_products(states):
    """Ubar_n = (U_{n+1} + U_n)/2 for every step of stored states U_0..U_N."""
    return 0.5 * (states[1:] + states[:-1])


def vec_midpoint_products(states):
    """vec(Ubar_n), the column-major flattening, one row per step."""
    ubar = midpoint_products(states)
    return ubar.swapaxes(1, 2).reshape(ubar.shape[0], -1)


def assemble_grams(states, samples):
    """G0 = sum_n vec(Ubar_n) vec(Ubar_n)^dag and G1 the field-weighted sum,
    over stored states U_0..U_N: the reference the streaming Gram sums must
    match."""
    samples = np.asarray(samples, dtype=float)
    n = states.shape[0] - 1
    if samples.shape != (n,):
        raise ValueError("field length does not match the states")
    p = vec_midpoint_products(states)
    pc = p.conj()
    return p.T @ pc, (p.T * samples) @ pc


def grams_to_jacobians(g0, g1, dt):
    """The Kronecker Jacobian blocks dt sum_n Ubar_n^T kron Ubar_n^dag of
    streaming Gram sums, J[c*d+r, c'*d+r'] = dt G[c*d+c', r*d+r']: the
    (0, 2, 1, 3) axis permutation of G read as a d^4 tensor, which
    ``reduce_system`` gathers from G directly."""
    d2 = g0.shape[0]
    d = int(round(d2**0.5))
    return tuple(dt * g.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2) for g in (g0, g1))


def assemble_jacobian(states, samples, dt):
    """J0 = dt sum_n (Ubar^T kron Ubar^dag), J1 the field-weighted sum, from
    ``assemble_grams``."""
    return grams_to_jacobians(*assemble_grams(states, samples), dt)


def reduce_system_loop(j0, j1, s_k):
    """(matrix, rhs) of the reduced system built entry by entry: the loop
    reference the index-array reduction must match bit for bit."""
    d = s_k.shape[0]
    cols = []
    for block, include_diagonal in ((j0, True), (j1, False)):
        for p in range(d):
            for q in range(p if include_diagonal else p + 1, d):
                col = block[:, q * d + p].copy()
                if p != q:
                    col += block[:, p * d + q]
                cols.append(col)
    full = np.column_stack(cols)
    rows, rhs = [], []
    for i in range(d):
        for j in range(i, d):
            a = j * d + i  # vec index of matrix entry (i, j)
            rows.append(full[a].real)
            rhs.append(s_k[i, j].real)
            if i < j:
                rows.append(full[a].imag)
                rhs.append(s_k[i, j].imag)
    return np.array(rows), np.array(rhs)


def expand_update_loop(x, index_map, d):
    """(dH0, dH1) set entry by entry from the reduced unknowns."""
    dh0 = np.zeros((d, d))
    dh1 = np.zeros((d, d))
    for value, (which, i, j) in zip(x, index_map):
        target = dh0 if which == "h0" else dh1
        target[i, j] = value
        target[j, i] = value
    return dh0, dh1


def solve_update_lu(system):
    """(dH0, dH1) from a dense LU solve of a reduced system: the reference
    the SVD step must match."""
    x = scipy.linalg.solve(system.matrix, system.rhs)
    return expand_update(x, system.dim)


def unitary_log_schur(u):
    """Principal log of a unitary from a complex Schur decomposition, with
    the same branch snap as ``unitary_log``: the reference the numpy-only
    log must match."""
    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.angle(np.diag(t))
    phases = np.where(phases <= -np.pi + _BRANCH_SNAP, np.pi, phases)
    m = (q * (1j * phases)) @ q.conj().T
    return 0.5 * (m - m.conj().T)


def perturb_pair_numpy(pair, spec):
    """``perturb_pair`` with its draws from ``np.random.default_rng``: the
    reference the integer PCG64 stream must match bit for bit."""
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


def continuation_walk_reference(u_0, u_tar, samples, grid, cfg, truth=None):
    """(final pair, report) of ``continuation_identify`` walked without any
    hand-off: every stage is a standalone ``newton_identify`` from the
    previous stage's pair, and its dev_U_stage comes from one more
    ``propagate_final`` at the stage's final pair.  The reference the
    hand-off walk must match bit for bit."""
    n_c = cfg.n_intermediate
    dec = decompose_target(u_tar)
    pair = m0_seed(dec, grid.t_f)
    report = ContinuationReport(stages=[], flag=CONTINUATION_OK)
    for m in range(n_c + 1):
        target_m = intermediate_target(dec, m, n_c)
        pair, newton_report = newton_identify(u_0, target_m, pair, samples, grid, cfg.newton)
        report.stages.append(
            ContinuationStage(
                m=m,
                newton_report=newton_report,
                dev_u_stage=spec_norm(target_m - propagate_final(u_0, pair, samples, grid)),
                dev_h0=spec_norm(truth.h0 - pair.h0) if truth is not None else None,
                dev_h1=spec_norm(truth.h1 - pair.h1) if truth is not None else None,
            )
        )
        if newton_report.flag != FLAG_CONVERGED:
            report.flag = CONTINUATION_FAILED
            report.failed_stage = m
            break
    return pair, report


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
