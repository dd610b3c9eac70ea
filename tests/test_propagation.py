import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hamid import (
    HamiltonianPair,
    TimeGrid,
    TwoLevelParams,
    cn_error_order,
    cn_step,
    grams_to_jacobians,
    propagate,
    propagate_final,
    propagate_with_gram,
    sample_field,
    spec_norm,
    two_level_model,
    unitary_exp,
)
from hamid.models import TWO_LEVEL_DEFAULT_STEPS
from hamid.propagation import GRAM_CHUNK

from helpers import midpoint_products, random_direction, random_pair


def zero_pair(d):
    return HamiltonianPair(np.zeros((d, d)), np.zeros((d, d)))


def test_cn_step_free_evolution(rng):
    u = np.eye(3, dtype=complex)
    out = cn_step(u, np.zeros((3, 3)), np.zeros((3, 3)), 0.7, 0.1)
    np.testing.assert_allclose(out, u, atol=1e-15)


def test_cn_step_diagonal_cayley():
    h = np.diag([0.4, -1.3, 2.2])
    dt = 0.37
    out = cn_step(np.eye(3, dtype=complex), h, np.zeros((3, 3)), 0.0, dt)
    expected = np.diag((1 - 0.5j * np.diag(h) * dt) / (1 + 0.5j * np.diag(h) * dt))
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_cn_step_unitary(rng):
    pair = random_pair(4, rng)
    u = np.eye(4, dtype=complex)
    out = cn_step(u, pair.h0, pair.h1, 0.3, 0.05)
    assert spec_norm(out.conj().T @ out - np.eye(4)) < 1e-13


def test_propagate_zero_hamiltonian():
    grid = TimeGrid(t_f=1.0, n_steps=8)
    traj = propagate(np.eye(2, dtype=complex), zero_pair(2), np.zeros(8), grid)
    assert traj.states.shape == (9, 2, 2)
    for state in traj.states:
        np.testing.assert_allclose(state, np.eye(2), atol=1e-15)


def test_propagate_pi_pulse_inversion():
    # resonant pi-area pulse, negligible detuning: full population transfer
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, TWO_LEVEL_DEFAULT_STEPS)
    traj = propagate(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    assert abs(traj.final()[1, 0]) ** 2 >= 0.999


def test_fast_path_matches_loop(rng):
    # a constant generator takes the same stepping kernel as a time-dependent
    # one; compare with an explicit step loop on the same samples
    pair = random_pair(3, rng)
    grid = TimeGrid(t_f=2.0, n_steps=50)
    samples = np.full(50, 0.8)
    traj = propagate(np.eye(3, dtype=complex), pair, samples, grid)
    u = np.eye(3, dtype=complex)
    for e in samples:
        u = cn_step(u, pair.h0, pair.h1, e, grid.dt)
    np.testing.assert_allclose(traj.final(), u, atol=1e-12)
    np.testing.assert_allclose(
        propagate_final(np.eye(3, dtype=complex), pair, samples, grid), u, atol=1e-12
    )


@pytest.mark.parametrize("n", [1, GRAM_CHUNK, GRAM_CHUNK + 1, 2 * GRAM_CHUNK + 123])
def test_entry_points_share_one_kernel(n, rng):
    # every entry point takes the same steps in the same order, so U_N agrees
    # bit for bit; each N leaves a different last block in the reused step
    # buffer, and a constant generator (H1 = 0) must take those same steps too
    d = 3
    grid = TimeGrid(t_f=5.0, n_steps=n)
    u_0 = np.eye(d, dtype=complex)
    pair = random_pair(d, rng)
    cases = [
        (pair, rng.normal(size=n)),
        (HamiltonianPair(pair.h0, np.zeros((d, d))), rng.normal(size=n)),
    ]
    for case, samples in cases:
        u = u_0
        for e in samples:
            u = cn_step(u, case.h0, case.h1, e, grid.dt)
        finals = [
            propagate(u_0, case, samples, grid).states[-1],
            propagate_final(u_0, case, samples, grid),
            propagate_with_gram(u_0, case, samples, grid)[0],
        ]
        for final in finals:
            assert np.array_equal(final, u)


def test_final_states_own_their_memory(rng):
    # the kernel writes into per-call step buffers; a returned U_N must be its
    # own array, not a view that keeps a 4096-step buffer alive
    pair = random_pair(2, rng)
    grid = TimeGrid(t_f=1.0, n_steps=GRAM_CHUNK + 5)
    samples = rng.normal(size=grid.n_steps)
    u0 = np.eye(2, dtype=complex)
    finals = [
        propagate_final(u0, pair, samples, grid),
        propagate_with_gram(u0, pair, samples, grid)[0],
        cn_step(u0, pair.h0, pair.h1, 0.3, 0.1),
    ]
    assert all(final.base is None for final in finals)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_unitary_property(d, n, seed):
    rng = np.random.default_rng(seed)
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=float(rng.uniform(0.1, 10.0)), n_steps=n)
    traj = propagate(np.eye(d, dtype=complex), pair, rng.normal(size=n), grid)
    assert max_unitarity_drift(traj.states) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    t_f=st.floats(min_value=0.5, max_value=3.0),
    e_value=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cn_error_order_property(d, t_f, e_value, seed):
    # generator scaled to unit norm: at 100 steps the phase error per step
    # is far above round-off and its dt^4 correction moves the ratio < 1e-3
    pair = random_pair(d, np.random.default_rng(seed))
    scale = spec_norm(pair.h0 + e_value * pair.h1)
    assume(scale > 0.0)
    pair = HamiltonianPair(pair.h0 / scale, pair.h1 / scale)
    assert abs(cn_error_order(pair, e_value, t_f, n_steps=100) - 4.0) <= 0.01


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=64),
    t_f=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streaming_jacobian_fd_property(d, n, t_f, seed):
    # i U_N^dag dU_N along a unit symmetric direction, by central differences
    # of propagate_final, matches the Jacobian built from the streaming Gram
    # sums (the criterion-2 tolerance)
    rng = np.random.default_rng(seed)
    pair = random_pair(d, rng)
    dh0, dh1 = random_direction(d, rng)
    norm = spec_norm(dh0) + spec_norm(dh1)
    assume(norm > 0.0)
    dh0, dh1 = dh0 / norm, dh1 / norm
    grid = TimeGrid(t_f=t_f, n_steps=n)
    samples = rng.normal(size=n)
    u0 = np.eye(d, dtype=complex)
    u_n, g0, g1 = propagate_with_gram(u0, pair, samples, grid)
    j0, j1 = grams_to_jacobians(g0, g1, grid.dt)
    x_j = (j0 @ dh0.reshape(-1, order="F") + j1 @ dh1.reshape(-1, order="F")).reshape(
        d, d, order="F"
    )
    eps = 1e-6
    up = propagate_final(u0, pair.shifted(eps * dh0, eps * dh1), samples, grid)
    um = propagate_final(u0, pair.shifted(-eps * dh0, -eps * dh1), samples, grid)
    x_fd = 1j * u_n.conj().T @ ((up - um) / (2 * eps))
    assert spec_norm(x_fd - x_j) <= 1e-6 * max(1.0, spec_norm(x_j))


def test_streaming_matches_stored(rng):
    d, n = 3, 257  # not a multiple of the chunk size
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.3, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    u_n, g0, g1 = propagate_with_gram(np.eye(d, dtype=complex), pair, samples, grid)
    np.testing.assert_allclose(u_n, traj.final(), atol=1e-13)
    ubar = midpoint_products(traj).reshape(n, -1)
    np.testing.assert_allclose(g0, ubar.T @ ubar.conj(), atol=1e-11)
    np.testing.assert_allclose(g1, (ubar.T * samples) @ ubar.conj(), atol=1e-11)


def max_unitarity_drift(states):
    d = states.shape[1]
    gram = np.einsum("nji,njk->nik", states.conj(), states) - np.eye(d)
    # Frobenius norm bounds the spectral norm from above
    return float(np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2))).max())


def test_unitarity_drift_two_level():
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, TWO_LEVEL_DEFAULT_STEPS)
    traj = propagate(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    assert max_unitarity_drift(traj.states) <= 1e-9


def test_unitarity_drift_random_12(rng):
    pair = random_pair(12, rng, scale=0.5)
    n = 4096
    grid = TimeGrid(t_f=40.0, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(12, dtype=complex), pair, samples, grid)
    assert max_unitarity_drift(traj.states) <= 1e-9


def test_time_reversal(rng):
    pair = random_pair(4, rng)
    n = 64
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(4, dtype=complex), pair, samples, grid)
    u = traj.final()
    for e in samples[::-1]:
        u = cn_step(u, pair.h0, pair.h1, e, -grid.dt)
    assert spec_norm(u - np.eye(4)) < 1e-10


def test_discrete_derivative_identity(rng):
    # propagating the pair system (U, dU) must reproduce the closed-form sum
    # U_N^dag dU_N = -i dt sum_n Ubar^dag (dH0 + E_n dH1) Ubar exactly
    for d, n in ((2, 16), (3, 9)):
        pair = random_pair(d, rng)
        dh0, dh1 = random_direction(d, rng)
        grid = TimeGrid(t_f=1.7, n_steps=n)
        samples = rng.normal(size=n)
        eye = np.eye(d)
        u = np.eye(d, dtype=complex)
        du = np.zeros((d, d), dtype=complex)
        rhs_sum = np.zeros((d, d), dtype=complex)
        for i in range(n):
            h = pair.h0 + samples[i] * pair.h1
            dh = dh0 + samples[i] * dh1
            l = 0.5j * grid.dt * h
            dl = 0.5j * grid.dt * dh
            u_next = np.linalg.solve(eye + l, (eye - l) @ u)
            du = np.linalg.solve(eye + l, (eye - l) @ du - dl @ (u_next + u))
            ubar = 0.5 * (u_next + u)
            rhs_sum += ubar.conj().T @ dh @ ubar
            u = u_next
        lhs = u.conj().T @ du
        np.testing.assert_allclose(lhs, -1j * grid.dt * rhs_sum, atol=1e-10)


def test_cn_error_order_degenerate_returns_nan():
    ratio = cn_error_order(zero_pair(2), 0.0, 1.0, n_steps=16)
    assert np.isnan(ratio)


def test_cn_error_order_second_order(rng):
    pair = random_pair(2, rng)
    assert 3.5 <= cn_error_order(pair, 0.0, 1.0, n_steps=100) <= 4.5
    assert 3.8 <= cn_error_order(pair, 0.0, 1.0, n_steps=400) <= 4.2


def test_exact_vs_cn_tiny_step(rng):
    pair = random_pair(3, rng)
    h = pair.h0 + 0.4 * pair.h1
    exact = unitary_exp(-1j * 0.5 * h)
    grid = TimeGrid(t_f=0.5, n_steps=20000)
    u = propagate_final(np.eye(3, dtype=complex), pair, np.full(20000, 0.4), grid)
    assert spec_norm(u - exact) < 1e-9


def test_dimension_validation(rng):
    pair = random_pair(2, rng)
    grid = TimeGrid(t_f=1.0, n_steps=4)
    for propagator in (propagate, propagate_final, propagate_with_gram):
        with pytest.raises(ValueError, match="does not match the pair"):
            propagator(np.eye(3, dtype=complex), pair, np.zeros(4), grid)
    with pytest.raises(ValueError):
        propagate(np.eye(2, dtype=complex), pair, np.zeros(5), grid)
    with pytest.raises(ValueError):
        HamiltonianPair(np.zeros((2, 2)), np.array([[0.0, 1.0], [1.1, 0.0]]))
    with pytest.raises(ValueError):
        HamiltonianPair(np.zeros((2, 2)), np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_non_finite_inputs_rejected(rng):
    # a NaN defect compares false against every tolerance, so it is checked apart
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianPair(bad, np.zeros((2, 2)))
    pair = random_pair(2, rng)
    grid = TimeGrid(t_f=1.0, n_steps=8)
    samples = np.zeros(8)
    samples[3] = np.nan
    for propagator in (propagate, propagate_final, propagate_with_gram):
        with pytest.raises(ValueError, match="non-finite"):
            propagator(np.eye(2, dtype=complex), pair, samples, grid)
    for t_f in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_f=t_f, n_steps=8)
    for e_n, dt in ((np.nan, 0.1), (0.3, np.nan), (0.3, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            cn_step(np.eye(2, dtype=complex), pair.h0, pair.h1, e_n, dt)
