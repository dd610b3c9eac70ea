import sys
import threading
import time
import tracemalloc
import warnings

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
    newton_identify,
    propagate,
    propagate_final,
    propagate_with_gram,
    sample_field,
    spec_norm,
    two_level_model,
    unitary_exp,
)
from hamid.linalg import SYMMETRY_TOL, unitarity_defect
from hamid.models import TWO_LEVEL_DEFAULT_STEPS
from hamid import propagation
from hamid.propagation import GRAM_CHUNK

from helpers import (
    cayley_loop_reference,
    haar_unitary,
    random_direction,
    random_pair,
    vec_midpoint_products,
)


def zero_pair(d):
    return HamiltonianPair(np.zeros((d, d)), np.zeros((d, d)))


def test_cn_step_free_evolution(rng):
    u = np.eye(3, dtype=complex)
    out = cn_step(u, zero_pair(3), 0.7, 0.1)
    np.testing.assert_allclose(out, u, atol=1e-15)


def test_cn_step_diagonal_cayley():
    h = np.diag([0.4, -1.3, 2.2])
    dt = 0.37
    out = cn_step(np.eye(3, dtype=complex), HamiltonianPair(h, np.zeros((3, 3))), 0.0, dt)
    expected = np.diag((1 - 0.5j * np.diag(h) * dt) / (1 + 0.5j * np.diag(h) * dt))
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_cn_step_unitary(rng):
    pair = random_pair(4, rng)
    u = np.eye(4, dtype=complex)
    out = cn_step(u, pair, 0.3, 0.05)
    assert spec_norm(out.conj().T @ out - np.eye(4)) < 1e-13


def test_propagate_zero_hamiltonian():
    grid = TimeGrid(t_f=1.0, n_steps=8)
    states = propagate(np.eye(2, dtype=complex), zero_pair(2), np.zeros(8), grid)
    assert states.shape == (9, 2, 2) and states.dtype == complex and states.flags.c_contiguous
    for state in states:
        np.testing.assert_allclose(state, np.eye(2), atol=1e-15)


def test_propagate_pi_pulse_inversion():
    # resonant pi-area pulse, negligible detuning: full population transfer
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, TWO_LEVEL_DEFAULT_STEPS)
    states = propagate(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    assert abs(states[-1][1, 0]) ** 2 >= 0.999


def test_fast_path_matches_loop(rng):
    # a constant generator takes the same stepping kernel as a time-dependent
    # one; compare with an explicit step loop on the same samples
    pair = random_pair(3, rng)
    grid = TimeGrid(t_f=2.0, n_steps=50)
    samples = np.full(50, 0.8)
    states = propagate(np.eye(3, dtype=complex), pair, samples, grid)
    u = np.eye(3, dtype=complex)
    for e in samples:
        u = cn_step(u, pair, e, grid.dt)
    np.testing.assert_allclose(states[-1], u, atol=1e-12)
    np.testing.assert_allclose(
        propagate_final(np.eye(3, dtype=complex), pair, samples, grid), u, atol=1e-12
    )


# the kernel-equivalence test's step: a power of two, so every grid of
# n * KERNEL_DT has dt == KERNEL_DT exactly
KERNEL_DT = 2.0**-10
KERNEL_LENGTHS = (1, GRAM_CHUNK, GRAM_CHUNK + 1, 2 * GRAM_CHUNK + 123)


@pytest.fixture(scope="module")
def cn_step_loops():
    # (pair, samples, U_0..U_N from a loop of cn_step calls) for each case,
    # over the longest N; every N is checked against the loop's prefix.
    # d = 1 is the real embedding's 2 x 2 edge case, and a constant
    # generator (H1 = 0) must take the same steps too
    rng = np.random.default_rng(20240901)
    n = max(KERNEL_LENGTHS)
    cases = []
    for d in (1, 2, 3):
        pair = random_pair(d, rng)
        for case in (pair, HamiltonianPair(pair.h0, np.zeros((d, d)))):
            samples = rng.normal(size=n)
            loop = [np.eye(d, dtype=complex)]
            for e in samples:
                loop.append(cn_step(loop[-1], case, e, KERNEL_DT))
            cases.append((case, samples, loop))
    return cases


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_entry_points_share_one_kernel(n, cn_step_loops):
    # every entry point takes the same steps in the same order as a loop of
    # cn_step calls, so U_N agrees bit for bit; each N leaves a different
    # last block in the reused step buffer
    grid = TimeGrid(t_f=n * KERNEL_DT, n_steps=n)
    assert grid.dt == KERNEL_DT
    for case, samples, loop in cn_step_loops:
        u_0 = loop[0]
        finals = [
            propagate(u_0, case, samples[:n], grid)[-1],
            propagate_final(u_0, case, samples[:n], grid),
            propagate_with_gram(u_0, case, samples[:n], grid)[0],
        ]
        for final in finals:
            assert np.array_equal(final, loop[n])


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
        cn_step(u0, pair, 0.3, 0.1),
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
    states = propagate(np.eye(d, dtype=complex), pair, rng.normal(size=n), grid)
    assert max_unitarity_drift(states) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_complex_loop_property(d, n, seed):
    # the kernel's real-embedded float64 products against the complex loop,
    # on the same factors except at d = 2, where the kernel's closed-form
    # factors differ from LAPACK's in their last bits too, so the gap may
    # grow with N, by round-off only
    rng = np.random.default_rng(seed)
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=float(rng.uniform(0.1, 10.0)), n_steps=n)
    u_0 = haar_unitary(d, rng)
    samples = rng.normal(size=n)
    u_n = propagate_final(u_0, pair, samples, grid)
    assert spec_norm(u_n - cayley_loop_reference(u_0, pair, samples, grid.dt)) <= 1e-14 * n


def _two_level_factor(pair, e, dt):
    """(the kernel's factor C from one ``cn_step`` of I, A = (dt/2)(H0 + E
    H1) by the kernel's own ops, LAPACK's (I + iA)^{-1} (I - iA), and the
    bound on C's distance from any reference)."""
    a = 0.5 * dt * (pair.h0 + e * pair.h1)
    eye = np.eye(2)
    factor = cn_step(eye, pair, e, dt)
    # rounding errors of the closed form, of LAPACK and of eigh each grow
    # like eps ||A||: through det A, or the condition of I + iA
    bound = 32 * np.finfo(float).eps * (1.0 + spec_norm(a))
    return factor, a, np.linalg.solve(eye + 1j * a, eye - 1j * a), bound


def _eigh_cayley(a):
    """(I + iA)^{-1} (I - iA) for a real symmetric A, from its eigenpairs."""
    w, v = np.linalg.eigh(a)
    return (v * ((1.0 - 1j * w) / (1.0 + 1j * w))) @ v.T


@settings(max_examples=200, deadline=None)
@given(
    log_norm=st.floats(min_value=-8.0, max_value=6.0),
    e=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_level_factor_property(log_norm, e, seed):
    # the closed-form d = 2 factor against LAPACK's solve and an eigh-built
    # Cayley map, for ||(dt/2)(H0 + E H1)|| from 1e-8 to 1e6
    pair = random_pair(2, np.random.default_rng(seed))
    h_norm = spec_norm(pair.h0 + e * pair.h1)
    assume(h_norm > 0.0)
    factor, a, lapack, bound = _two_level_factor(pair, e, 2.0 * 10.0**log_norm / h_norm)
    assert spec_norm(factor - lapack) <= bound
    assert spec_norm(factor - _eigh_cayley(a)) <= bound
    assert unitarity_defect(factor) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    log_norm=st.floats(min_value=0.0, max_value=8.0),
    log_rest=st.floats(min_value=-8.0, max_value=0.0),
    angle=st.floats(min_value=0.0, max_value=np.pi),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_level_factor_near_rank_one_property(log_norm, log_rest, angle, seed):
    # H0 = s v v^T + a unit-scale rest, up to s = 1e8: det A cancels to
    # about 1/s of its terms, so every method loses about eps s
    rng = np.random.default_rng(seed)
    v = np.array([np.cos(angle), np.sin(angle)])
    rest = random_pair(2, rng).h0
    rest *= 10.0**log_rest / spec_norm(rest)
    pair = HamiltonianPair(10.0**log_norm * np.outer(v, v) + rest, np.zeros((2, 2)))
    factor, a, lapack, bound = _two_level_factor(pair, 0.0, 2.0)
    assert spec_norm(factor - lapack) <= bound
    assert spec_norm(factor - _eigh_cayley(a)) <= bound
    assert unitarity_defect(factor) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    norm=st.floats(min_value=0.1, max_value=1.0),
    skew=st.floats(min_value=0.2, max_value=0.45),
    e=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_two_level_factor_non_symmetric_property(norm, skew, e, seed):
    # H0 symmetric only to SYMMETRY_TOL: the factor uses both off-diagonal
    # entries as they are, so it matches LAPACK on the same A, and not the
    # factor of A's symmetric part (which lies far outside the bound)
    pair = random_pair(2, np.random.default_rng(seed))
    h_norm = spec_norm(pair.h0 + e * pair.h1)
    assume(h_norm > 0.0)
    skewed = pair.h0 / h_norm + skew * SYMMETRY_TOL * np.array([[0.0, 1.0], [-1.0, 0.0]])
    pair = HamiltonianPair(skewed, pair.h1 / h_norm)
    factor, a, lapack, bound = _two_level_factor(pair, e, 2.0 * norm)
    assert spec_norm(factor - lapack) <= bound
    symmetric = 0.5 * (a + a.T)
    eye = np.eye(2)
    assert spec_norm(factor - np.linalg.solve(eye + 1j * symmetric, eye - 1j * symmetric)) > 10 * bound


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
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    u_n, g0, g1 = propagate_with_gram(np.eye(d, dtype=complex), pair, samples, grid)
    np.testing.assert_allclose(u_n, states[-1], atol=1e-13)
    ubar = vec_midpoint_products(states)
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
    states = propagate(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    assert max_unitarity_drift(states) <= 1e-9


def test_unitarity_drift_random_12(rng):
    pair = random_pair(12, rng, scale=0.5)
    n = 4096
    grid = TimeGrid(t_f=40.0, n_steps=n)
    samples = rng.normal(size=n)
    states = propagate(np.eye(12, dtype=complex), pair, samples, grid)
    assert max_unitarity_drift(states) <= 1e-9


def test_time_reversal(rng):
    pair = random_pair(4, rng)
    n = 64
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = rng.normal(size=n)
    u = propagate(np.eye(4, dtype=complex), pair, samples, grid)[-1]
    for e in samples[::-1]:
        u = cn_step(u, pair, e, -grid.dt)
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
            cn_step(np.eye(2, dtype=complex), pair, e_n, dt)


_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAIR = HamiltonianPair(np.diag([0.3, -0.2]), _SX)
_GRID = TimeGrid(t_f=1.0, n_steps=4)
_COMPLEX_SAMPLES = np.array([0.1, 0.2 + 1e-3j, 0.3, 0.4])

# finite inputs whose generator (dt/2)(H0 + E_n H1) overflows: E_n H1 in the
# first, the dt/2 factor in the last
_HUGE_PAIR = HamiltonianPair(np.eye(2), 1e200 * _SX)
_HUGE_SAMPLES = np.full(10, 1e200)
_GRID_10 = TimeGrid(t_f=1.0, n_steps=10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: propagate_final(_I2, _HUGE_PAIR, _HUGE_SAMPLES, _GRID_10),
        lambda: propagate_with_gram(_I2, _HUGE_PAIR, _HUGE_SAMPLES, _GRID_10),
        lambda: propagate(_I2, _HUGE_PAIR, _HUGE_SAMPLES, _GRID_10),
        lambda: cn_step(_I2, _HUGE_PAIR, -1e200, 0.1),
        lambda: propagate_final(
            _I2, HamiltonianPair(np.diag([1e300, 0.0]), np.zeros((2, 2))), np.zeros(1), TimeGrid(1e10, 1)
        ),
    ],
    ids=["propagate-final", "propagate-with-gram", "propagate", "cn-step", "propagate-final-dt"],
)
def test_overflowing_generator_refused(call):
    # every step would be NaN, with only a RuntimeWarning; the bound itself
    # is taken in Python floats and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time step, field samples, h0 and h1 overflow"):
            call()


def test_two_level_huge_generator_stays_unitary():
    # finite inputs whose entries of (dt/2)(H0 + E_n H1) reach 1e198: a
    # product of two of them would overflow
    pair = HamiltonianPair(np.array([[1e200, 3e199], [3e199, -2e200]]), 1e199 * _SX)
    samples = np.linspace(-1.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_n = propagate_final(_I2, pair, samples, _GRID_10)
    assert np.all(np.isfinite(u_n))
    assert unitarity_defect(u_n) <= 1e-14
    reference = cayley_loop_reference(_I2, pair, samples, _GRID_10.dt)
    assert spec_norm(u_n - reference) <= 1e-13


def test_two_level_huge_and_unit_steps_in_one_block():
    # steps past the closed form's range take the solve, one by one, and the
    # others the closed form, so a block mixing them gives the bits of a
    # loop of cn_step calls
    pair = HamiltonianPair(np.diag([0.3, -0.2]), 1e199 * _SX)
    samples = np.tile([0.0, 1.0, 1e-199, -0.5], 5)
    grid = TimeGrid(t_f=1.0, n_steps=samples.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_n = propagate_final(_I2, pair, samples, grid)
        u = _I2
        for e in samples:
            u = cn_step(u, pair, e, grid.dt)
    assert np.array_equal(u_n, u)
    assert unitarity_defect(u_n) <= 1e-14


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: HamiltonianPair(np.array([[0, 1j], [-1j, 0]]), np.zeros((2, 2))), "h0"),
        (lambda: HamiltonianPair(np.eye(2), (1 + 1j) * _SX), "h1"),
        (lambda: propagate(_I2, _PAIR, _COMPLEX_SAMPLES, _GRID), "field samples"),
        (lambda: propagate_final(_I2, _PAIR, _COMPLEX_SAMPLES, _GRID), "field samples"),
        (lambda: propagate_with_gram(_I2, _PAIR, _COMPLEX_SAMPLES, _GRID), "field samples"),
        (lambda: newton_identify(_I2, _I2, _PAIR, _COMPLEX_SAMPLES, _GRID), "field samples"),
        (lambda: cn_step(_I2, _PAIR, 0.3 + 1j, 0.1), "field value and time step"),
        (lambda: cn_step(_I2, _PAIR, 0.3, 0.1 + 1e-9j), "field value and time step"),
    ],
    ids=[
        "pair-h0", "pair-h1", "propagate", "propagate-final", "propagate-with-gram", "newton",
        "cn-step-e", "cn-step-dt",
    ],
)
def test_complex_values_refused(call, name):
    # a float cast would keep the real part and drop the rest with only a
    # ComplexWarning: U_N of complex samples would be U_N of their real part
    with pytest.raises(ValueError, match=f"{name} must be real"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: HamiltonianPair([["a", "b"], ["c", "d"]], _SX), "h0"),
        (lambda: propagate_final(_I2, _PAIR, np.array(["a", "b", "c", "d"]), _GRID), "field samples"),
        (lambda: cn_step(_I2, _PAIR, "x", 0.1), "field value and time step"),
        (lambda: HamiltonianPair(_PAIR.h0, [["0", "1"], ["1", "0"]]), "h1"),
        (lambda: cn_step(_I2, _PAIR, 0.3, "0.1"), "field value and time step"),
        (lambda: cn_step(_I2, _PAIR, {}, 0.1), "field value and time step"),
    ],
    ids=["pair-h0", "propagate-final", "cn-step", "pair-h1-numeric-text", "cn-step-dt-numeric-text", "cn-step-dict"],
)
def test_non_numeric_values_refused(call, name):
    # the float cast's own error names the value but not the input, and it
    # reads numeric text as a number (a text dt then failed inside the step)
    with pytest.raises(ValueError, match=f"{name} must be real, got a value that is not a number"):
        call()


def test_complex_dtype_with_zero_imaginary_part_is_real():
    # the same bits as the real inputs, and no ComplexWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = HamiltonianPair(_PAIR.h0.astype(complex), _PAIR.h1.astype(complex))
        u_n = propagate_final(_I2, pair, _COMPLEX_SAMPLES.real.astype(complex), _GRID)
        step = cn_step(_I2, _PAIR, complex(0.3), 0.1)
    assert u_n.tobytes() == propagate_final(_I2, _PAIR, _COMPLEX_SAMPLES.real, _GRID).tobytes()
    assert step.tobytes() == cn_step(_I2, _PAIR, 0.3, 0.1).tobytes()


def test_propagate_peak_memory_is_the_trajectory():
    # the blocks' states go straight into the result, so the peak is the
    # trajectory plus at most one block's temporaries (a few arrays of
    # GRAM_CHUNK d x d matrices), not a second copy of the trajectory
    n, d = 2**16, 2
    grid = TimeGrid(t_f=10.0, n_steps=n)
    samples = np.sin(1e-3 * np.arange(n))
    propagate(_I2, _PAIR, samples[:8], TimeGrid(t_f=1.0, n_steps=8))  # lazy imports
    tracemalloc.start()
    try:
        states = propagate(_I2, _PAIR, samples, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = GRAM_CHUNK * d * d * np.dtype(complex).itemsize
    assert peak <= states.nbytes + 8 * block


def _every_entry_point(pair, samples, grid):
    u_0 = np.eye(pair.dim, dtype=complex)
    u_n, g0, g1 = propagate_with_gram(u_0, pair, samples, grid)
    return [
        u_n,
        g0,
        g1,
        propagate_final(u_0, pair, samples, grid),
        propagate(u_0, pair, samples, grid),
        cn_step(u_0, pair, samples[0], grid.dt),
    ]


def _pool_cases(rng, dims):
    # one, several and a partial last block, at each dimension; the block
    # sizes rise and fall, so a pooled workspace is grown and then reused
    return [
        (random_pair(d, rng), rng.normal(size=n), TimeGrid(t_f=2.0, n_steps=n))
        for d in dims
        for n in (1, 300, GRAM_CHUNK + 37, 5)
    ]


def test_threads_never_share_a_workspace(rng):
    # a running propagation holds its dimension's workspace out of the pool,
    # so threads switching every microsecond still get the serial bits
    cases = _pool_cases(rng, (2, 3))
    expected = [_every_entry_point(*case) for case in cases]
    mismatches, errors, calls = [], [], [0] * 8
    deadline = time.monotonic() + 2.0

    def worker(k):
        try:
            while time.monotonic() < deadline:
                case = (k + calls[k]) % len(cases)
                got = _every_entry_point(*cases[case])
                if not all(np.array_equal(a, b) for a, b in zip(got, expected[case])):
                    mismatches.append(case)
                calls[k] += 1
        except Exception as exc:  # a thread's exception would not fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches
    assert all(calls), calls


def test_pooled_buffers_carry_nothing_between_calls(rng):
    # every value a call reads from its workspace it wrote there first:
    # NaN in every pooled buffer between two calls changes no bit
    for case in _pool_cases(rng, (1, 2, 3)):
        first = _every_entry_point(*case)
        for ws in propagation._POOL.values():
            for name in ws.__slots__:
                if isinstance(getattr(ws, name), np.ndarray):
                    getattr(ws, name).fill(np.nan)
        second = _every_entry_point(*case)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


# (d, pair, bound on a warm call's peak in blocks): at d = 2 the factors are
# built in the pooled scratch, so no block-sized array is allocated; at
# d = 3 the batched solve returns one
_WARM_PAIR_3 = HamiltonianPair(np.diag([0.3, -0.2, 0.1]), np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1))


@pytest.mark.parametrize(
    "call, d, pair, bound",
    [
        (call, d, pair, bound)
        for d, pair, bound in ((2, _PAIR, 0.9), (3, _WARM_PAIR_3, 1.5))
        for call in (propagate_with_gram, propagate_final)
    ],
    ids=["propagate_with_gram", "propagate_final", "propagate_with_gram-d3", "propagate_final-d3"],
)
def test_warm_call_allocates_one_block(call, d, pair, bound):
    # with the dimension's workspace pooled, a call allocates at most the
    # factor solve's output
    n = 2 * GRAM_CHUNK + 100
    grid = TimeGrid(t_f=10.0, n_steps=n)
    samples = np.sin(1e-3 * np.arange(n))
    u_0 = np.eye(d, dtype=complex)
    call(u_0, pair, samples, grid)
    tracemalloc.start()
    try:
        call(u_0, pair, samples, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = GRAM_CHUNK * d * d * np.dtype(complex).itemsize
    assert peak <= bound * block
