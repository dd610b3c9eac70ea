import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import hamid.continuation
import hamid.newton
from hamid import (
    FLAG_CONVERGED,
    ContinuationConfig,
    HamiltonianPair,
    NewtonConfig,
    ReducedSystem,
    SingularJacobianError,
    TimeGrid,
    continuation_identify,
    hermitian_residual,
    newton_identify,
    propagate,
    propagate_final,
    propagate_with_gram,
    reduce_system,
    reduced_condition,
    solve_update,
    spec_norm,
    unknown_index_map,
)
from hamid.models import (
    PerturbationSpec,
    TwoLevelParams,
    perturb_pair,
    two_level_model,
)
from hamid.newton import Linearization, expand_update, linearize, system_diagnostic
from hamid.propagation import GRAM_CHUNK
from hamid.experiments import BENCH_TWO_LEVEL_DELTA, BENCH_TWO_LEVEL_SKEW, ExperimentConfig, run_experiment
from hamid.fields import sample_field

from helpers import (
    SIGMA_X,
    assemble_grams,
    assemble_jacobian,
    expand_update_loop,
    grams_to_jacobians,
    haar_unitary,
    midpoint_products,
    random_direction,
    random_pair,
    reduce_system_loop,
    run_python,
    solve_update_lu,
)


def vec_f(m):
    return m.reshape(-1, order="F")


def test_hermitian_residual_identity():
    u = np.eye(3, dtype=complex)
    np.testing.assert_allclose(hermitian_residual(u, u), 0.0, atol=1e-15)


def test_hermitian_residual_diagonal_phase():
    theta = 0.41
    u_tar = np.diag([np.exp(1j * theta), 1.0])
    s = hermitian_residual(np.eye(2, dtype=complex), u_tar)
    np.testing.assert_allclose(s, np.diag([-np.sin(theta), 0.0]), atol=1e-15)


def test_hermitian_residual_blind_to_hermitian_target():
    # sigma_x is Hermitian, so the Hermitized mismatch of U_N = I vanishes
    s = hermitian_residual(np.eye(2, dtype=complex), SIGMA_X.astype(complex))
    np.testing.assert_allclose(s, 0.0, atol=1e-15)


def test_hermitian_residual_is_hermitian(rng):
    # construction guarantees entrywise-exact Hermitian symmetry
    from helpers import haar_unitary

    for _ in range(5):
        s = hermitian_residual(haar_unitary(4, rng), haar_unitary(4, rng))
        np.testing.assert_array_equal(s, s.conj().T)


def test_jacobian_trivial_identity_states():
    # H0 = H1 = 0 keeps every state at the identity: J0 = t_f I, J1 = c t_f I
    d, n, c = 2, 6, 1.7
    pair = HamiltonianPair(np.zeros((d, d)), np.zeros((d, d)))
    grid = TimeGrid(t_f=3.0, n_steps=n)
    samples = np.full(n, c)
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(states, samples, grid.dt)
    np.testing.assert_allclose(j0, 3.0 * np.eye(d * d), atol=1e-13)
    np.testing.assert_allclose(j1, c * 3.0 * np.eye(d * d), atol=1e-13)


def test_jacobian_one_dimensional():
    pair = HamiltonianPair(np.zeros((1, 1)), np.zeros((1, 1)))
    grid = TimeGrid(t_f=1.0, n_steps=4)
    samples = np.zeros(4)
    states = propagate(np.eye(1, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(states, samples, grid.dt)
    np.testing.assert_allclose(j0, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(j1, [[0.0]], atol=1e-15)


def test_jacobian_matches_kron_oracle(rng):
    d, n = 3, 11
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=0.9, n_steps=n)
    samples = rng.normal(size=n)
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(states, samples, grid.dt)
    ubar = midpoint_products(states)
    j0_oracle = grid.dt * sum(np.kron(ubar[i].T, ubar[i].conj().T) for i in range(n))
    j1_oracle = grid.dt * sum(
        samples[i] * np.kron(ubar[i].T, ubar[i].conj().T) for i in range(n)
    )
    np.testing.assert_allclose(j0, j0_oracle, atol=1e-13)
    np.testing.assert_allclose(j1, j1_oracle, atol=1e-13)


def test_jacobian_finite_difference(rng):
    # central differences of the propagation against the assembled map
    for d, n in ((2, 4), (2, 16), (3, 4), (3, 16)):
        pair = random_pair(d, rng)
        grid = TimeGrid(t_f=1.1, n_steps=n)
        samples = rng.normal(size=n)
        u0 = np.eye(d, dtype=complex)
        states = propagate(u0, pair, samples, grid)
        j0, j1 = assemble_jacobian(states, samples, grid.dt)
        u_n = states[-1]
        for _ in range(5):
            dh0, dh1 = random_direction(d, rng)
            eps = 1e-6
            up = propagate_final(u0, pair.shifted(eps * dh0, eps * dh1), samples, grid)
            um = propagate_final(u0, pair.shifted(-eps * dh0, -eps * dh1), samples, grid)
            x_fd = 1j * u_n.conj().T @ ((up - um) / (2 * eps))
            x_j = (j0 @ vec_f(dh0) + j1 @ vec_f(dh1)).reshape(d, d, order="F")
            assert spec_norm(x_fd - x_j) <= 1e-6 * spec_norm(x_j)


def test_linearized_system_matches_stored_trajectory_oracle(rng):
    # the streaming builder against propagate + assemble_jacobian; N crosses
    # two Gram chunk boundaries.  Tolerance fixed from float64 round-off: the
    # Gram sums add N terms of unit size, so N * eps relative to the largest
    # entry bounds any reordering of the summation.
    d, n = 3, 2 * GRAM_CHUNK + 123
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.7, n_steps=n)
    samples = rng.normal(size=n)
    u0 = np.eye(d, dtype=complex)
    u_tar = haar_unitary(d, rng)
    lin = linearize(u0, pair, samples, grid)
    u_n, system = lin.u_n, lin.system(u_tar)
    states = propagate(u0, pair, samples, grid)
    oracle = reduce_system(*assemble_grams(states, samples), grid.dt, hermitian_residual(states[-1], u_tar))
    tol = n * np.finfo(float).eps
    np.testing.assert_allclose(u_n, states[-1], rtol=0, atol=tol)
    scale = np.max(np.abs(oracle.matrix))
    np.testing.assert_allclose(system.matrix, oracle.matrix, rtol=0, atol=tol * scale)
    np.testing.assert_allclose(system.rhs, oracle.rhs, rtol=0, atol=tol)
    assert system.matrix.shape == oracle.matrix.shape == (d * d, d * d)
    

def test_unknown_index_map_counts():
    for d in (2, 3, 12):
        index_map = unknown_index_map(d)
        assert len(index_map) == d * d
        n_h0 = sum(1 for which, _, _ in index_map if which == "h0")
        assert n_h0 == d * (d + 1) // 2


def test_reduce_system_shape_and_ordering():
    d = 2
    g0 = np.arange(16, dtype=complex).reshape(4, 4)
    g1 = 1j * np.arange(16, dtype=complex).reshape(4, 4)
    j0, _ = grams_to_jacobians(g0, g1, 1.0)
    s = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, -0.5]])
    system = reduce_system(g0, g1, 1.0, s)
    assert system.matrix.shape == (4, 4)
    assert system.matrix.dtype == float
    assert unknown_index_map(d) == (
        ("h0", 0, 0),
        ("h0", 0, 1),
        ("h0", 1, 1),
        ("h1", 0, 1),
    )
    # rows: Re(0,0), Re(0,1), Im(0,1), Re(1,1)
    np.testing.assert_allclose(system.rhs, [0.5, 0.25, 0.1, -0.5])
    # first column = merged H0 (0,0) column = J0[:, 0] picked at rows (0,0),(0,1),(1,1)
    np.testing.assert_allclose(
        system.matrix[:, 0],
        [j0[0, 0].real, j0[2, 0].real, j0[2, 0].imag, j0[3, 0].real],
    )
    # H0 (0,1) column merges vec entries (1,0) and (0,1): columns 1 and 2
    merged = j0[:, 1] + j0[:, 2]
    np.testing.assert_allclose(
        system.matrix[:, 1], [merged[0].real, merged[2].real, merged[2].imag, merged[3].real]
    )


def random_complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_reduction_matches_entry_loop(rng):
    # the index-array gathers from the Gram sums sum exactly the pairs the
    # entry loop sums over the Jacobian blocks, so matrix, rhs and the
    # expanded update agree byte for byte
    for d in range(1, 7):
        g0, g1 = random_complex((d * d, d * d), rng), random_complex((d * d, d * d), rng)
        s = random_complex((d, d), rng)
        dt = rng.uniform(1e-3, 1.0)
        system = reduce_system(g0, g1, dt, s)
        matrix, rhs = reduce_system_loop(*grams_to_jacobians(g0, g1, dt), s)
        assert system.matrix.tobytes() == matrix.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()
        x = rng.normal(size=d * d)
        dh0, dh1 = expand_update(x, d)
        loop0, loop1 = expand_update_loop(x, unknown_index_map(d), d)
        assert dh0.tobytes() == loop0.tobytes()
        assert dh1.tobytes() == loop1.tobytes()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reduce_expand_round_trip_property(d, seed):
    # the d^2 reduced unknowns and the symmetric updates (dH0, zero-diagonal
    # dH1) map one to one, and the reduced system is the complex map
    # restricted to them: M x reproduces the reduced form of J0 vec(dH0) +
    # J1 vec(dH1) for any blocks
    rng = np.random.default_rng(seed)
    dh0, dh1 = random_direction(d, rng)
    index_map = unknown_index_map(d)
    x = np.array([(dh0 if which == "h0" else dh1)[i, j] for which, i, j in index_map])
    up0, up1 = expand_update(x, d)
    assert np.array_equal(up0, dh0) and np.array_equal(up1, dh1)
    g0, g1 = random_complex((d * d, d * d), rng), random_complex((d * d, d * d), rng)
    j0, j1 = grams_to_jacobians(g0, g1, 0.3)
    s = (j0 @ vec_f(dh0) + j1 @ vec_f(dh1)).reshape(d, d, order="F")
    system = reduce_system(g0, g1, 0.3, s)
    assert system.matrix.shape == (d * d, len(index_map)) == (d * d, d * d)
    np.testing.assert_allclose(system.matrix @ x, system.rhs, rtol=0, atol=1e-12 * d * d)


def test_reduce_system_refuses_blocks_without_d_squared_rows():
    # 5 rows are no d * d; round(sqrt(5)) = 2 built a 4 x 4 system from the
    # first columns, without a word
    with pytest.raises(ValueError, match="must have d \\* d rows, got 5"):
        reduce_system(np.ones((5, 5)), np.ones((5, 5)), 1.0, np.zeros((2, 2)))


def test_reduce_system_takes_nested_lists(rng):
    # array-likes are read as arrays, as hermitian_residual reads them: the
    # same bytes, where nested lists ended in an AttributeError
    zeros = reduce_system(np.zeros((4, 4)), np.zeros((4, 4)), 1.0, [[0, 0], [0, 0]])
    assert not zeros.matrix.any() and not zeros.rhs.any()
    g0, g1 = random_complex((4, 4), rng), random_complex((4, 4), rng)
    s = hermitian_residual(haar_unitary(2, rng), haar_unitary(2, rng))
    arrays = reduce_system(g0, g1, 0.3, s)
    lists = reduce_system(g0.tolist(), g1.tolist(), 0.3, s.tolist())
    assert arrays.matrix.tobytes() == lists.matrix.tobytes()
    assert arrays.rhs.tobytes() == lists.rhs.tobytes()


@pytest.mark.parametrize(
    "matrix, rhs, shapes",
    [
        (np.eye(4)[:3], np.ones(3), r"matrix \(3, 4\) and right-hand side \(3,\)"),
        (np.eye(4), np.ones(3), r"matrix \(4, 4\) and right-hand side \(3,\)"),
        (np.zeros((4, 0)), np.zeros(4), r"matrix \(4, 0\) and right-hand side \(4,\)"),
        (np.ones(4), np.ones(4), r"matrix \(4,\) and right-hand side \(4,\)"),
        (np.eye(4), np.ones((4, 1)), r"matrix \(4, 4\) and right-hand side \(4, 1\)"),
    ],
    ids=["wide", "rhs-length", "no-columns", "matrix-1d", "rhs-2d"],
)
def test_reduced_system_refuses_malformed_shapes(matrix, rhs, shapes):
    # a wide matrix got a minimum-norm step with condition 1.0, and a
    # right-hand side of the wrong length ended in numpy's matmul error
    with pytest.raises(ValueError, match=shapes):
        ReducedSystem(matrix, rhs)


# an inf entry of M can keep LAPACK's SVD from returning (seen with numpy
# 2.4.6's OpenBLAS at M = I with M[0, 0] = inf), so the non-finite systems
# run in a child process with a timeout: a regression fails, not stalls
NON_FINITE_SCRIPT = """
import warnings
import numpy as np
from hamid import NewtonConfig, ReducedSystem, TimeGrid, TwoLevelParams, newton_identify
from hamid import propagate_final, reduced_condition, sample_field, solve_update, two_level_model
from hamid.experiments import BENCH_TWO_LEVEL_DELTA, BENCH_TWO_LEVEL_SKEW
from hamid.newton import Linearization, linearize, system_diagnostic

calls = {
    "solve_update": lambda system: solve_update(system, NewtonConfig()),
    "reduced_condition": reduced_condition,
    "system_diagnostic": system_diagnostic,
}
for bad in ("inf", "nan"):
    matrix = np.eye(4)
    matrix[0, 0] = float(bad)
    for name, call in calls.items():
        try:
            call(ReducedSystem(matrix, np.ones(4)))
            print(bad, name, "returned")
        except np.linalg.LinAlgError as err:
            print(bad, name, "LinAlgError:", err)

p = TwoLevelParams(delta=BENCH_TWO_LEVEL_DELTA, envelope_skew=BENCH_TWO_LEVEL_SKEW)
pair, fld = two_level_model(p)
grid = TimeGrid(p.t_f, 200)
samples = sample_field(fld, grid)
u_0 = np.eye(2, dtype=complex)
lin = linearize(u_0, pair, samples, grid)
g0 = lin.g0.copy()
g0[0, 0] = np.inf
guess = Linearization(lin.pair, lin.u_n, g0, lin.g1, lin.dt)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    _, report = newton_identify(u_0, propagate_final(u_0, pair, samples, grid), guess, samples, grid)
print("newton", report.flag, report.failed_iteration, report.failure_condition, report.n_iterations)
print("warnings", sorted({str(w.message) for w in caught}))
"""


def test_non_finite_systems_refused_without_hanging():
    # LinAlgError before LAPACK, so a solve flags singular_jacobian with no
    # condition estimate, as for an SVD that does not converge; the complex
    # inf * 0 of reduce_system's scaling warns "invalid value"
    lines = run_python("-c", NON_FINITE_SCRIPT, timeout=60).splitlines()
    refused = "LinAlgError: reduced Newton system matrix has non-finite entries"
    assert lines[:6] == [
        f"{bad} {name} {refused}"
        for bad in ("inf", "nan")
        for name in ("solve_update", "reduced_condition", "system_diagnostic")
    ]
    assert lines[6] == "newton singular_jacobian 1 None 0"
    assert lines[7] == "warnings ['invalid value encountered in multiply']"


def test_reduce_identity_states_is_singular():
    # all-identity midpoint products keep every row real, so the imaginary
    # row vanishes and the system cannot be solved
    d, n = 2, 5
    pair = HamiltonianPair(np.zeros((d, d)), np.zeros((d, d)))
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = np.full(n, 0.3)
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    system = reduce_system(*assemble_grams(states, samples), grid.dt, np.zeros((2, 2), dtype=complex))
    assert not np.isfinite(reduced_condition(system)) or reduced_condition(system) > 1e12
    with pytest.raises(SingularJacobianError):
        solve_update(system, NewtonConfig())


def test_singular_error_names_threshold_not_estimate():
    # the estimate of a singular system is round-off, so the message (which
    # diagnostic.json and demo 05 print) carries only the threshold
    system = ReducedSystem(matrix=np.diag([1.0, 1.0, 1.0, 1e-14]), rhs=np.ones(4))
    with pytest.raises(SingularJacobianError) as info:
        solve_update(system, NewtonConfig(singular_cond_threshold=1e12))
    err = info.value
    assert err.condition == reduced_condition(system) and err.threshold == 1e12
    assert "1.000e+12" in str(err)
    assert f"{err.condition:.3e}" not in str(err)


def test_solve_update_identity_system():
    system = ReducedSystem(matrix=np.eye(4), rhs=np.array([1.0, 0.0, 0.0, 0.0]))
    dh0, dh1 = expand_update(solve_update(system, NewtonConfig()), 2)
    np.testing.assert_allclose(dh0, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(dh1, 0.0)


def test_solve_update_stacked_system():
    # a stacked K d^2 x d^2 system solves like a square one: here two copies
    # of the identity at d = 2, whose step sets every unknown to 1
    system = ReducedSystem(np.vstack([np.eye(4), np.eye(4)]), np.ones(8))
    x = solve_update(system, NewtonConfig())
    assert x.shape == (4,)  # one entry per column, not per row
    dh0, dh1 = expand_update(x, 2)
    np.testing.assert_array_equal(dh0, np.ones((2, 2)))
    np.testing.assert_array_equal(dh1, [[0.0, 1.0], [1.0, 0.0]])


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_copies_give_the_same_step_property(d, k, seed):
    # K copies of a system have its exact solution and its rank, and both
    # solves are backward stable; the bound is the one of
    # test_svd_step_matches_lu_reference
    rng = np.random.default_rng(seed)
    n = 40
    grid = TimeGrid(t_f=1.3, n_steps=n)
    system = linearize(
        np.eye(d, dtype=complex), random_pair(d, rng), rng.uniform(-1.0, 1.0, size=n), grid
    ).system(haar_unitary(d, rng))
    stacked = ReducedSystem(np.vstack([system.matrix] * k), np.concatenate([system.rhs] * k))
    assert stacked.matrix.shape == (k * d * d, d * d)
    assert system_diagnostic(stacked).numerical_rank >= system_diagnostic(system).numerical_rank
    cfg = NewtonConfig()
    if not system.condition <= cfg.singular_cond_threshold:
        return
    ref0, ref1 = expand_update(solve_update(system, cfg), d)
    dh0, dh1 = expand_update(solve_update(stacked, cfg), d)
    size = spec_norm(ref0) + spec_norm(ref1)
    err = spec_norm(dh0 - ref0) + spec_norm(dh1 - ref1)
    assert err <= 1e-13 * system.condition * max(1.0, size)


def test_solve_update_zero_rhs(rng):
    d, n = 2, 8
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = rng.normal(size=n)
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    system = reduce_system(*assemble_grams(states, samples), grid.dt, np.zeros((d, d), dtype=complex))
    dh0, dh1 = expand_update(solve_update(system, NewtonConfig()), d)
    assert spec_norm(dh0) < 1e-12 and spec_norm(dh1) < 1e-12


def test_reduction_consistency(rng):
    # a reduced solution substituted back into the complex system reproduces
    # the Hermitian right-hand side: nothing is lost for Hermitian rhs
    from helpers import haar_unitary

    d, n = 3, 12
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.4, n_steps=n)
    samples = rng.normal(size=n)
    states = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    g0, g1 = assemble_grams(states, samples)
    j0, j1 = grams_to_jacobians(g0, g1, grid.dt)
    u_tar = haar_unitary(d, rng)
    s = hermitian_residual(states[-1], u_tar)
    system = reduce_system(g0, g1, grid.dt, s)
    dh0, dh1 = expand_update(solve_update(system, NewtonConfig(singular_cond_threshold=1e14)), d)
    lhs = (j0 @ vec_f(dh0) + j1 @ vec_f(dh1)).reshape(d, d, order="F")
    assert spec_norm(lhs - s) <= 1e-10 * max(1.0, spec_norm(s))


def test_svd_step_matches_lu_reference(rng):
    # both solves are backward stable, so each lies within about n eps cond
    # of the exact step (n = d^2 <= 16 unknowns); the bound 1e-13 cond |x|,
    # fixed before the first run, leaves a margin of ~25 over n eps
    n = 40
    grid = TimeGrid(t_f=1.3, n_steps=n)
    for d in range(1, 5):
        for _ in range(5):
            pair = random_pair(d, rng)
            samples = rng.uniform(-1.0, 1.0, size=n)
            u_tar = haar_unitary(d, rng)
            system = linearize(np.eye(d, dtype=complex), pair, samples, grid).system(u_tar)
            dh0, dh1 = expand_update(solve_update(system, NewtonConfig()), d)  # raises unless full rank
            ref0, ref1 = expand_update(solve_update_lu(system), d)
            size = spec_norm(ref0) + spec_norm(ref1)
            err = spec_norm(dh0 - ref0) + spec_norm(dh1 - ref1)
            assert err <= 1e-13 * reduced_condition(system) * max(1.0, size)


def test_svd_step_accurate_on_column_scaled_systems(rng):
    # M = M0 D with cond(M0) = 10 and column scales D from 1e-6 to 1e4, as
    # in the double-well systems; an LU solve is blind to column scaling, so
    # the step must be too: error below 1e-12 in the scaled unknowns D x
    # (bound fixed before the first run), for the LU reference as well
    for d in range(2, 5):
        n = d * d
        q1, q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
        m0 = (q1 * np.linspace(1.0, 10.0, n)) @ q2.T
        scales = np.logspace(-6, 4, n)[rng.permutation(n)]
        y = rng.normal(size=n)
        y /= np.linalg.norm(y)
        system = ReducedSystem(matrix=m0 * scales, rhs=m0 @ y)
        cfg = NewtonConfig(singular_cond_threshold=1e15)
        for x in (solve_update(system, cfg), solve_update_lu(system)):
            assert np.linalg.norm(scales * x - y) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=8, max_value=64),
    t_f=st.floats(min_value=0.5, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zero_update_at_truth_property(d, n, t_f, seed):
    # at the truth the Hermitized mismatch is round-off, so the Newton step
    # is too: below 1e-10 in spectral norm (bound fixed before the first run)
    rng = np.random.default_rng(seed)
    truth = random_pair(d, rng)
    grid = TimeGrid(t_f=t_f, n_steps=n)
    samples = rng.uniform(-1.0, 1.0, size=n)
    u_0 = haar_unitary(d, rng)
    u_tar = propagate_final(u_0, truth, samples, grid)
    system = linearize(u_0, truth, samples, grid).system(u_tar)
    dh0, dh1 = expand_update(solve_update(system, NewtonConfig()), d)
    assert spec_norm(dh0) + spec_norm(dh1) <= 1e-10


def _benchmark_two_level():
    p = TwoLevelParams(delta=BENCH_TWO_LEVEL_DELTA, envelope_skew=BENCH_TWO_LEVEL_SKEW)
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, 2000)
    samples = sample_field(fld, grid)
    return pair, samples, grid


def test_newton_from_exact_solution():
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    recovered, report = newton_identify(
        u0, u_tar, pair, samples, grid, NewtonConfig(tol=1e-12, max_iters=3), truth=pair
    )
    assert report.flag == FLAG_CONVERGED
    assert report.n_iterations <= 2
    assert report.iterations[0].e_k <= 1e-9  # tol * 1e3
    assert report.final().dev_u <= 1e-12


def test_newton_recovers_small_perturbation():
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=5))
    recovered, report = newton_identify(
        u0, u_tar, guess, samples, grid, NewtonConfig(tol=1e-12, max_iters=9), truth=pair
    )
    fin = report.final()
    assert report.flag == FLAG_CONVERGED
    assert fin.dev_h0 <= 1e-10 and fin.dev_h1 <= 1e-9 and fin.dev_u <= 1e-10


def test_one_factorization_per_system(monkeypatch):
    # each reduced system of a Newton run goes through exactly one SVD, which
    # gives the recorded condition and the step; no LU solve touches it
    systems, factored, solved = [], [], []
    build = hamid.newton.reduce_system

    def recording_build(*args):
        systems.append(build(*args))
        return systems[-1]

    def recording(call, calls):
        def wrapper(a, *args, **kwargs):
            calls.append(a)
            return call(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(hamid.newton, "reduce_system", recording_build)
    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd, factored))
    for module, name in ((np.linalg, "solve"), (scipy.linalg, "solve"), (scipy.linalg, "lu_factor")):
        monkeypatch.setattr(module, name, recording(getattr(module, name), solved))

    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=2))
    _, report = newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=3))
    assert len(systems) == report.n_iterations == 3
    assert [sum(a is s.matrix for a in factored) for s in systems] == [1, 1, 1]
    # the stepper's batched Cayley solves are 3-D; a reduced system is 4 x 4
    assert not any(np.shape(a) == (4, 4) for a in solved)


def test_svd_calls_per_newton_iteration(monkeypatch):
    # a d = 2 iteration makes three SVDs: its reduced system's, one batched
    # over the real norms (e_k's two and the two deviations from the truth)
    # and one over the complex ones (dev_U and the residual's skew part);
    # the unitarity checks of the operators pass on a Frobenius bound
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0])
        return svd(*args, **kwargs)

    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=2))
    monkeypatch.setattr(np.linalg, "svd", counting)
    for max_iters in (1, 2, 3):
        calls.clear()
        _, report = newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=max_iters), truth=pair)
        assert report.n_iterations == max_iters
        assert len(calls) == 3 * max_iters
        assert sorted(np.shape(a) for a in calls) == sorted([(2, 2, 2), (4, 2, 2), (4, 4)] * max_iters)


def test_newton_report_serialization(tmp_path):
    cfg = ExperimentConfig(
        kind="newton-two-level",
        out_dir=str(tmp_path),
        n_steps=2000,
        perturbation={"eta": 1e-5},
        newton={"max_iters": 9},
    )
    summary = run_experiment(cfg).summary
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "k,e_k,dev_H0,dev_H1,dev_U,cond"
    assert len(lines) == summary["iterations"] + 1
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["flag"] == summary["flag"]
    assert len(payload["iterations"]) == summary["iterations"]
    # every recorded iteration has its dev_u filled in
    assert all(it["dev_u"] is not None for it in payload["iterations"])


def test_newton_skew_norm_reported():
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=2))
    _, report = newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=5))
    assert all(np.isfinite(it.residual_skew) for it in report.iterations)
    # without truth, deviation columns stay empty
    assert all(it.dev_h0 is None and it.dev_h1 is None for it in report.iterations)


def test_newton_rejects_non_finite_field():
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    samples = samples.copy()
    samples[17] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        newton_identify(u0, u_tar, pair, samples, grid, NewtonConfig(max_iters=2))


def test_identify_from_linearization_matches_pair_start():
    # a Linearization guess replaces the first propagation and nothing else;
    # linearize_final closes with the linearization at the final pair
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=2))
    cfg = NewtonConfig(max_iters=9)
    ref_pair, ref = newton_identify(u0, u_tar, guess, samples, grid, cfg, truth=pair)
    lin = linearize(u0, guess, samples, grid)
    got_pair, got = newton_identify(u0, u_tar, lin, samples, grid, cfg, truth=pair, linearize_final=True)
    assert got.to_json_dict() == ref.to_json_dict()
    assert got_pair.h0.tobytes() == ref_pair.h0.tobytes()
    assert got_pair.h1.tobytes() == ref_pair.h1.tobytes()
    closing = linearize(u0, got_pair, samples, grid)
    assert got.linearization.pair is got_pair
    for name in ("u_n", "g0", "g1"):
        assert getattr(got.linearization, name).tobytes() == getattr(closing, name).tobytes()


def _two_level_problem(n_steps):
    p = TwoLevelParams(delta=BENCH_TWO_LEVEL_DELTA, envelope_skew=BENCH_TWO_LEVEL_SKEW)
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, n_steps)
    return pair, sample_field(fld, grid), grid


def _solver_args(solver):
    """Arguments a solver accepts, on the two-level benchmark at 200 steps."""
    pair, samples, grid = _two_level_problem(200)
    u0 = np.eye(2, dtype=complex)
    args = {"u_0": u0, "u_tar": propagate_final(u0, pair, samples, grid), "samples": samples, "grid": grid}
    if solver is newton_identify:
        return {**args, "guess": pair, "cfg": NewtonConfig(max_iters=2), "truth": pair}
    return {**args, "cfg": ContinuationConfig(n_intermediate=1), "truth": pair}


def _four_level_pair():
    return HamiltonianPair(np.diag([0.0, 1.0, 2.0, 3.0]), np.zeros((4, 4)))


def _coarse_linearization():
    # taken on 100 steps: with the 200-step samples it built the first system
    # from the wrong Gram sums, and the solve still ended converged
    pair, samples, grid = _two_level_problem(100)
    return linearize(np.eye(2, dtype=complex), pair, samples, grid)


def _plain_start(samples):
    """A Linearization guess on the plain two-level model at 100 steps, its
    grid and ``samples``.  The plain model's first system is singular, so a
    solve that did not check the samples refused that system and returned a
    report of 0 iterations."""
    p = TwoLevelParams()
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, 100)
    guess = linearize(np.eye(2, dtype=complex), pair, sample_field(fld, grid), grid)
    return {"guess": guess, "grid": grid, "samples": samples}


def _three_level_linearization():
    dt = _two_level_problem(200)[2].dt
    pair = HamiltonianPair(np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)))
    return Linearization(pair, np.eye(3, dtype=complex), np.zeros((9, 9)), np.zeros((9, 9)), dt)


@pytest.mark.parametrize(
    "solver, bad, message",
    [
        (newton_identify, lambda: {"cfg": None}, "cfg must be"),
        (newton_identify, lambda: {"cfg": ContinuationConfig()}, "cfg must be"),
        (newton_identify, lambda: {"grid": (9000.0, 200)}, "grid must be"),
        (newton_identify, lambda: {"truth": _four_level_pair()}, "truth must be"),
        (newton_identify, lambda: {"truth": "truth"}, "truth must be"),
        (newton_identify, lambda: {"guess": None}, "guess must be"),
        (newton_identify, lambda: {"guess": _coarse_linearization()}, "guess must be"),
        (newton_identify, lambda: {"guess": _three_level_linearization()}, "guess must be"),
        (newton_identify, lambda: _plain_start(np.zeros(50)), r"field has \(50,\) samples, grid has 100 steps"),
        (newton_identify, lambda: _plain_start(np.full(100, np.nan)), "field samples has non-finite entries"),
        (continuation_identify, lambda: {"cfg": NewtonConfig()}, "cfg must be"),
        (continuation_identify, lambda: {"grid": None}, "grid must be"),
        (continuation_identify, lambda: {"truth": _four_level_pair()}, "truth must be"),
    ],
    ids=[
        "newton-cfg-none",
        "newton-cfg-continuation",
        "newton-grid-tuple",
        "newton-truth-four-level",
        "newton-truth-text",
        "newton-guess-none",
        "newton-guess-other-grid",
        "newton-guess-three-level",
        "newton-samples-too-few",
        "newton-samples-nan",
        "continuation-cfg-newton",
        "continuation-grid-none",
        "continuation-truth-four-level",
    ],
)
def test_solvers_refuse_bad_arguments_before_propagating(monkeypatch, solver, bad, message):
    # a mistyped argument was an AttributeError, a truth of another dimension
    # a broadcast error after the first propagation (after a whole stage in
    # the continuation), a linearization of another grid a wrong solve, and
    # samples that do not fit the grid a singular_jacobian report
    args = {**_solver_args(solver), **bad()}
    calls = []
    for module in (hamid.newton, hamid.continuation):
        for fn in ("propagate_final", "propagate_with_gram"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, lambda *a, fn=fn: calls.append(fn))
    with pytest.raises(ValueError, match=f"^{message}"):
        solver(**args)
    assert calls == []
