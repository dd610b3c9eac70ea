import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import hamid.newton
from hamid import (
    FLAG_CONVERGED,
    HamiltonianPair,
    NewtonConfig,
    ReducedSystem,
    SingularJacobianError,
    TimeGrid,
    grams_to_jacobians,
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
from hamid.newton import expand_update, linearize, newton_system
from hamid.propagation import GRAM_CHUNK
from hamid.experiments import BENCH_TWO_LEVEL_DELTA, BENCH_TWO_LEVEL_SKEW
from hamid.fields import sample_field

from helpers import (
    SIGMA_X,
    assemble_jacobian,
    expand_update_loop,
    haar_unitary,
    midpoint_products,
    random_direction,
    random_pair,
    reduce_system_loop,
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
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    np.testing.assert_allclose(j0, 3.0 * np.eye(d * d), atol=1e-13)
    np.testing.assert_allclose(j1, c * 3.0 * np.eye(d * d), atol=1e-13)


def test_jacobian_one_dimensional():
    pair = HamiltonianPair(np.zeros((1, 1)), np.zeros((1, 1)))
    grid = TimeGrid(t_f=1.0, n_steps=4)
    samples = np.zeros(4)
    traj = propagate(np.eye(1, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    np.testing.assert_allclose(j0, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(j1, [[0.0]], atol=1e-15)


def test_jacobian_matches_kron_oracle(rng):
    d, n = 3, 11
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=0.9, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    ubar = midpoint_products(traj)
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
        traj = propagate(u0, pair, samples, grid)
        j0, j1 = assemble_jacobian(traj, samples)
        u_n = traj.final()
        for _ in range(5):
            dh0, dh1 = random_direction(d, rng)
            eps = 1e-6
            up = propagate_final(u0, pair.shifted(eps * dh0, eps * dh1), samples, grid)
            um = propagate_final(u0, pair.shifted(-eps * dh0, -eps * dh1), samples, grid)
            x_fd = 1j * u_n.conj().T @ ((up - um) / (2 * eps))
            x_j = (j0 @ vec_f(dh0) + j1 @ vec_f(dh1)).reshape(d, d, order="F")
            assert spec_norm(x_fd - x_j) <= 1e-6 * spec_norm(x_j)


def test_newton_system_matches_stored_trajectory_oracle(rng):
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
    u_n, system = newton_system(u0, pair, samples, grid, u_tar)
    traj = propagate(u0, pair, samples, grid)
    oracle = reduce_system(*assemble_jacobian(traj, samples), hermitian_residual(traj.final(), u_tar))
    tol = n * np.finfo(float).eps
    np.testing.assert_allclose(u_n, traj.final(), rtol=0, atol=tol)
    scale = np.max(np.abs(oracle.matrix))
    np.testing.assert_allclose(system.matrix, oracle.matrix, rtol=0, atol=tol * scale)
    np.testing.assert_allclose(system.rhs, oracle.rhs, rtol=0, atol=tol)
    assert system.unknown_index_map == oracle.unknown_index_map


def test_unknown_index_map_counts():
    for d in (2, 3, 12):
        index_map = unknown_index_map(d)
        assert len(index_map) == d * d
        n_h0 = sum(1 for which, _, _ in index_map if which == "h0")
        assert n_h0 == d * (d + 1) // 2


def test_reduce_system_shape_and_ordering():
    d = 2
    j0 = np.arange(16, dtype=complex).reshape(4, 4)
    j1 = 1j * np.arange(16, dtype=complex).reshape(4, 4)
    s = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, -0.5]])
    system = reduce_system(j0, j1, s)
    assert system.matrix.shape == (4, 4)
    assert system.matrix.dtype == float
    assert system.unknown_index_map == (
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
    # the index-array gathers sum exactly the pairs the entry loop sums, so
    # matrix, rhs and the expanded update agree byte for byte
    for d in range(1, 7):
        j0, j1 = random_complex((d * d, d * d), rng), random_complex((d * d, d * d), rng)
        s = random_complex((d, d), rng)
        system = reduce_system(j0, j1, s)
        matrix, rhs = reduce_system_loop(j0, j1, s)
        assert system.matrix.tobytes() == matrix.tobytes()
        assert system.rhs.tobytes() == rhs.tobytes()
        x = rng.normal(size=d * d)
        update = expand_update(x, system.unknown_index_map, d)
        dh0, dh1 = expand_update_loop(x, system.unknown_index_map, d)
        assert update.dh0.tobytes() == dh0.tobytes()
        assert update.dh1.tobytes() == dh1.tobytes()


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
    update = expand_update(x, index_map, d)
    assert np.array_equal(update.dh0, dh0) and np.array_equal(update.dh1, dh1)
    j0, j1 = random_complex((d * d, d * d), rng), random_complex((d * d, d * d), rng)
    s = (j0 @ vec_f(dh0) + j1 @ vec_f(dh1)).reshape(d, d, order="F")
    system = reduce_system(j0, j1, s)
    assert system.size == len(index_map) == d * d
    np.testing.assert_allclose(system.matrix @ x, system.rhs, rtol=0, atol=1e-12 * d * d)


def test_reduce_identity_states_is_singular():
    # all-identity midpoint products keep every row real, so the imaginary
    # row vanishes and the system cannot be solved
    d, n = 2, 5
    pair = HamiltonianPair(np.zeros((d, d)), np.zeros((d, d)))
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = np.full(n, 0.3)
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    system = reduce_system(j0, j1, np.zeros((2, 2), dtype=complex))
    assert not np.isfinite(reduced_condition(system)) or reduced_condition(system) > 1e12
    with pytest.raises(SingularJacobianError):
        solve_update(system, NewtonConfig())


def test_singular_error_names_threshold_not_estimate():
    # the estimate of a singular system is round-off, so the message (which
    # diagnostic.json and demo 05 print) carries only the threshold
    system = ReducedSystem(
        matrix=np.diag([1.0, 1.0, 1.0, 1e-14]),
        rhs=np.ones(4),
        unknown_index_map=unknown_index_map(2),
    )
    with pytest.raises(SingularJacobianError) as info:
        solve_update(system, NewtonConfig(singular_cond_threshold=1e12))
    err = info.value
    assert err.condition == reduced_condition(system) and err.threshold == 1e12
    assert "1.000e+12" in str(err)
    assert f"{err.condition:.3e}" not in str(err)


def test_solve_update_identity_system():
    d = 2
    system = ReducedSystem(
        matrix=np.eye(4),
        rhs=np.array([1.0, 0.0, 0.0, 0.0]),
        unknown_index_map=unknown_index_map(d),
    )
    upd = solve_update(system, NewtonConfig())
    np.testing.assert_allclose(upd.dh0, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(upd.dh1, 0.0)


def test_solve_update_zero_rhs(rng):
    d, n = 2, 8
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.0, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    system = reduce_system(j0, j1, np.zeros((d, d), dtype=complex))
    upd = solve_update(system, NewtonConfig())
    assert spec_norm(upd.dh0) < 1e-12 and spec_norm(upd.dh1) < 1e-12


def test_reduction_consistency(rng):
    # a reduced solution substituted back into the complex system reproduces
    # the Hermitian right-hand side: nothing is lost for Hermitian rhs
    from helpers import haar_unitary

    d, n = 3, 12
    pair = random_pair(d, rng)
    grid = TimeGrid(t_f=1.4, n_steps=n)
    samples = rng.normal(size=n)
    traj = propagate(np.eye(d, dtype=complex), pair, samples, grid)
    j0, j1 = assemble_jacobian(traj, samples)
    u_tar = haar_unitary(d, rng)
    s = hermitian_residual(traj.final(), u_tar)
    system = reduce_system(j0, j1, s)
    upd = solve_update(system, NewtonConfig(singular_cond_threshold=1e14))
    lhs = (j0 @ vec_f(upd.dh0) + j1 @ vec_f(upd.dh1)).reshape(d, d, order="F")
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
            _, system = newton_system(np.eye(d, dtype=complex), pair, samples, grid, u_tar)
            update = solve_update(system, NewtonConfig())  # raises unless full rank
            ref = solve_update_lu(system)
            size = spec_norm(ref.dh0) + spec_norm(ref.dh1)
            err = spec_norm(update.dh0 - ref.dh0) + spec_norm(update.dh1 - ref.dh1)
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
        index_map = unknown_index_map(d)
        system = ReducedSystem(matrix=m0 * scales, rhs=m0 @ y, unknown_index_map=index_map)
        cfg = NewtonConfig(singular_cond_threshold=1e15)
        for update in (solve_update(system, cfg), solve_update_lu(system)):
            x = np.array([(update.dh0 if w == "h0" else update.dh1)[i, j] for w, i, j in index_map])
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
    _, system = newton_system(u_0, truth, samples, grid, u_tar)
    update = solve_update(system, NewtonConfig())
    assert spec_norm(update.dh0) + spec_norm(update.dh1) <= 1e-10


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


def test_newton_report_serialization(tmp_path):
    pair, samples, grid = _benchmark_two_level()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    guess = perturb_pair(pair, PerturbationSpec(eta=1e-5, seed=1))
    _, report = newton_identify(
        u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=9), truth=pair
    )
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,e_k,dev_H0,dev_H1,dev_U,cond"
    assert len(lines) == report.n_iterations + 1
    payload = report.to_json_dict()
    assert payload["flag"] == report.flag
    assert len(payload["iterations"]) == report.n_iterations
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
    for name in ("u_n", "j0", "j1"):
        assert getattr(got.linearization, name).tobytes() == getattr(closing, name).tobytes()
