import json

import numpy as np
import pytest

import hamid.continuation
import hamid.newton
from hamid import (
    CONTINUATION_FAILED,
    CONTINUATION_OK,
    FLAG_MAX_ITERS,
    ContinuationConfig,
    DoubleWellParams,
    HamiltonianPair,
    NewtonConfig,
    SinSqEnvelope,
    TimeGrid,
    build_double_well,
    continuation_identify,
    decompose_target,
    intermediate_target,
    linearize,
    m0_seed,
    pi_pulse_field,
    propagate_final,
    sample_field,
    spec_norm,
    system_diagnostic,
    unitary_exp,
)
from hamid.experiments import (
    BENCH_DOUBLE_WELL_COND_THRESHOLD,
    BENCH_DOUBLE_WELL_TOL,
    BENCH_TWO_LEVEL_DELTA,
    BENCH_TWO_LEVEL_SKEW,
    ExperimentConfig,
    run_eta_sweep,
    run_experiment,
)
from hamid.models import TwoLevelParams, two_level_model

from helpers import SIGMA_X, continuation_walk_reference, haar_unitary, random_pair


def test_intermediate_target_endpoints(rng):
    u_tar = haar_unitary(4, rng)
    dec = decompose_target(u_tar)
    n_c = 7
    np.testing.assert_allclose(
        intermediate_target(dec, 0, n_c), unitary_exp(1j * dec.s), atol=1e-10
    )
    assert spec_norm(intermediate_target(dec, n_c, n_c) - u_tar) < 1e-10


def test_intermediate_target_constant_path_when_a_zero():
    dec = decompose_target(SIGMA_X.astype(complex))
    assert spec_norm(dec.a) < 1e-13
    u0 = intermediate_target(dec, 0, 5)
    for m in range(1, 6):
        np.testing.assert_allclose(intermediate_target(dec, m, 5), u0, atol=1e-12)


def test_intermediate_target_range_check(rng):
    dec = decompose_target(haar_unitary(2, rng))
    with pytest.raises(ValueError):
        intermediate_target(dec, -1, 5)
    with pytest.raises(ValueError):
        intermediate_target(dec, 6, 5)


def test_m0_seed_zero_target():
    dec = decompose_target(np.eye(3, dtype=complex))
    pair = m0_seed(dec, 100.0)
    assert spec_norm(pair.h0) < 1e-14 and spec_norm(pair.h1) == 0.0


def test_m0_seed_sigma_x():
    t_f = 9000.0
    dec = decompose_target(SIGMA_X.astype(complex))
    pair = m0_seed(dec, t_f)
    expected = -np.pi / (2 * t_f) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(pair.h0, expected, atol=1e-15)
    np.testing.assert_allclose(pair.h1, 0.0)


def test_m0_seed_diagonal_phases():
    theta = 0.7
    t_f = 10.0
    dec = decompose_target(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))
    pair = m0_seed(dec, t_f)
    np.testing.assert_allclose(pair.h0, np.diag([-theta, theta]) / t_f, atol=1e-14)


def test_m0_seed_reproduces_target_in_free_evolution():
    # propagating (-S/t_f, 0) under any field gives exp(iS) up to time
    # discretization error
    rng = np.random.default_rng(3)
    u_tar = haar_unitary(3, rng)
    dec = decompose_target(u_tar)
    t_f = 50.0
    pair = m0_seed(dec, t_f)
    grid = TimeGrid(t_f=t_f, n_steps=20000)
    samples = rng.normal(size=20000)
    u_n = propagate_final(np.eye(3, dtype=complex), pair, samples, grid)
    assert spec_norm(u_n - unitary_exp(1j * dec.s)) < 1e-6


def _benchmark_setup(n_steps=2000):
    p = TwoLevelParams(delta=BENCH_TWO_LEVEL_DELTA, envelope_skew=BENCH_TWO_LEVEL_SKEW)
    pair, fld = two_level_model(p)
    grid = TimeGrid(p.t_f, n_steps)
    return pair, sample_field(fld, grid), grid


def test_continuation_rejects_non_identity_start():
    pair, samples, grid = _benchmark_setup()
    u_tar = propagate_final(np.eye(2, dtype=complex), pair, samples, grid)
    with pytest.raises(ValueError):
        continuation_identify(
            np.diag([1.0, 1j]).astype(complex), u_tar, samples, grid, ContinuationConfig()
        )


def test_continuation_two_level_short_path():
    pair, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    cfg = ContinuationConfig(n_intermediate=5, newton=NewtonConfig(tol=1e-12, max_iters=30))
    recovered, report = continuation_identify(u0, u_tar, samples, grid, cfg, truth=pair)
    assert report.flag == CONTINUATION_OK
    assert len(report.stages) == 6
    assert all(st.dev_u_stage <= 1e-10 for st in report.stages)
    assert report.stages[-1].dev_h0 <= 1e-10
    assert report.stages[-1].dev_h1 <= 1e-8


def test_continuation_m0_refinement_polishes():
    pair, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    cfg = ContinuationConfig(n_intermediate=1, newton=NewtonConfig(tol=1e-12, max_iters=30))
    _, report = continuation_identify(u0, u_tar, samples, grid, cfg)
    # stage 0 must reach its own target within tol * 10
    assert report.stages[0].dev_u_stage <= 1e-11


def test_continuation_report_csv(tmp_path):
    cfg = ExperimentConfig(
        kind="continuation-two-level",
        out_dir=str(tmp_path),
        n_steps=2000,
        continuation={"n_intermediate": 2},
        newton={"max_iters": 30},
    )
    run_experiment(cfg)
    lines = (tmp_path / "stages.csv").read_text().strip().splitlines()
    assert lines[0] == "m,newton_iterations,dev_U_stage,dev_H0,dev_H1"
    assert len(lines) == 4  # header + stages 0..2


def test_continuation_failure_reported():
    pair, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, pair, samples, grid)
    # one-iteration budget cannot satisfy the stage tolerance
    strangled = NewtonConfig(tol=1e-30, max_iters=1)
    cfg = ContinuationConfig(n_intermediate=2, newton=strangled)
    _, report = continuation_identify(u0, u_tar, samples, grid, cfg)
    assert report.flag == "failed"
    assert report.failed_stage == 0


def test_singularity_probe_appendix_case():
    # target sigma_x, seed pair (-S/t_f, 0), plain sin^2 field: rank 3 of 4,
    # stable across the rank-tolerance range
    t_f = 9000.0
    dec = decompose_target(SIGMA_X.astype(complex))
    pair = m0_seed(dec, t_f)
    grid = TimeGrid(t_f=t_f, n_steps=2000)
    samples = sample_field(SinSqEnvelope(e0=2.0), grid)
    system = linearize(np.eye(2, dtype=complex), pair, samples, grid).system(SIGMA_X.astype(complex))
    for tol in (1e-10, 1e-8, 1e-6):
        diag = system_diagnostic(system, rank_tolerance=tol)
        assert diag.numerical_rank == 3
        assert diag.condition_estimate > 1e12
        assert len(diag.singular_values) == 4


def test_singularity_probe_no_coupling_no_field():
    # H1 = 0 and E = 0 with distinct diagonal phases: coupling columns carry
    # no imaginary structure, so the system is rank deficient
    pair = HamiltonianPair(np.diag([0.3, -0.4]), np.zeros((2, 2)))
    grid = TimeGrid(t_f=5.0, n_steps=64)
    samples = np.zeros(64)
    u_tar = propagate_final(np.eye(2, dtype=complex), pair, samples, grid)
    diag = system_diagnostic(linearize(np.eye(2, dtype=complex), pair, samples, grid).system(u_tar))
    assert diag.numerical_rank < 4


def test_singularity_probe_generic_full_rank(rng):
    pair = random_pair(2, rng)
    grid = TimeGrid(t_f=1.0, n_steps=64)
    samples = rng.normal(size=64)
    u_tar = propagate_final(np.eye(2, dtype=complex), pair, samples, grid)
    diag = system_diagnostic(linearize(np.eye(2, dtype=complex), pair, samples, grid).system(u_tar))
    assert diag.numerical_rank == 4
    assert diag.condition_estimate < 1e6


@pytest.fixture(scope="module")
def double_well_walk():
    """The 4-level double well on 2048 steps, its field samples, grid,
    identity start and target."""
    dw = build_double_well(DoubleWellParams(n_levels=4))
    grid = TimeGrid(dw.params.t_f, 2048)
    samples = sample_field(pi_pulse_field(dw), grid)
    u0 = np.eye(4, dtype=complex)
    return dw.pair, samples, grid, u0, propagate_final(u0, dw.pair, samples, grid)


def _double_well_newton(**overrides):
    return NewtonConfig(
        **{
            "tol": BENCH_DOUBLE_WELL_TOL,
            "singular_cond_threshold": BENCH_DOUBLE_WELL_COND_THRESHOLD,
            "max_iters": 8,
            **overrides,
        }
    )


# name -> (model, continuation config); "two-level" is the benchmark walk
HAND_OFF_CASES = {
    "two-level-benchmark": (
        "two-level",
        ContinuationConfig(n_intermediate=20, newton=NewtonConfig(tol=1e-12, max_iters=50)),
    ),
    "double-well": ("double-well", ContinuationConfig(n_intermediate=4, newton=_double_well_newton())),
    "two-level-max-iters-1": (
        "two-level",
        ContinuationConfig(n_intermediate=2, newton=NewtonConfig(max_iters=1)),
    ),
    "two-level-refused-at-k1": (
        "two-level",
        ContinuationConfig(n_intermediate=2, newton=NewtonConfig(singular_cond_threshold=1.0)),
    ),
}


@pytest.mark.parametrize("case", list(HAND_OFF_CASES))
def test_hand_off_walk_matches_standalone_stages(case, request):
    # each stage starting from the previous stage's closing linearization,
    # and dev_U_stage read off the last Newton row, must reproduce the walk
    # of standalone Newton solves with one more propagation per stage, bit
    # for bit: report, flags and final pair
    model, cfg = HAND_OFF_CASES[case]
    if model == "two-level":
        truth, samples, grid = _benchmark_setup()
        u0 = np.eye(2, dtype=complex)
        u_tar = propagate_final(u0, truth, samples, grid)
    else:
        truth, samples, grid, u0, u_tar = request.getfixturevalue("double_well_walk")
    pair, report = continuation_identify(u0, u_tar, samples, grid, cfg, truth=truth)
    ref_pair, ref_report = continuation_walk_reference(u0, u_tar, samples, grid, cfg, truth=truth)
    assert json.dumps(report.to_json_dict()) == json.dumps(ref_report.to_json_dict())
    assert pair.h0.tobytes() == ref_pair.h0.tobytes()
    assert pair.h1.tobytes() == ref_pair.h1.tobytes()
    expect_ok = "max-iters" not in case and "refused" not in case
    assert (report.flag == CONTINUATION_OK) == expect_ok
    if "refused" in case:
        refused = report.stages[-1].newton_report
        assert refused.failed_iteration == 1 and refused.n_iterations == 0


def _count_calls(monkeypatch, sites):
    """Calls per "module.name" of each (module, name) site, from now on."""
    counts = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in sites:
        key = f"{module.__name__}.{name}"
        counts[key] = 0
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    return counts


PROPAGATION_SITES = (
    (hamid.newton, "propagate_with_gram"),
    (hamid.newton, "propagate_final"),
    (hamid.continuation, "propagate_final"),
)


def test_converged_walk_propagates_each_pair_once(monkeypatch):
    truth, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, truth, samples, grid)
    counts = _count_calls(monkeypatch, PROPAGATION_SITES)
    cfg = ContinuationConfig(n_intermediate=20, newton=NewtonConfig(tol=1e-12, max_iters=50))
    _, report = continuation_identify(u0, u_tar, samples, grid, cfg, truth=truth)
    assert report.flag == CONTINUATION_OK
    n_iterations = sum(st.newton_report.n_iterations for st in report.stages)
    # one Gram propagation per Newton iteration, and one final-state-only
    # propagation closing the last stage
    assert counts == {
        "hamid.newton.propagate_with_gram": n_iterations,
        "hamid.newton.propagate_final": 1,
        "hamid.continuation.propagate_final": 0,
    }


@pytest.mark.parametrize("case", ["two-level-max-iters-1"])
def test_failed_stage_closes_without_gram(case, monkeypatch):
    # the walk stops at a failed stage, so a linearization at its final pair
    # would never be solved from: it closes final-state-only
    _, cfg = HAND_OFF_CASES[case]
    truth, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, truth, samples, grid)
    counts = _count_calls(monkeypatch, PROPAGATION_SITES)
    _, report = continuation_identify(u0, u_tar, samples, grid, cfg, truth=truth)
    assert report.flag == CONTINUATION_FAILED
    assert report.stages[-1].newton_report.flag == FLAG_MAX_ITERS
    n_iterations = sum(st.newton_report.n_iterations for st in report.stages)
    assert counts == {
        "hamid.newton.propagate_with_gram": n_iterations,
        "hamid.newton.propagate_final": 1,
        "hamid.continuation.propagate_final": 0,
    }


def test_standalone_newton_closes_without_gram(monkeypatch):
    truth, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, truth, samples, grid)
    counts = _count_calls(monkeypatch, PROPAGATION_SITES[:2])
    guess = m0_seed(decompose_target(u_tar), grid.t_f)
    _, report = hamid.newton.newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=50))
    assert report.flag == hamid.FLAG_CONVERGED
    assert report.linearization is None
    assert counts == {
        "hamid.newton.propagate_with_gram": report.n_iterations,
        "hamid.newton.propagate_final": 1,
    }


def test_refusal_after_a_finished_row(monkeypatch):
    # iteration 1 finishes its own row from its propagation at the new
    # iterate; iteration 2 is refused before it propagates anything
    truth, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, truth, samples, grid)
    counts = _count_calls(monkeypatch, PROPAGATION_SITES[:2])
    solve = hamid.newton.solve_update
    systems = []

    def refuse_second(system, cfg):
        systems.append(system)
        if len(systems) == 2:
            raise hamid.newton.SingularJacobianError(float("inf"), cfg.singular_cond_threshold)
        return solve(system, cfg)

    monkeypatch.setattr(hamid.newton, "solve_update", refuse_second)
    guess = m0_seed(decompose_target(u_tar), grid.t_f)
    _, report = hamid.newton.newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=50))
    assert report.flag == hamid.newton.FLAG_SINGULAR and report.failed_iteration == 2
    assert report.n_iterations == 1 and np.isfinite(report.iterations[0].dev_u)
    assert counts == {
        "hamid.newton.propagate_with_gram": 2,
        "hamid.newton.propagate_final": 0,
    }


def test_failed_svd_after_a_finished_row(monkeypatch):
    # the second full SVD does not converge: iteration 2 is flagged like a
    # refusal, with no condition estimate, and a sweep holding the run
    # returns every run
    truth, samples, grid = _benchmark_setup()
    u0 = np.eye(2, dtype=complex)
    u_tar = propagate_final(u0, truth, samples, grid)
    svd = np.linalg.svd
    full_calls = []

    def fail_second(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            full_calls.append(a)
            if len(full_calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    sweep_cfg = ExperimentConfig.from_dict(
        {"kind": "eta-sweep", "seed": 5, "n_steps": 400, "sweep": {"etas": [1e-5], "n_seeds": 2}}
    )
    clean = run_eta_sweep(sweep_cfg)
    guess = m0_seed(decompose_target(u_tar), grid.t_f)
    monkeypatch.setattr(np.linalg, "svd", fail_second)
    _, report = hamid.newton.newton_identify(u0, u_tar, guess, samples, grid, NewtonConfig(max_iters=50))
    assert report.flag == hamid.newton.FLAG_SINGULAR and report.failed_iteration == 2
    assert report.failure_condition is None
    assert report.n_iterations == 1 and np.isfinite(report.iterations[0].dev_u)

    full_calls.clear()
    failed = run_eta_sweep(sweep_cfg)
    assert [r.converged for r in clean.runs] == [True, True]
    assert [r.converged for r in failed.runs] == [False, True]
    assert failed.runs[1] == clean.runs[1]
