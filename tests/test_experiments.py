import ast
import copy
import csv
import dataclasses
import importlib
import io
import json
import tracemalloc
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamid.experiments as experiments
from hamid.cli import main
from hamid.experiments import (
    KINDS,
    REGIME_ALTERNATE,
    REGIME_DIVERGES,
    REGIME_RECOVERS,
    ExperimentConfig,
    SweepSpec,
    _CpuScalingModel,
    _median,
    classify_devs,
    run_experiment,
    run_eta_sweep,
)
from hamid.continuation import ContinuationConfig, m0_seed
from hamid.fields import PiPulse, SinSqEnvelope, TimeGrid
from hamid.linalg import TargetDecomposition, unitary_exp
from hamid.models import (
    DoubleWellModel,
    DoubleWellParams,
    PerturbationSpec,
    SpatialGrid,
    TwoLevelParams,
    pi_pulse_field,
)
from hamid.newton import NewtonConfig, ReducedSystem, hermitian_residual, reduce_system, system_diagnostic
from hamid.propagation import HamiltonianPair
from hamid.reporting import format_float


def test_classify_devs_examples():
    assert classify_devs(1e-12, 1e-11, 1e-12) == REGIME_RECOVERS
    assert classify_devs(1e-12, 1e-6, 1e-10) == REGIME_ALTERNATE
    assert classify_devs(0.5, 2.0, 0.3) == REGIME_DIVERGES
    assert classify_devs(None, None, None) == REGIME_DIVERGES


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "eta-sweep", "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({})
    cfg = ExperimentConfig.from_dict({"kind": "cn-order-check"})
    assert cfg.out_dir == "runs/cn-order-check"
    with pytest.raises(ValueError, match="eta-sweep"):
        run_eta_sweep(cfg)


def test_cn_order_check_kind(tmp_path):
    cfg = ExperimentConfig(kind="cn-order-check", out_dir=str(tmp_path / "o"), seed=3)
    result = run_experiment(cfg)
    ratios = list(result.summary["ratios"].values())
    assert all(3.5 <= r <= 4.5 for r in ratios)
    assert (tmp_path / "o" / "order.csv").exists()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["kind"] == "cn-order-check"
    assert "wall_seconds" in manifest


def test_singularity_demo_kind(tmp_path):
    cfg = ExperimentConfig(kind="singularity-demo", out_dir=str(tmp_path / "s"))
    result = run_experiment(cfg)
    assert result.summary["numerical_rank"] == 3
    assert result.summary["newton_step_refused"] is True
    payload = json.loads((tmp_path / "s" / "diagnostic.json").read_text())
    assert len(payload["singular_values"]) == 4


def test_newton_two_level_kind(tmp_path):
    cfg = ExperimentConfig(
        kind="newton-two-level",
        out_dir=str(tmp_path / "n"),
        seed=9,
        perturbation={"eta": 1e-5},
    )
    result = run_experiment(cfg)
    assert result.summary["regime"] == REGIME_RECOVERS
    report = (tmp_path / "n" / "report.csv").read_text().splitlines()
    assert report[0] == "k,e_k,dev_H0,dev_H1,dev_U,cond"
    manifest = json.loads((tmp_path / "n" / "manifest.json").read_text())
    # resolved defaults all present
    resolved = manifest["resolved"]
    assert resolved["n_steps"] == 2000
    assert resolved["model"]["e0"] > 0
    assert resolved["field"]["type"] == "sin_sq"
    assert "recovered.json" in manifest["outputs"]


def test_sweep_deterministic_bytes(tmp_path):
    cfg = {
        "kind": "eta-sweep",
        "sweep": {"etas": [1e-5, 3e-4], "n_seeds": 2, "k_max": 9},
        "seed": 7,
    }
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ra = run_experiment(ExperimentConfig.from_dict(dict(cfg, out_dir=str(out_a))))
    rb = run_experiment(ExperimentConfig.from_dict(dict(cfg, out_dir=str(out_b))))
    for name in ("fig2.csv", "fig2_raw.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sweep_runs_sorted_and_labelled():
    cfg = ExperimentConfig(
        kind="eta-sweep", sweep={"etas": [1e-4, 1e-5], "n_seeds": 2, "k_max": 9}
    )
    result = run_eta_sweep(cfg)
    etas = [r.eta for r in result.runs]
    assert etas == sorted(etas)
    assert {a["eta"] for a in result.aggregates} == {1e-5, 1e-4}
    for agg in result.aggregates:
        assert agg["label"] in (REGIME_RECOVERS, REGIME_ALTERNATE, REGIME_DIVERGES)
        assert agg["n_runs"] == 2
        assert 0.0 <= agg["frac_recovers"] <= 1.0


def test_cli_run_with_config_and_overrides(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"kind": "cn-order-check", "out_dir": str(tmp_path / "ignored")})
    )
    rc = main(["run", str(config_path), "--out", str(tmp_path / "real"), "--seed", "5"])
    assert rc == 0
    assert (tmp_path / "real" / "order.csv").exists()
    out = capsys.readouterr().out
    assert "ratios" in out


def test_cli_seed_sets_the_perturbation_seed(tmp_path):
    config_path = tmp_path / "cfg.json"
    config = {"kind": "newton-two-level", "n_steps": 400, "newton": {"max_iters": 2}}
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", str(tmp_path / "n"), "--seed", "5"]) == 0
    manifest = json.loads((tmp_path / "n" / "manifest.json").read_text())
    assert manifest["resolved"]["perturbation_seed"] == 5


def test_cli_demo_singularity(tmp_path, capsys):
    rc = main(["demo", "singularity", "--out", str(tmp_path / "d")])
    assert rc == 0
    # the result is printed once, as the summary lines of every run
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wrote 2 files to ")
    assert out[1:] == ["  numerical_rank: 3", "  newton_step_refused: True"]


BAD_CONFIGS = [
    # (config, extra CLI arguments, the key the error must name)
    ({"kind": "unknown-kind"}, [], "unknown-kind"),
    ({"kind": "newton-two-level", "model": {"bogus": 1}}, [], "bogus"),
    ({"kind": "continuation-two-level", "continuation": {"bogus": 1}}, [], "bogus"),
    ({"kind": "newton-two-level", "newton": {"tol2": 1}}, [], "tol2"),
    ({"kind": "newton-two-level"}, ["--nd", "6"], "n_levels"),
    ({"kind": "newton-two-level", "perturbation": {"etaa": 1e-3}}, [], "etaa"),
    ({"kind": "eta-sweep", "sweep": {"n_seed": 2}}, [], "n_seed"),
    ({"kind": "newton-double-well", "model": {"grid": {"points": 64}}}, [], "points"),
    ({"kind": "cn-order-check", "sweep": {"etas": [1e-5]}}, [], "etas"),
    # values of the wrong type for the field they set
    ({"kind": "eta-sweep", "sweep": {"n_seeds": [1]}}, [], "sweep.n_seeds"),
    ({"kind": "eta-sweep", "sweep": {"etas": [1e-5, "x"]}}, [], "sweep.etas"),
    ({"kind": "newton-two-level", "newton": {"max_iters": "5"}}, [], "newton.max_iters"),
    ({"kind": "newton-two-level", "n_steps": 2.5}, [], "n_steps"),
    ({"kind": "newton-two-level", "model": {"delta": "x"}}, [], "model.delta"),
    ({"kind": "newton-two-level", "seed": True}, [], "seed"),
    ({"kind": "newton-double-well", "model": {"grid": {"n_points": 64.5}}}, [], "n_points"),
    ({"kind": "cpu-scaling", "model": {"iterations": 1.0}}, [], "model.iterations"),
    # non-finite floats, which would otherwise fail deep inside the run
    ({"kind": "newton-two-level", "model": {"t_f": float("inf")}}, [], "model.t_f"),
    ({"kind": "newton-two-level", "model": {"delta": float("nan")}}, [], "model.delta"),
    ({"kind": "newton-two-level", "perturbation": {"eta": float("nan")}}, [], "perturbation.eta"),
    ({"kind": "newton-two-level", "model": {"t_f": 10**400}}, [], "model.t_f"),
    # counts out of range, which would otherwise become the default or an empty sweep
    ({"kind": "cn-order-check", "n_steps": 0}, [], "n_steps"),
    ({"kind": "cpu-scaling"}, ["--steps", "0"], "n_steps"),
    ({"kind": "eta-sweep", "sweep": {"n_seeds": 0}}, [], "sweep.n_seeds"),
    ({"kind": "eta-sweep", "sweep": {"k_max": 0}}, [], "sweep.k_max"),
    ({"kind": "eta-sweep", "sweep": {"workers": -1}}, [], "sweep.workers"),
    ({"kind": "eta-sweep", "sweep": {"etas": []}}, [], "sweep.etas"),
    # more seeds per eta than the stride between etas would repeat a seed
    ({"kind": "eta-sweep", "sweep": {"n_seeds": 1001}}, [], "sweep.n_seeds"),
    # negative seeds, which numpy's seeding would refuse only inside the run
    ({"kind": "newton-two-level", "seed": -1}, [], ": seed"),
    ({"kind": "eta-sweep", "seed": -1}, [], ": seed"),
    ({"kind": "cn-order-check", "seed": -1}, [], ": seed"),
    ({"kind": "eta-sweep"}, ["--seed", "-1"], ": seed"),
    # values out of the range of the dataclass the block sets
    ({"kind": "newton-two-level", "newton": {"max_iters": 0}}, [], "newton.max_iters"),
    ({"kind": "eta-sweep", "newton": {"tol": 0.0}}, [], "newton.tol"),
    ({"kind": "newton-two-level", "perturbation": {"eta": -1.0}}, [], "perturbation.eta"),
    (
        {"kind": "continuation-two-level", "continuation": {"n_intermediate": 0}},
        [],
        "continuation.n_intermediate",
    ),
    ({"kind": "newton-two-level", "model": {"t_f": -5.0}}, [], "model.t_f"),
    ({"kind": "cpu-scaling", "model": {"iterations": 0}}, [], "model.iterations"),
    ({"kind": "eta-sweep", "sweep": {"etas": [-1e-3]}}, [], "sweep.etas"),
    ({"kind": "newton-double-well", "model": {"t_f": 0.0}}, [], "model.t_f"),
    ({"kind": "continuation-double-well", "model": {"t_f": -5.0}}, [], "model.t_f"),
    ({"kind": "newton-double-well", "model": {"mass": 0.0}}, [], "model.mass"),
    # the pi pulse drives the 0 -> 3 transition, so a double well needs 4 levels
    ({"kind": "newton-double-well", "n_steps": 256}, ["--nd", "3"], "model.n_levels"),
    ({"kind": "continuation-double-well", "model": {"n_levels": 2}}, [], "model.n_levels"),
    # retired keys: the step count is the top-level n_steps only, the
    # continuation walks its path once and Newton-polishes every stage, the
    # singularity demo reads ranks at one tolerance, and the demo's horizon,
    # the order check's horizon and field value and the scaling run's
    # perturbation magnitude are constants, refused even at their values
    ({"kind": "newton-two-level", "model": {"n_steps": 200}}, [], "unknown model keys ['n_steps']"),
    ({"kind": "newton-double-well", "model": {"n_steps": 256}}, [], "unknown model keys ['n_steps']"),
    ({"kind": "cn-order-check", "model": {"n_steps": 100}}, [], "this kind reads no model block, got keys ['n_steps']"),
    ({"kind": "cpu-scaling", "model": {"n_steps": 256}}, [], "unknown model keys ['n_steps']"),
    ({"kind": "singularity-demo", "model": {"t_f": 9000.0}}, [], "this kind reads no model block, got keys ['t_f']"),
    ({"kind": "cn-order-check", "model": {"t_f": 1.0}}, [], "this kind reads no model block, got keys ['t_f']"),
    ({"kind": "cn-order-check", "model": {"field_value": 0.7}}, [], "reads no model block, got keys ['field_value']"),
    ({"kind": "cpu-scaling", "model": {"eta": 1e-6}}, [], "unknown model keys ['eta']; accepted: ['iterations']"),
    (
        {"kind": "continuation-two-level", "continuation": {"retry_doubled": True}},
        [],
        "unknown continuation keys ['retry_doubled']",
    ),
    (
        {"kind": "continuation-two-level", "continuation": {"refine_m0": False}},
        [],
        "unknown continuation keys ['refine_m0']",
    ),
    (
        {"kind": "singularity-demo", "model": {"rank_tolerance": 1e-6}},
        [],
        "singularity-demo: this kind reads no model block, got keys ['rank_tolerance']",
    ),
    # keys of values another key sets: the perturbation seed is the top-level
    # seed, and the sweep's Newton iteration cap is sweep.k_max
    ({"kind": "newton-two-level", "perturbation": {"seed": 5}}, [], "unknown perturbation keys ['seed']"),
    ({"kind": "newton-double-well", "perturbation": {"seed": 5}}, [], "unknown perturbation keys ['seed']"),
    ({"kind": "eta-sweep", "newton": {"max_iters": 2}}, [], "unknown newton keys ['max_iters']"),
    # a block is an object, never null
    ({"kind": "newton-two-level", "model": None}, [], "the model block must be an object"),
    ({"kind": "eta-sweep", "sweep": None}, [], "the sweep block must be an object"),
    ({"kind": "cn-order-check", "continuation": None}, [], "the continuation block must be an object"),
    # an unread setting keeps its default, as an unread block stays empty:
    # these kinds read no seed, and the demo reads no newton block
    ({"kind": "continuation-two-level", "seed": 2}, [], "reads no seed, so seed must stay 1"),
    ({"kind": "continuation-double-well", "seed": 0}, [], "reads no seed, so seed must stay 1"),
    ({"kind": "singularity-demo"}, ["--seed", "3"], "reads no seed, so seed must stay 1"),
    (
        {"kind": "singularity-demo", "newton": {"tol": 1e-3}},
        [],
        "singularity-demo: this kind reads no newton block, got keys ['tol']",
    ),
    (
        {"kind": "singularity-demo"},
        ["--tol", "1e-3"],
        "singularity-demo: this kind reads no newton block, got keys ['tol']",
    ),
    # null is no second spelling of a sweep key's default
    ({"kind": "eta-sweep", "sweep": {"n_seeds": None}}, [], "sweep.n_seeds"),
]


def test_cli_bad_config_returns_error(tmp_path, capsys):
    # every case is rejected before any work starts, so one test runs them all
    bad = tmp_path / "bad.json"
    for config, extra, key in BAD_CONFIGS:
        bad.write_text(json.dumps(config))
        rc = main(["run", str(bad), "--out", str(tmp_path / "never"), *extra])
        err = capsys.readouterr().err
        assert rc == 2, config
        assert "error:" in err and key in err, (config, err)
    assert main(["sweep", "--etas=-1e-3", "--out", str(tmp_path / "never")]) == 2
    assert "sweep.etas" in capsys.readouterr().err
    assert main(["sweep", "--etas", "1e-5,,1e-4", "--out", str(tmp_path / "never")]) == 2
    assert "--etas: could not convert string to float: ''" in capsys.readouterr().err
    assert main(["sweep", "--etas", "", "--out", str(tmp_path / "never")]) == 2
    assert "--etas: could not convert string to float: ''" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


# plans whose arrays exceed any machine's memory, and the key each names
_OVERSIZED = [
    ({"kind": "newton-two-level", "n_steps": 10**15}, "n_steps = 1000000000000000"),
    (
        {"kind": "newton-double-well", "model": {"n_levels": 6, "grid": {"n_points": 10**7}}},
        "model.grid.n_points = 10000000",
    ),
    (
        {"kind": "continuation-double-well", "model": {"n_levels": 400, "grid": {"n_points": 1600}}},
        "model.n_levels = 400",
    ),
    ({"kind": "cn-order-check", "n_steps": 10**14}, "n_steps = 100000000000000"),
]


@pytest.mark.parametrize("config, key", _OVERSIZED, ids=["n_steps", "n_points", "n_levels", "cn-order-steps"])
def test_plans_larger_than_memory_refused(tmp_path, capsys, config, key):
    # refused while the plan is resolved, before any array it sizes exists:
    # numpy's MemoryError was a traceback with exit code 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{key} needs about .* GiB, more than the .* GiB of physical memory"):
            ExperimentConfig.from_dict(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "never").exists()


def test_cli_overrides_are_written_before_the_check(tmp_path, capsys):
    # the overrides replace the file's values before the config is checked,
    # so a file whose own step count and seed are refused runs with them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "newton-two-level", "n_steps": 10**15, "seed": -1}))
    assert main(["run", str(path), "--out", str(tmp_path / "n"), "--steps", "200", "--seed", "5"]) == 0
    manifest = json.loads((tmp_path / "n" / "manifest.json").read_text())
    assert manifest["config"]["n_steps"] == manifest["resolved"]["n_steps"] == 200
    assert manifest["config"]["seed"] == manifest["resolved"]["perturbation_seed"] == 5
    # a config or block that is not an object is refused, override or not
    for config, extra, message in (
        ({"kind": "newton-two-level", "newton": 5}, ["--tol", "1e-3"], "the newton block must be an object"),
        ({"kind": "newton-double-well", "model": None}, ["--nd", "6"], "the model block must be an object"),
        ([{"kind": "newton-two-level"}], ["--steps", "200"], "must be an object with a 'kind' field"),
    ):
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", str(tmp_path / "never"), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (config, err)
    assert not (tmp_path / "never").exists()


def test_sweep_workers_named_when_their_copies_exceed_memory(monkeypatch):
    # each worker holds its own problem: at 10^6 steps one fits in a
    # 100 MiB machine and four do not
    page = 4096
    pages = {"SC_PHYS_PAGES": 100 * 2**20 // page, "SC_PAGE_SIZE": page}
    monkeypatch.setattr("os.sysconf", pages.__getitem__)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    config = {"kind": "eta-sweep", "n_steps": 10**6, "sweep": {"etas": [1e-5], "n_seeds": 4, "workers": 4}}
    with pytest.raises(ValueError, match=r"n_steps = 1000000 needs about .* on 4 workers \(sweep\.workers\)"):
        ExperimentConfig.from_dict(config)
    assert ExperimentConfig.from_dict(dict(config, sweep=dict(config["sweep"], workers=1))).plan.n_steps == 10**6


def _unknown_sysconf_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("missing", ["function", "name"])
def test_no_memory_refusal_without_sysconf(monkeypatch, missing):
    # where the page counts cannot be read, the plan is not refused
    if missing == "function":
        monkeypatch.delattr("os.sysconf")
    else:
        monkeypatch.setattr("os.sysconf", _unknown_sysconf_name)
    assert ExperimentConfig.from_dict({"kind": "newton-two-level", "n_steps": 10**15}).plan.n_steps == 10**15


# a two-level-sized reduced system of full rank, for the diagnostic's checks
_FULL_RANK = ReducedSystem(matrix=np.eye(4), rhs=np.zeros(4))


@pytest.mark.parametrize(
    "cls, kwargs, key",
    [
        # NaN compares false against any bound, so a range check must say
        # what is allowed: 0 <= eta < inf
        (PerturbationSpec, {"eta": float("nan"), "seed": 0}, "eta"),
        (PerturbationSpec, {"eta": float("inf"), "seed": 0}, "eta"),
        (SweepSpec, {"etas": [float("nan"), 1e-3]}, "etas"),
        # counts that range() would refuse only inside the run
        (NewtonConfig, {"max_iters": 2.5}, "max_iters"),
        (NewtonConfig, {"max_iters": True}, "max_iters"),
        (ContinuationConfig, {"n_intermediate": 2.5}, "n_intermediate"),
        (ContinuationConfig, {"n_intermediate": True}, "n_intermediate"),
        (SweepSpec, {"n_seeds": 2.5}, "n_seeds"),
        # non-finite or mistyped values, refused by the dataclass itself
        (TwoLevelParams, {"delta": float("nan")}, "delta"),
        (TwoLevelParams, {"e0": float("inf")}, "e0"),
        (TwoLevelParams, {"envelope_skew": float("nan")}, "envelope_skew"),
        (TwoLevelParams, {"t_f": float("inf")}, "t_f"),
        # numpy compares a float32 with the largest double cast to float32, inf
        (TwoLevelParams, {"mu": np.float32("inf")}, "mu"),
        (DoubleWellParams, {"mass": float("inf")}, "mass"),
        (DoubleWellParams, {"t_f": float("inf")}, "t_f"),
        (DoubleWellParams, {"n_levels": 4.5}, "n_levels"),
        (SpatialGrid, {"r_max": float("inf")}, "r_max"),
        (SpatialGrid, {"n_points": 8.5}, "n_points"),
        (NewtonConfig, {"tol": float("inf")}, "tol"),
        (ContinuationConfig, {"newton": None}, "newton"),
        (PerturbationSpec, {"eta": "x", "seed": 0}, "eta"),
        (PerturbationSpec, {"eta": 1e-3, "seed": "x"}, "seed"),
        (TimeGrid, {"t_f": float("inf"), "n_steps": 10}, "t_f"),
        (PerturbationSpec, {"eta": 1e-3, "seed": -1}, "seed"),
        (NewtonConfig, {"singular_cond_threshold": float("nan")}, "singular_cond_threshold"),
        (SweepSpec, {"workers": 0}, "workers"),
        (_CpuScalingModel, {"iterations": 1.5}, "iterations"),
        # a nested block, which a config builds itself but a library caller passes
        (DoubleWellParams, {"grid": 5}, "grid"),
        (DoubleWellParams, {"grid": {"n_points": 64}}, "grid"),
        # a rank tolerance outside [0, 1) gave rank 0 (NaN, 2.0) or full rank
        # (-1.0) on the two-level system, without a word
        (system_diagnostic, {"system": _FULL_RANK, "rank_tolerance": float("nan")}, "rank_tolerance"),
        (system_diagnostic, {"system": _FULL_RANK, "rank_tolerance": -1.0}, "rank_tolerance"),
        (system_diagnostic, {"system": _FULL_RANK, "rank_tolerance": 2.0}, "rank_tolerance"),
        (system_diagnostic, {"system": _FULL_RANK, "rank_tolerance": 1.0}, "rank_tolerance"),
        (system_diagnostic, {"system": _FULL_RANK, "rank_tolerance": "1e-9"}, "rank_tolerance"),
        # field descriptors, which failed only when sampled, and then without
        # naming the field
        (SinSqEnvelope, {"e0": "2"}, "e0"),
        (SinSqEnvelope, {"e0": float("nan")}, "e0"),
        (SinSqEnvelope, {"e0": 1.0, "skew": float("inf")}, "skew"),
        (PiPulse, {"amplitude": 1.0, "envelope_freq_mult": "4", "carrier_freq": 0.1}, "envelope_freq_mult"),
        (PiPulse, {"amplitude": float("nan"), "envelope_freq_mult": 4.0, "carrier_freq": 0.1}, "amplitude"),
        (PiPulse, {"amplitude": 1.0, "envelope_freq_mult": 4.0, "carrier_freq": None}, "carrier_freq"),
        # an empty pair was built with dim 0 and failed only when propagated,
        # with an IndexError from the spectral norm
        (HamiltonianPair, {"h0": np.zeros((0, 0)), "h1": np.zeros((0, 0))}, "h0"),
        # finite values that are still out of range
        (TwoLevelParams, {"mu": 0.0}, "mu"),
        (m0_seed, {"dec": TargetDecomposition(s=np.zeros((2, 2)), a=np.zeros((2, 2))), "t_f": 0.0}, "t_f"),
        (m0_seed, {"dec": TargetDecomposition(s=np.zeros((2, 2)), a=np.zeros((2, 2))), "t_f": -1.0}, "t_f"),
    ],
)
def test_library_specs_refuse_bad_values(cls, kwargs, key):
    # the dataclasses a library caller builds directly, the rank diagnostic
    # and the stage-0 seed refuse what the config path refuses, before any
    # run starts
    with pytest.raises(ValueError, match=f"^{key} must be"):
        cls(**kwargs)


_NO_DIPOLE = DoubleWellModel(
    pair=HamiltonianPair(np.diag([0.0, 1.0, 2.0, 3.0]), np.zeros((4, 4))),
    omega_03=3.0,
    mu_03=0.0,
    eigenenergies=np.arange(4.0),
    params=DoubleWellParams(),
)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TargetDecomposition(s=np.eye(2), a=np.ones((2, 2))), "A is not antisymmetric"),
        (lambda: TargetDecomposition(s=np.eye(2), a=np.zeros((3, 3))), "S and A must share a dimension"),
        (lambda: unitary_exp(np.eye(2)), "generator is not anti-Hermitian"),
        (lambda: pi_pulse_field(_NO_DIPOLE), "model has no usable 0-3 dipole element"),
        (lambda: hermitian_residual(np.eye(2), np.eye(3)), "U_N and U_tar dimensions differ"),
        (
            lambda: reduce_system(np.zeros((4, 4)), np.zeros((9, 9)), 1.0, np.zeros((2, 2))),
            "Gram sums must be square and equally sized",
        ),
        (
            lambda: reduce_system(np.zeros((4, 4)), np.zeros((4, 4)), 1.0, np.zeros((3, 3))),
            "residual dimension does not match the Gram sums",
        ),
        (lambda: reduce_system(0.0, 0.0, 1.0, 0.0), "Gram sums must be square and equally sized"),
        (lambda: HamiltonianPair(np.eye(2), np.zeros((3, 3))), r"h0 \(2, 2\) and h1 \(3, 3\) differ in dimension"),
    ],
    ids=[
        "decomposition-a-not-antisymmetric",
        "decomposition-shapes-differ",
        "exp-not-anti-hermitian",
        "pi-pulse-no-dipole",
        "residual-shapes-differ",
        "reduce-gram-shapes-differ",
        "reduce-residual-shape",
        "reduce-gram-scalars",
        "pair-dimensions-differ",
    ],
)
def test_library_calls_refuse_inconsistent_values(call, message):
    # values each valid alone that do not fit together, or that the
    # operation cannot use, refused with a message naming the mismatch
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "x, text",
    [(None, ""), (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"), (np.float64(0.1), "0.1")],
    ids=["none", "nan", "inf", "minus-inf", "finite"],
)
def test_format_float_fields(x, text):
    assert format_float(x) == text


def test_specs_accept_numpy_counts():
    assert NewtonConfig(max_iters=np.int64(3)).max_iters == 3
    assert ContinuationConfig(n_intermediate=np.int64(2)).n_intermediate == 2
    assert SweepSpec(n_seeds=np.int32(2)).n_seeds == 2


def test_perfbench_sites_resolve():
    # every call the benchmark wraps must still exist under the name it is
    # wrapped by; SITES is read from the source, without importing perfbench
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text())
    sites = next(
        node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "SITES"
    )
    pairs = [(ast.literal_eval(site.elts[0]), ast.literal_eval(site.elts[1])) for site in sites.elts]
    assert len(pairs) > 10
    missing = [f"{mod}.{attr}" for mod, attr in pairs if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_config_is_frozen():
    # the plan is resolved once, when the config is built: an assigned seed
    # or block would be recorded in the manifest but not run
    cfg = ExperimentConfig(kind="newton-two-level", n_steps=200)
    for name, value in (("seed", 5), ("newton", {"max_iters": 2}), ("out_dir", "elsewhere")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)


def test_block_edits_after_building_change_neither_run_nor_manifest(tmp_path):
    # the blocks are copied when the config is built, and the manifest
    # records the config the plan was resolved from
    newton = {"max_iters": 3}
    sweep = {"etas": [1e-4], "n_seeds": 1, "k_max": 2}
    cfg = ExperimentConfig(kind="newton-two-level", n_steps=200, out_dir=str(tmp_path / "n"), newton=newton)
    newton["max_iters"] = 2
    cfg.newton["tol"] = 1e-3
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "n" / "manifest.json").read_text())
    assert manifest["config"]["newton"] == {"max_iters": 3} == cfg.to_dict()["newton"]
    assert manifest["resolved"]["newton"]["max_iters"] == cfg.plan.newton.max_iters == 3
    assert manifest["resolved"]["newton"]["tol"] == cfg.plan.newton.tol == NewtonConfig().tol
    cfg = ExperimentConfig(kind="eta-sweep", n_steps=200, out_dir=str(tmp_path / "s"), sweep=sweep)
    sweep["etas"].append(1e-3)
    cfg.sweep["etas"].append(1e-2)
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["config"]["sweep"]["etas"] == [1e-4] == list(cfg.plan.sweep.etas)


@pytest.mark.parametrize(
    "config, builds",
    [
        ({"kind": "newton-two-level"}, [1, 1, 1]),
        # one perturbation per run
        ({"kind": "eta-sweep", "sweep": {"etas": [1e-4], "n_seeds": 2}}, [1, 1, 2]),
    ],
)
def test_each_block_built_once(tmp_path, monkeypatch, config, builds):
    # reading the config resolves every block; the run builds none again
    counts = {}
    for cls in (TwoLevelParams, NewtonConfig, PerturbationSpec):
        counts[cls] = 0

        def counting(self, cls=cls, post_init=cls.__post_init__):
            counts[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    run_experiment(ExperimentConfig.from_dict({**config, "out_dir": str(tmp_path / "o")}))
    assert list(counts.values()) == builds


def _settings(value, path=()) -> dict:
    """The leaves of a plan by path: each field of a dataclass, recursively."""
    if not is_dataclass(value):
        return {path: value}
    leaves = {}
    for f in fields(value):
        leaves.update(_settings(getattr(value, f.name), (*path, f.name)))
    return leaves


def _another(value):
    """A valid value other than ``value`` for the field it sets."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 1.5 * value if value else 0.5
    if isinstance(value, list):
        return [2 * x for x in value]
    return 0.5  # the two-level e0, None until set


@pytest.mark.parametrize("kind", KINDS)
def test_each_plan_field_has_one_key(kind):
    # set each key the kind accepts (of those a plan field names) to another
    # value, one at a time, and note which plan fields take that value; a field
    # that follows another key by a rule of its own (the double-well eta follows
    # n_levels) takes a different one
    default = _settings(ExperimentConfig.from_dict({"kind": kind}).plan)
    set_by = {}
    for path, value in default.items():
        if value is None and len(path) == 1:
            continue  # a block the kind does not read
        new = _another(value)
        block = new
        for key in reversed(path):
            block = {key: block}
        try:
            plan = ExperimentConfig.from_dict({"kind": kind, **block}).plan
        except ValueError as err:
            assert "unknown" in str(err), (path, err)
            continue
        changed = [p for p, v in _settings(plan).items() if v == new and default[p] != new]
        assert path in changed, (path, changed)
        for p in changed:
            set_by.setdefault(p, []).append(".".join(path))
    assert {p: keys for p, keys in set_by.items() if len(keys) > 1} == {}


# a small config of each kind, so that one run takes a fraction of a second
_SMALL = {
    "newton-two-level": {"n_steps": 200, "newton": {"max_iters": 2}},
    "newton-double-well": {"n_steps": 256, "model": {"n_levels": 4}, "newton": {"max_iters": 1}},
    "continuation-two-level": {
        "n_steps": 200,
        "continuation": {"n_intermediate": 1},
        "newton": {"max_iters": 2},
    },
    "continuation-double-well": {
        "n_steps": 256,
        "model": {"n_levels": 4},
        "continuation": {"n_intermediate": 1},
        "newton": {"max_iters": 1},
    },
    "eta-sweep": {"n_steps": 200, "sweep": {"etas": [1e-4], "n_seeds": 1, "k_max": 2}},
    "singularity-demo": {"n_steps": 200},
    "cn-order-check": {"n_steps": 10},
    "cpu-scaling": {"n_steps": 64, "model": {"iterations": 1}},
}
# keys that by design move nothing a run records but its timings:
# sweep.workers sets the parallelism, and cpu-scaling's seed draws
# perturbations whose fixed iteration budget is spent whatever they are
_TIMING_ONLY = {("eta-sweep", ("sweep", "workers")), ("cpu-scaling", ("seed",))}


def _outputs(out: Path) -> dict:
    """The files of a run by name, less what may differ between runs of one
    plan: the config as written, its hash and the wall-clock times."""
    found = {}
    for path in out.iterdir():
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            for key in ("config", "config_sha256", "wall_seconds"):
                payload.pop(key, None)
            found[path.name] = payload
        else:
            rows = list(csv.DictReader(io.StringIO(path.read_text())))
            found[path.name] = [{k: v for k, v in row.items() if k != "wall_seconds"} for row in rows]
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_each_key_changes_the_output(tmp_path, kind):
    # set each key the kind accepts (of those a plan field names) to another
    # valid value, one at a time: the run must record something else, or the
    # key is a setting that changes nothing
    base = {"kind": kind, **_SMALL[kind]}

    def outputs(config, name):
        run_experiment(ExperimentConfig.from_dict({**config, "out_dir": str(tmp_path / name)}))
        return _outputs(tmp_path / name)

    reference = outputs(base, "base")
    unchanged = []
    for i, (path, value) in enumerate(_settings(ExperimentConfig.from_dict(base).plan).items()):
        if value is None and len(path) == 1:
            continue  # a block or seed the kind does not read
        if (kind, path) in _TIMING_ONLY:
            continue
        config = copy.deepcopy(base)
        block = config
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = _another(value)
        try:
            changed = outputs(config, str(i))
        except ValueError as err:
            assert "unknown" in str(err), (path, err)
            continue
        if changed == reference:
            unchanged.append(".".join(path))
    assert unchanged == []


@pytest.mark.parametrize("kind", KINDS)
def test_run_experiment_is_the_one_writer(tmp_path, monkeypatch, kind):
    # a runner returns its artifacts and writes nothing; run_experiment
    # writes them in the runner's order, then the manifest, which lists them
    plan = ExperimentConfig.from_dict({"kind": kind, **_SMALL[kind]}).plan
    monkeypatch.chdir(tmp_path)
    artifacts, _, _ = experiments._KINDS[kind].run(plan)
    assert list(tmp_path.iterdir()) == []
    result = run_experiment(ExperimentConfig.from_dict({"kind": kind, "out_dir": "out", **_SMALL[kind]}))
    assert [f.name for f in result.files] == [*artifacts, "manifest.json"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == list(artifacts)


def test_type_hints_read_once_per_class(monkeypatch):
    # a second config of a kind reads no dataclass's type hints again
    config = {"kind": "eta-sweep", "sweep": {"etas": [1e-5, 1e-4]}}
    ExperimentConfig.from_dict(config)
    calls = []
    read = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda *args: calls.append(args) or read(*args))
    misses = experiments._hints.cache_info().misses
    ExperimentConfig.from_dict(dict(config, seed=2))
    assert calls == []
    assert experiments._hints.cache_info().misses == misses


def test_config_accepts_numpy_and_integer_numbers(tmp_path):
    # numpy integers set int fields and plain integers set float fields; the
    # manifest keeps them as numbers a later config check accepts again
    cfg = ExperimentConfig(
        kind="newton-two-level",
        out_dir=str(tmp_path / "o"),
        seed=np.int64(3),
        model={"t_f": 9000, "delta": np.float64(1e-4)},
        n_steps=np.int64(200),
        newton={"max_iters": np.int64(2)},
    )
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3 and isinstance(manifest["config"]["seed"], int)
    ExperimentConfig.from_dict(manifest["config"])


def test_eta_sweep_resolves_like_two_level_kinds(tmp_path):
    cfg = ExperimentConfig(
        kind="eta-sweep",
        out_dir=str(tmp_path / "sw"),
        n_steps=600,
        sweep={"etas": [1e-5], "n_seeds": 1, "k_max": 2},
    )
    run_experiment(cfg)
    resolved = json.loads((tmp_path / "sw" / "manifest.json").read_text())["resolved"]
    assert resolved["n_steps"] == 600
    assert resolved["k_max"] == 2
    assert resolved["newton"] == {"tol": 1e-12, "max_iters": 2, "singular_cond_threshold": 1e12}


def test_cli_sweep(tmp_path):
    rc = main(
        [
            "sweep",
            "--etas",
            "1e-5",
            "--n-seeds",
            "2",
            "--out",
            str(tmp_path / "sw"),
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    raw = (tmp_path / "sw" / "fig2_raw.csv").read_text().splitlines()
    assert len(raw) == 3  # header + 2 runs


def test_cli_sweep_refuses_an_overflowing_guess(tmp_path, capsys):
    # a perturbation of 1e307 makes the guess's generator overflow: the
    # propagation refuses it rather than labelling the eta Diverges
    rc = main(["sweep", "--etas", "1e307", "--n-seeds", "1", "--steps", "50", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: the time step, field samples, h0 and h1 overflow" in capsys.readouterr().err


def test_run_refused_by_its_runner_leaves_no_out_dir(tmp_path):
    # the config check accepts this sweep, and its runner refuses the
    # overflowing guess; the output directory is made only once the runner
    # has returned
    out = tmp_path / "never"
    cfg = ExperimentConfig.from_dict(
        {"kind": "eta-sweep", "n_steps": 50, "out_dir": str(out), "sweep": {"etas": [1e307], "n_seeds": 1}}
    )
    with pytest.raises(ValueError, match="overflow"):
        run_experiment(cfg)
    assert not out.exists()


def test_sweep_worker_pool_matches_serial():
    base = {"kind": "eta-sweep", "seed": 5}
    serial = run_eta_sweep(
        ExperimentConfig.from_dict(
            dict(base, sweep={"etas": [1e-5, 1e-4], "n_seeds": 2, "k_max": 9, "workers": 1})
        )
    )
    parallel = run_eta_sweep(
        ExperimentConfig.from_dict(
            dict(base, sweep={"etas": [1e-5, 1e-4], "n_seeds": 2, "k_max": 9, "workers": 2})
        )
    )
    assert len(serial.runs) == len(parallel.runs)
    for a, b in zip(serial.runs, parallel.runs):
        assert (a.eta, a.seed, a.regime) == (b.eta, b.seed, b.regime)
        assert a.dev_u == b.dev_u


def test_sweep_pool_capped_by_jobs_and_cpus(monkeypatch):
    # a recording stand-in for the pool: it maps serially, so no process starts
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    base = {"kind": "eta-sweep", "seed": 5, "n_steps": 400}
    sweeps = {
        w: run_eta_sweep(
            ExperimentConfig.from_dict(
                dict(base, sweep={"etas": [1e-5], "n_seeds": 2, "k_max": 3, "workers": w})
            )
        )
        for w in (64, 1)
    }
    assert pools == [2]
    assert sweeps[64].runs == sweeps[1].runs


def test_newton_double_well_kind_small(tmp_path):
    # desk-scale run: 6 levels, modest grid
    cfg = ExperimentConfig(
        kind="newton-double-well",
        out_dir=str(tmp_path / "dw"),
        model={"n_levels": 6},
        n_steps=2**14,
        seed=4,
        perturbation={"eta": 1e-6},
        newton={"max_iters": 12},
    )
    result = run_experiment(cfg)
    manifest = json.loads((tmp_path / "dw" / "manifest.json").read_text())
    assert manifest["resolved"]["model"]["n_levels"] == 6
    assert manifest["resolved"]["model"]["omega_03"] == pytest.approx(0.1202146794, abs=1e-8)
    assert result.summary["final_dev_u"] is not None


_MEDIAN_VALUES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
    st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]),
)
_MEDIAN_INPUTS = st.one_of(
    st.lists(_MEDIAN_VALUES, min_size=1, max_size=40),
    # a few distinct values, each repeated: exact ties
    st.lists(_MEDIAN_VALUES, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
    ),
)


@settings(max_examples=300, deadline=None)
@given(values=_MEDIAN_INPUTS)
def test_sweep_median_is_numpy_median_property(values):
    vals = np.array(values)
    with np.errstate(invalid="ignore"):  # the mean of -inf and inf
        expected = float(np.median(vals))
    got = _median(vals)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
