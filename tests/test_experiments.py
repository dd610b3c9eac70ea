import json

import numpy as np
import pytest

from hamid.cli import main
from hamid.experiments import (
    REGIME_ALTERNATE,
    REGIME_DIVERGES,
    REGIME_RECOVERS,
    ExperimentConfig,
    classify_devs,
    run_experiment,
    run_eta_sweep,
)


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
        perturbation={"eta": 1e-5, "seed": 9},
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


def test_cli_demo_singularity(tmp_path, capsys):
    rc = main(["demo", "singularity", "--out", str(tmp_path / "d")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank: 3" in out
    assert "refused" in out


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
    ({"kind": "newton-two-level", "model": {"n_steps": 2.5}}, [], "model.n_steps"),
    ({"kind": "newton-two-level", "model": {"delta": "x"}}, [], "model.delta"),
    ({"kind": "newton-two-level", "seed": True}, [], "seed"),
    ({"kind": "newton-double-well", "model": {"grid": {"n_points": 64.5}}}, [], "n_points"),
    ({"kind": "continuation-two-level", "continuation": {"refine_m0": 1}}, [], "refine_m0"),
    ({"kind": "cpu-scaling", "model": {"iterations": 1.0}}, [], "model.iterations"),
    # non-finite floats, which would otherwise fail deep inside the run
    ({"kind": "cn-order-check", "model": {"t_f": float("inf")}}, [], "model.t_f"),
    ({"kind": "cn-order-check", "model": {"field_value": float("nan")}}, [], "model.field_value"),
    ({"kind": "cpu-scaling", "model": {"eta": float("nan")}}, [], "model.eta"),
    ({"kind": "cn-order-check", "model": {"t_f": 10**400}}, [], "model.t_f"),
    # counts out of range, which would otherwise become the default or an empty sweep
    ({"kind": "cn-order-check", "n_steps": 0}, [], "n_steps"),
    ({"kind": "cpu-scaling"}, ["--steps", "0"], "n_steps"),
    ({"kind": "newton-two-level", "model": {"n_steps": 0}}, [], "model.n_steps"),
    ({"kind": "newton-double-well", "model": {"n_steps": -4}}, [], "model.n_steps"),
    ({"kind": "cn-order-check", "model": {"n_steps": 0}}, [], "model.n_steps"),
    ({"kind": "eta-sweep", "sweep": {"n_seeds": 0}}, [], "sweep.n_seeds"),
    ({"kind": "eta-sweep", "sweep": {"k_max": 0}}, [], "sweep.k_max"),
    ({"kind": "eta-sweep", "sweep": {"workers": -1}}, [], "sweep.workers"),
    ({"kind": "eta-sweep", "sweep": {"etas": []}}, [], "sweep.etas"),
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
    assert not (tmp_path / "never").exists()


def test_config_accepts_numpy_and_integer_numbers(tmp_path):
    # numpy integers set int fields and plain integers set float fields; the
    # manifest keeps them as numbers a later config check accepts again
    cfg = ExperimentConfig(
        kind="cn-order-check",
        out_dir=str(tmp_path / "o"),
        seed=np.int64(3),
        model={"t_f": 1, "field_value": np.float64(0.7), "n_steps": np.int64(100)},
    )
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3 and isinstance(manifest["config"]["seed"], int)
    ExperimentConfig.from_dict(manifest["config"])


def test_eta_sweep_resolves_like_two_level_kinds(tmp_path):
    cfg = ExperimentConfig(
        kind="eta-sweep",
        out_dir=str(tmp_path / "sw"),
        model={"n_steps": 600},
        sweep={"etas": [1e-5], "n_seeds": 1, "k_max": 9},
        newton={"max_iters": 2},
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

    monkeypatch.setattr("hamid.experiments.ProcessPoolExecutor", RecordingPool)
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
        perturbation={"eta": 1e-6, "seed": 4},
        newton={"max_iters": 12},
    )
    result = run_experiment(cfg)
    manifest = json.loads((tmp_path / "dw" / "manifest.json").read_text())
    assert manifest["resolved"]["model"]["n_levels"] == 6
    assert manifest["resolved"]["model"]["omega_03"] == pytest.approx(0.1202146794, abs=1e-8)
    assert result.summary["final_dev_u"] is not None
