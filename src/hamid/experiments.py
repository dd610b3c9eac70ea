"""Benchmark experiment runner: deterministic, file-based reproductions of
the identification studies (convergence tables, perturbation-magnitude
sweeps, continuation traces, the singular-configuration demo, a time-step
order check, and wall-clock scaling across system sizes).

Every run writes CSV/JSON artifacts plus a manifest.json holding all
resolved parameters, so a run is reproducible from its manifest alone.
CSV floats are formatted at 12 significant digits and runs are seeded, so
identical configs produce byte-identical CSVs.

The table ``_KINDS`` maps every kind to its runner, the keys its ``model``
block accepts (with their types) and the other config blocks it reads.
``ExperimentConfig`` checks each block against that entry when built, so an
unknown key or a value of the wrong type raises ``ValueError`` before any
work starts; ``run_experiment`` calls the runner and writes the manifest.
The Newton and continuation runners serve both model families through a
``_Family`` entry (set-up, Newton settings, default perturbation,
continuation length, figure name).
"""
from __future__ import annotations

import hashlib
import json
import numbers
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .continuation import (
    ContinuationConfig,
    continuation_identify,
    m0_seed,
)
from .fields import SinSqEnvelope, TimeGrid, field_to_config, sample_field
from .linalg import decompose_target, matrix_to_json
from .models import (
    TWO_LEVEL_DEFAULT_STEPS,
    DoubleWellParams,
    PerturbationSpec,
    TwoLevelParams,
    build_double_well,
    perturb_pair,
    pi_pulse_field,
    two_level_model,
)
from .newton import (
    FLAG_CONVERGED,
    NewtonConfig,
    NewtonReport,
    SingularJacobianError,
    linearize,
    newton_identify,
    solve_update,
    system_diagnostic,
)
from .propagation import HamiltonianPair, cn_error_order, propagate_final
from .reporting import format_float, json_default, write_json, write_table

REGIME_RECOVERS = "RecoversOriginal"
REGIME_ALTERNATE = "AlternateSolution"
REGIME_DIVERGES = "Diverges"

# classification thresholds: between the recovered scales (~1e-11) and the
# alternate-solution scales (~1e-7)
RECOVERY_DEV_TOL = 1e-9

# Benchmark two-level configuration. The plain model (delta = 1e-7, skew
# = 0) has an exactly time-symmetric envelope, which makes the propagator
# complex-symmetric and leaves the coupling's off-diagonal invisible to
# identification at double precision: the target simply does not carry that
# information. The benchmark detuning and envelope skew below are the
# smallest departures that make all operator directions observable; both
# remain plain config fields.
BENCH_TWO_LEVEL_DELTA = 1e-4
BENCH_TWO_LEVEL_SKEW = 0.1
_BENCH_TWO_LEVEL = {"delta": BENCH_TWO_LEVEL_DELTA, "envelope_skew": BENCH_TWO_LEVEL_SKEW}

# The truncated-eigenbasis problem driven by a resonant pulse has weakly
# visible coupling directions (condition numbers a few 1e12); the refusal
# threshold for the double-well runs sits well above them and well below
# the exactly singular configurations (~1e17).
BENCH_DOUBLE_WELL_COND_THRESHOLD = 1e15
BENCH_DOUBLE_WELL_TOL = 1e-8

# Identification grid for the double-well benchmarks. The fully resolved
# physics grid (DOUBLE_WELL_DEFAULT_STEPS) makes the off-resonant coupling
# directions nearly invisible (their alias-level visibility shrinks with
# dt^2) and the Newton system effectively singular; 2**16 steps still
# resolves the carrier (~40 samples per period) while keeping every
# direction above the noise floor.
BENCH_DOUBLE_WELL_STEPS = 2**16

SWEEP_DEFAULTS = {"etas": np.logspace(-5, -2, 13).tolist(), "n_seeds": 15, "k_max": 9, "workers": 1}


def _field_types(cls, exclude=()) -> dict:
    """Field name -> type of a dataclass, as the config checks read it."""
    return {k: v for k, v in typing.get_type_hints(cls).items() if k not in exclude}


def _types_of(defaults: dict) -> dict:
    return {k: type(v) for k, v in defaults.items()}


# keys and value types of the optional config blocks, for the kinds that read them
_BLOCK_TYPES = {
    "perturbation": _field_types(PerturbationSpec),
    "newton": _field_types(NewtonConfig),
    # the newton block configures the continuation's Newton solves
    "continuation": _field_types(ContinuationConfig, exclude=("newton",)),
    # a null sweep value takes its default
    "sweep": {k: Optional[list[float] if k == "etas" else int] for k in SWEEP_DEFAULTS},
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 1
    out_dir: str = ""
    model: dict = field(default_factory=dict)
    perturbation: dict = field(default_factory=dict)
    newton: dict = field(default_factory=dict)
    continuation: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    n_steps: Optional[int] = None

    def __post_init__(self):
        for name, hint in _field_types(ExperimentConfig).items():
            if hint is not dict:
                _check_value("config", name, getattr(self, name), hint)
            elif getattr(self, name) is None:
                setattr(self, name, {})
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if not self.out_dir:
            self.out_dir = f"runs/{self.kind}"
        _check_blocks(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("experiment config must be an object with a 'kind' field")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        return asdict(self)


# the abstract number types a config value may come as (numpy scalars included)
_NUMBER_TYPES = {int: numbers.Integral, float: numbers.Real}


def _accepts(hint, value) -> bool:
    """Whether ``value`` may set a field of type ``hint``: int fields take
    integers, float fields any finite real number, and neither takes a
    bool."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_accepts(arg, value) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_accepts(args[0], v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return hint is bool
    if hint is float and isinstance(value, numbers.Real):
        # false for NaN and inf, and for an integer too large for a float
        return abs(value) <= sys.float_info.max
    return isinstance(value, _NUMBER_TYPES.get(hint, hint))


def _check_value(kind: str, key: str, value, hint) -> None:
    if not _accepts(hint, value):
        name = hint.__name__ if isinstance(hint, type) else repr(hint).replace("typing.", "")
        name = name.replace("float", "finite float")
        raise ValueError(f"{kind}: {key} must be of type {name}, got {value!r}")


def _check_block(kind: str, block_name: str, block, types: dict) -> None:
    if not isinstance(block, dict):
        raise ValueError(f"{kind}: the {block_name} block must be an object, got {block!r}")
    unknown = sorted(set(block) - set(types))
    if unknown:
        raise ValueError(f"{kind}: unknown {block_name} keys {unknown}; accepted: {sorted(types)}")
    for key, value in block.items():
        if is_dataclass(types[key]):
            _check_block(kind, f"{block_name}.{key}", value, _field_types(types[key]))
        else:
            _check_value(kind, f"{block_name}.{key}", value, types[key])


def _check_blocks(cfg: ExperimentConfig) -> None:
    """Every key of every block must be one the kind's table entry reads,
    with a value of the type of the field it sets and in range: a block that
    sets a dataclass is built into it, whose own checks are the range rules."""
    entry = _KINDS[cfg.kind]
    _check_block(cfg.kind, "model", cfg.model, entry.model_types)
    for name, types in _BLOCK_TYPES.items():
        _check_block(cfg.kind, name, getattr(cfg, name), types if name in entry.blocks else {})
    _check_ranges(cfg)
    if entry.params is not None:
        model = {k: v for k, v in cfg.model.items() if k != "n_steps"}
        _build(cfg.kind, "model", entry.params, model)
    _build(cfg.kind, "newton", NewtonConfig, cfg.newton)
    _build(cfg.kind, "continuation", ContinuationConfig, cfg.continuation)
    # the eta stands in for the family default, which is in range
    perturbation = {"eta": 0.0, "seed": cfg.seed, **cfg.perturbation}
    _build(cfg.kind, "perturbation", PerturbationSpec, perturbation)


def _build(kind: str, path: str, cls, block: dict):
    """``cls`` built from the checked config block at ``path``, its nested
    blocks first; an error of a dataclass's own checks names the key."""
    hints = typing.get_type_hints(cls)
    values = dict(block)
    for key, value in block.items():
        if is_dataclass(hints[key]):
            values[key] = _build(kind, f"{path}.{key}", hints[key], value)
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{kind}: {path}.{err}") from None


def _check_ranges(cfg: ExperimentConfig) -> None:
    """Step and run counts must be positive and the eta list non-empty; a
    zero would otherwise fall through to a default or to an empty sweep."""
    counts = {"n_steps": cfg.n_steps, "model.n_steps": cfg.model.get("n_steps")}
    counts.update({f"sweep.{k}": cfg.sweep.get(k) for k in ("n_seeds", "k_max", "workers")})
    for key, value in counts.items():
        if value is not None and value <= 0:
            raise ValueError(f"{cfg.kind}: {key} must be positive, got {value!r}")
    if cfg.sweep.get("etas") == []:
        raise ValueError(f"{cfg.kind}: sweep.etas must not be empty")


@dataclass
class RunResult:
    out_dir: Path
    files: list
    wall_seconds: float
    summary: dict


@dataclass
class EtaSweepRun:
    eta: float
    seed: int
    converged: bool
    dev_h0: Optional[float]
    dev_h1: Optional[float]
    dev_u: Optional[float]
    regime: str


@dataclass
class EtaSweepResult:
    runs: list
    aggregates: list  # one dict per eta
    resolved: dict  # the settings the sweep ran with, as its manifest records them


def classify_devs(dev_h0, dev_h1, dev_u) -> str:
    if dev_u is None or not np.isfinite(dev_u) or dev_u > RECOVERY_DEV_TOL:
        return REGIME_DIVERGES
    if (
        dev_h0 is not None
        and dev_h1 is not None
        and dev_h0 <= RECOVERY_DEV_TOL
        and dev_h1 <= RECOVERY_DEV_TOL
    ):
        return REGIME_RECOVERS
    return REGIME_ALTERNATE


def classify_run(report: NewtonReport) -> str:
    fin = report.final()
    if fin is None:
        return REGIME_DIVERGES
    return classify_devs(fin.dev_h0, fin.dev_h1, fin.dev_u)


def _newton_config(cfg: ExperimentConfig, **family) -> NewtonConfig:
    """NewtonConfig's defaults, overridden by the family's settings and then
    by the config's newton block."""
    return NewtonConfig(**{**family, **cfg.newton})


@dataclass(frozen=True)
class _Problem:
    """A model, its sampled field and the reference target U_tar = U_N(truth)."""

    params: object
    pair: HamiltonianPair
    field_desc: object
    grid: TimeGrid
    samples: np.ndarray
    u_0: np.ndarray
    u_tar: np.ndarray
    resolved_model: dict


def _problem(params, pair, field_desc, n_steps, resolved_model=None) -> _Problem:
    grid = TimeGrid(t_f=params.t_f, n_steps=int(n_steps))
    samples = sample_field(field_desc, grid)
    u_0 = np.eye(pair.dim, dtype=complex)
    u_tar = propagate_final(u_0, pair, samples, grid)
    return _Problem(params, pair, field_desc, grid, samples, u_0, u_tar, resolved_model)


def _two_level_setup(cfg: ExperimentConfig) -> _Problem:
    model = dict(cfg.model)
    n_steps = model.pop("n_steps", None)
    params = TwoLevelParams(**{**_BENCH_TWO_LEVEL, **model})
    pair, field_desc = two_level_model(params)
    resolved = dict(asdict(params), e0=params.resolved_e0)
    n_steps = cfg.n_steps or n_steps or TWO_LEVEL_DEFAULT_STEPS
    return _problem(params, pair, field_desc, n_steps, resolved)


def _double_well_setup(cfg: ExperimentConfig) -> _Problem:
    model = dict(cfg.model)
    n_steps = model.pop("n_steps", None)
    params = _build(cfg.kind, "model", DoubleWellParams, model)
    dw = build_double_well(params)
    resolved = dict(asdict(params), omega_03=dw.omega_03, mu_03=dw.mu_03)
    n_steps = cfg.n_steps or n_steps or BENCH_DOUBLE_WELL_STEPS
    return _problem(params, dw.pair, pi_pulse_field(dw), n_steps, resolved)


@dataclass(frozen=True)
class _Family:
    """What the Newton and continuation kinds of one model family differ in."""

    setup: Callable  # config -> _Problem
    params: type  # the parameter dataclass whose fields (and n_steps) the model block sets
    newton: dict  # NewtonConfig fields the family sets
    eta: Callable  # model parameters -> default perturbation magnitude
    n_intermediate: int
    figure: str

    @property
    def model_types(self) -> dict:
        return {**_field_types(self.params), "n_steps": Optional[int]}


_TWO_LEVEL = _Family(
    setup=_two_level_setup,
    params=TwoLevelParams,
    newton={},
    eta=lambda params: 1e-4,
    n_intermediate=20,
    figure="fig3.csv",
)
_DOUBLE_WELL = _Family(
    setup=_double_well_setup,
    params=DoubleWellParams,
    newton={
        "tol": BENCH_DOUBLE_WELL_TOL,
        "singular_cond_threshold": BENCH_DOUBLE_WELL_COND_THRESHOLD,
    },
    eta=lambda params: 1e-5 if params.n_levels <= 6 else 1e-6,
    n_intermediate=30,
    figure="fig6.csv",
)


def _manifest(out: Path, cfg: ExperimentConfig, resolved: dict, wall: float, files: list) -> Path:
    config = cfg.to_dict()
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, default=json_default).encode())
    payload = {
        "kind": cfg.kind,
        "config": config,
        "config_sha256": digest.hexdigest(),
        "resolved": resolved,
        "wall_seconds": wall,
        "outputs": [f.name for f in files],
    }
    return write_json(out / "manifest.json", payload)


def _sweep_seed(base_seed: int, eta_index: int, rep: int) -> int:
    return base_seed + 1000 * eta_index + rep


def _sweep_one(job) -> EtaSweepRun:
    """One (eta, seed) identification, runnable in a worker process."""
    p, newton_cfg, eta, seed = job
    guess = perturb_pair(p.pair, PerturbationSpec(eta=eta, seed=seed))
    _, report = newton_identify(p.u_0, p.u_tar, guess, p.samples, p.grid, newton_cfg, truth=p.pair)
    fin = report.final()
    return EtaSweepRun(
        eta=eta,
        seed=seed,
        converged=report.flag == FLAG_CONVERGED,
        dev_h0=fin.dev_h0 if fin else None,
        dev_h1=fin.dev_h1 if fin else None,
        dev_u=fin.dev_u if fin else None,
        regime=classify_run(report),
    )


def run_eta_sweep(cfg: ExperimentConfig) -> EtaSweepResult:
    """Identify the two-level benchmark from ``n_seeds`` perturbations at each
    eta and label each eta with its majority regime.  Every setting is resolved
    here once and returned in ``resolved``.  The pool of ``workers`` processes
    is capped by the job count and the CPU count; at 1 the runs stay here."""
    sweep = {**SWEEP_DEFAULTS, **{k: v for k, v in cfg.sweep.items() if v is not None}}
    newton_cfg = _newton_config(cfg, max_iters=int(sweep["k_max"]))
    problem = _two_level_setup(cfg)
    jobs = [
        (problem, newton_cfg, float(eta), _sweep_seed(cfg.seed, i, r))
        for i, eta in enumerate(sweep["etas"])
        for r in range(int(sweep["n_seeds"]))
    ]
    workers = min(int(sweep["workers"]), len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_sweep_one, jobs))
    else:
        runs = [_sweep_one(job) for job in jobs]
    runs.sort(key=lambda r: (r.eta, r.seed))
    aggregates = []
    for eta in sorted({r.eta for r in runs}):
        group = [r for r in runs if r.eta == eta]
        counts = {
            REGIME_RECOVERS: sum(r.regime == REGIME_RECOVERS for r in group),
            REGIME_ALTERNATE: sum(r.regime == REGIME_ALTERNATE for r in group),
            REGIME_DIVERGES: sum(r.regime == REGIME_DIVERGES for r in group),
        }
        # majority regime; ties resolve toward the worse outcome
        label = max(
            (REGIME_DIVERGES, REGIME_ALTERNATE, REGIME_RECOVERS),
            key=lambda name: counts[name],
        )
        devs = {
            name: np.array([getattr(r, name) for r in group if getattr(r, name) is not None])
            for name in ("dev_h0", "dev_h1", "dev_u")
        }
        agg = {"eta": eta, "n_runs": len(group), "label": label}
        agg.update({f"n_{k.lower()}": v for k, v in counts.items()})
        agg["frac_recovers"] = counts[REGIME_RECOVERS] / len(group)
        for name, vals in devs.items():
            agg[f"median_{name}"] = float(np.median(vals)) if vals.size else None
            agg[f"mean_{name}"] = float(np.mean(vals)) if vals.size else None
            agg[f"worst_{name}"] = float(np.max(vals)) if vals.size else None
        aggregates.append(agg)
    resolved = {
        "etas": [a["eta"] for a in aggregates],
        "n_seeds": int(sweep["n_seeds"]),
        "k_max": newton_cfg.max_iters,
        "n_steps": problem.grid.n_steps,
        "delta": problem.params.delta,
        "envelope_skew": problem.params.envelope_skew,
        "newton": asdict(newton_cfg),
    }
    return EtaSweepResult(runs=runs, aggregates=aggregates, resolved=resolved)


SWEEP_AGG_HEADER = [
    "eta",
    "n_runs",
    "n_recoversoriginal",
    "n_alternatesolution",
    "n_diverges",
    "frac_recovers",
    *(f"{stat}_{dev}" for stat in ("median", "mean", "worst") for dev in ("dev_h0", "dev_h1", "dev_u")),
    "label",
]
CPU_HEADER = ["label", "n_d", "n_steps", "newton_iterations", "wall_seconds"]


def _run_newton(family: _Family, cfg: ExperimentConfig, out: Path):
    p = family.setup(cfg)
    newton_cfg = _newton_config(cfg, **family.newton)
    eta = float(cfg.perturbation.get("eta", family.eta(p.params)))
    pert_seed = int(cfg.perturbation.get("seed", cfg.seed))
    guess = perturb_pair(p.pair, PerturbationSpec(eta=eta, seed=pert_seed))
    recovered, report = newton_identify(
        p.u_0, p.u_tar, guess, p.samples, p.grid, newton_cfg, truth=p.pair
    )
    files = [
        report.write_csv(out / "report.csv"),
        report.write_json(out / "report.json"),
        write_json(
            out / "recovered.json",
            {"h0": matrix_to_json(recovered.h0), "h1": matrix_to_json(recovered.h1)},
        ),
    ]
    fin = report.final()
    summary = {
        "flag": report.flag,
        "iterations": report.n_iterations,
        "regime": classify_run(report),
        "final_dev_h0": fin.dev_h0 if fin else None,
        "final_dev_h1": fin.dev_h1 if fin else None,
        "final_dev_u": fin.dev_u if fin else None,
    }
    resolved = {
        "model": p.resolved_model,
        "field": field_to_config(p.field_desc),
        "n_steps": p.grid.n_steps,
        "eta": eta,
        "perturbation_seed": pert_seed,
        "newton": asdict(newton_cfg),
    }
    return files, resolved, summary


def _run_continuation(family: _Family, cfg: ExperimentConfig, out: Path):
    p = family.setup(cfg)
    n_c = int(cfg.continuation.get("n_intermediate", family.n_intermediate))
    newton_cfg = _newton_config(cfg, **family.newton)
    cont_cfg = ContinuationConfig(**{**cfg.continuation, "n_intermediate": n_c, "newton": newton_cfg})
    _, report = continuation_identify(p.u_0, p.u_tar, p.samples, p.grid, cont_cfg, truth=p.pair)
    files = [
        report.write_csv(out / "stages.csv"),
        report.write_csv(out / family.figure),
        report.write_json(out / "stages.json"),
    ]
    last = report.stages[-1] if report.stages else None
    summary = {
        "flag": report.flag,
        "failed_stage": report.failed_stage,
        "stages": len(report.stages),
        "final_dev_h0": last.dev_h0 if last else None,
        "final_dev_h1": last.dev_h1 if last else None,
        "final_dev_u_stage": last.dev_u_stage if last else None,
    }
    resolved = {
        "field": field_to_config(p.field_desc),
        "n_steps": p.grid.n_steps,
        "n_intermediate": n_c,
        "refine_m0": cont_cfg.refine_m0,
        "newton": asdict(newton_cfg),
    }
    return files, resolved, summary


def _run_eta_sweep(cfg: ExperimentConfig, out: Path):
    result = run_eta_sweep(cfg)
    summary = {"labels": {format_float(a["eta"]): a["label"] for a in result.aggregates}}
    files = [
        write_table(
            out / "fig2.csv",
            SWEEP_AGG_HEADER,
            [[a[col] for col in SWEEP_AGG_HEADER] for a in result.aggregates],
        ),
        write_table(
            out / "fig2_raw.csv",
            [f.name for f in fields(EtaSweepRun)],
            [astuple(r) for r in result.runs],
        ),
    ]
    return files, result.resolved, summary


_SINGULARITY_MODEL = {"t_f": 9000.0, "rank_tolerance": 1e-9}


def _run_singularity_demo(cfg: ExperimentConfig, out: Path):
    model = {**_SINGULARITY_MODEL, **cfg.model}
    t_f = float(model["t_f"])
    rank_tol = float(model["rank_tolerance"])
    n_steps = int(cfg.n_steps or TWO_LEVEL_DEFAULT_STEPS)
    grid = TimeGrid(t_f=t_f, n_steps=n_steps)
    u_tar = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = m0_seed(decompose_target(u_tar), t_f)
    field_desc = SinSqEnvelope(e0=2.0)  # E(t) = sin^2(pi t / t_f)
    samples = sample_field(field_desc, grid)
    system = linearize(np.eye(2, dtype=complex), pair, samples, grid).system(u_tar)
    diag = system_diagnostic(system, rank_tol)
    newton_cfg = _newton_config(cfg)
    refused = False
    error_text = None
    try:
        solve_update(system, newton_cfg)
    except SingularJacobianError as err:
        refused = True
        error_text = str(err)
    payload = {
        "numerical_rank": diag.numerical_rank,
        "rank_tolerance": diag.rank_tolerance,
        "condition_estimate": diag.condition_estimate,
        "singular_values": list(diag.singular_values),
        "newton_step_refused": refused,
        "error": error_text,
        "seed_h0": matrix_to_json(pair.h0),
    }
    summary = {"numerical_rank": diag.numerical_rank, "newton_step_refused": refused}
    resolved = {
        "t_f": t_f,
        "n_steps": n_steps,
        "rank_tolerance": rank_tol,
        "field": field_to_config(field_desc),
        "singular_cond_threshold": newton_cfg.singular_cond_threshold,
    }
    return [write_json(out / "diagnostic.json", payload)], resolved, summary


_ORDER_CHECK_MODEL = {"t_f": 1.0, "field_value": 0.7, "n_steps": 100}


def _run_cn_order_check(cfg: ExperimentConfig, out: Path):
    model = {**_ORDER_CHECK_MODEL, **cfg.model}
    t_f = float(model["t_f"])
    e_value = float(model["field_value"])
    base_steps = int(cfg.n_steps or model["n_steps"])
    rng = np.random.default_rng(cfg.seed)
    h0 = rng.normal(size=(2, 2))
    h0 = 0.5 * (h0 + h0.T)
    h1 = np.zeros((2, 2))
    h1[0, 1] = h1[1, 0] = rng.normal()
    pair = HamiltonianPair(h0, h1)
    ratios = {n: cn_error_order(pair, e_value, t_f, n_steps=n) for n in (base_steps, 4 * base_steps)}
    path = write_table(out / "order.csv", ["n_steps", "error_ratio"], ratios.items())
    summary = {"ratios": {str(k): v for k, v in ratios.items()}}
    resolved = {
        "t_f": t_f,
        "field_value": e_value,
        "base_steps": base_steps,
        "h0": matrix_to_json(pair.h0),
        "h1": matrix_to_json(pair.h1),
    }
    return [path], resolved, summary


_CPU_SCALING_MODEL = {"n_steps": 2**15, "iterations": 3, "eta": 1e-6}


def _run_cpu_scaling(cfg: ExperimentConfig, out: Path):
    """Matched fixed-iteration identification workloads across system sizes.

    Every run uses the same step count and the same iteration budget (the
    tolerance is set far below reach so the budget is always spent), so the
    recorded wall-clock isolates the cost growth with dimension.
    """
    model = {**_CPU_SCALING_MODEL, **cfg.model}
    n_steps = int(cfg.n_steps or model["n_steps"])
    iters = int(model["iterations"])
    eta = float(model["eta"])
    budget = NewtonConfig(tol=1e-300, max_iters=iters, singular_cond_threshold=1e30)
    entries = []

    def timed(label, p: _Problem):
        guess = perturb_pair(p.pair, PerturbationSpec(eta=eta, seed=cfg.seed))
        t0 = time.perf_counter()
        _, report = newton_identify(p.u_0, p.u_tar, guess, p.samples, p.grid, budget, truth=p.pair)
        wall = time.perf_counter() - t0
        entries.append(
            {
                "label": label,
                "n_d": p.pair.dim,
                "n_steps": p.grid.n_steps,
                "newton_iterations": report.n_iterations,
                "wall_seconds": wall,
            }
        )

    params = TwoLevelParams(**_BENCH_TWO_LEVEL)
    timed("two-level", _problem(params, *two_level_model(params), n_steps))
    for n_levels in (6, 12):
        dw = build_double_well(DoubleWellParams(n_levels=n_levels))
        timed(f"double-well-{n_levels}", _problem(dw.params, dw.pair, pi_pulse_field(dw), n_steps))
    path = write_table(out / "cpu.csv", CPU_HEADER, [[e[col] for col in CPU_HEADER] for e in entries])
    summary = {"entries": entries}
    resolved = {"n_steps": n_steps, "iterations": iters, "eta": eta}
    return [path], resolved, summary


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its runner and the config it reads."""

    run: Callable  # (config, output directory) -> (files, resolved, summary)
    model_types: dict
    blocks: tuple = ()  # the optional blocks of _BLOCK_TYPES it reads
    params: Optional[type] = None  # the dataclass its model block sets, if any


def _family_kind(run: Callable, family: _Family, blocks: tuple) -> _Kind:
    return _Kind(partial(run, family), family.model_types, blocks, family.params)


_NEWTON_BLOCKS = ("perturbation", "newton")
_CONTINUATION_BLOCKS = ("newton", "continuation")
_KINDS = {
    "newton-two-level": _family_kind(_run_newton, _TWO_LEVEL, _NEWTON_BLOCKS),
    "newton-double-well": _family_kind(_run_newton, _DOUBLE_WELL, _NEWTON_BLOCKS),
    "continuation-two-level": _family_kind(_run_continuation, _TWO_LEVEL, _CONTINUATION_BLOCKS),
    "continuation-double-well": _family_kind(_run_continuation, _DOUBLE_WELL, _CONTINUATION_BLOCKS),
    "eta-sweep": _Kind(_run_eta_sweep, _TWO_LEVEL.model_types, ("newton", "sweep"), TwoLevelParams),
    "singularity-demo": _Kind(_run_singularity_demo, _types_of(_SINGULARITY_MODEL), ("newton",)),
    "cn-order-check": _Kind(_run_cn_order_check, _types_of(_ORDER_CHECK_MODEL)),
    "cpu-scaling": _Kind(_run_cpu_scaling, _types_of(_CPU_SCALING_MODEL)),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files, resolved, summary = _KINDS[cfg.kind].run(cfg, out)
    wall = time.perf_counter() - t0
    files.append(_manifest(out, cfg, resolved, wall, files))
    return RunResult(out_dir=out, files=files, wall_seconds=wall, summary=summary)
