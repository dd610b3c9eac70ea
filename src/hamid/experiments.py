"""Benchmark experiment runner: deterministic, file-based reproductions of
the identification studies (convergence tables, perturbation-magnitude
sweeps, continuation traces, the singular-configuration demo, a time-step
order check, and wall-clock scaling across system sizes).

A run goes config -> plan -> runner.  ``ExperimentConfig`` holds the blocks
as written.  Building it calls ``resolve``, which builds each block the kind
reads (see its ``_KINDS`` entry) once, into its dataclass, over the kind's
defaults, checking each key against that dataclass's fields as it goes.
An unknown key raises ``ValueError`` naming it, and so does the dataclass
for a value of the wrong type or out of range, before any work starts.
So does a plan too large for the machine's physical memory.  The result,
a frozen ``Plan``, is kept as ``cfg.plan``; the runner reads it and nothing
else.  A runner writes nothing: it returns its artifacts, each file's name
and its CSV table or JSON object, and ``run_experiment`` writes them, in
order, and the manifest last, through ``reporting.write``.

Every run writes CSV/JSON artifacts plus a manifest.json holding the config
and every resolved setting, so a run is reproducible from its manifest
alone.  CSV floats are formatted at 12 significant digits and runs are
seeded, so identical configs produce byte-identical CSVs.
"""
from __future__ import annotations

import copy
import json
import os
import time
import typing
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .continuation import (
    ContinuationConfig,
    continuation_identify,
    m0_seed,
)
from .fields import SinSqEnvelope, TimeGrid, field_to_config, require_count, require_real, require_type, sample_field
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
from .propagation import GRAM_CHUNK, HamiltonianPair, cn_error_order, propagate_final
from .reporting import format_float, json_default, write

REGIME_RECOVERS = "RecoversOriginal"
REGIME_ALTERNATE = "AlternateSolution"
REGIME_DIVERGES = "Diverges"
_REGIMES = (REGIME_RECOVERS, REGIME_ALTERNATE, REGIME_DIVERGES)  # best first

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

# run r at the i-th eta draws seed base + stride * i + r, so n_seeds may not
# exceed the stride
_SWEEP_SEED_STRIDE = 1000

# settings no key sets, which the manifests' resolved blocks record: the
# singularity demo's horizon (the two-level benchmark's), the order check's
# horizon and constant field value, and the scaling run's perturbation size
_SINGULARITY_T_F = 9000.0
_ORDER_CHECK_T_F = 1.0
_ORDER_CHECK_FIELD = 0.7
_CPU_SCALING_ETA = 1e-6


@dataclass(frozen=True)
class SweepSpec:
    """The eta-sweep block: ``n_seeds`` perturbations at each of ``etas``,
    each identified in at most ``k_max`` Newton iterations, on at most
    ``workers`` processes."""

    etas: list[float] = field(default_factory=lambda: np.logspace(-5, -2, 13).tolist())
    n_seeds: int = 15
    k_max: int = 9
    workers: int = 1

    def __post_init__(self):
        for name in ("n_seeds", "k_max", "workers"):
            require_count(name, getattr(self, name))
        if not isinstance(self.etas, list) or not self.etas:
            raise ValueError(f"etas must be a non-empty list, got {self.etas!r}")
        object.__setattr__(self, "etas", list(self.etas))  # the caller's list stays theirs
        for eta in self.etas:
            require_real("etas", eta)
        if not all(eta >= 0 for eta in self.etas):
            raise ValueError(f"etas must be nonnegative, got {self.etas!r}")
        if self.n_seeds > _SWEEP_SEED_STRIDE:
            raise ValueError(
                f"n_seeds must be at most {_SWEEP_SEED_STRIDE}, got {self.n_seeds!r}; "
                "more would repeat a seed at the next eta"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config as written, frozen.  Its resolved form is the
    attribute ``plan`` (see ``resolve``), which is not a field: ``to_dict``
    and the manifest record the config as written.  The blocks are copied
    when the config is built, so a later edit of a block dict (the
    caller's, or this config's own) changes neither the plan nor what
    ``to_dict`` records; derive a changed config with
    ``dataclasses.replace``."""

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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        try:  # resolve builds and checks the blocks
            require_type("out_dir", self.out_dir, str)
            require_count("seed", self.seed, 0)
            if self.n_steps is not None:
                require_count("n_steps", self.n_steps)
        except ValueError as err:
            raise ValueError(f"{self.kind}: {err}") from None
        object.__setattr__(self, "out_dir", self.out_dir or f"runs/{self.kind}")
        for f in fields(self):  # the blocks as given, copied
            object.__setattr__(self, f.name, copy.deepcopy(getattr(self, f.name)))
        object.__setattr__(self, "plan", resolve(self))
        object.__setattr__(self, "_written", asdict(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("experiment config must be an object with a 'kind' field")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        """The config the plan was resolved from, as a new dict."""
        return copy.deepcopy(self._written)


@dataclass(frozen=True)
class Plan:
    """A config resolved: every setting a runner reads, each block built
    once.  A block or seed the kind does not read is None."""

    seed: Optional[int]
    n_steps: int
    model: object  # the dataclass of the kind's model block
    newton: Optional[NewtonConfig]
    continuation: Optional[ContinuationConfig]
    perturbation: Optional[PerturbationSpec]
    sweep: Optional[SweepSpec]


def resolve(cfg: ExperimentConfig) -> Plan:
    """The plan of ``cfg``: each block the kind reads built into its dataclass
    over the kind's defaults, whose own checks are the type and range rules,
    and every other block checked empty.  Each setting has one key: the
    perturbation seed is built from ``seed`` and the sweep's Newton cap from
    ``k_max``."""
    kind = _KINDS[cfg.kind]
    params = _build(cfg.kind, "model", kind.params, cfg.model, kind.defaults) if kind.params else None
    for name in ("model", "perturbation", "newton", "continuation", "sweep"):
        if name in kind.reads or name == "model" and kind.params:
            continue
        block = getattr(cfg, name)
        if not isinstance(block, dict):
            raise ValueError(f"{cfg.kind}: the {name} block must be an object, got {block!r}")
        if block:
            raise ValueError(f"{cfg.kind}: this kind reads no {name} block, got keys {sorted(block)}")
    # an unread seed keeps its default, as an unread block stays empty
    if "seed" not in kind.reads and cfg.seed != ExperimentConfig.seed:
        default = ExperimentConfig.seed
        raise ValueError(f"{cfg.kind}: this kind reads no seed, so seed must stay {default}, got {cfg.seed!r}")
    sweep = newton = continuation = perturbation = None
    if "sweep" in kind.reads:
        sweep = _build(cfg.kind, "sweep", SweepSpec, cfg.sweep)
    if "newton" in kind.reads:
        k_max = {"max_iters": sweep.k_max} if sweep else {}
        newton = _build(cfg.kind, "newton", NewtonConfig, cfg.newton, kind.newton, **k_max)
    if "continuation" in kind.reads:
        continuation = _build(
            cfg.kind, "continuation", ContinuationConfig, cfg.continuation, kind.continuation, newton=newton
        )
    if "perturbation" in kind.reads:
        eta = {"eta": kind.eta(params)}
        perturbation = _build(cfg.kind, "perturbation", PerturbationSpec, cfg.perturbation, eta, seed=cfg.seed)
    seed = cfg.seed if "seed" in kind.reads else None
    n_steps = kind.n_steps if cfg.n_steps is None else cfg.n_steps
    _require_fits_memory(cfg.kind, kind, params, n_steps, sweep)
    return Plan(seed, n_steps, params, newton, continuation, perturbation, sweep)


def _require_fits_memory(name: str, kind: "_Kind", params, n_steps: int, sweep) -> None:
    """Refuse a plan whose largest arrays, estimated from its sizes, exceed
    the physical memory ``os.sysconf`` reports, naming the key that sizes
    most of them; where ``os.sysconf`` or its page counts are missing (on
    Windows, say), refuse nothing."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return
    d, n_points = kind.sizes(params)
    steps = kind.longest * n_steps
    # peak bytes by key, as tracemalloc measures them: sample_field's five
    # temporaries per step; the double well's three n_points^2 arrays; a
    # stepping workspace, 70 bytes per d^2 and block step, and the Newton
    # system, 140 per d^4
    nbytes = {
        f"n_steps = {n_steps}": 40 * steps,
        f"model.grid.n_points = {n_points}": 24 * n_points**2,
        f"model.n_levels = {d}": 70 * min(steps, GRAM_CHUNK) * d**2 + 140 * d**4,
    }
    workers = _sweep_workers(sweep) if sweep else 1
    need = workers * sum(nbytes.values())
    if 0 < physical < need:
        on = f" on {workers} workers (sweep.workers)" if workers > 1 else ""
        raise ValueError(
            f"{name}: {max(nbytes, key=nbytes.get)} needs about {need / 2**30:.3g} GiB{on}, "
            f"more than the {physical / 2**30:.3g} GiB of physical memory"
        )


# each dataclass's field types, read once: a read evaluates every annotation string
_hints = cache(typing.get_type_hints)


def _build(kind: str, path: str, cls, block, defaults: dict = {}, **built):
    """``cls`` built over ``defaults`` from the config block at ``path``, with
    the fields in ``built`` as given.  Each key of the block must name another
    field of ``cls``; a nested block is built the same way first, and ``cls``
    checks the values.  An error names the key."""
    if not isinstance(block, dict):
        raise ValueError(f"{kind}: the {path} block must be an object, got {block!r}")
    hints = {k: v for k, v in _hints(cls).items() if k not in built}
    unknown = sorted(set(block) - set(hints))
    if unknown:
        raise ValueError(f"{kind}: unknown {path} keys {unknown}; accepted: {sorted(hints)}")
    values = dict(defaults)
    for key, value in block.items():
        values[key] = _build(kind, f"{path}.{key}", hints[key], value) if is_dataclass(hints[key]) else value
    try:
        return cls(**values, **built)
    except ValueError as err:
        raise ValueError(f"{kind}: {path}.{err}") from None


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


@dataclass(frozen=True)
class _Problem:
    """A model, its sampled field and the reference target U_tar = U_N(truth)."""

    pair: HamiltonianPair
    field_desc: object
    grid: TimeGrid
    samples: np.ndarray
    u_0: np.ndarray
    u_tar: np.ndarray
    resolved_model: dict


def _problem(setup: Callable, params, n_steps: int) -> _Problem:
    pair, field_desc, resolved_model = setup(params)
    grid = TimeGrid(t_f=params.t_f, n_steps=int(n_steps))
    samples = sample_field(field_desc, grid)
    u_0 = np.eye(pair.dim, dtype=complex)
    u_tar = propagate_final(u_0, pair, samples, grid)
    return _Problem(pair, field_desc, grid, samples, u_0, u_tar, resolved_model)


def _two_level(params: TwoLevelParams):
    """The two-level family's pair, field and resolved model block."""
    pair, field_desc = two_level_model(params)
    return pair, field_desc, dict(asdict(params), e0=params.resolved_e0)


def _double_well(params: DoubleWellParams):
    """The double-well family's pair, field and resolved model block."""
    dw = build_double_well(params)
    return dw.pair, pi_pulse_field(dw), dict(asdict(params), omega_03=dw.omega_03, mu_03=dw.mu_03)


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its runner, the keys it reads and the defaults ``resolve`` fills in."""

    # plan -> (artifacts, resolved, summary): artifacts maps each file name, in
    # order, to a (header, rows) table (.csv) or a JSON object (.json)
    run: Callable
    reads: tuple  # the optional keys it reads: seed, perturbation, newton, continuation, sweep
    params: Optional[type]  # the dataclass the model block's keys set; None: the kind reads no model block
    n_steps: int  # the default step count
    defaults: dict = field(default_factory=dict)  # params fields the kind sets
    newton: dict = field(default_factory=dict)  # NewtonConfig fields the kind sets
    continuation: dict = field(default_factory=dict)  # ContinuationConfig fields the kind sets
    eta: Callable = None  # params -> default perturbation magnitude
    sizes: Callable = lambda params: (2, 0)  # params -> the largest (d, n_points) a run builds
    longest: int = 1  # the most steps one propagation takes, per n_steps (cn_error_order: 8)


# what the kinds of one model family share
_TWO_LEVEL = {
    "params": TwoLevelParams,
    "n_steps": TWO_LEVEL_DEFAULT_STEPS,
    "defaults": {"delta": BENCH_TWO_LEVEL_DELTA, "envelope_skew": BENCH_TWO_LEVEL_SKEW},
    "eta": lambda params: 1e-4,
}
_DOUBLE_WELL = {
    "params": DoubleWellParams,
    "n_steps": BENCH_DOUBLE_WELL_STEPS,
    "newton": {"tol": BENCH_DOUBLE_WELL_TOL, "singular_cond_threshold": BENCH_DOUBLE_WELL_COND_THRESHOLD},
    "continuation": {"n_intermediate": 30},
    "eta": lambda params: 1e-5 if params.n_levels <= 6 else 1e-6,
    "sizes": lambda params: (params.n_levels, params.grid.n_points),
}


def _manifest(cfg: ExperimentConfig, resolved: dict, wall: float, files: list) -> dict:
    import hashlib  # OpenSSL, about 3.4 MB resident: loaded by the first manifest

    config = cfg.to_dict()
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, default=json_default).encode())
    return {
        "kind": cfg.kind,
        "config": config,
        "config_sha256": digest.hexdigest(),
        "resolved": resolved,
        "wall_seconds": wall,
        "outputs": [f.name for f in files],
    }


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


def _median(vals: np.ndarray) -> float:
    """``float(np.median(vals))`` of a non-empty 1-d array, NaN and inf
    included: the mean of the middle value or two of one sort, NaN when any
    value is.  np.median's NaN check imports numpy.ma (0.6 to 1.5 MB
    resident)."""
    s = np.sort(vals)
    if np.isnan(s[-1]):  # the sort puts NaN last
        return float(s[-1])
    mid = s.size // 2
    # np.mean's sum starts from +0.0, which turns a -0.0 median into +0.0
    if s.size % 2:
        return 0.0 + float(s[mid])
    return (0.0 + float(s[mid - 1]) + float(s[mid])) / 2


def run_eta_sweep(cfg: ExperimentConfig) -> EtaSweepResult:
    """Identify the two-level benchmark from ``n_seeds`` perturbations at each
    eta of an eta-sweep config and label each eta with its majority regime.
    The pool of ``workers`` processes is capped by the job count and the CPU
    count; at 1 the runs stay here."""
    if cfg.plan.sweep is None:
        raise ValueError(f"run_eta_sweep needs an eta-sweep config, got kind {cfg.kind!r}")
    return _eta_sweep(cfg.plan)


def _sweep_workers(sweep: SweepSpec) -> int:
    """The sweep's processes: ``workers``, capped by the jobs and CPUs."""
    return min(int(sweep.workers), len(sweep.etas) * int(sweep.n_seeds), os.cpu_count() or 1)


def _eta_sweep(plan: Plan) -> EtaSweepResult:
    sweep = plan.sweep
    problem = _problem(_two_level, plan.model, plan.n_steps)
    jobs = [
        (problem, plan.newton, float(eta), plan.seed + _SWEEP_SEED_STRIDE * i + r)
        for i, eta in enumerate(sweep.etas)
        for r in range(int(sweep.n_seeds))
    ]
    workers = _sweep_workers(sweep)
    if workers > 1:
        # multiprocessing is about 1.3 MB resident; a serial sweep never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_sweep_one, jobs))
    else:
        runs = [_sweep_one(job) for job in jobs]
    runs.sort(key=lambda r: (r.eta, r.seed))
    aggregates = []
    for eta in sorted({r.eta for r in runs}):
        group = [r for r in runs if r.eta == eta]
        counts = {name: sum(r.regime == name for r in group) for name in _REGIMES}
        # majority regime; ties resolve toward the worse outcome
        label = max(reversed(_REGIMES), key=counts.get)
        devs = {
            name: np.array([getattr(r, name) for r in group if getattr(r, name) is not None])
            for name in ("dev_h0", "dev_h1", "dev_u")
        }
        agg = {"eta": eta, "n_runs": len(group), "label": label}
        agg.update({f"n_{k.lower()}": v for k, v in counts.items()})
        agg["frac_recovers"] = counts[REGIME_RECOVERS] / len(group)
        for name, vals in devs.items():
            agg[f"median_{name}"] = _median(vals) if vals.size else None
            agg[f"mean_{name}"] = float(np.mean(vals)) if vals.size else None
            agg[f"worst_{name}"] = float(np.max(vals)) if vals.size else None
        aggregates.append(agg)
    return EtaSweepResult(runs=runs, aggregates=aggregates)


SWEEP_AGG_HEADER = [
    "eta",
    "n_runs",
    *(f"n_{name.lower()}" for name in _REGIMES),
    "frac_recovers",
    *(f"{stat}_{dev}" for stat in ("median", "mean", "worst") for dev in ("dev_h0", "dev_h1", "dev_u")),
    "label",
]
CPU_HEADER = ["label", "n_d", "n_steps", "newton_iterations", "wall_seconds"]
NEWTON_HEADER = ["k", "e_k", "dev_H0", "dev_H1", "dev_U", "cond"]
STAGES_HEADER = ["m", "newton_iterations", "dev_U_stage", "dev_H0", "dev_H1"]


def _run_newton(setup: Callable, plan: Plan):
    p = _problem(setup, plan.model, plan.n_steps)
    guess = perturb_pair(p.pair, plan.perturbation)
    recovered, report = newton_identify(
        p.u_0, p.u_tar, guess, p.samples, p.grid, plan.newton, truth=p.pair
    )
    rows = [[it.k, it.e_k, it.dev_h0, it.dev_h1, it.dev_u, it.jacobian_condition] for it in report.iterations]
    artifacts = {
        "report.csv": (NEWTON_HEADER, rows),
        "report.json": report.to_json_dict(),
        "recovered.json": {"h0": matrix_to_json(recovered.h0), "h1": matrix_to_json(recovered.h1)},
    }
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
        "n_steps": int(plan.n_steps),
        "eta": float(plan.perturbation.eta),
        "perturbation_seed": int(plan.perturbation.seed),
        "newton": asdict(plan.newton),
    }
    return artifacts, resolved, summary


def _run_continuation(setup: Callable, figure: str, plan: Plan):
    p = _problem(setup, plan.model, plan.n_steps)
    _, report = continuation_identify(p.u_0, p.u_tar, p.samples, p.grid, plan.continuation, truth=p.pair)
    rows = [[st.m, st.newton_report.n_iterations, st.dev_u_stage, st.dev_h0, st.dev_h1] for st in report.stages]
    stages = (STAGES_HEADER, rows)  # one table, written under two names
    artifacts = {"stages.csv": stages, figure: stages, "stages.json": report.to_json_dict()}
    last = report.stages[-1]  # stage 0 is always recorded
    summary = {
        "flag": report.flag,
        "failed_stage": report.failed_stage,
        "stages": len(report.stages),
        "final_dev_h0": last.dev_h0,
        "final_dev_h1": last.dev_h1,
        "final_dev_u_stage": last.dev_u_stage,
    }
    resolved = {
        "field": field_to_config(p.field_desc),
        "n_steps": int(plan.n_steps),
        "n_intermediate": int(plan.continuation.n_intermediate),
        "refine_m0": True,  # every stage, stage 0 included, is a Newton solve
        "newton": asdict(plan.newton),
    }
    return artifacts, resolved, summary


def _run_eta_sweep(plan: Plan):
    result = _eta_sweep(plan)
    summary = {"labels": {format_float(a["eta"]): a["label"] for a in result.aggregates}}
    artifacts = {
        "fig2.csv": (SWEEP_AGG_HEADER, [[a[col] for col in SWEEP_AGG_HEADER] for a in result.aggregates]),
        "fig2_raw.csv": ([f.name for f in fields(EtaSweepRun)], [astuple(r) for r in result.runs]),
    }
    resolved = {
        "etas": sorted({float(eta) for eta in plan.sweep.etas}),
        "n_seeds": int(plan.sweep.n_seeds),
        "k_max": plan.sweep.k_max,
        "n_steps": int(plan.n_steps),
        "delta": plan.model.delta,
        "envelope_skew": plan.model.envelope_skew,
        "newton": asdict(plan.newton),
    }
    return artifacts, resolved, summary


# the demo refuses the step as a Newton solve with the default settings does
_SINGULARITY_NEWTON = NewtonConfig()


def _run_singularity_demo(plan: Plan):
    n_steps = int(plan.n_steps)
    grid = TimeGrid(t_f=_SINGULARITY_T_F, n_steps=n_steps)
    u_tar = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = m0_seed(decompose_target(u_tar), _SINGULARITY_T_F)
    field_desc = SinSqEnvelope(e0=2.0)  # E(t) = sin^2(pi t / t_f)
    samples = sample_field(field_desc, grid)
    system = linearize(np.eye(2, dtype=complex), pair, samples, grid).system(u_tar)
    diag = system_diagnostic(system)
    refused = False
    error_text = None
    try:
        solve_update(system, _SINGULARITY_NEWTON)
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
        "t_f": _SINGULARITY_T_F,
        "n_steps": n_steps,
        "rank_tolerance": diag.rank_tolerance,
        "field": field_to_config(field_desc),
        "singular_cond_threshold": _SINGULARITY_NEWTON.singular_cond_threshold,
    }
    return {"diagnostic.json": payload}, resolved, summary


def _run_cn_order_check(plan: Plan):
    base_steps = int(plan.n_steps)
    rng = np.random.default_rng(plan.seed)
    h0 = rng.normal(size=(2, 2))
    h0 = 0.5 * (h0 + h0.T)
    h1 = np.zeros((2, 2))
    h1[0, 1] = h1[1, 0] = rng.normal()
    pair = HamiltonianPair(h0, h1)
    ratios = {
        n: cn_error_order(pair, _ORDER_CHECK_FIELD, _ORDER_CHECK_T_F, n_steps=n) for n in (base_steps, 4 * base_steps)
    }
    summary = {"ratios": {str(k): v for k, v in ratios.items()}}
    resolved = {
        "t_f": _ORDER_CHECK_T_F,
        "field_value": _ORDER_CHECK_FIELD,
        "base_steps": base_steps,
        "h0": matrix_to_json(pair.h0),
        "h1": matrix_to_json(pair.h1),
    }
    return {"order.csv": (["n_steps", "error_ratio"], ratios.items())}, resolved, summary


@dataclass(frozen=True)
class _CpuScalingModel:
    """The scaling run's model block: Newton iterations per system size."""

    iterations: int = 3

    def __post_init__(self):
        require_count("iterations", self.iterations)


def _run_cpu_scaling(plan: Plan):
    """Matched fixed-iteration identification workloads across system sizes.

    Every run uses the same step count and the same iteration budget (the
    tolerance is set far below reach so the budget is always spent), so the
    recorded wall-clock isolates the cost growth with dimension.
    """
    n_steps = int(plan.n_steps)
    iters = int(plan.model.iterations)
    budget = NewtonConfig(tol=1e-300, max_iters=iters, singular_cond_threshold=1e30)
    spec = PerturbationSpec(eta=_CPU_SCALING_ETA, seed=plan.seed)
    entries = []

    def timed(label, p: _Problem):
        guess = perturb_pair(p.pair, spec)
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

    timed("two-level", _problem(_two_level, TwoLevelParams(**_TWO_LEVEL["defaults"]), n_steps))
    for n_levels in (6, 12):
        timed(f"double-well-{n_levels}", _problem(_double_well, DoubleWellParams(n_levels=n_levels), n_steps))
    table = (CPU_HEADER, [[e[col] for col in CPU_HEADER] for e in entries])
    summary = {"entries": entries}
    resolved = {"n_steps": n_steps, "iterations": iters, "eta": _CPU_SCALING_ETA}
    return {"cpu.csv": table}, resolved, summary


_NEWTON_READS = ("seed", "perturbation", "newton")
_CONTINUATION_READS = ("newton", "continuation")
_KINDS = {
    "newton-two-level": _Kind(partial(_run_newton, _two_level), _NEWTON_READS, **_TWO_LEVEL),
    "newton-double-well": _Kind(partial(_run_newton, _double_well), _NEWTON_READS, **_DOUBLE_WELL),
    "continuation-two-level": _Kind(
        partial(_run_continuation, _two_level, "fig3.csv"), _CONTINUATION_READS, **_TWO_LEVEL
    ),
    "continuation-double-well": _Kind(
        partial(_run_continuation, _double_well, "fig6.csv"), _CONTINUATION_READS, **_DOUBLE_WELL
    ),
    "eta-sweep": _Kind(_run_eta_sweep, ("seed", "newton", "sweep"), **_TWO_LEVEL),
    "singularity-demo": _Kind(_run_singularity_demo, (), None, TWO_LEVEL_DEFAULT_STEPS),
    "cn-order-check": _Kind(_run_cn_order_check, ("seed",), None, 100, longest=8),
    "cpu-scaling": _Kind(
        _run_cpu_scaling, ("seed",), _CpuScalingModel, 2**15, sizes=lambda params: (12, DoubleWellParams().grid.n_points)
    ),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run the kind's runner on the plan, then write what it returns into
    ``out_dir``: each artifact, in the runner's order, then the manifest.
    ``wall_seconds`` covers the runner and the artifacts' writes."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    artifacts, resolved, summary = _KINDS[cfg.kind].run(cfg.plan)
    files = [write(out / name, payload) for name, payload in artifacts.items()]
    wall = time.perf_counter() - t0
    files.append(write(out / "manifest.json", _manifest(cfg, resolved, wall, files)))
    return RunResult(out_dir=out, files=files, wall_seconds=wall, summary=summary)
