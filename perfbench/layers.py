"""Which hamid calls are traced, and the per-layer metrics derived from them.

Span names are ``<module>.<call>``; the module is the layer.  Every name is
wrapped in the module that calls it, so the same function called from two
modules gets two sites (see tracing.py).  The benchmark's own calls go
through the ``hamid`` package attributes.
"""
from __future__ import annotations

import hamid

from tracing import self_times


def _steps(args, result):
    return {"steps": args["grid"].n_steps, "dim": args["pair"].dim}


def _newton(args, result):
    return {"converged": result[1].flag == hamid.FLAG_CONVERGED}


def _stages(args, result):
    return {"stages": len(result[1].stages)}


SITES = [
    # the benchmark's set-up and identifications
    ("hamid", "two_level_model", "models.build", None),
    ("hamid", "sample_field", "fields.sample_field", None),
    ("hamid", "propagate_final", "propagation.final", _steps),
    ("hamid", "newton_identify", "newton.identify", _newton),
    ("hamid", "continuation_identify", "continuation.identify", _stages),
    ("hamid.experiments", "run_eta_sweep", "experiments.sweep", None),
    # per-job rebuild and target propagation inside the sweep
    ("hamid.experiments", "two_level_model", "models.build", None),
    ("hamid.experiments", "sample_field", "fields.sample_field", None),
    ("hamid.experiments", "propagate_final", "propagation.final", _steps),
    ("hamid.experiments", "newton_identify", "newton.identify", _newton),
    # the continuation walk
    ("hamid.continuation", "decompose_target", "linalg.decompose_target", None),
    ("hamid.continuation", "intermediate_target", "continuation.intermediate_target", None),
    ("hamid.continuation", "newton_identify", "newton.identify", _newton),
    ("hamid.continuation", "propagate_final", "propagation.final", _steps),
    # one Newton iteration
    ("hamid.newton", "propagate_with_gram", "propagation.with_gram", _steps),
    ("hamid.newton", "propagate_final", "propagation.final", _steps),
    ("hamid.newton", "reduce_system", "newton.reduce_system", None),
    ("hamid.newton", "reduced_condition", "newton.reduced_condition", None),
    ("hamid.newton", "solve_update", "newton.solve_update", None),
]


# name -> (unit, workloads it is measured on, the span it needs, as "name"
# or "name@calling module").  On other workloads the layer is not reached
# and the metric reads 0.  A run fails if an applicable metric saw no such
# span, which catches a wrapper that a refactor of the program left behind.
ALL = ("sweep_two_level", "continuation_two_level")
CONT = ("continuation_two_level",)
SWEEP = ("sweep_two_level",)
METRICS = {
    "propagation.with_gram.s": ("s", ALL, "propagation.with_gram"),
    "propagation.with_gram.us_per_step": ("us", ALL, "propagation.with_gram"),
    "propagation.final.s": ("s", ALL, "propagation.final"),
    "propagation.final.us_per_step": ("us", ALL, "propagation.final"),
    "propagation.steps": ("count", ALL, "propagation.with_gram"),
    "propagation.gram.us_per_step": ("us", ALL, "propagation.with_gram"),
    "propagation.gram.gflop": ("GFLOP", ALL, "propagation.with_gram"),
    "newton.iterations": ("count", ALL, "propagation.with_gram"),
    "newton.converged_ratio": ("ratio", ALL, "newton.identify"),
    "newton.identify.self_s": ("s", ALL, "newton.identify"),
    "newton.reduce_system.ms": ("ms", ALL, "newton.reduce_system"),
    "newton.reduced_condition.ms": ("ms", ALL, "newton.reduced_condition"),
    "newton.solve_update.ms": ("ms", ALL, "newton.solve_update"),
    "continuation.identify.self_s": ("s", CONT, "continuation.identify"),
    "continuation.stages": ("count", CONT, "continuation.identify"),
    "continuation.intermediate_target.ms": ("ms", CONT, "continuation.intermediate_target"),
    "linalg.decompose_target.ms": ("ms", CONT, "linalg.decompose_target"),
    "experiments.sweep.self_s": ("s", SWEEP, "experiments.sweep"),
    "experiments.rebuild.s": ("s", SWEEP, "models.build@hamid.experiments"),
    "experiments.target_propagation.s": ("s", SWEEP, "propagation.final@hamid.experiments"),
    "models.build.s": ("s", ALL, "models.build"),
    "fields.sample_field.s": ("s", ALL, "fields.sample_field"),
    "trace.overhead_frac": ("ratio", ALL, None),
}


def _total(spans, name, site=None) -> float:
    return sum(s.duration for s in spans if s.name == name and (site is None or s.site == site))


def _per_call_ms(spans, name) -> float:
    calls = [s.duration for s in spans if s.name == name]
    return 1e3 * sum(calls) / len(calls) if calls else 0.0


def _us_per_step(spans, name) -> float:
    calls = [s for s in spans if s.name == name]
    steps = sum(s.attrs["steps"] for s in calls)
    return 1e6 * sum(s.duration for s in calls) / steps if steps else 0.0


def layer_metrics(workload: str, spans: list, setups: list, units: list) -> dict:
    """Per-layer metrics of one traced run.

    ``setups`` holds (first, end) span indices of each set-up and ``units``
    (first, end, identifications, wall seconds) of each traced unit of work
    that passed its gate; spans of failed units are left out.  Times marked
    ``.s`` are seconds per identification; exact counts are those of the
    first passing unit, which on every run of a seed has the same inputs.
    """
    if not units:  # nothing passed: no layer time is a timed success
        return {name: (0.0, unit) for name, (unit, _, _) in METRICS.items()}
    work = [s for a, b, _, _ in units for s in spans[a:b]]
    first = spans[units[0][0] : units[0][1]]
    setup = [s for a, b in setups for s in spans[a:b]]
    n_ids = sum(n for _, _, n, _ in units)
    own = self_times(work)
    gram_calls = [s for s in first if s.name == "propagation.with_gram"]
    # the untraced wall time is the traced one less what the wrappers added
    cost = sum(s.cost for s in work)
    overhead = cost / (sum(wall for *_, wall in units) - cost)

    def self_s(name):
        return sum(own[s.sid] for s in work if s.name == name) / n_ids

    newton = [s for s in work if s.name == "newton.identify"]
    with_gram_us = _us_per_step(work, "propagation.with_gram")
    final_us = _us_per_step(work + setup, "propagation.final")
    values = {
        "propagation.with_gram.s": _total(work, "propagation.with_gram") / n_ids,
        "propagation.with_gram.us_per_step": with_gram_us,
        "propagation.final.s": _total(work, "propagation.final") / n_ids,
        "propagation.final.us_per_step": final_us,
        "propagation.steps": sum(s.attrs["steps"] for s in first if s.name.startswith("propagation.")),
        "propagation.gram.us_per_step": with_gram_us - final_us,
        "propagation.gram.gflop": sum(16 * s.attrs["steps"] * s.attrs["dim"] ** 4 for s in gram_calls) / 1e9,
        "newton.iterations": sum(s.site == "hamid.newton" for s in gram_calls),
        "newton.converged_ratio": sum(s.attrs["converged"] for s in newton) / len(newton) if newton else 0.0,
        "newton.identify.self_s": self_s("newton.identify"),
        "newton.reduce_system.ms": _per_call_ms(work, "newton.reduce_system"),
        "newton.reduced_condition.ms": _per_call_ms(work, "newton.reduced_condition"),
        "newton.solve_update.ms": _per_call_ms(work, "newton.solve_update"),
        "continuation.identify.self_s": self_s("continuation.identify"),
        "continuation.stages": sum(s.attrs["stages"] for s in first if s.name == "continuation.identify"),
        "continuation.intermediate_target.ms": _per_call_ms(work, "continuation.intermediate_target"),
        "linalg.decompose_target.ms": _per_call_ms(work, "linalg.decompose_target"),
        "experiments.sweep.self_s": self_s("experiments.sweep"),
        "experiments.rebuild.s": (
            _total(work, "models.build", "hamid.experiments")
            + _total(work, "fields.sample_field", "hamid.experiments")
        )
        / n_ids,
        "experiments.target_propagation.s": _total(work, "propagation.final", "hamid.experiments") / n_ids,
        "models.build.s": _total(setup, "models.build") / len(setups),
        "fields.sample_field.s": _total(setup, "fields.sample_field") / len(setups),
        "trace.overhead_frac": overhead,
    }
    seen = {s.name for s in work + setup} | {f"{s.name}@{s.site}" for s in work + setup}
    for name, (_, applies, needs) in METRICS.items():
        if workload in applies and needs is not None and needs not in seen:
            raise RuntimeError(f"{name}: no {needs} call was traced on {workload}")
    return {name: (values[name], unit) for name, (unit, _, _) in METRICS.items()}
