"""The benchmark's two workloads, driven through hamid's public API.

Each workload has a set-up (build the model, sample the field, propagate the
reference target) and a unit of work that returns one outcome per
identification it made, already checked against the workload's correctness
gate.  The program sees only the generated inputs; the workload seed picks
the sweep's perturbations, and the continuation has a fixed input.

All calls go through module attributes (``hamid.newton_identify``, not a
name imported here), so the tracer can wrap them in place.

The workload parameters are written out here rather than read from the
program's own defaults, so a change to those defaults cannot silently
change what the benchmark measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import hamid
import hamid.experiments as experiments

# benchmark two-level configuration (README "Numerical notes")
TWO_LEVEL = {"delta": 1e-4, "envelope_skew": 0.1}
TWO_LEVEL_STEPS = 2000

SWEEP_ETAS = [float(e) for e in np.logspace(-5, -2, 13)]
SWEEP_K_MAX = 9
# one seed per eta per batch: a batch is 13 solves and a few seconds, so the
# calibration loop timed after each batch follows the host's drift closely
SWEEP_SEEDS_PER_BATCH = 1
# batches every run completes, whatever its length; recovered_frac is taken
# over these, so a faster program is not judged on perturbations the slower
# one never drew
SWEEP_FIXED_BATCHES = 10

CONTINUATION_INTERMEDIATE = 20
CONTINUATION_NEWTON = {"tol": 1e-12, "max_iters": 50}

@dataclass
class Outcome:
    """One identification: did it meet the accuracy target, and if it broke
    the correctness gate, why."""

    recovered: bool
    failure: Optional[str] = None


@dataclass
class Problem:
    pair: object
    samples: np.ndarray
    grid: object
    u0: np.ndarray
    u_tar: np.ndarray


def _two_level_problem() -> Problem:
    params = hamid.TwoLevelParams(**TWO_LEVEL)
    pair, fld = hamid.two_level_model(params)
    grid = hamid.TimeGrid(params.t_f, TWO_LEVEL_STEPS)
    samples = hamid.sample_field(fld, grid)
    u0 = np.eye(pair.dim, dtype=complex)
    return Problem(pair, samples, grid, u0, hamid.propagate_final(u0, pair, samples, grid))


def _finite(*values) -> bool:
    return all(v is None or np.isfinite(v) for v in values)


class SweepTwoLevel:
    """``run_eta_sweep`` over the default 13-point eta grid, one perturbation
    seed per eta per batch.

    ``run_eta_sweep`` takes no prepared inputs: every job rebuilds the model,
    the field samples and the target itself.  So the sweep's set-up is that
    rebuild made once outside the timed units, the same code as the
    continuation's set-up, and its unit leaves the result unused.  It is
    repeated only a few times, enough for a median."""

    name = "sweep_two_level"
    setup_repeats = 5
    min_units = SWEEP_FIXED_BATCHES
    unit_size = len(SWEEP_ETAS) * SWEEP_SEEDS_PER_BATCH

    def setup(self) -> Problem:
        return _two_level_problem()

    @staticmethod
    def batch_seed(seed: int, batch: int) -> int:
        # After the fixed batches the run repeats them, so every run times
        # the same inputs however many batches it completes.
        # run_eta_sweep gives job (eta i, rep r) the seed base + 1000 i + r,
        # so bases 100000 apart never share a job seed.
        return 100_000 * seed + SWEEP_SEEDS_PER_BATCH * (batch % SWEEP_FIXED_BATCHES)

    def unit(self, problem: Problem, seed: int, index: int) -> list:
        cfg = experiments.ExperimentConfig(
            kind="eta-sweep",
            seed=self.batch_seed(seed, index),
            n_steps=TWO_LEVEL_STEPS,
            model=dict(TWO_LEVEL),
            sweep={
                "etas": SWEEP_ETAS,
                "n_seeds": SWEEP_SEEDS_PER_BATCH,
                "k_max": SWEEP_K_MAX,
                "workers": 1,
            },
        )
        result = experiments.run_eta_sweep(cfg)
        fracs = [a["frac_recovers"] for a in result.aggregates]
        gate = None
        if len(result.runs) != self.unit_size or len(fracs) != len(SWEEP_ETAS):
            gate = f"sweep returned {len(result.runs)} runs over {len(fracs)} etas"
        elif fracs[0] != 1.0 or fracs[-1] != 0.0:
            gate = f"recovered fraction {fracs[0]} at eta=1e-5, {fracs[-1]} at eta=1e-2"
        outcomes = []
        for r in result.runs:
            failure = gate
            if failure is None and not _finite(r.dev_h0, r.dev_h1, r.dev_u):
                failure = f"non-finite deviations at eta={r.eta:g}, seed {r.seed}"
            outcomes.append(Outcome(r.regime == experiments.REGIME_RECOVERS, failure))
        return outcomes


class ContinuationTwoLevel:
    """The 21-stage ``continuation_identify`` walk; no random input, so the
    workload seed changes nothing."""

    name = "continuation_two_level"
    setup_repeats = 25
    min_units = 1
    unit_size = 1

    def setup(self) -> Problem:
        return _two_level_problem()

    def unit(self, problem: Problem, seed: int, index: int) -> list:
        cfg = hamid.ContinuationConfig(
            n_intermediate=CONTINUATION_INTERMEDIATE,
            newton=hamid.NewtonConfig(**CONTINUATION_NEWTON),
        )
        _, report = hamid.continuation_identify(
            problem.u0, problem.u_tar, problem.samples, problem.grid, cfg, truth=problem.pair
        )
        failure = _criterion_5(report)
        return [Outcome(failure is None, failure)]


def _criterion_5(report) -> Optional[str]:
    """Acceptance criterion 5; None when every bound holds."""
    stages = report.stages
    if report.flag != hamid.CONTINUATION_OK or len(stages) != CONTINUATION_INTERMEDIATE + 1:
        return f"continuation flag {report.flag} after {len(stages)} stages"
    if any(st.newton_report is not None and st.newton_report.flag != hamid.FLAG_CONVERGED for st in stages):
        return "a continuation stage did not converge"
    final = stages[-1]
    if not (final.dev_h0 <= 1e-10 and final.dev_h1 <= 1e-8):
        return f"final dev_H0 {final.dev_h0:.2e}, dev_H1 {final.dev_h1:.2e}"
    if not all(max(st.dev_h0, st.dev_h1) >= 1e-5 for st in stages[:-1]):
        return "an intermediate stage sits closer than 1e-5 to the truth"
    return None


WORKLOADS = {w.name: w for w in (SweepTwoLevel(), ContinuationTwoLevel())}
