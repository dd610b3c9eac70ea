"""Globalized identification by homotopy over interpolated targets.

The target U_tar = exp(i S + A) is bent into a path of unitaries
U^m = exp(i S + (m / N_c) A), m = 0..N_c.  The m = 0 problem has the
closed-form solution (H0, H1) = (-S / t_f, 0): with zero coupling the field
drops out and free evolution alone produces exp(i S).  Each later stage is
solved with the Newton iteration warm-started from the previous stage's
solution.  The closed form solves the continuous-time problem, not the
time-discretized one, so stage 0 is optionally Newton-polished before the
path is walked.

Only the Hermitized residual depends on the target; U_N and the Jacobian
depend on the pair, the field and the grid.  So each stage but the last
closes its Newton solve with a linearization at its final pair (one
propagation with Gram sums, instead of a final-state-only one), and the next
stage starts from it: its first Newton system costs no propagation.  A
stage's dev_U_stage is its last Newton row's dev_U, taken at the same final
pair.  Every propagation of the walk is then made once: on a walk of N
Newton iterations in total, N with Gram sums and one final-state-only
propagation closing the last stage (83 for the 21-stage two-level benchmark
walk, where a standalone solve per stage would make 124).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import TimeGrid
from .linalg import (
    TargetDecomposition,
    decompose_target,
    require_unitary,
    spec_norm,
    unitary_exp,
)
from . import reporting
from .newton import FLAG_CONVERGED, NewtonConfig, NewtonReport, newton_identify
from .propagation import HamiltonianPair, propagate_final

CONTINUATION_OK = "converged"
CONTINUATION_FAILED = "failed"


@dataclass(frozen=True)
class ContinuationConfig:
    n_intermediate: int = 20
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    refine_m0: bool = True
    retry_doubled: bool = False

    def __post_init__(self):
        if self.n_intermediate < 1:
            raise ValueError("n_intermediate must be >= 1")


@dataclass
class ContinuationStage:
    m: int
    newton_report: Optional[NewtonReport]
    dev_u_stage: float
    dev_h0: Optional[float]
    dev_h1: Optional[float]


@dataclass
class ContinuationReport:
    stages: list = field(default_factory=list)
    flag: str = CONTINUATION_OK
    failed_stage: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "flag": self.flag,
            "failed_stage": self.failed_stage,
            "stages": [
                {
                    "m": st.m,
                    "dev_u_stage": st.dev_u_stage,
                    "dev_h0": st.dev_h0,
                    "dev_h1": st.dev_h1,
                    "newton": st.newton_report.to_json_dict() if st.newton_report else None,
                }
                for st in self.stages
            ],
        }

    def write_csv(self, path):
        rows = []
        for st in self.stages:
            n_it = st.newton_report.n_iterations if st.newton_report else 0
            rows.append([st.m, n_it, st.dev_u_stage, st.dev_h0, st.dev_h1])
        return reporting.write_table(
            path, ["m", "newton_iterations", "dev_U_stage", "dev_H0", "dev_H1"], rows
        )

    def write_json(self, path):
        return reporting.write_json(path, self.to_json_dict())


def intermediate_target(dec: TargetDecomposition, m: int, n_c: int) -> np.ndarray:
    """U^m = exp(i S + (m / N_c) A)."""
    if not 0 <= m <= n_c:
        raise ValueError(f"stage index {m} outside 0..{n_c}")
    return unitary_exp(dec.generator(m / n_c))


def m0_seed(dec: TargetDecomposition, t_f: float) -> HamiltonianPair:
    """Closed-form stage-0 solution (-S / t_f, 0)."""
    if not t_f > 0:
        raise ValueError("t_f must be positive")
    return HamiltonianPair(h0=-dec.s / t_f, h1=np.zeros_like(dec.s))


def continuation_identify(
    u_0: np.ndarray,
    u_tar: np.ndarray,
    samples: np.ndarray,
    grid: TimeGrid,
    cfg: ContinuationConfig = ContinuationConfig(),
    truth: Optional[HamiltonianPair] = None,
):
    """Walk the target path, warm-starting each Newton solve; returns
    (final pair, report).  The initial operator must be the identity, which
    the stage-0 closed form assumes."""
    u_0 = require_unitary(u_0, "initial operator")
    d = u_0.shape[0]
    if spec_norm(u_0 - np.eye(d)) > 1e-10:
        raise ValueError("continuation requires the identity as initial operator")
    u_tar = require_unitary(u_tar, "target operator")

    pair, report = _run_path(u_0, u_tar, samples, grid, cfg, truth, cfg.n_intermediate)
    if report.flag != CONTINUATION_OK and cfg.retry_doubled:
        pair, report = _run_path(
            u_0, u_tar, samples, grid, cfg, truth, 2 * cfg.n_intermediate
        )
    return pair, report


def _run_path(u_0, u_tar, samples, grid, cfg, truth, n_c):
    dec = decompose_target(u_tar)
    pair = m0_seed(dec, grid.t_f)
    # where the next stage starts: the pair, or the linearization at it that
    # the previous stage closed with
    start = pair
    report = ContinuationReport(stages=[], flag=CONTINUATION_OK)
    for m in range(0, n_c + 1):
        target_m = intermediate_target(dec, m, n_c)
        newton_report = None
        if m > 0 or cfg.refine_m0:
            pair, newton_report = newton_identify(
                u_0, target_m, start, samples, grid, cfg.newton, truth=None,
                linearize_final=m < n_c,
            )
            start = newton_report.linearization or pair
            # handed on: the stage record keeps no Jacobian blocks (2 d^4
            # complex numbers, 0.66 MB a stage at d = 12)
            newton_report.linearization = None
        if newton_report is not None and newton_report.iterations:
            dev_u_stage = newton_report.final().dev_u
        else:
            # no Newton row was taken at the stage's pair: stage 0 without
            # refinement, or a refusal at the first iteration
            dev_u_stage = spec_norm(target_m - propagate_final(u_0, pair, samples, grid))
        report.stages.append(
            ContinuationStage(
                m=m,
                newton_report=newton_report,
                dev_u_stage=dev_u_stage,
                dev_h0=spec_norm(truth.h0 - pair.h0) if truth is not None else None,
                dev_h1=spec_norm(truth.h1 - pair.h1) if truth is not None else None,
            )
        )
        if newton_report is not None and newton_report.flag != FLAG_CONVERGED:
            report.flag = CONTINUATION_FAILED
            report.failed_stage = m
            break
    return pair, report
