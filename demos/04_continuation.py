"""Globalization by continuation over interpolated targets.

No useful starting guess is assumed here: the target's log is split into
exp(i S + A); the path U^m = exp(i S + (m/N_c) A) starts at a problem with
the closed-form solution (-S/t_f, 0) and is walked stage by stage, each
Newton solve warm-started from the previous stage.  Note how far the
intermediate-stage solutions stay from the generating pair until the final
stage snaps onto it.
"""
import numpy as np

from hamid import (
    ContinuationConfig,
    NewtonConfig,
    TimeGrid,
    TwoLevelParams,
    continuation_identify,
    propagate_final,
    sample_field,
    two_level_model,
)
from hamid.experiments import BENCH_TWO_LEVEL_DELTA, BENCH_TWO_LEVEL_SKEW

params = TwoLevelParams(delta=BENCH_TWO_LEVEL_DELTA, envelope_skew=BENCH_TWO_LEVEL_SKEW)
truth, field = two_level_model(params)
grid = TimeGrid(params.t_f, 2000)
samples = sample_field(field, grid)
u0 = np.eye(2, dtype=complex)
u_tar = propagate_final(u0, truth, samples, grid)

cfg = ContinuationConfig(n_intermediate=20, newton=NewtonConfig(tol=1e-12, max_iters=50))
recovered, report = continuation_identify(u0, u_tar, samples, grid, cfg, truth=truth)

print(f"path flag: {report.flag}")
print("  m   iters  log10|U err|  log10|dH0|  log10|dH1|")
for st in report.stages:
    n_it = st.newton_report.n_iterations
    lg = lambda v: np.log10(max(v, 1e-300))
    print(
        f"  {st.m:2d}  {n_it:5d}  {lg(st.dev_u_stage):11.2f}  {lg(st.dev_h0):9.2f}"
        f"  {lg(st.dev_h1):9.2f}"
    )
print("\nevery stage hits its own target; only the last one matches the truth")
