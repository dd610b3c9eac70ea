"""Import footprint: check that runs load only the modules they use.

    PYTHONPATH=src python3 tools/footprint.py

Needs numpy only.  A loaded module stays resident, so each one a run does
not use costs peak memory for nothing: scipy.linalg about 26 MB,
numpy.random, which brings ``secrets`` and OpenSSL with it, about 5 MB, the
process pool about 1.3 MB and numpy.ma (which ``np.median`` loads) 0.6 to
1.5 MB.  On the two-level benchmark problem at 200 steps:

- a Newton solve, a serial sweep, a target log (``decompose_target``) and a
  continuation load no scipy.linalg;
- the continuation loads neither OpenSSL (``_hashlib``, which the manifest
  digest loads) nor the process pool (a sweep with workers > 1);
- the serial sweep loads neither numpy.random, ``secrets`` nor OpenSSL, nor
  the process pool or numpy.ma.

Prints ``footprint: ok``, or names the step and the modules it loaded and
exits 1.
"""
import sys

import numpy as np

# older numpy releases load numpy.random with numpy itself
BARE_NUMPY_LOADS_RANDOM = "numpy.random" in sys.modules

import hamid  # noqa: E402
from hamid.experiments import ExperimentConfig, run_eta_sweep  # noqa: E402

POOL = ("multiprocessing", "concurrent.futures.process")


def check(step: str, ok: bool, *unused: str) -> None:
    """Exit 1 if ``step`` went wrong or loaded a module of ``unused``."""
    loaded = [name for name in unused if name in sys.modules]
    if not ok or loaded:
        sys.exit(f"footprint: {step}: {'loaded ' + str(loaded) if loaded else 'failed'}")


params = hamid.TwoLevelParams(delta=1e-4, envelope_skew=0.1)
truth, fld = hamid.two_level_model(params)
grid = hamid.TimeGrid(params.t_f, 200)
samples = hamid.sample_field(fld, grid)
u0 = np.eye(2, dtype=complex)
u_tar = hamid.propagate_final(u0, truth, samples, grid)

guess = hamid.perturb_pair(truth, hamid.PerturbationSpec(eta=1e-4, seed=3))
_, report = hamid.newton_identify(u0, u_tar, guess, samples, grid, truth=truth)
check("a Newton solve", report.n_iterations > 0, "scipy.linalg")

cfg = hamid.ContinuationConfig(n_intermediate=2)
_, walk = hamid.continuation_identify(u0, u_tar, samples, grid, cfg, truth=truth)
check("a continuation", walk.flag == hamid.CONTINUATION_OK and len(walk.stages) == 3,
      "scipy.linalg", "_hashlib", *POOL)

sweep = run_eta_sweep(ExperimentConfig.from_dict({
    "kind": "eta-sweep", "n_steps": 200,
    "sweep": {"etas": [1e-4, 1e-3], "n_seeds": 2, "k_max": 3, "workers": 1},
}))
drawn = ("secrets", "_hashlib") + (() if BARE_NUMPY_LOADS_RANDOM else ("numpy.random",))
check("a serial sweep", len(sweep.runs) == 4, "scipy.linalg", "numpy.ma", *drawn, *POOL)

# a generic 3 x 3 unitary, made without numpy.random
q, r = np.linalg.qr(np.sin(np.arange(1.0, 10.0)).reshape(3, 3) + 1j * np.cos(np.arange(9.0)).reshape(3, 3))
dec = hamid.decompose_target(q * (np.diag(r) / np.abs(np.diag(r))))
check("decompose_target", dec.dim == 3, "scipy.linalg")
print("footprint: ok")
