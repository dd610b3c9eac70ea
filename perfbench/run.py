"""Time-to-identification benchmark for hamid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports hamid from ``src/`` of the same
tree.  One process, no worker pool, closed loop: the next unit of work starts
when the previous one has returned.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics, from spans recorded around the
public calls of each hamid module (see README.md).  The last line of
standard output is the JSON result; lines before it, starting with ``#``,
record the environment and sample counts.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
sys.dont_write_bytecode = True


def _import_program():
    """Import hamid from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "hamid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hamid sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import hamid

    if Path(hamid.__file__).resolve().parent != (src / "hamid").resolve():
        sys.exit(f"perfbench: imported hamid from {hamid.__file__}, not from {src}")


# ---------------------------------------------------------------- environment


def _blas_threads():
    """OpenBLAS thread count as the library reports it, left at its default."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an exported tree
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------- measurement


def _run_unit(workload, problem, seed, index):
    """One unit of work; an exception fails every identification in it."""
    from workloads import Outcome

    t = time.perf_counter()
    try:
        outcomes = workload.unit(problem, seed, index)
    except Exception as err:  # a raising identification is a counted failure
        traceback.print_exc(file=sys.stderr)
        outcomes = [Outcome(False, f"raised {type(err).__name__}: {err}")] * workload.unit_size
    return time.perf_counter() - t, outcomes


def _report_failures(outcomes):
    for o in outcomes:
        if o.failure is not None:
            print(f"# failed: {o.failure}", file=sys.stderr)


def schedule(workload, seconds: float):
    """Yield None for a set-up and the index for a unit of work.

    Units run until ``seconds`` have passed and at least
    ``workload.min_units`` are done.  The set-ups are spread across the same
    window: after each unit, set up again until the share of set-ups made
    matches the share of time gone, so their median sees the same drift of
    the host's speed as the units do.
    """
    t0 = time.perf_counter()
    yield None
    made, index = 1, 0
    while True:
        yield index
        index += 1
        elapsed = time.perf_counter() - t0
        finished = elapsed >= seconds and index >= workload.min_units
        share = 1.0 if finished else min(1.0, elapsed / seconds)
        while made < math.ceil(workload.setup_repeats * share):
            yield None
            made += 1
        if finished:
            return


CALIBRATION_LOOPS = 1_000_000  # about 0.1 s


def calibration_s() -> float:
    """Seconds of a fixed pure-Python loop that calls no program code: how
    fast the host runs interpreted code at this moment (README)."""
    t = time.perf_counter()
    x = 0.0
    for i in range(CALIBRATION_LOOPS):
        x = (x * 1.0000001 + i) % 1000.0
    return time.perf_counter() - t


def measure(workload, seed: int, seconds: float) -> tuple:
    """Untraced run: returns (end-to-end metrics, outcomes, notes)."""
    setups, units, outcomes, fixed, calibration = [], [], [], [], []
    for index in schedule(workload, seconds):
        if index is None:
            t = time.perf_counter()
            problem = workload.setup()
            setups.append(time.perf_counter() - t)
            continue
        wall, unit_outcomes = _run_unit(workload, problem, seed, index)
        calibration.append(calibration_s())
        _report_failures(unit_outcomes)
        outcomes += unit_outcomes
        if index < workload.min_units:
            fixed += unit_outcomes
        units.append((wall, unit_outcomes))
    # Mean wall seconds per identification over the units that passed, in
    # units of the calibration loop timed after each of them: the host's
    # speed drifts by up to 2x over minutes, and the ratio cancels most of it.
    passing = [(wall, u) for wall, u in units if all(o.failure is None for o in u)]
    if passing:
        solve_s = sum(wall for wall, _ in passing) / sum(len(u) for _, u in passing)
    else:  # with no passing identification the time to one is at least the run
        solve_s = sum(wall for wall, _ in units)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_rel": (solve_s / statistics.mean(calibration), "ratio"),
        # over the leading units only, which every run completes, so two
        # commits are compared on the same inputs
        "recovered_frac": (sum(o.recovered and o.failure is None for o in fixed) / len(fixed), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "units": len(units),
        "identifications": len(outcomes),
        "solve_s": solve_s,
        "calibration_s": statistics.mean(calibration),
        "solve_s_per_unit": [round(wall / len(u), 4) for wall, u in passing],
        "calibration_s_per_unit": [round(c, 4) for c in calibration],
        "recovered_frac_samples": len(fixed),
        "setup_samples": len(setups),
    }
    return metrics, outcomes, notes


def measure_traced(workload, seed: int, seconds: float) -> tuple:
    """Traced run: every set-up and unit is traced; the per-layer metrics
    come from the spans of the set-ups and of the units that passed."""
    from layers import SITES, layer_metrics
    from tracing import Tracer

    tracer = Tracer(SITES)
    setups, units, outcomes = [], [], []
    ran = 0
    with tracer:
        for index in schedule(workload, seconds):
            start = tracer.mark()
            if index is None:
                problem = workload.setup()
                setups.append((start, tracer.mark()))
                continue
            wall, unit_outcomes = _run_unit(workload, problem, seed, index)
            _report_failures(unit_outcomes)
            outcomes += unit_outcomes
            ran += 1
            if all(o.failure is None for o in unit_outcomes):
                units.append((start, tracer.mark(), len(unit_outcomes), wall))
    metrics = layer_metrics(workload.name, tracer.spans, setups, units)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    notes = {"units": ran, "passed_units": len(units), "identifications": len(outcomes), "spans": len(tracer.spans)}
    return metrics, outcomes, notes


# ---------------------------------------------------------------- entry point


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    print("# env " + json.dumps(environment()), flush=True)

    run = measure_traced if args.trace else measure
    metrics, outcomes, notes = run(workload, args.seed, args.seconds)

    # the benchmark's own check: exactly the declared metrics, in their units
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json (missing {missing}, extra {extra}, or units)")

    failed = sum(o.failure is not None for o in outcomes)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} " + json.dumps(notes))
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
