"""The benchmark's own check.

    python3 perfbench/check.py

From the repository root:

1. Each workload, run once untraced and twice traced on seed 1,
   emits every metric BENCHMARK.json names, passes its correctness gate,
   and repeats the exact counts bit for bit.
2. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Every run is short (one continuation walk; ten batches for the sweep, which
every run completes), so this takes about three minutes.  Exits non-zero on
any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SEED = 1
EXACT = ("propagation.steps", "propagation.gram.gflop", "newton.iterations", "continuation.stages")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_workload(workload: str, seed: int) -> list:
    """run.py itself fails unless it emits exactly the metrics BENCHMARK.json
    names; here the gate must pass and the exact counts must repeat."""
    problems = []
    results = []
    for trace in (0, 1, 1):
        code, out, err = run(workload, seed, trace)
        if code != 0:
            return [f"{workload} trace={trace} exited {code}: {err.strip()[-500:]}"]
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
        results.append(result["metrics"])
    for name in EXACT:
        a, b = results[1][name]["value"], results[2][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} read {a} then {b}")
    print(f"{workload}: " + ", ".join(f"{n}={results[1][n]['value']}" for n in EXACT))
    return problems


def check_bare(workload: str) -> list:
    """The benchmark alone, without the program, must fail cleanly."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out, _ = run(workload, SEED, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or '"metrics"' in out:
        return [f"bare directory: exit {code} with output {out[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        problems += check_workload(workload["name"], SEED)
    problems += check_bare(spec["workloads"][0]["name"])
    for p in problems:
        print(f"FAIL {p}")
    print("benchmark check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
