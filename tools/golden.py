"""Golden outputs: run a fixed set of experiment configs, or diff two runs.

    PYTHONPATH=src python3 tools/golden.py run DIR
    python3 tools/golden.py compare A B

``run`` writes each config of ``CONFIGS`` through ``run_experiment`` into
``DIR/<name>``, with the working directory set to DIR so every manifest
records the same relative ``out_dir`` (and so the same config hash) wherever
DIR is.  It uses whichever ``hamid`` is importable, so pointing PYTHONPATH at
another checkout's ``src`` runs that checkout.

``compare`` diffs every file of two such directories.  It ignores only
``wall_seconds``: the JSON key of that name at any depth, and the CSV column
of that name.  Everything else must match exactly: JSON values as parsed
(so a float must be the same double), CSV and other files byte for byte.  It
prints each difference and exits 1 if there is any, 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

SWEEP = {"etas": [1e-5, 3e-4, 1e-2], "n_seeds": 2}

# name -> experiment config; out_dir is set to the name
CONFIGS = {
    "newton-two-level-seed1": {"kind": "newton-two-level", "seed": 1},
    "newton-two-level-seed2": {
        "kind": "newton-two-level",
        "seed": 2,
        "perturbation": {"eta": 1e-3, "seed": 5},
        "newton": {"max_iters": 7},
    },
    "newton-double-well": {
        "kind": "newton-double-well",
        "model": {"n_levels": 4, "n_steps": 4096},
        "perturbation": {"eta": 1e-6, "seed": 4},
        "newton": {"max_iters": 6},
    },
    "continuation-two-level": {"kind": "continuation-two-level"},
    "continuation-double-well": {
        "kind": "continuation-double-well",
        "model": {"n_levels": 4, "n_steps": 2048},
        "continuation": {"n_intermediate": 4},
        "newton": {"max_iters": 8},
    },
    "eta-sweep-workers1": {"kind": "eta-sweep", "seed": 7, "sweep": {**SWEEP, "workers": 1}},
    "eta-sweep-workers2": {"kind": "eta-sweep", "seed": 7, "sweep": {**SWEEP, "workers": 2}},
    "eta-sweep-max-iters2": {"kind": "eta-sweep", "seed": 7, "sweep": SWEEP, "newton": {"max_iters": 2}},
    "eta-sweep-1000-steps": {"kind": "eta-sweep", "seed": 4, "n_steps": 1000, "sweep": SWEEP},
    "singularity-demo": {"kind": "singularity-demo"},
    "cn-order-check": {"kind": "cn-order-check", "seed": 3},
    "cpu-scaling": {"kind": "cpu-scaling", "model": {"n_steps": 512, "iterations": 1}},
}

IGNORED = "wall_seconds"


def run(out: Path) -> None:
    import hamid
    from hamid.experiments import ExperimentConfig, run_experiment

    print(f"hamid from {Path(hamid.__file__).parent}")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name, cfg in CONFIGS.items():
        result = run_experiment(ExperimentConfig.from_dict({**cfg, "out_dir": name}))
        print(f"{name}: {len(result.files)} files, {result.wall_seconds:.2f} s")


def _without_ignored(value):
    if isinstance(value, dict):
        return {k: _without_ignored(v) for k, v in value.items() if k != IGNORED}
    if isinstance(value, list):
        return [_without_ignored(v) for v in value]
    return value


def _json_diffs(a, b, path="$"):
    """Paths at which two parsed JSON values differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        if list(a) != list(b):
            yield f"{path}: keys {list(a)} != {list(b)}"
        for k in keys:
            if k in a and k in b:
                yield from _json_diffs(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield f"{path}: {json.dumps(a)} != {json.dumps(b)}"


def _csv_diffs(a: str, b: str) -> list:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return [] if a == b else [f"header or row count differs ({len(rows_a)} vs {len(rows_b)} rows)"]
    header = rows_a[0]
    diffs = []
    for r, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(x) != len(y):
            diffs.append(f"row {r}: {len(x)} != {len(y)} fields")
            continue
        diffs += [
            f"row {r} {name}: {x[c]} != {y[c]}"
            for c, name in enumerate(header)
            if name != IGNORED and x[c] != y[c]
        ]
    # what the fields do not show (line endings, a trailing newline)
    if not diffs and IGNORED not in header and a != b:
        diffs.append("bytes differ outside the fields")
    return diffs


def file_diffs(a: Path, b: Path):
    if a.suffix == ".json":
        return list(_json_diffs(*(_without_ignored(json.loads(p.read_text())) for p in (a, b))))
    if a.suffix == ".csv":
        return _csv_diffs(a.read_bytes().decode(), b.read_bytes().decode())
    return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    n_diffs = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        n_diffs += 1
    for rel in sorted(files_a & files_b):
        for diff in file_diffs(a / rel, b / rel):
            print(f"{rel}: {diff}")
            n_diffs += 1
    print(f"{len(files_a & files_b)} files compared, {n_diffs} differences")
    return 1 if n_diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="write every golden config into DIR").add_argument("dir", type=Path)
    cmp_parser = sub.add_parser("compare", help="diff two run directories, ignoring wall_seconds")
    cmp_parser.add_argument("a", type=Path)
    cmp_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir.resolve())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
