"""Golden outputs: run a fixed set of experiment configs, or diff two runs.

    PYTHONPATH=src python3 tools/golden.py run DIR
    python3 tools/golden.py compare A B

``run`` writes each config of ``CONFIGS`` through ``run_experiment`` into
``DIR/<name>``, with the working directory set to DIR so every manifest
records the same relative ``out_dir`` (and so the same config hash) wherever
DIR is.  It uses whichever ``hamid`` is importable, so pointing PYTHONPATH at
another checkout's ``src`` runs that checkout.  Every config sets its step
count with the top-level ``n_steps``, its perturbation seed with the
top-level ``seed`` and a sweep's iteration cap with ``sweep.k_max``: the one
spelling of each that older checkouts (which also took ``model.n_steps``,
``perturbation.seed`` and ``newton.max_iters``) and this one share, so a run
of an older commit's ``src`` compares with a run of this one.

``compare`` diffs every file of two such directories.  It ignores only
``wall_seconds``: the JSON key of that name at any depth, and the CSV column
of that name.  Everything else must match exactly: JSON values as parsed
(so a float must be the same double), CSV and other files byte for byte.  It
prints each difference, then a summary:

- per file, the number of numeric differences (two finite numbers, not both
  integers) and the largest relative move |a - b| / max(|a|, |b|) among them,
  with the size max(|a|, |b|) of that value, so that a large move of a
  round-off-sized value reads as one;
- per file, the number of every other difference: strings, bools,
  integers, keys, row counts and missing files.

It exits 1 if there is any difference, 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

SWEEP = {"etas": [1e-5, 3e-4, 1e-2], "n_seeds": 2}

# name -> experiment config; out_dir is set to the name
CONFIGS = {
    "newton-two-level-seed1": {"kind": "newton-two-level", "seed": 1},
    "newton-two-level-seed2": {
        "kind": "newton-two-level",
        "seed": 5,
        "perturbation": {"eta": 1e-3},
        "newton": {"max_iters": 7},
    },
    "newton-double-well": {
        "kind": "newton-double-well",
        "n_steps": 4096,
        "seed": 4,
        "model": {"n_levels": 4},
        "perturbation": {"eta": 1e-6},
        "newton": {"max_iters": 6},
    },
    "continuation-two-level": {"kind": "continuation-two-level"},
    "continuation-double-well": {
        "kind": "continuation-double-well",
        "n_steps": 2048,
        "model": {"n_levels": 4},
        "continuation": {"n_intermediate": 4},
        "newton": {"max_iters": 8},
    },
    "eta-sweep-workers1": {"kind": "eta-sweep", "seed": 7, "sweep": {**SWEEP, "workers": 1}},
    "eta-sweep-workers2": {"kind": "eta-sweep", "seed": 7, "sweep": {**SWEEP, "workers": 2}},
    "eta-sweep-max-iters2": {"kind": "eta-sweep", "seed": 7, "sweep": {**SWEEP, "k_max": 2}},
    "eta-sweep-1000-steps": {"kind": "eta-sweep", "seed": 4, "n_steps": 1000, "sweep": SWEEP},
    "singularity-demo": {"kind": "singularity-demo"},
    "cn-order-check": {"kind": "cn-order-check", "seed": 3},
    "cpu-scaling": {"kind": "cpu-scaling", "n_steps": 512, "model": {"iterations": 1}},
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


def _number(value):
    """A JSON value or CSV field as an int or float, or None if it is neither
    (a string, a bool, a list)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
    return None


def _move(a, b):
    """(|a - b| / max(|a|, |b|), max(|a|, |b|)) if a and b are finite
    numbers, not both integers; None for every other difference."""
    x, y = _number(a), _number(b)
    if x is None or y is None or (isinstance(x, int) and isinstance(y, int)):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    scale = max(abs(x), abs(y))
    return (abs(x - y) / scale if scale else 0.0), scale


def _json_diffs(a, b, path="$"):
    """(text, ``_move``) for each path at which two parsed JSON values
    differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        if list(a) != list(b):
            yield f"{path}: keys {list(a)} != {list(b)}", None
        for k in keys:
            if k in a and k in b:
                yield from _json_diffs(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield f"{path}: {json.dumps(a)} != {json.dumps(b)}", _move(a, b)


def _csv_diffs(a: str, b: str) -> list:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        if a == b:
            return []
        return [(f"header or row count differs ({len(rows_a)} vs {len(rows_b)} rows)", None)]
    header = rows_a[0]
    diffs = []
    for r, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(x) != len(y):
            diffs.append((f"row {r}: {len(x)} != {len(y)} fields", None))
            continue
        diffs += [
            (f"row {r} {name}: {x[c]} != {y[c]}", _move(x[c], y[c]))
            for c, name in enumerate(header)
            if name != IGNORED and x[c] != y[c]
        ]
    # what the fields do not show (line endings, a trailing newline)
    if not diffs and IGNORED not in header and a != b:
        diffs.append(("bytes differ outside the fields", None))
    return diffs


def file_diffs(a: Path, b: Path):
    """(text, ``_move``) of each difference between two files; the move is
    None unless the difference is numeric."""
    if a.suffix == ".json":
        return list(_json_diffs(*(_without_ignored(json.loads(p.read_text())) for p in (a, b))))
    if a.suffix == ".csv":
        return _csv_diffs(a.read_bytes().decode(), b.read_bytes().decode())
    return [] if a.read_bytes() == b.read_bytes() else [("bytes differ", None)]


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    moves = {}  # file -> (relative move, size) of its numeric differences
    other = {}  # file -> count of its other differences
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        other[rel] = 1
    for rel in sorted(files_a & files_b):
        for text, move in file_diffs(a / rel, b / rel):
            print(f"{rel}: {text}")
            if move is None:
                other[rel] = other.get(rel, 0) + 1
            else:
                moves.setdefault(rel, []).append(move)
    n_numeric = sum(map(len, moves.values()))
    n_other = sum(other.values())
    if n_numeric + n_other:
        print(f"summary: {n_numeric} numeric differences in {len(moves)} files")
        for rel in sorted(moves):
            move, size = max(moves[rel])
            print(f"  {rel}: {len(moves[rel])}, largest relative move {move:.2e} (of a value of size {size:.2e})")
        print(f"summary: {n_other} non-numeric differences in {len(other)} files")
        for rel in sorted(other):
            print(f"  {rel}: {other[rel]}")
    print(f"{len(files_a & files_b)} files compared, {n_numeric + n_other} differences")
    return 1 if n_numeric + n_other else 0


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
