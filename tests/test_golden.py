import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _write(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


def test_compare_summary_splits_numeric_moves(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, {
        "r/report.csv": "k,e_k,flag,wall_seconds\n1,0.5,converged,1.0\n2,2e-15,converged,2.0\n",
        "r/report.json": json.dumps({"cond": 4.0, "k": 3, "ok": True, "wall_seconds": 1.0}),
        "r/only_a.txt": "x",
    })
    _write(b, {
        "r/report.csv": "k,e_k,flag,wall_seconds\n1,0.4,converged,9.0\n3,1e-15,max_iters,2.0\n",
        "r/report.json": json.dumps({"cond": 4.0000001, "k": 4, "ok": False, "wall_seconds": 5.0}),
    })
    assert golden.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    summary = out[out.index("summary: 3 numeric differences in 2 files"):]
    assert summary == [
        "summary: 3 numeric differences in 2 files",
        "  r/report.csv: 2, largest relative move 5.00e-01 (of a value of size 2.00e-15)",
        "  r/report.json: 1, largest relative move 2.50e-08 (of a value of size 4.00e+00)",
        "summary: 5 non-numeric differences in 3 files",
        "  r/only_a.txt: 1",
        "  r/report.csv: 2",
        "  r/report.json: 2",
        "2 files compared, 8 differences",
    ]


@pytest.mark.parametrize("a, b, move", [
    ("0.5", "0.4", (0.2, 0.5)),
    (2.0, 2, (0.0, 2.0)),
    ("0.0", "-0.0", (0.0, 0.0)),
    ("3", "4", None),
    (True, False, None),
    ("nan", "1.0", None),
    ("converged", "max_iters", None),
])
def test_move_is_numeric_only_for_finite_non_integer_pairs(a, b, move):
    got = golden._move(a, b)
    assert got == move if move is None else got == pytest.approx(move)


def test_identical_runs_print_no_summary(tmp_path, capsys):
    files = {"r/report.csv": "k,e_k\n1,0.5\n"}
    _write(tmp_path / "a", files)
    _write(tmp_path / "b", files)
    assert golden.compare(tmp_path / "a", tmp_path / "b") == 0
    assert capsys.readouterr().out == "1 files compared, 0 differences\n"
