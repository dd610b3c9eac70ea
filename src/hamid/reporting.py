"""Shared formatting and the one writer of deterministic CSV and JSON output."""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def format_float(x) -> str:
    """Fixed 12-significant-digit rendering; None becomes an empty field."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".12g")


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    if value is None or isinstance(value, float):
        return format_float(value)
    return value


def json_default(value):
    """JSON form of a value json cannot write: a numpy scalar becomes the
    Python number it holds, anything else a float."""
    return value.item() if isinstance(value, np.generic) else float(value)


def write(path, payload) -> Path:
    """Write ``payload`` in the format the suffix of ``path`` names.  A
    ``.csv`` payload is a ``(header, rows)`` table: the header row, then the
    rows, with floats (and None) through :func:`format_float` and bools as
    0/1.  Any other payload (a ``.json`` file's) is written as indented JSON
    with a trailing newline, through :func:`json_default`."""
    path = Path(path)
    if path.suffix == ".csv":
        header, rows = payload
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_cell(v) for v in row] for row in rows)
    else:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=json_default)
            fh.write("\n")
    return path
