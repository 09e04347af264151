"""Compare two rabosim artifact trees file by file.

Usage: python tools/compare_artifacts.py OLD NEW

Prints the files found under only one of the two directories and the
files whose bytes differ. For a differing ``rounds.csv`` it prints the
largest relative difference in each column that moved, and for a
differing ``summary.json`` the same for each key path that moved (list
entries such as ``final_x[3]`` fold into their key). It ends with the
largest difference per column or key over all files, with the variant
or group name (the second path component) folded to ``*``.

The relative difference of two numbers a and b is
|a - b| / max(|a|, |b|): 0 when they are equal (two NaNs count as
equal), inf when only one is finite. A changed non-numeric value, or a
key or row present on one side only, is reported as ``changed``.

The report is for reading and never judges, so the exit status is 0
whenever both directories exist (2 otherwise).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

CHANGED = "changed"


def relative(a, b):
    """Relative difference of two numbers, or CHANGED for other values."""
    numbers = (int, float)
    if not (isinstance(a, numbers) and isinstance(b, numbers)) \
            or isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if type(a) is type(b) and a == b else CHANGED
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _record(table: dict, key, diff, where: str) -> None:
    """Keep the largest nonzero difference per key; CHANGED ranks above all."""
    if diff == 0.0:
        return
    current = table.get(key)
    if current is None or (current[0] != CHANGED
                           and (diff == CHANGED or diff > current[0])):
        table[key] = (diff, where)


def compare_csv(old: bytes, new: bytes) -> dict:
    """Column -> (largest relative difference, where) over moved cells."""
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    table: dict = {}
    if not rows_old or not rows_new or rows_old[0] != rows_new[0]:
        table["<header>"] = (CHANGED, "line 1")
        return table
    header = rows_old[0]
    if len(rows_old) != len(rows_new):
        table["<rows>"] = (CHANGED, f"{len(rows_old) - 1} -> "
                           f"{len(rows_new) - 1} data rows")
    for line, (a_row, b_row) in enumerate(zip(rows_old[1:], rows_new[1:]), 2):
        for col, a, b in zip(header, a_row, b_row):
            _record(table, col, relative(_number(a), _number(b)),
                    f"line {line}")
    return table


def _leaves(node, path: str, out: dict) -> None:
    """Flatten JSON to {key path: [values]}; a list's entries share a key."""
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, f"{path}/{key}" if path else str(key), out)
    elif isinstance(node, list) and node and not any(
            isinstance(v, (dict, list)) for v in node):
        out[path] = node
    elif isinstance(node, list):
        for k, value in enumerate(node):
            _leaves(value, f"{path}[{k}]", out)
    else:
        out[path] = [node]


def compare_json(old: bytes, new: bytes) -> dict:
    """Key path -> (largest relative difference, where) over moved leaves."""
    leaves_old: dict = {}
    leaves_new: dict = {}
    _leaves(json.loads(old), "", leaves_old)
    _leaves(json.loads(new), "", leaves_new)
    table: dict = {}
    for key in sorted(leaves_old.keys() | leaves_new.keys()):
        a, b = leaves_old.get(key), leaves_new.get(key)
        if a is None or b is None or len(a) != len(b):
            table[key] = (CHANGED, "present or sized differently")
            continue
        for k, (u, v) in enumerate(zip(a, b)):
            where = f"{key}[{k}]" if len(a) > 1 else key
            _record(table, key, relative(u, v), where)
    return table


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _fold(key: str) -> str:
    parts = key.split("/")
    if len(parts) > 2:
        parts[1] = "*"
    return "/".join(parts)


def _show(diff) -> str:
    return diff if diff == CHANGED else f"{diff:.3g}"


def compare_trees(old: Path, new: Path, out=None) -> None:
    """Print the report to ``out`` (default stdout)."""
    out = out or sys.stdout
    files_old, files_new = _files(old), _files(new)
    for name in sorted(files_old - files_new):
        print(f"only in {old}: {name}", file=out)
    for name in sorted(files_new - files_old):
        print(f"only in {new}: {name}", file=out)
    overall: dict = {}
    common = sorted(files_old & files_new)
    same = 0
    for name in common:
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        if a == b:
            same += 1
            continue
        print(f"differ: {name}", file=out)
        kind = Path(name).name
        if kind == "rounds.csv":
            table = compare_csv(a, b)
        elif kind == "summary.json":
            table = compare_json(a, b)
        else:
            continue
        for key, (diff, where) in table.items():
            print(f"  {key}: {_show(diff)} ({where})", file=out)
            folded = key if kind == "rounds.csv" else _fold(key)
            _record(overall, (kind, folded), diff, f"{name} {where}")
    print(f"identical: {same} of {len(common)} common files", file=out)
    if overall:
        print("largest relative difference per column or key:", file=out)
        for (kind, key), (diff, where) in sorted(overall.items()):
            print(f"  {kind} {key}: {_show(diff)} ({where})", file=out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    old, new = Path(args[0]), Path(args[1])
    for root in (old, new):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    compare_trees(old, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
