"""Say, file by file, how far two sets of gridloop outputs lie apart.

Usage: python3 tools/output_diff.py DIR_A DIR_B

``DIR_A`` and ``DIR_B`` are trees of run outputs, such as two
``tools/output_hashes.py --keep DIR`` directories taken on two commits. For
every file (by path relative to its directory) one line is printed:
``identical`` when the bytes agree, otherwise the largest absolute and the
largest relative difference over the numeric CSV cells and JSON leaves (a
value's relative difference is its absolute one over the larger magnitude of
the two; the two largest may come from different values) and, for a CSV, the
number of rows whose text differs and the index of the first (0-based,
header not counted, as in the ``row[i]`` notes). Every difference that is
not a float moving is named on its own indented line: a changed integer or boolean
(a violation count, ``satisfied``, ``certified``, an iteration or sweep
count), a changed string, a non-finite value on one side only, or a changed
shape (header, row count, keys, list length), as is a file found in one
directory only. The exit code is 1 if any such difference was found, else 0.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _cell(text: str):
    """A CSV cell as an int, a float or, failing both, the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows, each row a list of cell texts."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    return header, rows


def _parsed(header: list[str], rows: list[list[str]]) -> list[dict]:
    """Each row as a mapping from column to cell."""
    return [dict(zip(header, map(_cell, row))) for row in rows]


def compare(a, b, where: str, notes: list[str]) -> tuple[float, float]:
    """Largest absolute and largest relative difference between the floats
    of two parsed values; every other difference is appended to ``notes``."""
    if isinstance(a, (list, dict)) or isinstance(b, (list, dict)):
        if type(a) is not type(b) or len(a) != len(b):
            notes.append(f"{where}: shape {_shape(a)} -> {_shape(b)}")
            return 0.0, 0.0
        if isinstance(a, dict):
            if a.keys() != b.keys():
                notes.append(f"{where}: keys {sorted(a)} -> {sorted(b)}")
                return 0.0, 0.0
            pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
        else:
            pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
        diffs = [compare(x, y, w, notes) for x, y, w in pairs]
        return max((d[0] for d in diffs), default=0.0), max((d[1] for d in diffs), default=0.0)
    floats = isinstance(a, float) or isinstance(b, float)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if floats and numbers and math.isfinite(a) and math.isfinite(b):
        diff = abs(a - b)
        return diff, diff / max(abs(a), abs(b)) if diff else 0.0
    if a != b and not (floats and numbers and math.isnan(a) and math.isnan(b)):
        notes.append(f"{where}: {a!r} -> {b!r}")
    return 0.0, 0.0


def _shape(v) -> str:
    return f"{type(v).__name__}[{len(v)}]" if isinstance(v, (list, dict)) else type(v).__name__


def diff_file(a: Path, b: Path, notes: list[str]) -> str:
    if a.read_bytes() == b.read_bytes():
        return "identical"
    if a.suffix == ".csv":
        (head_a, rows_a), (head_b, rows_b) = _csv(a), _csv(b)
        if head_a != head_b:
            notes.append(f"header {head_a} -> {head_b}")
            return "differs"
        worst = compare(_parsed(head_a, rows_a), _parsed(head_b, rows_b), "row", notes)
        moved = [i for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y]
        rows = f", {len(moved)} rows differ, first at row {moved[0]}" if moved else ""
        return f"max abs diff {worst[0]:.3g}, max rel diff {worst[1]:.3g}{rows}"
    elif a.suffix == ".json":
        worst = compare(json.loads(a.read_text()), json.loads(b.read_text()), "$", notes)
    else:
        notes.append("not a CSV or JSON file; bytes differ")
        return "differs"
    return f"max abs diff {worst[0]:.3g}, max rel diff {worst[1]:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root_a, root_b = (Path(d) for d in argv)
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    flagged = False
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}: only in {root_a if rel in files_a else root_b}")
            flagged = True
            continue
        notes: list[str] = []
        print(f"{rel}: {diff_file(root_a / rel, root_b / rel, notes)}")
        for note in notes:
            print(f"  {note}")
        flagged = flagged or bool(notes)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
