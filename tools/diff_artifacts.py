"""Compare two directories of ``wkam`` artifacts, exactly or to a tolerance.

Usage: python tools/diff_artifacts.py DIR_A DIR_B [--tol T]

Every ``*.json`` and ``*.csv`` file under either directory is matched by its
path relative to the directory.  A JSON payload must be equal key by key,
apart from ``wall_times``; a CSV file must be equal byte for byte.  With
``--tol T`` two floats, in JSON or in CSV cells, match when
|a - b| <= T max(1, |a|, |b|); integers, strings, booleans and the shape of
the data must still be equal, and each file's largest such relative
deviation is printed.  The script lists each file that differs or is missing
from one side, with the JSON keys that differ, and exits 1; otherwise it
prints ``N files equal`` and exits 0.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

IGNORED_KEYS = ("wall_times",)
USAGE = "usage: python tools/diff_artifacts.py DIR_A DIR_B [--tol T]"


def _canonical(value) -> str:
    # floats round-trip through repr, and NaN compares equal to itself here
    return json.dumps(value, sort_keys=True)


def float_deviation(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|); 0 for equal values (NaN equals NaN), inf past the reals."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def json_deviation(a, b) -> float:
    """Largest ``float_deviation`` between the floats of two JSON values.

    Anything else that differs (a key, a length, a type, an integer, a string,
    a boolean) gives inf.
    """
    if type(a) is float and type(b) is float:
        return float_deviation(a, b)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(json_deviation, a, b), default=0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((json_deviation(a[k], b[k]) for k in a), default=0.0)
    return 0.0 if _canonical(a) == _canonical(b) else math.inf


def json_differences(a, b, prefix: str = "", tol: float | None = None) -> list[str]:
    """Dotted key paths at which two JSON values differ (lists compare whole).

    Without ``tol`` values must be equal; with it, their ``json_deviation``
    must be at most ``tol``.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else key
            if key not in a or key not in b:
                out.append(path)
            else:
                out.extend(json_differences(a[key], b[key], path, tol))
        return out
    same = _canonical(a) == _canonical(b) if tol is None else json_deviation(a, b) <= tol
    return [] if same else [prefix or "(root)"]


def _cell_deviation(a: str, b: str) -> float:
    """``float_deviation`` of two CSV cells that both hold a float; else 0 or inf."""
    if a == b:
        return 0.0
    # an integer cell (written by str) must match exactly
    if any(cell.lstrip("+-").isdigit() for cell in (a, b)):
        return math.inf
    try:
        return float_deviation(float(a), float(b))
    except ValueError:
        return math.inf


def csv_deviation(text_a: str, text_b: str) -> float:
    """Largest ``_cell_deviation`` of two CSV texts of the same shape; inf otherwise."""
    rows_a, rows_b = (list(csv.reader(t.splitlines())) for t in (text_a, text_b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    return max((_cell_deviation(x, y) for ra, rb in zip(rows_a, rows_b)
                for x, y in zip(ra, rb)), default=0.0)


def _artifacts(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for suffix in ("*.json", "*.csv")
            for p in root.rglob(suffix)}


def compare(dir_a: Path, dir_b: Path, tol: float | None = None):
    """(number of files compared, one line per file that differs, deviations).

    ``deviations`` maps each file on both sides to its largest relative
    deviation when ``tol`` is given, and is empty otherwise.
    """
    names = sorted(_artifacts(dir_a) | _artifacts(dir_b))
    report, deviations = [], {}
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            report.append(f"{name}: only in {dir_a if pa.exists() else dir_b}")
        elif name.endswith(".csv"):
            if tol is None:
                if pa.read_bytes() != pb.read_bytes():
                    report.append(f"{name}: bytes differ")
            else:
                deviations[name] = csv_deviation(pa.read_text(), pb.read_text())
                if deviations[name] > tol:
                    report.append(f"{name}: cells differ")
        else:
            a, b = (json.loads(p.read_text()) for p in (pa, pb))
            for key in IGNORED_KEYS:
                a.pop(key, None)
                b.pop(key, None)
            keys = json_differences(a, b, tol=tol)
            if tol is not None:
                deviations[name] = json_deviation(a, b)
            if keys:
                report.append(f"{name}: {', '.join(keys)}")
    return len(names), report, deviations


def split_tol(args) -> tuple[list[str], float | None]:
    """The arguments without ``--tol T``, and T (None without the flag).

    Raises ValueError when T is missing, not a number or negative.
    """
    args = list(args)
    if "--tol" not in args:
        return args, None
    i = args.index("--tol")
    tol = float(args[i + 1]) if i + 1 < len(args) else math.nan
    if not tol >= 0.0:
        raise ValueError("--tol needs a nonnegative number")
    return args[:i] + args[i + 2:], tol


def print_comparison(n: int, report: list[str], deviations: dict) -> None:
    for name, dev in deviations.items():
        print(f"{name}: largest deviation {dev:.3g}")
    if report:
        print("\n".join(report))
        print(f"{len(report)} of {n} files differ")
    else:
        print(f"{n} files equal")


def main(argv=None) -> int:
    try:
        args, tol = split_tol(sys.argv[1:] if argv is None else argv)
    except ValueError:
        args = []
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(a) for a in args)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    n, report, deviations = compare(dir_a, dir_b, tol)
    print_comparison(n, report, deviations)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
