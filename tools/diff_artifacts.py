"""Compare two directories of ``wkam`` artifacts for exact equality.

Usage: python tools/diff_artifacts.py DIR_A DIR_B

Every ``*.json`` and ``*.csv`` file under either directory is matched by its
path relative to the directory.  A JSON payload must be equal key by key,
apart from ``wall_times``; a CSV file must be equal byte for byte.  The
script lists each file that differs or is missing from one side, with the
JSON keys that differ, and exits 1; otherwise it prints ``N files equal`` and
exits 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

IGNORED_KEYS = ("wall_times",)
USAGE = "usage: python tools/diff_artifacts.py DIR_A DIR_B"


def _canonical(value) -> str:
    # floats round-trip through repr, and NaN compares equal to itself here
    return json.dumps(value, sort_keys=True)


def json_differences(a, b, prefix: str = "") -> list[str]:
    """Dotted key paths at which two JSON values differ (lists compare whole)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else key
            if key not in a or key not in b:
                out.append(path)
            else:
                out.extend(json_differences(a[key], b[key], path))
        return out
    return [] if _canonical(a) == _canonical(b) else [prefix or "(root)"]


def _artifacts(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for suffix in ("*.json", "*.csv")
            for p in root.rglob(suffix)}


def compare(dir_a: Path, dir_b: Path) -> tuple[int, list[str]]:
    """(number of files compared, one line per file that differs)."""
    names = sorted(_artifacts(dir_a) | _artifacts(dir_b))
    report = []
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            report.append(f"{name}: only in {dir_a if pa.exists() else dir_b}")
        elif name.endswith(".csv"):
            if pa.read_bytes() != pb.read_bytes():
                report.append(f"{name}: bytes differ")
        else:
            a, b = (json.loads(p.read_text()) for p in (pa, pb))
            for key in IGNORED_KEYS:
                a.pop(key, None)
                b.pop(key, None)
            keys = json_differences(a, b)
            if keys:
                report.append(f"{name}: {', '.join(keys)}")
    return len(names), report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(a) for a in args)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    n, report = compare(dir_a, dir_b)
    if report:
        print("\n".join(report))
        print(f"{len(report)} of {n} files differ")
        return 1
    print(f"{n} files equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
