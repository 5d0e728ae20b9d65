"""Compare JSON reports pairwise, ignoring ``timestamp`` and
``elapsed_seconds`` at any depth.

Usage: python3 same_reports.py A1 B1 [A2 B2 ...]

Exits 0 when every Ai equals Bi, and 1 naming the pairs that differ.
"""

import json
import sys
from pathlib import Path

VOLATILE = ("timestamp", "elapsed_seconds")


def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k not in VOLATILE}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x


def load(path: str):
    return strip(json.loads(Path(path).read_text()))


def main(paths: list[str]) -> None:
    if not paths or len(paths) % 2:
        sys.exit("usage: same_reports.py A1 B1 [A2 B2 ...]")
    pairs = list(zip(paths[::2], paths[1::2]))
    differ = [f"{a} != {b}" for a, b in pairs if load(a) != load(b)]
    if differ:
        sys.exit("reports differ: " + "; ".join(differ))
    print(f"{len(pairs)} report pair(s) agree: " + ", ".join(b for _, b in pairs))


if __name__ == "__main__":
    main(sys.argv[1:])
