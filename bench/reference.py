"""Fixed reference task: how fast the machine runs right now.

Usage:
    python bench/reference.py

The benchmark runs this between the program's commands and scales each
command's wall time by the reference's neighbouring wall times, so a
host that slows down for a while slows both alike. The task does not
touch floodpave. It mixes what the CLI spends its time on: interpreter
start and the numpy import, row-by-row Python parsing and grouping, and
numpy sorting, gathers and small products. Its work is fixed,
independent of any seed.
"""

import numpy as np


def python_rows(n_rows=60_000):
    """Format, parse and group rows the way a CSV loader does."""
    lines = [f"{i % 1114},{2010 + i % 9},{(i * 7919) % 1000 / 7.0:.6f}" for i in range(n_rows)]
    groups = {}
    for line in lines:
        section, year, value = line.split(",")
        groups.setdefault((int(section), int(year)), []).append(float(value))
    return sum(sum(v) / len(v) for v in groups.values())


def numpy_work(n=100_000, rounds=16):
    """Sorts, gathers, reductions and small matrix products."""
    x = np.arange(n, dtype=np.float64) * 0.618033988749895 % 1.0
    total = 0.0
    for r in range(rounds):
        order = np.argsort(x, kind="stable")
        x = np.cumsum(x[order]) % 1.0
        m = x[: 90 * 90].reshape(90, 90)
        total += float((m @ m.T).trace()) + float(np.median(x))
    return total


def main() -> int:
    checksum = python_rows() + numpy_work()
    return 0 if np.isfinite(checksum) else 1


if __name__ == "__main__":
    raise SystemExit(main())
