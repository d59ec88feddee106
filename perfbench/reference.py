"""Host-speed reference, run as a fresh child process by the benchmark.

Usage: ``python perfbench/reference.py``

A fixed piece of work that shares no code with the program: interpreter
start, ``import numpy``, a pure-Python loop over dicts and ints, and
numpy mask/scan/sort passes over rows the size of the benchmark's bn
machine.  The benchmark times it beside the workload's own commands and
scales every time metric by ``REFERENCE_S / its median``, so the figures
read as seconds on a host where this takes ``REFERENCE_S``; see
``workloads.HostSpeed``.  It prints a checksum the parent verifies.
"""

from __future__ import annotations

import sys

import numpy as np

#: Size of the pure-Python and the numpy parts.
PY_STEPS = 150_000
NP_PASSES = 24
NODES = 12_288


def main() -> int:
    counts: dict = {}
    acc = 0
    for i in range(PY_STEPS):
        k = (i * 7919) & 1023
        counts[k] = counts.get(k, 0) + 1
        acc = (acc + i * k) & 0xFFFFFFFF
    rows = np.random.default_rng(12345).random((16, NODES))
    total = 0
    for step in range(NP_PASSES):
        mask = rows < 0.002 * (1 + step % 4)
        total += int(np.count_nonzero(mask))
        total += int(np.cumsum(mask, axis=1)[:, -1].sum())
        total += int(np.flatnonzero(mask[step % 16]).sum() % 1_000_003)
        total += int(np.argsort(rows[step % 16], kind="stable")[0])
    print(f"{acc} {len(counts)} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
