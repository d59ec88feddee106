"""Set-up probe, run as a fresh child process by the benchmark.

Usage: ``python perfbench/probe.py CONSTRUCTION PARAMS_JSON``

Imports ``repro.cli`` and builds the construction through the public
registry, then prints ``ready``; the parent times spawn -> ``ready`` as
``setup_s``.  After that line (outside the timed part) it prints one JSON
line describing the host and the kernel tiers the program sees.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def main(argv: list) -> int:
    import repro.cli  # noqa: F401 - the import is what is being timed
    from repro.api.registry import get

    get(argv[0], **json.loads(argv[1]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import numpy

    from repro.fastpath.dispatch import available_tiers, resolve_backend

    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "available_tiers": list(available_tiers()),
        "auto_tier": resolve_backend("auto"),
    }
    sys.stdout.write(json.dumps(host, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
