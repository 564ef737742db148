"""Print the machine and library facts a benchmark run depends on, as JSON.

Runs in a fresh child with the same environment as the measured runs, so
it reports the BLAS build and thread variables those runs see. Its imports
also compile chainobs's bytecode and warm the page cache before any run is
timed.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    import chainobs
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "memory_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6),
        "cpu": _cpu_model(),
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "chainobs_file": chainobs.__file__,
    }
    print(json.dumps(facts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
