"""One chainobs CLI invocation in a fresh interpreter, as a user runs it.

Usage: python3 child.py MEASURE_JSON TRACE -- CLI_ARGS...

The interpreter start and the imports of chainobs, numpy and scipy happen
before ``cli.main`` is called; the runner counts them as set-up time from
the ``main_start`` stamp (``time.monotonic`` is system-wide, so the runner's
launch stamp and this one share a clock). With TRACE=1 every public layer
function is wrapped first and the spans are written with the measurement.
The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    measure_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py MEASURE_JSON {0|1} -- CLI_ARGS...", file=sys.stderr)
        return 64
    from chainobs import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_start = time.monotonic()
    code = cli.main(argv)
    main_end = time.monotonic()
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "main_start": main_start,
        "main_end": main_end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.export()
    with open(measure_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
