"""Run ``mcmlike.cli`` as ``python -m mcmlike.cli`` would, with spans recorded.

Usage: MCMBENCH_SPANS=<report.json> python3 perfbench/traced_cli.py <cli args>

Writes a JSON report with the interpreter's first-line clock reading, the
import times of numpy and mcmlike.cli, and the spans of the call, then exits
with the CLI's exit code.  Standard output is the CLI's, unchanged.
"""

import time

FIRST_LINE_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401

t1 = time.perf_counter_ns()
import mcmlike.cli  # noqa: E402

t2 = time.perf_counter_ns()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return mcmlike.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        report = {
            "first_line_ns": FIRST_LINE_NS,
            "import_numpy_ns": t1 - t0,
            "import_ns": t2 - t0,
            "spans": tracer.spans,
            "missing": sorted(tracer.missing),
            "counters": dict(tracer.counters),
        }
        with open(os.environ["MCMBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
