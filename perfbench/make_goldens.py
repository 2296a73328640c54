"""Record the golden output of every op in every workload's universe.

Run from the repository root at the reference commit:

    python3 perfbench/make_goldens.py [workload ...]

Writes perfbench/goldens/<workload>.json.gz.  cli_cold keeps only the ops
whose command exits 0 or 1; the other workloads keep every op.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time

import workloads as wl


def record_all(work: wl.Workload, cli) -> dict:
    goldens = {}
    t0 = time.perf_counter()
    for key, op in sorted(work.universe().items()):
        res = work.run(cli, op)
        if res.error:
            raise SystemExit(f"{work.name} {key}: {res.error}")
        if work.name == "cli_cold" and res.code not in (0, 1):
            continue
        goldens[key] = work.record(op, res)
    print(f"{work.name}: {len(goldens)} goldens in {time.perf_counter() - t0:.1f} s", flush=True)
    return goldens


def main(argv) -> int:
    os.environ["MCM_THREADS"] = "1"
    os.chdir(wl.ROOT)
    wl.WORK.mkdir(exist_ok=True)
    cli = wl.load_cli()
    wl.GOLDENS.mkdir(exist_ok=True)
    for name in argv or list(wl.WORKLOADS):
        work = wl.WORKLOADS[name]()
        work.attach()
        goldens = record_all(work, cli)
        with gzip.GzipFile(wl.GOLDENS / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(goldens, sort_keys=True, indent=0).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
