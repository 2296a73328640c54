"""mcmlike benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The seed fixes the op list; the run sets up,
runs one untimed warm-up block, then runs whole blocks of ops until
``--seconds`` have passed, checking every op's output against its golden.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (END_TO_END); with ``--trace 1`` the
per-layer ones (PER_LAYER), from a run in which every block runs twice, once
untraced and once traced, so the tracing overhead is measured on the same
ops.  Lines before it are a readable report.  Exit code 2, without a
result line, when the program or the benchmark's data cannot be found.
"""

from __future__ import annotations

import time

FIRST_LINE_NS = time.monotonic_ns()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
PLANNED_BLOCKS = 64  # generated during set-up; more are generated on demand
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
LADDER = (50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("render.classify_points.ms", "ms/op", "lower"),
    ("render.classify_points.calls", "calls/op", "lower"),
    ("render.classify_grid.self_ms", "ms/op", "lower"),
    ("render.write_ppm.ms", "ms/op", "lower"),
    ("render.undecided_ratio", "ratio", "lower"),
    ("render.pixels", "pixels/op", "lower"),
    ("dynamics.find_roots.ms", "ms/op", "lower"),
    ("dynamics.find_roots.calls", "calls/op", "lower"),
    ("dynamics.find_roots.nonconvergence", "calls/op", "lower"),
    ("dynamics.iterate_orbit.ms", "ms/op", "lower"),
    ("dynamics.iterate_orbit.calls", "calls/op", "lower"),
    ("verify.verify_family.self_ms", "ms/op", "lower"),
    ("verify.critical_census.self_ms", "ms/op", "lower"),
    ("verify.free_critical_polynomial.ms", "ms/op", "lower"),
    ("verify.classify_critical_orbits.self_ms", "ms/op", "lower"),
    ("verify.pass_ratio", "ratio", "higher"),
    ("verify.verdict_flips", "ratio", "lower"),
    ("verify.census_unavailable_ratio", "ratio", "lower"),
    ("skew.census_at_depth.ms", "ms/op", "lower"),
    ("skew.unburied_oracle.ms", "ms/op", "lower"),
    ("skew.codes", "codes/op", "higher"),
    ("model.classify_polynomial.ms", "ms/op", "lower"),
    ("model.normalize_type.ms", "ms/op", "lower"),
    ("model_io.load_model.ms", "ms/op", "lower"),
    ("arith.check_condition.ms", "ms/op", "lower"),
    ("arith.power_iteration_eigenvalue.ms", "ms/op", "lower"),
    ("surgery.plan_levels.ms", "ms/op", "lower"),
    ("surgery.compute_alpha_beta.ms", "ms/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "ms", "lower"),
    ("share.classify_points", "ratio", "lower"),
    ("share.roots_orbits", "ratio", "lower"),
    ("share.skew", "ratio", "lower"),
    ("share.start_import", "ratio", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.missing", "count", "lower"),
    ("host.py_loop_ms.before", "ms", "lower"),
    ("host.py_loop_ms.after", "ms", "lower"),
    ("host.np_loop_ms.before", "ms", "lower"),
    ("host.np_loop_ms.after", "ms", "lower"),
)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the p-th percentile of n samples."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile, at most ``cap``, with TAIL_BEYOND samples
    beyond it.  The cap is fixed per workload so that a faster program,
    which completes more ops in a run, is compared at the same percentile."""
    best = LADDER[0]
    for p in LADDER:
        if p <= cap and samples_beyond(n, p) >= TAIL_BEYOND:
            best = p
    return best


def host_loops():
    """Fixed pure-Python and numpy loops: a record of host speed drift."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    t1 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 100_000)
    for _ in range(100):
        a = np.sqrt(a * a + 0.5) - 0.5
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


# ---------------------------------------------------------------------------
# set-up


def prepare(name: str, seed: int):
    """Everything a run needs before its first op: imports, goldens, ops."""
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401

    t1 = time.perf_counter_ns()
    cli = wl.load_cli()
    t2 = time.perf_counter_ns()
    work = wl.WORKLOADS[name]()
    goldens = wl.load_goldens(name)
    gen = work.blocks(random.Random(f"{name}:{seed}"))
    planned = [next(gen) for _ in range(PLANNED_BLOCKS)]
    imports = {"import_numpy_ns": t1 - t0, "import_ns": t2 - t0}
    return cli, work, goldens, itertools.chain(planned, gen), imports


def probe_setup(name: str, seed: int) -> dict:
    """Time a fresh process from spawn to ready for its first op."""
    argv = [sys.executable, str(wl.BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--probe"]
    spawn_ns = time.monotonic_ns()
    p = subprocess.run(argv, cwd=wl.ROOT, env=wl.child_env(), capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {p.stderr.strip()}")
    report = json.loads(p.stdout.strip().splitlines()[-1])
    report["setup_ns"] = report["ready_ns"] - spawn_ns
    report["python_start_ns"] = report["first_line_ns"] - spawn_ns
    return report


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Timed ops of one side (untraced or traced), in run order."""

    def __init__(self):
        self.ops = []  # (op index, op, seconds)
        self.checks = []
        self.rss_kb = 0

    def add(self, idx, op, res, chk):
        self.ops.append((idx, op, res.seconds))
        self.checks.append(chk)
        self.rss_kb = max(self.rss_kb, res.rss_kb)

    @property
    def lat(self):
        return [sec for _, _, sec in self.ops]


class Runner:
    def __init__(self, name: str, seed: int):
        self.cli, self.work, self.goldens, self.blocks, _ = prepare(name, seed)
        self.work.attach()
        self.tracer = tracing.Tracer()
        self.child_reports = []  # cli_cold: one report per traced child
        self.wrong = []  # (key, reason) of incorrect outputs
        self.op_index = 0

    def trace_on(self) -> None:
        if self.work.in_process:
            self.tracer.install()
        else:
            self.work.span_file = wl.WORK / "child-spans.json"

    def trace_off(self) -> None:
        if self.work.in_process:
            self.tracer.uninstall()
        else:
            self.work.span_file = None

    def execute(self, op, tally, traced: bool = False) -> None:
        idx = self.op_index
        self.op_index += 1
        self.tracer.op = idx
        res = self.work.run(self.cli, op)
        if traced and not self.work.in_process:
            self._adopt_child(res, idx)
        chk = self.work.check(op, res, self.goldens[op.key])
        if not chk.correct:
            self.wrong.append((op.key, chk.reason))
        if tally is not None:
            tally.add(idx, op, res, chk)

    def _adopt_child(self, res, idx: int) -> None:
        path = wl.WORK / "child-spans.json"
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(path)
        report["python_start_ns"] = report["first_line_ns"] - res.spawn_ns
        self.child_reports.append(report)
        self.tracer.missing.update(report["missing"])
        self.tracer.adopt(report["spans"], idx)
        for key, val in report["counters"].items():
            self.tracer.counters[key] += val

    def warm_up(self) -> None:
        for op in next(self.blocks):
            self.execute(op, None)

    def measure(self, seconds: float, trace: bool):
        """Whole blocks until ``seconds`` have passed.  Traced runs run each
        block untraced and traced, alternating which goes first."""
        plain, traced = Tally(), Tally()
        deadline = time.monotonic() + seconds
        for i, block in enumerate(self.blocks):
            sides = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
            for side in sides:
                if side:
                    self.trace_on()
                try:
                    for op in block:
                        self.execute(op, traced if side else plain, traced=side)
                finally:
                    if side:
                        self.trace_off()
            if time.monotonic() >= deadline:
                break
        return plain, traced


def end_to_end(work, plain: Tally, probes, tail_pct: float) -> dict:
    lat_ms = [s * 1e3 for s in plain.lat]
    if work.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = plain.rss_kb / 1024.0
    return {
        "ops_per_s": len(lat_ms) / sum(plain.lat),
        "latency_p50_ms": percentile(lat_ms, 50.0),
        "latency_tail_ms": percentile(lat_ms, tail_pct),
        "setup_s": statistics.median(p["setup_ns"] for p in probes) / 1e9,
        "peak_rss_mb": rss_mb,
    }


SPAN_FIELDS = {"ms": ("incl_ns", 1e-6), "self_ms": ("self_ns", 1e-6), "calls": ("calls", 1.0)}


def per_layer(runner: Runner, plain: Tally, traced: Tally, probes, host) -> dict:
    """PER_LAYER values: ``<target>.ms|self_ms|calls`` come straight from the
    spans (per traced op, 0 when never called); the rest are derived here."""
    counters = runner.tracer.counters
    summary = tracing.summarize(runner.tracer.spans)
    n = max(1, len(traced.ops))
    total_ns = sum(traced.lat) * 1e9 or 1.0

    def share(*fns):
        return sum(summary[f]["incl_ns"] for f in fns if f in summary) / total_ns

    # Start-up figures: per traced child for cli_cold, per set-up probe elsewhere.
    reps = runner.child_reports or probes
    start_import = sum(r["python_start_ns"] + r["import_ns"] for r in runner.child_reports) / total_ns
    checks = traced.checks
    grid_px = counters.get("render.classify_grid.grid_pixels", 0.0)
    roots = summary.get("dynamics.find_roots", {})
    derived = {
        "render.undecided_ratio": counters.get("render.classify_grid.undecided", 0.0) / grid_px if grid_px else 0.0,
        "render.pixels": counters.get("render.classify_points.pixels", 0.0) / n,
        "dynamics.find_roots.nonconvergence": roots.get("raised.NonConvergence", 0.0) / n,
        "verify.pass_ratio": sum(c.passed for c in checks) / n,
        "verify.verdict_flips": sum(c.flipped for c in checks) / n,
        "verify.census_unavailable_ratio": sum(c.reason == wl.CENSUS_UNAVAILABLE for c in checks) / n,
        "skew.codes": counters.get("skew.census_at_depth.codes", 0.0) / n,
        "cli.python_start_ms": statistics.median(r["python_start_ns"] for r in reps) / 1e6,
        "cli.import_ms": statistics.median(r["import_ns"] for r in reps) / 1e6,
        "cli.import_numpy_ms": statistics.median(r["import_numpy_ns"] for r in reps) / 1e6,
        "share.classify_points": share("render.classify_points"),
        "share.roots_orbits": share("dynamics.find_roots", "dynamics.iterate_orbit"),
        "share.skew": share("skew.census_at_depth", "skew.unburied_oracle"),
        "share.start_import": start_import,
        "trace.ops_per_s_untraced": len(plain.ops) / sum(plain.lat),
        "trace.ops_per_s_traced": len(traced.ops) / sum(traced.lat),
        "trace.overhead_ratio": sum(traced.lat) / sum(plain.lat) - 1.0,
        "trace.missing": float(len(runner.tracer.missing)),
        "host.py_loop_ms.before": host[0][0],
        "host.py_loop_ms.after": host[1][0],
        "host.np_loop_ms.before": host[0][1],
        "host.np_loop_ms.after": host[1][1],
    }
    out = {}
    for name, _, _ in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if fn in tracing.TARGETS and field in SPAN_FIELDS:
            key, scale = SPAN_FIELDS[field]
            out[name] = summary[fn][key] * scale / n if fn in summary else 0.0
        else:
            out[name] = derived[name]
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl.require_program()
    os.chdir(wl.ROOT)  # op arguments are paths relative to the checkout
    os.environ["MCM_THREADS"] = "1"
    wl.WORK.mkdir(exist_ok=True)
    host_before = host_loops()
    probes = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    runner = Runner(name, seed)
    runner.warm_up()
    plain, traced = runner.measure(seconds, trace)
    host_after = host_loops()
    with open(wl.WORK / f"ops-{name}-{seed}-trace{int(trace)}.jsonl", "w", encoding="utf-8") as fh:
        for tally, was_traced in ((plain, False), (traced, True)):
            for (idx, op, sec), chk in zip(tally.ops, tally.checks):
                row = {"op": idx, "key": op.key, "class": op.cls, "ms": sec * 1e3,
                       "failed": chk.failed, "traced": was_traced}
                fh.write(json.dumps(row) + "\n")
    if trace:
        runner.tracer.dump(wl.WORK / f"spans-{name}-{seed}.jsonl")

    attempted = len(plain.checks) + len(traced.checks)
    failed = sum(c.failed for c in plain.checks + traced.checks)
    n = len(plain.ops)
    tail_pct = tail_percentile(n, runner.work.tail_pct)
    e2e = end_to_end(runner.work, plain, probes, tail_pct)
    print(f"workload {name} seed {seed}: {n} ops timed in {sum(plain.lat):.2f} s"
          + (f", {len(traced.ops)} traced" if trace else ""))
    print(f"latency p50 {e2e['latency_p50_ms']:.2f} ms, tail p{tail_pct:g} {e2e['latency_tail_ms']:.2f} ms "
          f"({samples_beyond(n, tail_pct)} of {n} samples beyond)")
    by_class = defaultdict(list)
    for _, op, sec in plain.ops:
        by_class[op.cls].append(sec)
    for cls, xs in sorted(by_class.items()):
        print(f"class {cls}: {len(xs)} ops ({len(xs) / n:.0%}), median {statistics.median(xs) * 1e3:.2f} ms")
    print(f"setup {e2e['setup_s']:.3f} s (median of {len(probes)} fresh starts)")
    print(f"host drift: python loop {host_before[0]:.1f} -> {host_after[0]:.1f} ms, "
          f"numpy loop {host_before[1]:.1f} -> {host_after[1]:.1f} ms")
    print(f"failed {failed} of {attempted} attempted")
    for key, reason in runner.wrong[:10]:
        print(f"wrong output: {key}: {reason}")

    if trace:
        values = per_layer(runner, plain, traced, probes, (host_before, host_after))
        if runner.tracer.missing:
            print("absent from the program, reported as 0: " + ", ".join(sorted(runner.tracer.missing)))
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in PER_LAYER}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u, _ in END_TO_END}
    print(json.dumps({"correct": not runner.wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(wl.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        p = subprocess.run(argv, cwd=wl.ROOT, capture_output=True, text=True, timeout=600)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            return p.returncode
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            merged["metrics"][f"{name}.{m}"] = v
        print(f"== {name}: " + ", ".join(f"{m} {v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items())
              + f"; failed {res['failed']}/{res['attempted']}")
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe:
            *_, imports = prepare(args.workload, args.seed)
            ready_ns = time.monotonic_ns()
            print(json.dumps({"first_line_ns": FIRST_LINE_NS, "ready_ns": ready_ns, **imports}))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (wl.ProgramMissing, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
