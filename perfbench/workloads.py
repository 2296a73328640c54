"""Workloads of the mcmlike benchmark: op universes, seeded op lists, runners, checks.

Every workload draws its ops from a finite universe so that each op has a
golden output recorded from the program (see make_goldens.py).  A seed fixes
the op list: ops are dealt in blocks, and each block holds a fixed mix of
cost classes, so every run measures the same shares whatever its length.
Inside a class the seed picks the inputs from that class's universe by a
seeded low-discrepancy sequence (Spread).

The program is only ever driven through its command line: in process via
``mcmlike.cli.main`` (render_planes, verify_sweep, skew_census) or as one
fresh ``python -m mcmlike.cli`` child per op (cli_cold).
"""

from __future__ import annotations

import base64
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
GOLDENS = BENCH / "goldens"
WORK = ROOT / ".bench_work"

RENDER_OUT = ".bench_work/render.ppm"  # relative to ROOT; printed by the CLI


class ProgramMissing(RuntimeError):
    """The mcmlike sources are not next to the benchmark."""


def require_program() -> None:
    if not (SRC / "mcmlike" / "cli.py").is_file():
        raise ProgramMissing(f"no mcmlike sources under {SRC}")


def load_cli():
    """Import mcmlike.cli from this checkout's src/, never from elsewhere."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcmlike.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"mcmlike imported from {cli.__file__}, not {SRC}")
    return cli


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's sources, one render
    thread, and bytecode caching on, so that children after the first load
    compiled modules as an installed package does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["MCM_THREADS"] = "1"
    return env


ALL_FIXTURES = tuple(sorted(p.stem for p in INPUTS.glob("*.json")))
FAMILIES = ("f_cubic", "g_cubic", "h_multipole", "nd2_family", "q_family", "r_milnor")
POLY_FIXTURES = FAMILIES + ("q_conjugate", "z3_d3", "z3_d4")  # every fixture with a polynomial


def fixture(name: str) -> str:
    return f"perfbench/inputs/{name}.json"


def fixture_lambda(name: str) -> complex:
    """The family coefficient of a fixture (first pole for simple poles)."""
    with open(INPUTS / f"{name}.json", encoding="utf-8") as fh:
        fam = json.load(fh)["family"]
    pair = fam["lambda"] if fam["kind"] == "product_pole" else fam["poles"][0]["lambda"]
    return complex(pair[0], pair[1])


@dataclass(frozen=True)
class Op:
    key: str  # golden key
    argv: tuple  # CLI arguments after the program name
    cls: str  # cost class


@dataclass
class Result:
    code: Optional[int]
    stdout: str
    seconds: float
    error: str = ""
    grid: object = None  # render_planes: the ClassGrid the op produced
    rss_kb: int = 0  # cli_cold: peak RSS of the child
    spawn_ns: int = 0  # cli_cold: monotonic clock when the child was spawned


@dataclass
class Check:
    correct: bool  # output agrees with the golden under the workload's rule
    failed: bool  # counts against attempted; always set when not correct
    reason: str = ""
    flipped: bool = False  # verify_sweep: verdict differs from the golden
    passed: bool = False  # verify_sweep: verdict PASS


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Spread:
    """Seeded low-discrepancy draws: draw i is item floor(n * frac(u + i*g)),
    with g the golden ratio's fractional part and u the seeded offset.

    Each draw is uniform over the items, and every prefix of the draws holds
    every interval of the item list at its share to within a couple of draws,
    so runs of any length see the same mix.  Items are listed in order of
    cost where the cost is known to follow one parameter.
    """

    def __init__(self, items: Sequence, rng: random.Random):
        self.items = list(items)
        self.u = rng.random()
        self.i = 0

    def draw(self):
        x = (self.u + self.i * GOLDEN) % 1.0
        self.i += 1
        return self.items[int(x * len(self.items))]


def run_in_process(cli, argv: Sequence[str]) -> Result:
    buf = io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    return Result(code, buf.getvalue(), time.perf_counter() - t0, error)


def lines_with(text: str, prefix: str) -> List[str]:
    return [ln for ln in text.splitlines() if ln.startswith(prefix)]


def load_goldens(name: str) -> dict:
    with gzip.open(GOLDENS / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    why = ""
    tail_pct = 90.0  # fixed per workload; see tail_percentile in run.py
    in_process = True

    def universe(self) -> Dict[str, Op]:
        raise NotImplementedError

    def blocks(self, rng: random.Random) -> Iterator[List[Op]]:
        raise NotImplementedError

    def attach(self) -> None:
        """Hook into the imported program before the first op."""

    def run(self, cli, op: Op) -> Result:
        return run_in_process(cli, op.argv)

    def record(self, op: Op, res: Result) -> dict:
        """Golden entry for an op run at the reference commit."""
        return {"code": res.code, "stdout": res.stdout}

    def check(self, op: Op, res: Result, golden: dict) -> Check:
        if res.error or res.code != golden["code"] or res.stdout != golden["stdout"]:
            return Check(False, True, _mismatch(res, golden))
        return Check(True, False)


def _mismatch(res: Result, golden: dict) -> str:
    if res.error:
        return res.error
    if res.code != golden.get("code"):
        return f"exit {res.code}, expected {golden.get('code')}"
    return "stdout differs from golden"


# ---------------------------------------------------------------------------
# render_planes


RENDER_SLOW = "r_milnor"
RENDER_CENTERS = (0j, 0.1 + 0j, -0.1 + 0j, 0.1j, -0.1j)
RENDER_HALF_WIDTHS = (1.4, 1.5, 1.6)
RENDER_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
RENDER_SIZE = 256
RENDER_MAX_ITER = 512  # the CLI default, which the ops keep


def grid_digest(grid, undecided) -> str:
    """sha256 of the grid's labels with the given pixels blanked out."""
    import numpy as np

    kind = grid.kind.astype(np.uint8)
    iters = grid.iters.astype(np.int32)
    bid = grid.basin_id.astype(np.int16)
    bph = grid.basin_phase.astype(np.int16)
    kind[undecided] = 255
    iters[undecided] = -1
    bid[undecided] = -2
    bph[undecided] = -2
    h = hashlib.sha256(f"{kind.shape[0]}x{kind.shape[1]}".encode("ascii"))
    for a in (kind, iters, bid, bph):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pack_mask(mask) -> str:
    import numpy as np

    if not mask.any():
        return ""
    return base64.b64encode(zlib.compress(np.packbits(mask.ravel()).tobytes(), 9)).decode("ascii")


def unpack_mask(text: str, shape):
    import numpy as np

    if not text:
        return np.zeros(shape, dtype=bool)
    bits = np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.uint8)
    return np.unpackbits(bits)[: shape[0] * shape[1]].reshape(shape).astype(bool)


def refinement_ok(grid, golden: dict) -> bool:
    """Every pixel the reference decided keeps its label; its Undecided
    pixels may take any label."""
    shape = (golden["height"], golden["width"])
    if tuple(grid.kind.shape) != shape:
        return False
    return grid_digest(grid, unpack_mask(golden["undecided"], shape)) == golden["digest"]


class RenderPlanes(Workload):
    name = "render_planes"
    why = "render path: classify_points dominates; r_milnor iterates its uncaptured basin to max_iter"
    tail_pct = 85.0

    def __init__(self):
        self.grid = None

    def attach(self) -> None:
        """Keep the grid each op renders, as classify_grid returns it."""
        orig = sys.modules["mcmlike.render"].classify_grid

        def classify_grid(*args, **kwargs):
            self.grid = orig(*args, **kwargs)
            return self.grid

        tracing.rebind(orig, classify_grid)

    def _ops_of(self, name: str) -> List[Op]:
        ops = []
        factors = RENDER_FACTORS if name in FAMILIES else (None,)
        lam = fixture_lambda(name) if name in FAMILIES else None
        for ci, c in enumerate(RENDER_CENTERS):
            for hi, hw in enumerate(RENDER_HALF_WIDTHS):
                for fi, fac in enumerate(factors):
                    argv = [
                        "render", fixture(name), "--out", RENDER_OUT,
                        "--width", str(RENDER_SIZE), "--height", str(RENDER_SIZE),
                        "--center", repr(c), "--half-width", repr(hw),
                    ]
                    key = f"{name}|c{ci}|w{hi}"
                    if fac is not None:
                        argv += ["--lambda", repr(lam * fac)]
                        key += f"|f{fi}"
                    cls = "slow" if name == RENDER_SLOW else "fast"
                    ops.append(Op(key, tuple(argv), cls))
        return ops

    def universe(self) -> Dict[str, Op]:
        return {op.key: op for name in POLY_FIXTURES for op in self._ops_of(name)}

    def blocks(self, rng):
        # One r_milnor op and three others per block: a quarter of the ops
        # are slow.  The others cycle through the eight fixtures.  Each
        # fixture's ops are drawn in order of their reference work, so every
        # run sees the same spread of costs.
        goldens = load_goldens(self.name)
        others = [n for n in POLY_FIXTURES if n != RENDER_SLOW]
        draws = {
            n: Spread(sorted(self._ops_of(n), key=lambda op: goldens[op.key]["work"]), rng)
            for n in others + [RENDER_SLOW]
        }
        fixtures = Spread(others, rng)
        while True:
            block = [draws[RENDER_SLOW].draw()] + [draws[fixtures.draw()].draw() for _ in range(3)]
            rng.shuffle(block)
            yield block

    def run(self, cli, op):
        self.grid = None
        res = run_in_process(cli, op.argv)
        res.grid, self.grid = self.grid, None
        return res

    def record(self, op, res):
        import numpy as np

        grid = res.grid
        mask = grid.kind == 0
        return {
            "code": res.code,
            "stdout": res.stdout,
            "width": int(grid.width),
            "height": int(grid.height),
            "undecided": pack_mask(mask),
            "undecided_count": int(np.count_nonzero(mask)),
            "digest": grid_digest(grid, mask),
            # pixel-iterations spent: escape indices plus max_iter per
            # Undecided pixel (captures are not recorded in the grid)
            "work": int(grid.iters[grid.kind == 1].sum()) + RENDER_MAX_ITER * int(np.count_nonzero(mask)),
        }

    def check(self, op, res, golden):
        if res.error or res.code != golden["code"] or res.stdout != golden["stdout"]:
            return Check(False, True, _mismatch(res, golden))
        if res.grid is None:
            return Check(False, True, "no grid captured from classify_grid")
        if not refinement_ok(res.grid, golden):
            return Check(False, True, "a pixel the reference decided changed its label")
        return Check(True, False)


# ---------------------------------------------------------------------------
# verify_sweep


VERIFY_STEPS = 60  # factors 10**(-2 + 3*j/60), j = 0..60: log-uniform in [0.01, 10]


def verify_factor(j: int) -> float:
    return 10.0 ** (-2.0 + 3.0 * j / VERIFY_STEPS)


class VerifySweep(Workload):
    name = "verify_sweep"
    why = "verify path: find_roots and iterate_orbit dominate; h_multipole runs Aberth to its cap"
    tail_pct = 95.0

    def _ops_of(self, name: str) -> List[Op]:
        lam = fixture_lambda(name)
        return [
            Op(f"{name}|f{j}", ("verify", fixture(name), "--lambda", repr(lam * verify_factor(j))), name)
            for j in range(VERIFY_STEPS + 1)
        ]

    def universe(self):
        return {op.key: op for name in FAMILIES for op in self._ops_of(name)}

    def blocks(self, rng):
        # One op per family per block, each with a factor drawn from that
        # family's 61 grid factors.
        draws = {n: Spread(self._ops_of(n), rng) for n in FAMILIES}
        while True:
            block = [draws[n].draw() for n in FAMILIES]
            rng.shuffle(block)
            yield block

    def record(self, op, res):
        from mcmlike.model_io import load_model
        from mcmlike.verify import map_degree

        fmap = load_model(str(ROOT / op.argv[1])).build_map(lambda_override=complex(op.argv[3]))
        return {"code": res.code, "stdout": res.stdout, "map_degree": map_degree(fmap)}

    def check(self, op, res, golden):
        return verify_check(res, golden)


CENSUS_UNAVAILABLE = "census unavailable"
UNAVAILABLE_LINE = "census: FAIL (unavailable)"


def verify_check(res: Result, golden: dict) -> Check:
    """The verify failure rule.

    Incorrect: the op raised, exited 2 (or with anything but 0/1), or its
    degree line, condition lines or census map degree differ from the
    golden.  Failed as well: the census is unavailable (the root finder
    gave up) where the golden has one.  An unavailable census that the
    golden shares is the program's output at the golden's commit, so it is
    neither wrong nor failed; it is counted per layer
    (``verify.census_unavailable_ratio``).  A census where the golden has
    none is accepted if its map degree matches.  A verdict that differs
    from the golden is reported, not failed.
    """
    if res.error:
        return Check(False, True, res.error)
    if res.code not in (0, 1):
        return Check(False, True, f"exit {res.code}")
    out, ref = res.stdout, golden["stdout"]
    for prefix in ("degree:", "condition"):
        if lines_with(out, prefix) != lines_with(ref, prefix):
            return Check(False, True, f"'{prefix}' lines differ from golden")
    census = lines_with(out, "census:")
    if len(census) != 1:
        return Check(False, True, "no census line")
    verdict = lines_with(out, "verdict:")
    passed = verdict == ["verdict: PASS"]
    flipped = verdict != lines_with(ref, "verdict:")
    if census[0] == UNAVAILABLE_LINE:
        failed = lines_with(ref, "census:") != [UNAVAILABLE_LINE]
        return Check(True, failed, CENSUS_UNAVAILABLE, flipped, passed)
    if not census[0].endswith(f"map degree {golden['map_degree']})"):
        return Check(False, True, f"census map degree differs: {census[0]}")
    return Check(True, False, "", flipped, passed)


# ---------------------------------------------------------------------------
# skew_census


SKEW_DEPTHS = tuple(range(14, 21))


class SkewCensus(Workload):
    name = "skew_census"
    why = "skew path only: census_at_depth and unburied_oracle over 2^14..2^20 codes, mixed horizons"
    tail_pct = 90.0

    def _default(self, k: int) -> Op:
        return Op(f"k{k}|default", ("skew", "--depth", str(k)), "default")

    def _general(self, k: int) -> List[Op]:
        return [
            Op(f"k{k}|h{h}", ("skew", "--depth", str(k), "--horizon", str(h)), "general")
            for h in range(k)
        ]

    def universe(self):
        ops = [self._default(k) for k in SKEW_DEPTHS]
        ops += [op for k in SKEW_DEPTHS for op in self._general(k)]
        return {op.key: op for op in ops}

    def blocks(self, rng):
        # Per block and per depth: one op at the CLI default horizon and
        # three at horizons drawn from [0, k-1].
        draws = {k: Spread(self._general(k), rng) for k in SKEW_DEPTHS}
        while True:
            block = []
            for k in SKEW_DEPTHS:
                block.append(self._default(k))
                block += [draws[k].draw() for _ in range(3)]
            rng.shuffle(block)
            yield block

    def check(self, op, res, golden):
        return skew_check(op, res, golden)


def skew_check(op: Op, res: Result, golden: dict) -> Check:
    """Counts exact against the golden, summing to 2^k, oracle agreeing."""
    if res.error or res.code != 0:
        return Check(False, True, _mismatch(res, golden))
    k = int(op.argv[2])
    counts = {}
    for ln in res.stdout.splitlines():
        parts = ln.split()
        if len(parts) == 2 and parts[0] in ("unburied", "buried_preperiodic", "undetermined", "total"):
            counts[parts[0]] = int(parts[1])
    parts = ("unburied", "buried_preperiodic", "undetermined")
    if set(counts) != set(parts) | {"total"}:
        return Check(False, True, "census lines missing")
    if sum(counts[p] for p in parts) != 1 << k or counts["total"] != 1 << k:
        return Check(False, True, "counts do not sum to 2^k")
    if lines_with(res.stdout, "oracle:") != [f"oracle: OK ({counts['unburied']} unburied)"]:
        return Check(False, True, "oracle disagrees")
    if res.stdout != golden["stdout"]:
        return Check(False, True, "counts differ from golden")
    return Check(True, False)


# ---------------------------------------------------------------------------
# cli_cold


CLI_COMMANDS = ("check", "eig", "classify", "plan", "typecmp")


def run_child(argv: Sequence[str], env: Dict[str, str]) -> Result:
    """One child process; returns its stdout, exit code and peak RSS."""
    t0 = time.perf_counter()
    spawn_ns = time.monotonic_ns()
    p = subprocess.Popen(list(argv), cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with p.stdout, p.stderr:
        out = p.stdout.read()
        err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    res = Result(p.returncode, out.decode("utf-8", "replace"), seconds, rss_kb=usage.ru_maxrss, spawn_ns=spawn_ns)
    if p.returncode not in (0, 1):
        tail = err.decode("utf-8", "replace").strip().splitlines()
        res.error = tail[-1] if tail else f"exit {p.returncode}"
    return res


class CliCold(Workload):
    name = "cli_cold"
    why = "light CLI commands in a fresh interpreter each: start-up and imports dominate"
    tail_pct = 80.0
    in_process = False

    def __init__(self):
        self.span_file: Optional[Path] = None  # set while ops are traced

    def candidates(self) -> Dict[str, List[Op]]:
        out: Dict[str, List[Op]] = {}
        for cmd in CLI_COMMANDS:
            if cmd == "typecmp":
                pairs = [(a, b) for a in POLY_FIXTURES for b in POLY_FIXTURES if a != b]
                out[cmd] = [Op(f"typecmp|{a}|{b}", ("typecmp", fixture(a), fixture(b)), cmd) for a, b in pairs]
            else:
                out[cmd] = [Op(f"{cmd}|{n}", (cmd, fixture(n)), cmd) for n in ALL_FIXTURES]
        return out

    def universe(self):
        return {op.key: op for ops in self.candidates().values() for op in ops}

    def blocks(self, rng):
        # One op per command per block, over every fixture on which the
        # command exits 0 or 1 (the ops that have goldens).
        keys = set(load_goldens(self.name))
        draws = {c: Spread([op for op in ops if op.key in keys], rng) for c, ops in self.candidates().items()}
        while True:
            block = [draws[c].draw() for c in CLI_COMMANDS]
            rng.shuffle(block)
            yield block

    def run(self, cli, op):
        env = child_env()
        if self.span_file is None:
            argv = [sys.executable, "-m", "mcmlike.cli", *op.argv]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), *op.argv]
            env["MCMBENCH_SPANS"] = str(self.span_file)
        return run_child(argv, env)


WORKLOADS = {w.name: w for w in (RenderPlanes, VerifySweep, SkewCensus, CliCold)}
