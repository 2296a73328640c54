"""Print a transcript of the mcmlike CLI over the fixtures, one line per run.

Each line holds the argument list, the exit code, the sha256 of stdout and
the sha256 of every PPM or text file the run wrote.  Two checkouts that
behave the same print the same transcript, so a byte-identity check is

    python3 scripts/transcript.py > new.txt
    python3 scripts/transcript.py --root /path/to/other/checkout > old.txt
    diff old.txt new.txt

The rows: check/eig/classify/plan on every fixture; verify on every family
at its own lambda and at the 61 factors 10**(-2 + 3j/60) of it; typecmp on
every ordered pair of polynomial fixtures; skew at depths 5 and 12 with
the default horizon, and at every depth 2..20 with every horizon 0..depth-1;
and render --text --diagnostics at 128x128 on every polynomial fixture, as
it is, at --max-iter 24 (Undecided pixels reach the cap) and at
--escape-radius 1e6; then render of f_cubic at 16x16 with --center nan
and with --center infj, which exit 2 and write nothing; then render --text
of r_milnor and f_cubic at 65x63 with --center 0.1 and --center 0.1j (one
mirrored axis, odd sizes); render --text of r_milnor and f_cubic at 64x64
with --center 0, where seeds on an axis stay open to max_iter, as it is and
at --max-iter 1 and 100; last, verify of f_cubic at --lambda 0 and
render --diagnostics of f_cubic at 8x8 with --ray-rmax inf, which exit 2
and write nothing; then classify --poly of the README example and of a
cubic whose root finder overflows (exit 2), plan of q_family with
--seed nan, --seed 1e308 and --groetzsch-c nan (exit 2), and
render --diagnostics of f_cubic at 8x8 with --ray-angle nan (exit 2);
last, plan of q_family with --seed 1e300 (its levels underflow: exit 1),
--seed 1e-300, --cycle 5 and --r 1e-320 (exit 2), and render of q_family
at 4x4 with --half-width 1e308 (the pixel pitch overflows: exit 2); then
plan of q_family with --r 1e-308 (its inner levels underflow: exit 1);
then classify --poly of z^3 - 3z + 3 (its critical point -1 escapes), of
z^2 - 0.5 (a period-2 revisit reduced to an attracting fixed point) and of
a cubic with a strictly preperiodic critical point; last, check, eig and
plan of z^3 - 3z + 3 with a pole of order 3 on its fixed point, and verify
of a family on it (the escaping critical point makes each of them exit 2);
last, verify of a copy of q_family whose params add "cycleTol": 1e-9 and
render at 16x16 of one that adds "captureTol": 1e-6 (params accepts
maxIter and poleBall only, so both exit 2 and write nothing); last, check
and plan of a period-6 abstract model whose cycle product is 1 - 1/1296**8
(the condition holds, exit 0, but plan's M rounds to 1.0, exit 2).
``--only <subcommand>`` keeps that subcommand's rows alone.  Runs
happen in process, in a scratch directory holding a copy of the fixtures,
so paths in the output do not depend on the checkout.  Standard library
only (the checkout's own mcmlike needs numpy).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

VERIFY_STEPS = 60
OUTPUTS = ("out.ppm", "out.txt")

# z^3 - 3z + 3 is not postcritically finite: its critical point -1 escapes
# and 1 is a super-attracting fixed point.
ESCAPING = {"polynomial": [[3, 0], [-3, 0], [0, 0], [1, 0]],
            "pole_data": [{"cycle": 1, "phase": 0, "d": 3}]}
ESCAPING_FAMILY = dict(
    ESCAPING,
    family={"kind": "simple_poles", "poles": [{"location": [1, 0], "order": 3, "lambda": [1e-6, 0]}]},
    params={"maxIter": 2000},
)
# Degrees 2,1,1,1,1,1 with a pole on every phase: the cycle product is
# 1 - 1/1296**8, so M rounds to 1.0.
NEAR_ONE = {"abstract": {"degree": 2, "cycles": [{"period": 6, "degrees": [2, 1, 1, 1, 1, 1]}]},
            "pole_data": [{"cycle": 1, "phase": j, "d": d}
                          for j, d in enumerate((3, 6, 36, 1296, 1296**2, 1296**4))]}
# Copies of q_family with one more params key each: (file, key, value).
PARAM_COPIES = (("q_cycle_tol.json", "cycleTol", 1e-9), ("q_capture_tol.json", "captureTol", 1e-6))


def fixture_lambda(path):
    """The family coefficient of a fixture (first pole for simple poles)."""
    with open(path, encoding="utf-8") as fh:
        fam = json.load(fh)["family"]
    pair = fam["lambda"] if fam["kind"] == "product_pole" else fam["poles"][0]["lambda"]
    return complex(pair[0], pair[1])


def rows(fixtures):
    """Every argument list of the transcript, in a fixed order."""
    names = sorted(n[: -len(".json")] for n in os.listdir(fixtures) if n.endswith(".json"))
    data = {}
    for n in names:
        with open(os.path.join(fixtures, f"{n}.json"), encoding="utf-8") as fh:
            data[n] = json.load(fh)
    families = [n for n in names if "family" in data[n]]
    polys = [n for n in names if "polynomial" in data[n]]

    def fx(n):
        return f"fixtures/{n}.json"

    for cmd in ("check", "eig", "classify", "plan"):
        for n in names:
            yield [cmd, fx(n)]
    for n in families:
        yield ["verify", fx(n)]
        lam = fixture_lambda(os.path.join(fixtures, f"{n}.json"))
        for j in range(VERIFY_STEPS + 1):
            yield ["verify", fx(n), "--lambda", repr(lam * 10.0 ** (-2.0 + 3.0 * j / VERIFY_STEPS))]
    for a in polys:
        for b in polys:
            yield ["typecmp", fx(a), fx(b)]
    for depth in ("5", "12"):
        yield ["skew", "--depth", depth]
    for depth in range(2, 21):
        for horizon in range(depth):
            yield ["skew", "--depth", str(depth), "--horizon", str(horizon)]
    for extra in ([], ["--max-iter", "24"], ["--escape-radius", "1e6"]):
        for n in polys:
            yield [
                "render", fx(n), "--out", OUTPUTS[0], "--text", OUTPUTS[1],
                "--width", "128", "--height", "128", "--diagnostics", *extra,
            ]
    for center in ("nan", "infj"):
        yield ["render", fx("f_cubic"), "--out", OUTPUTS[0], "--width", "16", "--height", "16",
               "--center", center]
    for n in ("r_milnor", "f_cubic"):
        for center in ("0.1", "0.1j"):
            yield ["render", fx(n), "--out", OUTPUTS[0], "--text", OUTPUTS[1],
                   "--width", "65", "--height", "63", "--center", center]
    for n in ("r_milnor", "f_cubic"):
        for extra in ([], ["--max-iter", "1"], ["--max-iter", "100"]):
            yield ["render", fx(n), "--out", OUTPUTS[0], "--text", OUTPUTS[1],
                   "--width", "64", "--height", "64", "--center", "0", *extra]
    yield ["verify", fx("f_cubic"), "--lambda", "0"]
    yield ["render", fx("f_cubic"), "--out", OUTPUTS[0], "--width", "8", "--height", "8",
           "--diagnostics", "--ray-rmax", "inf"]
    yield ["classify", "--poly", "1,0,-3,2"]
    yield ["classify", "--poly=0,1e200,0.5,3.3e-201"]
    for extra in (["--seed", "nan"], ["--seed", "1e308"], ["--groetzsch-c", "nan", "--r", "0.5"]):
        yield ["plan", fx("q_family"), *extra]
    yield ["render", fx("f_cubic"), "--out", OUTPUTS[0], "--width", "8", "--height", "8",
           "--diagnostics", "--ray-angle", "nan"]
    for extra in (["--seed", "1e300"], ["--seed", "1e-300"], ["--cycle", "5"], ["--r", "1e-320"]):
        yield ["plan", fx("q_family"), *extra]
    yield ["render", fx("q_family"), "--out", OUTPUTS[0], "--width", "4", "--height", "4",
           "--half-width", "1e308"]
    yield ["plan", fx("q_family"), "--r", "1e-308"]
    yield ["classify", "--poly", "3,-3,0,1"]
    yield ["classify", "--poly=-0.5,0,1"]
    yield ["classify", "--poly=0,0,-2.598076211353316j,1"]
    for cmd in ("check", "eig", "plan"):
        yield [cmd, "escaping.json"]
    yield ["verify", "escaping_family.json"]
    yield ["verify", PARAM_COPIES[0][0]]
    yield ["render", PARAM_COPIES[1][0], "--out", OUTPUTS[0], "--width", "16", "--height", "16"]
    for cmd in ("check", "plan"):
        yield [cmd, "near_one.json"]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def run(main, argv):
    """(exit code, stdout bytes) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(main(argv))
        except Exception as exc:  # a crash is a transcript row too
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue().encode("utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."),
        help="checkout whose src/ and fixtures/ to use (default: this one)",
    )
    ap.add_argument(
        "--only",
        metavar="SUBCOMMAND",
        choices=("check", "eig", "classify", "plan", "verify", "typecmp", "skew", "render"),
        help="print only the rows of this subcommand",
    )
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    from mcmlike.cli import main as cli_main

    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(root, "fixtures"), os.path.join(work, "fixtures"))
        for name, data in (("escaping.json", ESCAPING), ("escaping_family.json", ESCAPING_FAMILY),
                           ("near_one.json", NEAR_ONE)):
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        for name, key, value in PARAM_COPIES:
            with open(os.path.join(work, "fixtures", "q_family.json"), encoding="utf-8") as fh:
                data = json.load(fh)
            data["params"][key] = value
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        here = os.getcwd()
        os.chdir(work)
        try:
            for row in rows("fixtures"):
                if args.only and row[0] != args.only:
                    continue
                for name in OUTPUTS:
                    if os.path.exists(name):
                        os.remove(name)
                code, out = run(cli_main, row)
                files = []
                for name in OUTPUTS:
                    if os.path.exists(name):
                        with open(name, "rb") as fh:
                            files.append(f"{name}={sha(fh.read())}")
                print("\t".join([" ".join(row), code, sha(out)] + files), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
