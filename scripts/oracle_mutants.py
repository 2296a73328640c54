#!/usr/bin/env python3
"""Check that the test oracles catch known wrong implementations.

Copies src/, tests/ and fixtures/ into a temporary directory, checks that
the unchanged copy passes tests/test_dynamics.py, tests/test_render.py,
tests/test_model.py, tests/test_skew.py, tests/test_verify.py,
tests/test_record.py and tests/test_surgery.py, then applies each of the
eleven mutants in turn to the copy and runs those seven files again.  A
mutant is caught when the tests fail.

Exit status 0 when every mutant is caught; 1 when one survives, its anchor
text is not found exactly once, or the unchanged copy does not pass.

    python3 scripts/oracle_mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [
    "tests/test_dynamics.py", "tests/test_render.py", "tests/test_model.py", "tests/test_skew.py",
    "tests/test_verify.py", "tests/test_record.py", "tests/test_surgery.py",
]

# (name, file, anchor, replacement)
MUTANTS = [
    (
        "revisit search in the iterate's own cell only",
        "src/mcmlike/dynamics.py",
        "            for cell in near:\n",
        "            for cell in near[:1]:\n",
    ),
    (
        "in-place product into a denominator aliasing z or a factor",
        "src/mcmlike/dynamics.py",
        'body.append(f"d{t} = d{t} * {w}")',
        'body.append(f"d{t} *= {w}")',
    ),
    (
        "strict collision test d < bar",
        "src/mcmlike/dynamics.py",
        "if d <= bars[j]:",
        "if d < bars[j]:",
    ),
    (
        "round escape labels without the step within the round",
        "src/mcmlike/render.py",
        "iters[out] = k if steps == 1 else k + first[esc]",
        "iters[out] = k",
    ),
    (
        "count a strictly preperiodic critical point into its phase's degree",
        "src/mcmlike/model.py",
        "        if pre == 0:\n",
        "        if pre is not None:\n",
    ),
    (
        "refinement test against the wrong end of the earlier cylinder",
        "src/mcmlike/skew.py",
        "traj[s1].bits[:len(tail)] == tail",
        "traj[s1].bits[-len(tail):] == tail",
    ),
    (
        "every pole joins its nearest cycle point's domain, however far",
        "src/mcmlike/verify.py",
        "if best is not None and best[0] <= POLE_MATCH_TOL * (1.0 + abs(a)):",
        "if best is not None:",
    ),
    (
        "a census ring one start short of the numerator's degree",
        "src/mcmlike/verify.py",
        "_root_circle(0j, complex(math.cos(2.0), math.sin(2.0)), n)",
        "_root_circle(0j, complex(math.cos(2.0), math.sin(2.0)), n - 1)",
    ),
    (
        "record equality that ignores the class",
        "src/mcmlike/record.py",
        "if other.__class__ is self.__class__ else NotImplemented",
        "if isinstance(other, Record) else NotImplemented",
    ),
    (
        "slack decided from the float gaps, not the exact cycle product",
        "src/mcmlike/surgery.py",
        "    if not sc.product < 1:\n",
        "    if not all(sc.gap(j) > 0.0 for j in sc.phases):\n",
    ),
    (
        "the rounding guard keyed on float M, not the exact cycle product",
        "src/mcmlike/surgery.py",
        "    if product < 1:\n",
        "    if M > 1.0:\n",
    ),
]


def run_tests(copy: Path):
    """(pytest's exit status, the id of the first failing test or None)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *TESTS]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="oracle-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, _ = run_tests(copy)
        if code != 0:
            print(f"unchanged copy: tests exit {code}; mutants not run")
            return 1
        print("unchanged copy: passed")
        failed = 0
        for name, rel, anchor, replacement in MUTANTS:
            path = copy / rel
            original = path.read_text()
            found = original.count(anchor)
            if found != 1:
                print(f"ANCHOR {name}: {rel} holds its anchor {found} times")
                failed += 1
                continue
            path.write_text(original.replace(anchor, replacement))
            try:
                code, first = run_tests(copy)
            finally:
                path.write_text(original)
            # pytest exits 1 when tests ran and some failed.
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:8} {name}" + (f" (first failure: {first})" if first else ""))
            failed += verdict != "caught"
        print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
