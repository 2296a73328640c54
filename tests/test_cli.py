"""End-to-end CLI behavior: output lines and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmlike
import mcmlike.verify
from mcmlike.cli import main
from mcmlike.dynamics import NonConvergence
from mcmlike.model import ModelWarning

from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / f"{name}.json")


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


def test_check_q(run):
    code, out, _ = run("check", fx("q_abstract"))
    assert code == 0
    assert "cycle 1: 3/4 < 1 OK" in out
    assert "condition: holds" in out


def test_check_nd2_fails(run):
    code, out, _ = run("check", fx("nd2_family"))
    assert code == 1
    assert "cycle 1: 1/1 < 1 FAIL" in out
    assert "condition: fails" in out


def test_check_r_two_cycles(run):
    code, out, _ = run("check", fx("r_abstract"))
    assert code == 0
    assert "cycle 1: 5/6 < 1 OK" in out
    assert "cycle 2: 1/2 < 1 OK" in out


def test_eig_q(run):
    code, out, _ = run("eig", fx("q_abstract"))
    assert code == 0
    assert "cycle 1: product 3/4 period 2" in out
    assert "lambda 0.866025403784" in out
    assert "diff 0.000e+00" in out


def test_eig_nd2_and_cycle_range(run):
    code, out, _ = run("eig", fx("nd2_family"))
    assert code == 1
    assert "lambda 1.000000000000" in out
    for cycle in ("7", "0", "5"):
        code, out, err = run("eig", fx("q_abstract"), "--cycle", cycle)
        assert code == 2 and out == ""
        assert err == f"error: cycle {cycle} out of range (model has 1)\n"


def test_eig_z3(run):
    code, out, _ = run("eig", fx("z3_d3"))
    assert code == 0
    assert "product 2/3 period 1" in out
    assert "lambda 0.666666666667" in out


def test_classify_poly_flag(run):
    code, out, _ = run("classify", "--poly", "1,0,-3,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=1 p=2 degrees 2,2"
    assert "critical 0+0i mult 1 -> cycle 1 phase 0" in lines
    assert "critical 1+0i mult 1 -> cycle 1 phase 1" in lines
    assert "rh check: OK" in lines


def test_classify_basilica(run):
    code, out, _ = run("classify", "--poly=-1,0,1")
    assert code == 0
    assert out.splitlines()[0] == "N=1 p=2 degrees 2,1"


def test_classify_model_files(run):
    code, out, _ = run("classify", fx("r_milnor"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=2"
    assert "cycle 1: p=1 degrees 2" in lines
    assert "cycle 2: p=1 degrees 2" in lines
    code, out, _ = run("classify", fx("h_abstract"))
    assert code == 0
    assert out.splitlines()[0] == "N=1 p=2 degrees 2,1"


def test_classify_failures(run):
    code, out, _ = run("classify", "--poly", "1,0,1")
    assert code == 1
    assert out.startswith("not classifiable:")
    code, out, _ = run("classify", "--poly", "0.1,0,1")
    assert code == 1
    assert "not classifiable" in out
    code, _, err = run("classify", "--poly", "5")
    assert code == 2 and err.startswith("error:")
    code, _, err = run("classify", fx("z3_d3"), "--poly", "0,0,1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--poly", "1,x"], "bad coefficient in --poly"),
        (["--poly", "1,1"], "polynomial degree must be >= 2"),
        ([], "give --poly or a model file"),
    ],
    ids=["bad-coefficient", "degree-1", "no-input"],
)
def test_classify_rejects_bad_input(run, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run("classify", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


def test_classify_strictly_preperiodic_critical_point(run):
    # 1.73205i reaches the fixed point 0 after two steps.  rh check counts
    # only the critical points on cycle points, so it reads FAIL, while P is
    # postcritically finite and classify exits 0.
    with pytest.warns(ModelWarning, match="strictly preperiodic"):
        code, out, _ = run("classify", "--poly=0,0,-2.598076211353316j,1")
    assert code == 0
    lines = out.splitlines()
    assert "critical 0+1.73205i mult 1 -> cycle 1 phase 0 preperiod 2" in lines
    assert "rh check: FAIL" in lines


def test_root_finder_failure_is_operational_error(run, tmp_path):
    # P' has an Aberth start radius that overflows, so find_roots raises
    # NonConvergence while the polynomial is classified.
    coeffs = ["0", "1e200", "0.5", "3.3e-201"]
    code, out, err = run("classify", "--poly=" + ",".join(coeffs))
    assert code == 2 and out == ""
    assert err == "error: non-finite root or residual\n"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "polynomial": [[float(c), 0.0] for c in coeffs],
        "pole_data": [{"cycle": 1, "phase": 0, "d": 1}],
    }))
    for cmd in ("check", "classify"):
        code, out, err = run(cmd, str(path))
        assert code == 2 and out == ""
        assert err == "error: non-finite root or residual\n"


def test_escaping_critical_point_is_operational_error(run, tmp_path):
    # z^3 - 3z + 3 is not postcritically finite: its critical point -1
    # escapes.  classify reports that as a verdict; the commands that read
    # the model need a postcritically finite P.
    data = {"polynomial": [[3, 0], [-3, 0], [0, 0], [1, 0]],
            "pole_data": [{"cycle": 1, "phase": 0, "d": 3}]}
    path = tmp_path / "escaping.json"
    path.write_text(json.dumps(data))
    data["family"] = {"kind": "simple_poles", "poles": [{"location": [1, 0], "order": 3, "lambda": [1e-6, 0]}]}
    family = tmp_path / "escaping_family.json"
    family.write_text(json.dumps(data))
    for cmd, model in (("check", path), ("eig", path), ("plan", path), ("verify", family)):
        code, out, err = run(cmd, str(model))
        assert code == 2 and out == ""
        assert err == "error: critical orbit from (-1+0j) escapes; not postcritically finite\n"
    code, out, _ = run("classify", str(path))
    assert code == 1
    assert "critical -1+0i mult 1 -> escapes" in out
    assert out.endswith("rh check: FAIL\n")


def test_plan_q_defaults(run):
    code, out, _ = run("plan", fx("q_abstract"))
    assert code == 0
    assert "cycle 1: period 2 pole phases 0" in out
    assert "M 1.15470053837925" in out
    assert "r* 8.09241463480236e-06" in out
    assert "levels ordered: OK" in out
    assert "non-recurrence: OK" in out
    assert "plan: OK" in out


def test_plan_r_above_threshold_fails(run):
    code, out, _ = run("plan", fx("q_abstract"), "--r", "1.62e-5")
    assert code == 1
    assert "non-recurrence: FAIL" in out
    assert "plan: FAIL" in out


def test_plan_groetzsch_zero(run):
    code, out, _ = run("plan", fx("q_abstract"), "--groetzsch-c", "0")
    assert code == 0
    assert "r* 1" in out


def test_plan_condition_fails(run):
    code, out, _ = run("plan", fx("nd2_family"))
    assert code == 1
    assert out.startswith("condition fails:")


def test_plan_pole_free_cycle_is_operational_error(run):
    code, _, err = run("plan", fx("r_abstract"), "--cycle", "2")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("cycle", ["0", "5"])
def test_plan_cycle_out_of_range(run, cycle):
    code, out, err = run("plan", fx("q_family"), "--cycle", cycle)
    assert code == 2 and out == ""
    assert err == f"error: cycle {cycle} out of range (model has 1)\n"


def test_plan_levels_ordered_checks_the_printed_levels(run):
    # The exponents are ordered, but every printed level underflows to 0.
    code, out, _ = run("plan", fx("q_family"), "--seed", "1e300")
    assert code == 1
    assert "phase 0: Lout 0 Lin 0 Linf 0" in out.splitlines()
    assert "levels ordered: FAIL" in out.splitlines()
    assert out.endswith("plan: FAIL\n")


def test_plan_levels_ordered_needs_a_positive_inner_level(run):
    # Lout = r is positive, but Lin = r**beta and Linf = r**delta underflow.
    code, out, _ = run("plan", fx("q_family"), "--r", "1e-308")
    assert code == 1
    assert "phase 0: Lout 1e-308 Lin 0 Linf 0" in out.splitlines()
    assert "levels ordered: FAIL" in out.splitlines()
    assert out.endswith("plan: FAIL\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "nan"], "seed nan must be positive and finite"),
        (["--seed", "inf"], "seed inf must be positive and finite"),
        # Finite, but the chain inequality's sides overflow.
        (["--seed", "1e308"],
         "chain inequality overflows at phase 0: inf < inf (alpha 1e+308, beta 1.4641016151377545e+308)"),
        (["--groetzsch-c", "nan", "--r", "0.5"], "groetzsch_c nan must be >= 0 and finite"),
        (["--groetzsch-c", "inf", "--r", "0.5"], "groetzsch_c inf must be >= 0 and finite"),
        # Finite, but r* = exp(-x) underflows, or 1/r overflows.
        (["--seed", "1e-300"], "default r = r*/2 underflows to 0 (r* = 0)"),
        (["--groetzsch-c", "1e300"], "default r = r*/2 underflows to 0 (r* = 0)"),
        (["--r", "1e-320"], "1/r overflows at r = 1e-320"),
    ],
)
def test_plan_rejects_non_finite_constants(run, flags, message):
    code, out, err = run("plan", fx("q_family"), *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_plan_needs_pole_data(run, tmp_path):
    p = tmp_path / "bare.json"
    p.write_text(json.dumps({"polynomial": [[1, 0], [0, 0], [-3, 0], [2, 0]]}))
    code, _, err = run("plan", str(p))
    assert code == 2 and "pole_data" in err


def test_verify_q_family(run):
    code, out, _ = run("verify", fx("q_family"))
    assert code == 0
    assert "census: OK (free 4, nu 6, map degree 4)" in out
    assert "orbits: OK (4/4 consistent)" in out
    assert "condition cycle 1: 3/4" in out
    assert "verdict: PASS" in out


def test_verify_nd2_not_expected(run):
    code, out, _ = run("verify", fx("nd2_family"))
    assert code == 1
    assert "note: NotExpectedToPass" in out
    assert "verdict: FAIL" in out


def test_verify_lambda_override(run):
    code, out, _ = run("verify", fx("q_family"), "--lambda", "1e-5")
    assert code == 0 and "verdict: PASS" in out


def test_verify_untouched_cycle_fails_to_persist(run):
    # At lambda 1 the fixed point near sqrt(2)i is repelling.
    code, out, _ = run("verify", fx("r_milnor"), "--lambda", "1")
    assert code == 1
    lines = out.splitlines()
    assert "untouched cycles: FAIL" in lines
    assert (
        "detail: untouched cycle 2: persistence failed "
        "(found 1.5908689707994679j, multiplier 1.3114709350418359)"
    ) in lines
    assert lines[-1] == "verdict: FAIL"


@pytest.mark.parametrize(
    "key", ["escapeRadius", "matchTol", "cycleMatchTol", "cycleTol", "newtonTol", "captureTol"]
)
def test_verify_rejects_removed_params_key(run, tmp_path, key):
    data = json.loads((FIXTURES / "q_family.json").read_text())
    data["params"][key] = 1e-6
    path = tmp_path / "q_family.json"
    path.write_text(json.dumps(data))
    code, out, err = run("verify", str(path))
    assert code == 2 and out == ""
    assert f"error: unknown key in params (key: {key})" in err


def test_verify_unavailable_census_fails_both_checks(run, monkeypatch):
    def no_roots(fmap, *args, **kwargs):
        raise NonConvergence("root residual too large")

    monkeypatch.setattr(mcmlike.verify, "free_critical_points", no_roots)
    code, out, _ = run("verify", fx("q_family"))
    assert code == 1
    assert out.splitlines() == [
        "degree: OK",
        "census: FAIL (unavailable)",
        "orbits: FAIL (unavailable)",
        "untouched cycles: OK",
        "condition cycle 1: 3/4",
        "condition: holds",
        "detail: census: NonConvergence: root residual too large",
        "detail: orbits: NonConvergence: root residual too large",
        "verdict: FAIL",
    ]


def test_verify_needs_family(run):
    code, _, err = run("verify", fx("q_abstract"))
    assert code == 2 and "family" in err


def test_skew_depth_12(run):
    code, out, _ = run("skew")
    assert code == 0
    for line in (
        "skew n=2 d=2 depth 12 horizon 11",
        "unburied 2048",
        "buried_preperiodic 2047",
        "undetermined 1",
        "total 4096",
        "oracle: OK (2048 unburied)",
    ):
        assert line in out


def test_skew_depth_5(run):
    code, out, _ = run("skew", "--depth", "5")
    assert code == 0
    assert "unburied 16" in out and "buried_preperiodic 15" in out
    assert "undetermined 1" in out and "total 32" in out


def test_skew_flag_validation(run):
    assert run("skew", "--depth", "1")[0] == 2
    assert run("skew", "--depth", "12", "--horizon", "12")[0] == 2
    assert run("skew", "--n", "0")[0] == 2


def test_render_polynomial_with_attractors(run, tmp_path):
    out_path = tmp_path / "z3.ppm"
    text_path = tmp_path / "z3.txt"
    code, out, _ = run(
        "render", fx("z3_d3"),
        "--out", str(out_path),
        "--width", "16", "--height", "16", "--max-iter", "64",
        "--text", str(text_path),
    )
    assert code == 0
    size = os.path.getsize(out_path)
    assert size == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
    assert f"wrote {out_path} ({size} bytes)" in out
    rows = text_path.read_text().splitlines()
    assert len(rows) == 16 and all(len(r.split(",")) == 16 for r in rows)
    assert any("B0.0" in r for r in rows)


def test_render_diagnostics(run, tmp_path):
    out_path = tmp_path / "f.ppm"
    code, out, _ = run(
        "render", fx("f_cubic"),
        "--out", str(out_path),
        "--width", "128", "--height", "128", "--max-iter", "16",
        "--diagnostics",
    )
    assert code == 0
    assert "symmetry order 2: 1.000000" in out
    assert "ray angle 0.1: alternations 8" in out


def test_render_unclassifiable_polynomial_notes(run, tmp_path):
    p = tmp_path / "esc.json"
    p.write_text(json.dumps({"polynomial": [[1, 0], [0, 0], [1, 0]]}))
    out_path = tmp_path / "esc.ppm"
    code, out, _ = run("render", str(p), "--out", str(out_path), "--width", "8", "--height", "8")
    assert code == 0
    assert "no attractors:" in out
    assert out_path.exists()


def _with_max_iter(tmp_path, name, max_iter):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data["params"]["maxIter"] = max_iter
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_render_family_labels_persisting_cycle_basin(run, tmp_path):
    # A window around r_milnor's untouched fixed point near sqrt(2)*i: its
    # basin is Basin 0, not Undecided.
    text_path = tmp_path / "r.txt"
    code, out, _ = run(
        "render", fx("r_milnor"),
        "--out", str(tmp_path / "r.ppm"), "--text", str(text_path),
        "--width", "32", "--height", "32",
        "--center", "1.41421356j", "--half-width", "0.05",
    )
    assert code == 0 and "no attractors" not in out
    tags = text_path.read_text().replace("\n", ",").strip(",").split(",")
    assert len(tags) == 32 * 32
    assert all(t.startswith("B0.") for t in tags)


def test_render_family_unclassifiable_polynomial_notes(run, tmp_path):
    out_path = tmp_path / "q.ppm"
    code, out, _ = run(
        "render", _with_max_iter(tmp_path, "q_family", 3),
        "--out", str(out_path), "--width", "8", "--height", "8",
    )
    assert code == 0
    assert "no attractors:" in out
    assert out_path.exists()


def test_render_family_validates_pole_data(run, tmp_path):
    data = json.loads((FIXTURES / "r_milnor.json").read_text())
    data["pole_data"][0]["cycle"] = 5
    path = tmp_path / "r_bad.json"
    path.write_text(json.dumps(data))
    out_path = tmp_path / "r.ppm"
    code, _, err = run("render", str(path), "--out", str(out_path), "--width", "8", "--height", "8")
    assert code == 2
    assert "cycle 5 out of range 1..2" in err
    assert not out_path.exists()


def test_render_rejects_abstract_model(run, tmp_path):
    out_path = tmp_path / "q.ppm"
    code, out, err = run("render", fx("q_abstract"), "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: render needs a model file with a polynomial")
    assert not out_path.exists()


def test_render_rejects_small_escape_radius(run, tmp_path):
    # Orbits may come back from inside auto_radius; verify rejects such a
    # radius, and render must not relabel basin pixels as Escaped with it.
    out_path = tmp_path / "r.ppm"
    code, out, err = run(
        "render", fx("r_milnor"),
        "--out", str(out_path), "--width", "64", "--height", "64",
        "--escape-radius", "1.0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: escape_radius 1.0 below auto radius")
    assert not out_path.exists()


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_render_rejects_non_finite_escape_radius(run, tmp_path, radius):
    # Iterates compare against the radius once per step; with nan or inf
    # pixels would "escape" only when their iterates overflow.
    out_path = tmp_path / "f.ppm"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--width", "16", "--height", "16",
        "--escape-radius", radius,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: escape_radius {radius} must be finite")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "half_width, message",
    [
        ("nan", "half_width must be positive and finite"),
        ("inf", "half_width must be positive and finite"),
        # Finite, but the pitch 2 * half_width / width overflows, and
        # inf * 0 would make the centre row's seeds nan.
        ("1e308", "pixel pitch 2 * half_width / width = inf must be finite"),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_render_rejects_non_finite_half_width(run, tmp_path, half_width, message):
    out_path = tmp_path / "f.ppm"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--width", "16", "--height", "16",
        "--half-width", half_width,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not out_path.exists()


@pytest.mark.parametrize("center", ["nan", "infj"])
def test_render_rejects_non_finite_center(run, tmp_path, center):
    # A nan center made every seed nan (all E1); an infinite one all E0.
    out_path = tmp_path / "f.ppm"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--width", "16", "--height", "16",
        "--center", center,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: center {complex(center)} must be finite")
    assert not out_path.exists()


@pytest.mark.parametrize("lam", ["nan", "infj", "inf+1j"])
def test_render_and_verify_reject_non_finite_lambda(run, tmp_path, lam):
    # nan gave census OK, nan critical points and exit 1 in verify; infj an
    # all-E2 image and exit 0 in render.
    code, out, err = run("verify", fx("f_cubic"), "--lambda", lam)
    assert code == 2 and out == ""
    assert err.startswith(f"error: lambda {complex(lam)} must be finite")
    out_path = tmp_path / "f.ppm"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--width", "16", "--height", "16", "--lambda", lam,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: lambda {complex(lam)} must be finite")
    assert not out_path.exists()


def test_render_and_verify_reject_zero_lambda(run, tmp_path):
    # verify printed a degree-6 census of z^3 + 0/z^3 and "verdict: PASS".
    code, out, err = run("verify", fx("f_cubic"), "--lambda", "0")
    assert code == 2 and out == ""
    assert err == "error: lambda must be nonzero\n"
    out_path = tmp_path / "f.ppm"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--width", "16", "--height", "16", "--lambda", "0",
    )
    assert code == 2 and out == ""
    assert err == "error: lambda must be nonzero\n"
    assert not out_path.exists()


def test_render_rejects_negative_max_iter(run, tmp_path):
    out_path = tmp_path / "f.ppm"
    argv = ["render", fx("f_cubic"), "--out", str(out_path), "--width", "16", "--height", "16"]
    code, out, err = run(*argv, "--max-iter", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error: max_iter -5 must be >= 0")
    assert not out_path.exists()
    code, out, _ = run(*argv, "--max-iter", "0")
    assert code == 0 and out.startswith(f"wrote {out_path}")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--symmetry-order", "1"], "m must be >= 2"),
        (["--ray-samples", "1"], "samples must be >= 2"),
        (["--ray-rmin", "2"], "need 0 < r_min < r_max"),
        (["--ray-rmin", "0"], "need 0 < r_min < r_max"),
        (["--ray-rmax", "nan"], "need 0 < r_min < r_max"),
        (["--ray-rmax", "inf"], "r_max inf must be finite"),
        (["--ray-angle", "nan"], "angle nan must be finite"),
        (["--ray-angle", "inf"], "angle inf must be finite"),
    ],
)
def test_render_checks_diagnostics_arguments_before_rendering(run, tmp_path, flags, message):
    out_path = tmp_path / "f.ppm"
    text_path = tmp_path / "f.txt"
    code, out, err = run(
        "render", fx("f_cubic"),
        "--out", str(out_path), "--text", str(text_path), "--width", "16", "--height", "16",
        "--diagnostics", *flags,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists() and not text_path.exists()


def test_render_unwritable_path(run, tmp_path):
    code, _, err = run(
        "render", fx("z3_d3"),
        "--out", str(tmp_path / "missing" / "x.ppm"),
        "--width", "4", "--height", "4",
    )
    assert code == 2 and err.startswith("error:")


def test_typecmp(run):
    code, out, _ = run("typecmp", fx("q_family"), fx("q_conjugate"))
    assert code == 0 and "types equal" in out
    code, out, _ = run("typecmp", fx("z3_d3"), fx("z3_d4"))
    assert code == 1 and "types differ" in out
    code, out, _ = run("typecmp", fx("q_family"), fx("z3_d3"))
    assert code == 1 and "types differ" in out
    code, _, err = run("typecmp", fx("q_abstract"), fx("z3_d3"))
    assert code == 2 and "polynomial" in err


def test_typecmp_classifies_with_each_files_max_iter(run, tmp_path):
    short = _with_max_iter(tmp_path, "q_family", 3)
    code, out, _ = run("classify", short)
    assert code == 1 and "not classifiable" in out
    for pair in ((short, fx("q_conjugate")), (fx("q_conjugate"), short)):
        code, out, err = run("typecmp", *pair)
        assert code == 2 and out == "" and err.startswith("error:")


def test_operational_errors(run, tmp_path):
    code, _, err = run("check", str(tmp_path / "absent.json"))
    assert code == 2 and "no such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("check", str(bad))
    assert code == 2 and "parse error" in err
    both = tmp_path / "both.json"
    both.write_text(
        json.dumps(
            {
                "polynomial": [[0, 0], [0, 0], [1, 0]],
                "abstract": {"degree": 2, "cycles": [{"period": 1, "degrees": [2]}]},
            }
        )
    )
    code, _, err = run("check", str(both))
    assert code == 2 and "exactly one" in err


def _cold(*argv):
    """Run python with ``argv`` in a fresh interpreter, on the mcmlike imported here."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcmlike.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=False
    )


def test_import_cli_loads_no_numpy():
    code = (
        "import sys, mcmlike.cli; "
        "print(sorted(m for m in ('numpy', 'concurrent.futures', 'mcmlike.render') if m in sys.modules))"
    )
    proc = _cold("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['mcmlike.render']"


def test_import_cli_defers_verify_skew_and_surgery():
    # Only the commands that use them import them; their functions still
    # resolve as attributes of the CLI module.
    code = (
        "import sys, mcmlike.cli as cli; "
        "deferred = ('mcmlike.verify', 'mcmlike.skew', 'mcmlike.surgery'); "
        "print([m for m in deferred if m in sys.modules]); "
        "print(cli.census_at_depth is sys.modules['mcmlike.skew'].census_at_depth); "
        "print([m for m in deferred if m in sys.modules])"
    )
    proc = _cold("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "['mcmlike.skew']"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mcmlike.cli.no_such_name


def test_light_commands_load_no_dataclasses_or_inspect():
    # Records generate no code, so a cold light command, plan's surgery
    # included, imports neither module.
    runs = [
        ["check", fx("q_family")],
        ["eig", fx("q_family")],
        ["classify", fx("q_family")],
        ["plan", fx("q_family")],
        ["typecmp", fx("q_family"), fx("q_conjugate")],
    ]
    script = (
        "import sys, mcmlike.cli as cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'mcmlike.surgery') if m in sys.modules]\n"
        "print(codes, loaded)\n"
    )
    proc = _cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] ['mcmlike.surgery']"


def test_render_starts_no_thread_pool(tmp_path):
    script = (
        "import os, sys; os.environ.pop('MCM_THREADS', None); "
        "from mcmlike.cli import main; "
        f"code = main(['render', {fx('f_cubic')!r}, '--out', {str(tmp_path / 'f.ppm')!r}, "
        "'--width', '32', '--height', '32', '--diagnostics']); "
        "print(code, 'concurrent.futures' in sys.modules)"
    )
    proc = _cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_successive_calls_print_what_fresh_calls_print(run):
    calls = (
        ("plan", fx("q_abstract"), "--r", "1e-6"),
        ("plan", fx("q_abstract")),
        ("skew", "--depth", "5"),
        ("skew",),
        ("eig", fx("q_abstract"), "--cycle", "7"),
        ("eig", fx("q_abstract")),
    )
    for argv in calls:
        proc = _cold("-m", "mcmlike.cli", *argv)
        assert run(*argv) == (proc.returncode, proc.stdout, proc.stderr), argv
