"""On-disk model format: canonical serialization and total validation."""

import importlib.util
import json
import sys

import pytest

from mcmlike.dynamics import ComplexPoly, RationalMapExpr, eval_map
from mcmlike.model_io import (
    ModelFile,
    ParseError,
    SchemaError,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)

from conftest import FIXTURES

FIXTURE_NAMES = [
    "q_abstract",
    "q_family",
    "q_conjugate",
    "f_cubic",
    "g_cubic",
    "h_multipole",
    "h_abstract",
    "r_milnor",
    "r_abstract",
    "nd2_family",
    "nd3_abstract",
    "z3_d3",
    "z3_d4",
]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip_is_byte_stable(name):
    text = (FIXTURES / f"{name}.json").read_text()
    assert dumps_model(loads_model(text)) == text


def test_save_load_round_trip(tmp_path):
    mf = loads_model((FIXTURES / "h_multipole.json").read_text())
    out = tmp_path / "copy.json"
    save_model(mf, str(out))
    again = load_model(str(out))
    assert dumps_model(again) == dumps_model(mf)


def test_negative_zero_is_normalized():
    mf = ModelFile(polynomial=ComplexPoly([complex(-0.0, -0.0), 0, 1]))
    text = dumps_model(mf)
    assert "-0" not in text
    assert dumps_model(loads_model(text)) == text


def test_canonical_layout():
    text = (FIXTURES / "q_family.json").read_text()
    # Keys sorted at every level, scalar lists inline, trailing newline.
    assert text.index('"family"') < text.index('"params"') < text.index('"pole_data"')
    assert "[1, 0]" in text and "[0, 0]" in text
    assert text.endswith("}\n")
    assert json.loads(text)  # stays plain JSON


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        loads_model("{\n  nope\n}")
    assert exc.value.line == 2 and exc.value.col == 3
    assert "line 2" in str(exc.value)


def poly_doc(**extra):
    doc = {"polynomial": [[0, 0], [0, 0], [1, 0]]}
    doc.update(extra)
    return json.dumps(doc)


def test_top_level_key_rules():
    with pytest.raises(SchemaError) as exc:
        loads_model(poly_doc(extra=1))
    assert exc.value.key == "extra"
    with pytest.raises(SchemaError, match="exactly one"):
        loads_model(poly_doc(abstract={"degree": 2, "cycles": [{"period": 1, "degrees": [2]}]}))
    with pytest.raises(SchemaError, match="exactly one"):
        loads_model("{}")
    with pytest.raises(SchemaError, match="top level"):
        loads_model("[1, 2]")


def test_polynomial_validation():
    with pytest.raises(SchemaError, match="degree"):
        loads_model(json.dumps({"polynomial": [[0, 0], [1, 0], [0, 0]]}))  # trims to z
    with pytest.raises(SchemaError):
        loads_model(json.dumps({"polynomial": []}))
    with pytest.raises(SchemaError, match="pair"):
        loads_model(json.dumps({"polynomial": [[0, 0], [0, 0], [1]]}))
    with pytest.raises(SchemaError):
        loads_model(json.dumps({"polynomial": [[0, 0], [0, 0], ["x", 0]]}))


def abstract_doc(cycles, degree=3, pole_data=None):
    doc = {"abstract": {"degree": degree, "cycles": cycles}}
    if pole_data is not None:
        doc["pole_data"] = pole_data
    return json.dumps(doc)


def test_abstract_validation():
    with pytest.raises(SchemaError) as exc:
        loads_model(abstract_doc([{"period": 2, "degrees": [2]}]))
    assert exc.value.key == "degrees"
    with pytest.raises(SchemaError) as exc:
        loads_model(abstract_doc([{"period": 1, "degrees": [2]}] * 2, degree=2))
    assert exc.value.key == "abstract"  # Riemann-Hurwitz overflow
    with pytest.raises(SchemaError):
        loads_model(abstract_doc([]))
    with pytest.raises(SchemaError):
        loads_model(abstract_doc([{"period": 1, "degrees": [2], "name": "x"}]))


def test_pole_data_validation_against_abstract():
    good = [{"cycle": 1, "phase": 0, "d": 2}]
    ok = loads_model(abstract_doc([{"period": 2, "degrees": [2, 2]}], pole_data=good))
    assert dict(ok.pole_data.entries) == {(1, 0): 2}
    with pytest.raises(SchemaError, match="phase 5"):
        loads_model(
            abstract_doc(
                [{"period": 2, "degrees": [2, 2]}],
                pole_data=[{"cycle": 1, "phase": 5, "d": 1}],
            )
        )
    with pytest.raises(SchemaError, match="duplicate"):
        loads_model(abstract_doc([{"period": 2, "degrees": [2, 2]}], pole_data=good + good))
    with pytest.raises(SchemaError):
        loads_model(abstract_doc([{"period": 2, "degrees": [2, 2]}], pole_data=[]))
    # Polynomial files defer phase validation until a model is classified.
    deferred = loads_model(
        json.dumps(
            {"polynomial": [[0, 0], [0, 0], [1, 0]], "pole_data": [{"cycle": 1, "phase": 7, "d": 1}]}
        )
    )
    assert dict(deferred.pole_data.entries) == {(1, 7): 1}


def simple_family(lam=(0.5, 0.0), location=(0, 0)):
    return {
        "kind": "simple_poles",
        "poles": [{"location": list(location), "order": 1, "lambda": list(lam)}],
    }


def test_family_validation():
    with pytest.raises(SchemaError) as exc:
        loads_model(
            abstract_doc([{"period": 1, "degrees": [2]}])[:-1]
            + ', "family": ' + json.dumps(simple_family()) + "}"
        )
    assert exc.value.key == "family"  # family requires a polynomial
    with pytest.raises(SchemaError) as exc:
        loads_model(poly_doc(family=simple_family(lam=(0, 0))))
    assert exc.value.key == "lambda"
    dup = {
        "kind": "simple_poles",
        "poles": [simple_family()["poles"][0], simple_family()["poles"][0]],
    }
    with pytest.raises(SchemaError) as exc:
        loads_model(poly_doc(family=dup))
    assert exc.value.key == "location"
    with pytest.raises(SchemaError) as exc:
        loads_model(poly_doc(family={"kind": "other"}))
    assert exc.value.key == "kind"
    with pytest.raises(SchemaError) as exc:
        loads_model(
            poly_doc(family={"kind": "product_pole", "lambda": [0, 0], "factors": [{"location": [0, 0], "order": 2}]})
        )
    assert exc.value.key == "lambda"


def test_params_validation():
    with pytest.raises(SchemaError) as exc:
        loads_model(poly_doc(params={"maxIters": 5}))
    assert exc.value.key == "maxIters"
    with pytest.raises(SchemaError, match="integer"):
        loads_model(poly_doc(params={"maxIter": True}))
    with pytest.raises(SchemaError, match=">= 1"):
        loads_model(poly_doc(params={"maxIter": 0}))
    with pytest.raises(SchemaError, match="positive"):
        loads_model(poly_doc(params={"poleBall": 0}))
    with pytest.raises(SchemaError, match="number"):
        loads_model(poly_doc(params={"poleBall": "big"}))


def test_verify_params_mapping():
    mf = loads_model(
        poly_doc(
            params={
                "maxIter": 500,
                "escapeRadius": 8.0,
                "poleBall": 0.25,
                "matchTol": 1e-3,
                "cycleMatchTol": 2e-2,
                "cycleTol": 1e-8,
                "newtonTol": 1e-11,
                "captureTol": 1e-5,
            }
        )
    )
    vp = mf.verify_params()
    assert vp.max_iter == 500
    assert vp.escape_radius == 8.0
    assert vp.pole_ball == 0.25
    assert vp.match_tol == 1e-3
    assert vp.cycle_match_tol == 2e-2
    assert vp.cycle_tol == 1e-8
    assert vp.newton_tol == 1e-11
    # captureTol is a renderer knob; it stays in params.
    assert mf.params["captureTol"] == 1e-5
    assert not hasattr(vp, "capture_tol")


def test_build_map_variants():
    plain = loads_model(poly_doc())
    assert isinstance(plain.build_map(), ComplexPoly)
    fam = loads_model(poly_doc(family=simple_family()))
    f = fam.build_map()
    assert isinstance(f, RationalMapExpr)
    # z**2 + 0.5/z at z = 2.
    assert abs(eval_map(f, 2.0 + 0j) - (4.0 + 0.25)) <= 1e-15
    g = fam.build_map(lambda_override=1.0 + 0j)
    assert abs(eval_map(g, 2.0 + 0j) - (4.0 + 0.5)) <= 1e-15
    abstract = loads_model(abstract_doc([{"period": 1, "degrees": [2]}]))
    with pytest.raises(SchemaError):
        abstract.build_map()


def test_lambda_override_keeps_the_pole_lambda_ratios():
    two = {
        "kind": "simple_poles",
        "poles": [
            {"location": [1, 0], "order": 1, "lambda": [2.0**-10, 0]},
            {"location": [-1, 0], "order": 1, "lambda": [-(2.0**-8), 0]},
        ],
    }
    f = loads_model(poly_doc(family=two)).build_map(lambda_override=2.0**-9)
    assert [c for c, _ in f.terms] == [2.0**-9, -(2.0**-7)]
    assert [fs for _, fs in f.terms] == [((1 + 0j, 1),), ((-1 + 0j, 1),)]


def test_lambda_override_must_be_finite():
    fam = loads_model(poly_doc(family=simple_family()))
    for bad in (complex("nan"), complex("infj"), complex(1, float("nan")), float("-inf")):
        with pytest.raises(ValueError, match="lambda .* must be finite"):
            fam.build_map(lambda_override=bad)


def test_lambda_override_must_be_nonzero():
    # A zero override would build P + 0 / (z - a)^d, a map of the wrong
    # degree whose census still passed; a model file rejects lambda 0 too.
    fam = loads_model(poly_doc(family=simple_family()))
    for zero in (0, 0.0, -0.0, 0j, complex(-0.0, -0.0)):
        with pytest.raises(ValueError, match="lambda must be nonzero"):
            fam.build_map(lambda_override=zero)


def test_make_fixtures_reproduces_the_fixtures(tmp_path, monkeypatch):
    # The script builds every fixture through FamilySpec and the canonical
    # serializer; run into tmp_path, it must write fixtures/ byte for byte.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", FIXTURES.parent / "scripts" / "make_fixtures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", str(tmp_path))
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
