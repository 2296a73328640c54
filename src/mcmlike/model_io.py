"""JSON serialization for models, pole data, families, and run parameters.

Single source of truth for the on-disk format (documented in
docs/model_format.md).  A file carries exactly one of ``polynomial``
(coefficients ascending, complex as [re, im]) or ``abstract`` (degree plus
cycle periods/degrees), with optional ``pole_data``, ``family`` (the
rational perturbation; requires ``polynomial``) and ``params``.

Serialization is canonical: sorted keys, two-space indent, floats printed
with 17 significant digits, so save -> load -> save is byte-stable.
Validation is total -- a bad file raises ParseError (with line/column) or
SchemaError (naming the offending key), never yields a partial model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .arith import PoleData, InvalidPoleDataKey
from .dynamics import ComplexPoly, MapLike, RationalMapExpr
from .model import HpcfpModel, from_abstract


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"parse error at line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


class SchemaError(ValueError):
    def __init__(self, msg: str, key: Optional[str] = None):
        self.key = key
        if key is not None:
            msg = f"{msg} (key: {key})"
        super().__init__(msg)


ROOT_KEYS = {"abstract", "polynomial", "pole_data", "family", "params"}
# params key -> VerifyParams field.  captureTol is a render knob and stays
# in params.
VERIFY_PARAM_FIELDS = {
    "maxIter": "max_iter",
    "escapeRadius": "escape_radius",
    "poleBall": "pole_ball",
    "matchTol": "match_tol",
    "cycleMatchTol": "cycle_match_tol",
    "cycleTol": "cycle_tol",
    "newtonTol": "newton_tol",
}
PARAM_KEYS = {*VERIFY_PARAM_FIELDS, "captureTol"}


@dataclass(frozen=True)
class FamilySpec:
    """Rational perturbation attached to a polynomial base map.

    ``terms`` are those of ``RationalMapExpr``: one single-factor term per
    pole for ``simple_poles``, one term holding every factor for
    ``product_pole``.  ``kind`` only selects the on-disk layout.
    """

    kind: str  # "simple_poles" | "product_pole"
    terms: Tuple[Tuple[complex, Tuple[Tuple[complex, int], ...]], ...]

    def build(self, base: ComplexPoly, lambda_override: Optional[complex] = None) -> RationalMapExpr:
        """The map; lambda_override sets the first term's coefficient and scales
        every other term's by the same factor, keeping their ratios.  A
        non-finite or zero override raises ValueError, as such a lambda in a
        model file does."""
        terms = self.terms
        if lambda_override is not None:
            lam = complex(lambda_override)
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                raise ValueError(f"lambda {lambda_override} must be finite")
            if lam == 0:
                raise ValueError("lambda must be nonzero")
            scale = lam / terms[0][0]
            terms = ((lam, terms[0][1]),) + tuple((c * scale, fs) for c, fs in terms[1:])
        return RationalMapExpr(base, terms)

    def to_dict(self) -> dict:
        if self.kind == "simple_poles":
            return {
                "kind": "simple_poles",
                "poles": [
                    {"location": _pair(a), "order": d, "lambda": _pair(lam)}
                    for lam, ((a, d),) in self.terms
                ],
            }
        ((lam, factors),) = self.terms
        return {
            "kind": "product_pole",
            "lambda": _pair(lam),
            "factors": [{"location": _pair(a), "order": d} for a, d in factors],
        }


@dataclass
class VerifyParams:
    """Tolerances of ``verify``; ``ModelFile.verify_params`` reads them from ``params``."""

    max_iter: int = 2000
    escape_radius: Optional[float] = None
    cycle_tol: float = 1e-9
    pole_ball: float = 0.1
    match_tol: float = 1e-4  # pole location -> model cycle point
    cycle_match_tol: float = 1e-2  # converged orbit -> model cycle
    newton_tol: float = 1e-10


@dataclass
class ModelFile:
    polynomial: Optional[ComplexPoly] = None
    abstract: Optional[HpcfpModel] = None
    pole_data: Optional[PoleData] = None
    family: Optional[FamilySpec] = None
    params: Dict[str, object] = field(default_factory=dict)

    def verify_params(self) -> VerifyParams:
        return VerifyParams(
            **{fld: self.params[key] for key, fld in VERIFY_PARAM_FIELDS.items() if key in self.params}
        )

    def build_map(self, lambda_override: Optional[complex] = None) -> MapLike:
        if self.polynomial is None:
            raise SchemaError("no polynomial to build a map from", key="polynomial")
        if self.family is None:
            return self.polynomial
        return self.family.build(self.polynomial, lambda_override)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.polynomial is not None:
            out["polynomial"] = [_pair(c) for c in self.polynomial.coeffs]
        if self.abstract is not None:
            out["abstract"] = {
                "degree": self.abstract.degree,
                "cycles": [
                    {"period": c.period, "degrees": list(c.degrees)}
                    for c in self.abstract.cycles
                ],
            }
        if self.pole_data is not None:
            out["pole_data"] = [
                {"cycle": cyc, "phase": ph, "d": d}
                for (cyc, ph), d in self.pole_data.entries
            ]
        if self.family is not None:
            out["family"] = self.family.to_dict()
        if self.params:
            out["params"] = dict(self.params)
        return out


def _pair(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _require_keys(d: dict, allowed: set, required: set, ctx: str) -> None:
    for k in d:
        if k not in allowed:
            raise SchemaError(f"unknown key in {ctx}", key=k)
    for k in required:
        if k not in d:
            raise SchemaError(f"missing key in {ctx}", key=k)


def _number(v, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{ctx} must be a number", key=ctx)
    f = float(v)
    if not math.isfinite(f):
        raise SchemaError(f"{ctx} must be finite", key=ctx)
    return f


def _integer(v, ctx: str, minimum: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{ctx} must be an integer", key=ctx)
    if v < minimum:
        raise SchemaError(f"{ctx} must be >= {minimum}", key=ctx)
    return v


def _complex_value(v, ctx: str) -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"{ctx} must be a [re, im] pair", key=ctx)
    return complex(_number(v[0], ctx), _number(v[1], ctx))


def _parse_polynomial(v) -> ComplexPoly:
    if not isinstance(v, list) or not v:
        raise SchemaError("polynomial must be a non-empty coefficient list", key="polynomial")
    coeffs = [_complex_value(c, "polynomial coefficient") for c in v]
    poly = ComplexPoly(coeffs)
    if poly.degree < 2:
        raise SchemaError("polynomial degree must be >= 2", key="polynomial")
    return poly


def _parse_abstract(v) -> HpcfpModel:
    if not isinstance(v, dict):
        raise SchemaError("abstract must be an object", key="abstract")
    _require_keys(v, {"degree", "cycles"}, {"degree", "cycles"}, "abstract")
    degree = _integer(v["degree"], "degree", 2)
    cycles_raw = v["cycles"]
    if not isinstance(cycles_raw, list) or not cycles_raw:
        raise SchemaError("cycles must be a non-empty list", key="cycles")
    cycles = []
    for c in cycles_raw:
        if not isinstance(c, dict):
            raise SchemaError("cycle must be an object", key="cycles")
        _require_keys(c, {"period", "degrees"}, {"period", "degrees"}, "cycle")
        period = _integer(c["period"], "period", 1)
        degs = c["degrees"]
        if not isinstance(degs, list) or len(degs) != period:
            raise SchemaError("degrees must list one value per phase", key="degrees")
        cycles.append((period, tuple(_integer(d, "degrees", 1) for d in degs)))
    try:
        return from_abstract(degree, cycles)
    except ValueError as exc:
        raise SchemaError(str(exc), key="abstract") from exc


def _parse_pole_data(v, model: Optional[HpcfpModel]) -> PoleData:
    if not isinstance(v, list) or not v:
        raise SchemaError("pole_data must be a non-empty list", key="pole_data")
    entries: Dict[Tuple[int, int], int] = {}
    for e in v:
        if not isinstance(e, dict):
            raise SchemaError("pole_data entry must be an object", key="pole_data")
        _require_keys(e, {"cycle", "phase", "d"}, {"cycle", "phase", "d"}, "pole_data entry")
        cyc = _integer(e["cycle"], "cycle", 1)
        ph = _integer(e["phase"], "phase", 0)
        d = _integer(e["d"], "d", 1)
        if (cyc, ph) in entries:
            raise SchemaError(f"duplicate pole_data entry for cycle {cyc} phase {ph}", key="pole_data")
        entries[(cyc, ph)] = d
    pd = PoleData.from_dict(entries)
    if model is not None:
        try:
            pd.validate(model)
        except InvalidPoleDataKey as exc:
            raise SchemaError(str(exc), key="pole_data") from exc
    return pd


def _lambda(v) -> complex:
    lam = _complex_value(v, "lambda")
    if lam == 0:
        raise SchemaError("lambda must be nonzero", key="lambda")
    return lam


def _parse_poles(
    v, list_key: str, entry: str, with_lambda: bool
) -> List[Tuple[complex, int, Optional[complex]]]:
    """(location, order, lambda or None) for each entry of a family's pole
    list; locations must be distinct."""
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{list_key} must be a non-empty list", key=list_key)
    keys = {"location", "order", "lambda"} if with_lambda else {"location", "order"}
    out = []
    seen = set()
    for p in v:
        if not isinstance(p, dict):
            raise SchemaError(f"{entry} must be an object", key=list_key)
        _require_keys(p, keys, keys, entry)
        loc = _complex_value(p["location"], "location")
        order = _integer(p["order"], "order", 1)
        lam = _lambda(p["lambda"]) if with_lambda else None
        if loc in seen:
            raise SchemaError(f"duplicate {entry} location", key="location")
        seen.add(loc)
        out.append((loc, order, lam))
    return out


def _parse_family(v) -> FamilySpec:
    if not isinstance(v, dict):
        raise SchemaError("family must be an object", key="family")
    kind = v.get("kind")
    if kind == "simple_poles":
        _require_keys(v, {"kind", "poles"}, {"kind", "poles"}, "family")
        poles = _parse_poles(v["poles"], "poles", "pole", with_lambda=True)
        return FamilySpec(kind, tuple((lam, ((a, d),)) for a, d, lam in poles))
    if kind == "product_pole":
        _require_keys(v, {"kind", "lambda", "factors"}, {"kind", "lambda", "factors"}, "family")
        lam = _lambda(v["lambda"])
        factors = _parse_poles(v["factors"], "factors", "factor", with_lambda=False)
        return FamilySpec(kind, ((lam, tuple((a, d) for a, d, _ in factors)),))
    raise SchemaError("kind must be 'simple_poles' or 'product_pole'", key="kind")


def _parse_params(v) -> Dict[str, object]:
    if not isinstance(v, dict):
        raise SchemaError("params must be an object", key="params")
    out: Dict[str, object] = {}
    for k, val in v.items():
        if k not in PARAM_KEYS:
            raise SchemaError("unknown key in params", key=k)
        if k == "maxIter":
            out[k] = _integer(val, "maxIter", 1)
        else:
            num = _number(val, k)
            if num <= 0:
                raise SchemaError(f"{k} must be positive", key=k)
            out[k] = num
    return out


def loads_model(text: str) -> ModelFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    for k in raw:
        if k not in ROOT_KEYS:
            raise SchemaError("unknown top-level key", key=k)
    has_poly = "polynomial" in raw
    has_abs = "abstract" in raw
    if has_poly == has_abs:
        raise SchemaError("exactly one of 'polynomial' or 'abstract' is required")
    mf = ModelFile()
    if has_poly:
        mf.polynomial = _parse_polynomial(raw["polynomial"])
    else:
        mf.abstract = _parse_abstract(raw["abstract"])
    if "pole_data" in raw:
        mf.pole_data = _parse_pole_data(raw["pole_data"], mf.abstract)
    if "family" in raw:
        if mf.polynomial is None:
            raise SchemaError("family requires a polynomial base map", key="family")
        mf.family = _parse_family(raw["family"])
    if "params" in raw:
        mf.params = _parse_params(raw["params"])
    return mf


def load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise SchemaError("non-finite float in model")
    if v == 0.0:
        return "0"
    return "%.17g" % v


def _ser(obj, ind: int = 0) -> str:
    pad = "  " * ind
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_ser(obj[k], ind + 1)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(not isinstance(x, (dict, list)) for x in obj):
            return "[" + ", ".join(_ser(x) for x in obj) + "]"
        items = [f"{pad}  {_ser(x, ind + 1)}" for x in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise SchemaError(f"unserializable value of type {type(obj).__name__}")


def dumps_model(mf: ModelFile) -> str:
    return _ser(mf.to_dict()) + "\n"


def save_model(mf: ModelFile, path: str) -> None:
    text = dumps_model(mf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
