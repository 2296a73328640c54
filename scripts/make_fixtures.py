"""Regenerate the JSON fixtures under fixtures/.

Every file is written through the canonical serializer and immediately
re-loaded to confirm save -> load -> save is byte-stable.  Run from the
repository root:  python3 scripts/make_fixtures.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mcmlike.arith import PoleData
from mcmlike.dynamics import ComplexPoly
from mcmlike.model import classify_polynomial, from_abstract, normalize_type, types_equal
from mcmlike.model_io import FamilySpec, ModelFile, dumps_model, loads_model

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def one_pole(location: complex, order: int, lam: complex) -> FamilySpec:
    """A simple_poles family with a single pole."""
    return FamilySpec("simple_poles", ((lam, ((location, order),)),))


def emit(name: str, mf: ModelFile) -> None:
    text = dumps_model(mf)
    again = dumps_model(loads_model(text))
    assert text == again, f"round-trip not canonical for {name}"
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {name} ({len(text)} bytes)")


def main() -> None:
    os.makedirs(OUT, exist_ok=True)

    # Cubic with a superattracting 2-cycle {0, 1}, both phases degree 2;
    # simple pole of order 1 attached at phase 0.
    q_poly = ComplexPoly([1, 0, -3, 2])
    q_pd = PoleData.from_dict({(1, 0): 1})
    emit("q_abstract.json", ModelFile(
        abstract=from_abstract(3, [(2, (2, 2))]),
        pole_data=q_pd,
    ))
    emit("q_family.json", ModelFile(
        polynomial=q_poly,
        pole_data=q_pd,
        family=one_pole(0j, 1, 1e-5 + 0j),
        params={"maxIter": 2000},
    ))

    # z^3 with its fixed critical point at the origin; order-3 pole there.
    emit("f_cubic.json", ModelFile(
        polynomial=ComplexPoly([0, 0, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
        family=one_pole(0j, 3, -0.01 + 0j),
        params={"maxIter": 2000, "poleBall": 0.25},
    ))

    # z^3 + i: the critical point 0 lies on a 2-cycle {0, i} with degrees (3, 1).
    emit("g_cubic.json", ModelFile(
        polynomial=ComplexPoly([1j, 0, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
        family=one_pole(0j, 3, -1e-7 + 0j),
        params={"maxIter": 2000},
    ))

    # Basilica-style quadratic (z^2 - 1) with poles at both phases of the
    # 2-cycle {0, -1}, realized as a single product-form perturbation.
    emit("h_multipole.json", ModelFile(
        polynomial=ComplexPoly([-1, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 7, (1, 1): 5}),
        family=FamilySpec("product_pole", ((1e-22 + 0j, ((0j, 7), (-1 + 0j, 5))),)),
        params={"maxIter": 2000},
    ))
    emit("h_abstract.json", ModelFile(
        abstract=from_abstract(2, [(2, (2, 1))]),
        pole_data=PoleData.from_dict({(1, 0): 3, (1, 1): 6}),
    ))

    # Cubic with two superattracting fixed points (0 and i*sqrt(2)); the
    # order-3 pole sits on the first and the second cycle stays untouched.
    emit("r_milnor.json", ModelFile(
        polynomial=ComplexPoly([0, 0, -1.5 * math.sqrt(2) * 1j, 1]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
        family=one_pole(0j, 3, 1e-6 + 0j),
        params={"maxIter": 2000},
    ))
    emit("r_abstract.json", ModelFile(
        abstract=from_abstract(3, [(1, (2,)), (1, (2,))]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
    ))

    # n = d = 2: the cycle sum is exactly 1, so the existence condition
    # fails; kept as the standard negative fixture.
    emit("nd2_family.json", ModelFile(
        polynomial=ComplexPoly([0, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 2}),
        family=one_pole(0j, 2, -0.01 + 0j),
        params={"maxIter": 2000},
    ))

    # n = d = 3 passes (1/3 + 1/3 < 1); abstract-only companion.
    emit("nd3_abstract.json", ModelFile(
        abstract=from_abstract(3, [(1, (3,))]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
    ))

    # Same polynomial, different pole order: normalized types must differ.
    emit("z3_d3.json", ModelFile(
        polynomial=ComplexPoly([0, 0, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 3}),
    ))
    emit("z3_d4.json", ModelFile(
        polynomial=ComplexPoly([0, 0, 0, 1]),
        pole_data=PoleData.from_dict({(1, 0): 4}),
    ))

    # Affine conjugate of the q polynomial with the pole transported along
    # the conjugacy; its normalized type must match q_family's exactly.
    a = 1 - 0.5j
    b = 0.3 + 0.2j
    comp = q_poly.compose(ComplexPoly([b, a]))
    qc = ComplexPoly([
        (c - b) / a if k == 0 else c / a for k, c in enumerate(comp.coeffs)
    ])
    target = (0 - b) / a  # image of the pole location under the conjugacy
    mc = classify_polynomial(qc)
    pts = mc.cycles[0].points
    phase = min(range(len(pts)), key=lambda j: abs(pts[j] - target))
    qc_pd = PoleData.from_dict({(1, phase): 1})
    t1 = normalize_type(q_poly, pole_data=q_pd)
    t2 = normalize_type(qc, pole_data=qc_pd)
    print(f"conjugate pole phase: {phase}")
    print(f"types equal: {types_equal(t1, t2)}")
    assert types_equal(t1, t2), "conjugated type does not normalize to the base type"
    emit("q_conjugate.json", ModelFile(
        polynomial=qc,
        pole_data=qc_pd,
    ))

    print("all fixtures written")


if __name__ == "__main__":
    main()
