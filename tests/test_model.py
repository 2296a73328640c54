"""Polynomial classification, abstract models, and affine normal forms."""

import cmath
import math
import random

import pytest

from mcmlike.arith import PoleData
from mcmlike.dynamics import ComplexPoly
from mcmlike.model import (
    ModelWarning,
    MultiplierNotZero,
    NotHpcfp,
    classify_polynomial,
    from_abstract,
    normalize_type,
    riemann_hurwitz_check,
    types_equal,
)

Q = ComplexPoly([1, 0, -3, 2])  # 2z^3 - 3z^2 + 1


def test_classify_q_cycle_and_criticals():
    model = classify_polynomial(Q)
    assert model.degree == 3
    assert len(model.cycles) == 1
    cyc = model.cycles[0]
    assert cyc.period == 2 and cyc.degrees == (2, 2)
    # Both phases carry a critical point (tie), so phase 0 is the lex-least
    # cycle point: 0 -> 1 -> 0.
    assert abs(cyc.points[0] - 0) < 1e-12 and abs(cyc.points[1] - 1) < 1e-12
    assert cyc.multiplier < 1e-9
    assert model.is_hpcfp
    assert riemann_hurwitz_check(model)
    by_point = {round(a.point.real): a for a in model.criticals}
    assert by_point[0].cycle == 1 and by_point[0].phase == 0 and by_point[0].preperiod == 0
    assert by_point[1].cycle == 1 and by_point[1].phase == 1 and by_point[1].preperiod == 0


def test_classify_basilica():
    model = classify_polynomial(ComplexPoly([-1, 0, 1]))
    cyc = model.cycles[0]
    assert cyc.period == 2 and cyc.degrees == (2, 1)
    assert abs(cyc.points[0] - 0) < 1e-12 and abs(cyc.points[1] + 1) < 1e-12
    assert model.is_hpcfp


def test_classify_two_fixed_cycles():
    # z^3 - (3 sqrt2 / 2) i z^2 has super-attracting fixed points 0 and i*sqrt2.
    p = ComplexPoly([0, 0, -1.5 * math.sqrt(2) * 1j, 1])
    model = classify_polynomial(p)
    assert [c.period for c in model.cycles] == [1, 1]
    assert [c.degrees for c in model.cycles] == [(2,), (2,)]
    assert abs(model.cycles[0].points[0] - 0) < 1e-9
    assert abs(model.cycles[1].points[0] - cmath.sqrt(2) * 1j) < 1e-9
    assert riemann_hurwitz_check(model)


def test_classify_cubic_with_double_critical():
    # z^3 + i: the double critical point 0 sits on the 2-cycle {0, i}.
    model = classify_polynomial(ComplexPoly([1j, 0, 0, 1]))
    cyc = model.cycles[0]
    assert cyc.period == 2 and cyc.degrees == (3, 1)
    assert abs(cyc.points[0] - 0) < 1e-12 and abs(cyc.points[1] - 1j) < 1e-12
    assert model.criticals[0].multiplicity == 2


def test_every_orbit_escapes_is_rejected():
    with pytest.raises(NotHpcfp, match="escapes"):
        classify_polynomial(ComplexPoly([1, 0, 1]))  # z^2 + 1


def test_escaping_critical_is_assigned_no_cycle():
    # z^3 - 3z + 3: critical 1 is a super-attracting fixed point, -1 escapes.
    model = classify_polynomial(ComplexPoly([3, -3, 0, 1]))
    assert [c.degrees for c in model.cycles] == [(2,)]
    escaping = [a for a in model.criticals if a.cycle is None]
    assert len(escaping) == 1 and abs(escaping[0].point + 1) < 1e-12
    assert not model.is_hpcfp
    assert not riemann_hurwitz_check(model)


def test_attracting_but_not_superattracting_is_rejected():
    with pytest.raises(MultiplierNotZero):
        classify_polynomial(ComplexPoly([0.1, 0, 1]))  # z^2 + 0.1
    with pytest.raises(MultiplierNotZero):
        classify_polynomial(ComplexPoly([-2, 0, 1]))  # z^2 - 2 lands on repelling 2
    # z^2 - 0.5 revisits with period 2, which reduces to the attracting fixed
    # point (1 - sqrt3) / 2.
    with pytest.raises(MultiplierNotZero, match=r"through \(-0\.36602540378443865\+0j\) "):
        classify_polynomial(ComplexPoly([-0.5, 0, 1]))


def test_parabolic_orbit_is_undecided():
    with pytest.raises(NotHpcfp, match="undecided"):
        classify_polynomial(ComplexPoly([0.25, 0, 1]))


def test_preperiodic_critical_warns_and_fails_rh():
    # p = z^3 - (3 i sqrt3 / 2) z^2: critical 0 is a super-attracting fixed
    # point, critical i*sqrt3 lands on it after two steps.
    c = math.sqrt(3) * 1j
    p = ComplexPoly([0, 0, -1.5 * c, 1])
    with pytest.warns(ModelWarning, match="preperiodic"):
        model = classify_polynomial(p)
    assert len(model.cycles) == 1
    assert model.cycles[0].period == 1 and model.cycles[0].degrees == (2,)
    pre = [a for a in model.criticals if a.preperiod and a.preperiod > 0]
    assert len(pre) == 1 and abs(pre[0].point - c) < 1e-9
    assert not riemann_hurwitz_check(model)  # 2 criticals, only 1 in periodic domains
    assert model.notes


def test_from_abstract_validation():
    with pytest.raises(ValueError):
        from_abstract(1, [(1, (2,))])
    with pytest.raises(ValueError):
        from_abstract(3, [(2, (2,))])  # wrong degree count
    with pytest.raises(ValueError):
        from_abstract(3, [(1, (0,))])
    with pytest.raises(ValueError):
        from_abstract(3, [(1, (1,))])  # no degree >= 2
    with pytest.raises(ValueError):
        from_abstract(2, [(1, (2,)), (1, (2,))])  # needs 2 criticals, has 1
    model = from_abstract(3, [(2, (2, 2))])
    assert model.cycles[0].points is None and model.is_hpcfp


def test_normalize_idempotent():
    pd = PoleData.from_dict({(1, 0): 1})
    t = normalize_type(Q, pd)
    pd2 = PoleData.from_dict({(i, j): d for i, j, d in t.pole_entries})
    t2 = normalize_type(ComplexPoly(t.coeffs), pd2)
    assert types_equal(t, t2)
    assert max(abs(x - y) for x, y in zip(t.coeffs, t2.coeffs)) < 1e-10


def test_random_affine_conjugates_normalize_equal():
    rng = random.Random(77)
    pd = PoleData.from_dict({(1, 0): 1})
    t_ref = normalize_type(Q, pd)
    for _ in range(6):
        a = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        comp = Q.compose(ComplexPoly([b, a]))
        qc = ComplexPoly([(c - b) / a if k == 0 else c / a for k, c in enumerate(comp.coeffs)])
        model = classify_polynomial(qc)
        target = (0 - b) / a  # image of the original phase-0 point
        cyc = model.cycles[0]
        phase = min(range(cyc.period), key=lambda j: abs(cyc.points[j] - target))
        t = normalize_type(qc, PoleData.from_dict({(1, phase): 1}), model=model)
        assert types_equal(t_ref, t)


def test_differing_pole_orders_are_unequal():
    cube = ComplexPoly([0, 0, 0, 1])
    t3 = normalize_type(cube, PoleData.from_dict({(1, 0): 3}))
    t4 = normalize_type(cube, PoleData.from_dict({(1, 0): 4}))
    assert not types_equal(t3, t4)


def test_different_polynomials_are_unequal():
    pd = PoleData.from_dict({(1, 0): 1})
    tq = normalize_type(Q, pd)
    tz = normalize_type(ComplexPoly([0, 0, 0, 1]), pd)
    assert not types_equal(tq, tz)


def test_normalize_requires_cycles():
    with pytest.raises(NotHpcfp):
        normalize_type(ComplexPoly([1, 0, 1]))
