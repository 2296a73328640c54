"""Numerical family verification against expected models."""

import math
import random

from fractions import Fraction

import pytest

import mcmlike.verify
from mcmlike.arith import PoleData
from mcmlike.dynamics import (
    ComplexPoly,
    NonConvergence,
    eval_map_derivative,
    find_roots,
    pole_orders,
    product_pole_map,
    simple_poles_map,
)
from mcmlike.model import classify_polynomial, from_abstract
from mcmlike.model_io import load_model
from mcmlike.verify import (
    ConvergesToBoundedCycle,
    EscapesViaTrapDoor,
    InBasinOfInfinityDirectly,
    critical_census,
    free_critical_points,
    free_critical_polynomial,
    map_degree,
    untouched_cycle_checks,
    verify_family,
)

from conftest import FIXTURES


def load_family(name):
    mf = load_model(FIXTURES / f"{name}.json")
    model = classify_polynomial(mf.polynomial)
    return mf.build_map(), model, mf.pole_data, mf.verify_params()


def test_verify_q_family():
    f, model, pd, params = load_family("q_family")
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed and verdict.condition_holds
    assert verdict.note == ""
    assert verdict.condition_report.per_cycle[0].product == Fraction(3, 4)
    assert verdict.census.map_degree == 4
    assert verdict.census.nu == 6
    assert len(verdict.census.free_criticals) == 4
    assert verdict.census.infinity_multiplicity == 2
    entries = verdict.orbit_report.entries
    assert all(isinstance(e.classification, EscapesViaTrapDoor) for e in entries)
    assert all(e.classification.passage_distance <= 0.1 for e in entries)
    assert not verdict.untouched  # the only cycle is touched


def test_verify_f_family_pole_ball():
    f, model, pd, params = load_family("f_cubic")
    assert params.pole_ball == 0.25
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed
    entries = verdict.orbit_report.entries
    assert len(entries) == 6
    # All six free criticals sit on |z| = |lambda|**(1/6) and pass the pole
    # at distance exactly 2*sqrt(|lambda|).
    for e in entries:
        assert abs(abs(e.point) - 0.01 ** (1.0 / 6.0)) <= 1e-9
        assert isinstance(e.classification, EscapesViaTrapDoor)
        assert abs(e.classification.passage_distance - 0.2) <= 1e-9
    # The same family fails at the tighter default pole ball.
    tight = load_model(FIXTURES / "f_cubic.json").verify_params()
    tight.pole_ball = 0.1
    verdict2 = verify_family(f, model, pd, tight)
    assert not verdict2.critical_orbits_ok
    assert all(
        isinstance(e.classification, InBasinOfInfinityDirectly)
        for e in verdict2.orbit_report.entries
    )
    passages = [e.record.outcome.pole_distance for e in verdict2.orbit_report.entries]
    assert abs(min(passages) - 0.2) <= 1e-9


def test_verify_g_family():
    f, model, pd, params = load_family("g_cubic")
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed and verdict.condition_holds
    assert verdict.census.nu == 10 and verdict.census.map_degree == 6
    entries = verdict.orbit_report.entries
    assert len(entries) == 6
    assert all(isinstance(e.classification, EscapesViaTrapDoor) for e in entries)
    assert max(e.classification.passage_distance for e in entries) <= 0.1


def test_verify_h_family():
    f, model, pd, params = load_family("h_multipole")
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed and verdict.condition_holds
    assert verdict.condition_report.per_cycle[0].product == Fraction(27, 35)
    assert verdict.census.map_degree == 14
    assert verdict.census.nu == 26
    assert len(verdict.census.free_criticals) == 15
    assert verdict.orbit_report.pole_domains == ((1, 0), (1, 1))
    assert all(
        isinstance(e.classification, EscapesViaTrapDoor)
        for e in verdict.orbit_report.entries
    )


def test_verify_r_family_untouched_cycle():
    f, model, pd, params = load_family("r_milnor")
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed and verdict.condition_holds
    entries = verdict.orbit_report.entries
    doors = [e for e in entries if isinstance(e.classification, EscapesViaTrapDoor)]
    bounded = [e for e in entries if isinstance(e.classification, ConvergesToBoundedCycle)]
    assert len(doors) == 5 and len(bounded) == 1
    assert all(e.classification.pole_index == 0 for e in doors)
    assert bounded[0].classification.cycle == 2
    assert len(verdict.untouched) == 1
    chk = verdict.untouched[0]
    assert chk.cycle == 2 and chk.period == 1 and chk.persisted
    assert abs(chk.found - math.sqrt(2) * 1j) <= 1e-6
    assert chk.multiplier < 1e-3


def test_untouched_cycle_checks_is_verify_persistence_rule():
    f, model, pd, params = load_family("r_milnor")
    checks = untouched_cycle_checks(f, model, pd, params.newton_tol)
    assert verify_family(f, model, pd, params).untouched == checks
    assert [c.cycle for c in checks] == [2] and checks[0].persisted
    # Without pole data every cycle is untouched; the pole-carrying cycle
    # at 0 does not persist (0 is a pole of f).
    bare = untouched_cycle_checks(f, model, None, params.newton_tol)
    assert [c.cycle for c in bare] == [1, 2]
    assert not bare[0].persisted and bare[1] == checks[0]


def test_verify_nd2_not_expected_to_pass():
    f, model, pd, params = load_family("nd2_family")
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed
    assert not verdict.condition_holds
    assert verdict.note == "NotExpectedToPass"


def test_verify_requires_concrete_cycles():
    f, _, pd, params = load_family("q_family")
    abstract = from_abstract(3, [(2, (2, 2))])
    with pytest.raises(ValueError):
        verify_family(f, abstract, pd, params)


def test_verify_degree_mismatch_detected():
    f, model, _, params = load_family("q_family")
    wrong_pd = PoleData.from_dict({(1, 0): 2})
    verdict = verify_family(f, model, wrong_pd, params)
    assert not verdict.degree_ok and not verdict.passed
    assert any("degree" in d for d in verdict.details)


def test_map_degree_and_census():
    f, _, _, _ = load_family("q_family")
    assert map_degree(f) == 4
    census = critical_census(f)
    assert census.nu == 2 * census.map_degree - 2
    assert sum(m for _, m in census.pole_criticals) == 0  # simple pole: d - 1 = 0
    poly = ComplexPoly([1, 0, -3, 2])
    assert map_degree(poly) == 3


@pytest.mark.parametrize("name", ["q_family", "f_cubic", "h_multipole"])
def test_free_critical_polynomial_identity(name):
    # N(z) = f'(z) * prod (z - a_k)**(d_k + 1) for both pole layouts.
    f, _, _, _ = load_family(name)
    factors = pole_orders(f)
    numer = free_critical_polynomial(f)
    rng = random.Random(99)
    for _ in range(12):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(z - a) < 0.3 for a, _ in factors):
            continue
        full = 1 + 0j
        for a, d in factors:
            full *= (z - a) ** (d + 1)
        lhs = numer.eval(z)
        rhs = eval_map_derivative(f, z) * full
        assert abs(lhs - rhs) <= 1e-7 * (1.0 + abs(rhs))


def test_verify_computes_the_census_once(monkeypatch):
    f, model, pd, params = load_family("h_multipole")
    calls = []
    real = mcmlike.verify.free_critical_points

    def counting(fmap, *args, **kwargs):
        points = real(fmap, *args, **kwargs)
        calls.append(sum(m for _, m in points))
        return points

    monkeypatch.setattr(mcmlike.verify, "free_critical_points", counting)
    verdict = verify_family(f, model, pd, params)
    assert verdict.passed
    assert calls == [15]


def test_unavailable_census_fails_both_checks(monkeypatch):
    f, model, pd, params = load_family("q_family")

    def no_roots(fmap, *args, **kwargs):
        raise NonConvergence("root residual too large")

    monkeypatch.setattr(mcmlike.verify, "free_critical_points", no_roots)
    verdict = verify_family(f, model, pd, params)
    assert verdict.census is None and verdict.orbit_report is None
    assert not verdict.census_ok and not verdict.critical_orbits_ok
    assert verdict.details == [
        "census: NonConvergence: root residual too large",
        "orbits: NonConvergence: root residual too large",
    ]


def test_programming_error_in_census_propagates(monkeypatch):
    f, model, pd, params = load_family("q_family")

    def broken(fmap, *args, **kwargs):
        raise TypeError("broken root finder")

    monkeypatch.setattr(mcmlike.verify, "free_critical_points", broken)
    with pytest.raises(TypeError, match="broken root finder"):
        verify_family(f, model, pd, params)


# ---------------------------------------------------------------------------
# The seeded census


def no_fallback(monkeypatch):
    """Make the expanded-coefficient fallback fail loudly."""

    def refuse(fmap):
        raise AssertionError("census fell back to the expanded numerator")

    monkeypatch.setattr(mcmlike.verify, "free_critical_polynomial", refuse)


def shifted_families():
    """Maps with every pole away from 0: base z^n + c, n = 2..5; one simple
    pole at 1 of order d, two simple poles, or a product pole at 1 and
    -0.5 + i; d = 1..6; complex lambda with |lambda| = 1e-2 .. 1e-22."""
    for n in range(2, 6):
        base = ComplexPoly([0.3 - 0.2j] + [0] * (n - 1) + [1])
        for d in range(1, 7):
            for k in range(2, 23, 2):
                lam = 10.0**-k
                second = (-0.5 + 1j, max(1, d - 2))
                yield simple_poles_map(base, [(1, d, lam * (0.6 + 0.8j))])
                yield simple_poles_map(base, [(1, d, lam), (*second, -0.7j * lam)])
                yield product_pole_map(base, lam * (0.6 - 0.8j), [(1, d), second])


def test_census_certifies_shifted_pole_families(monkeypatch):
    no_fallback(monkeypatch)
    count = 0
    for f in shifted_families():
        n = f.base.degree - 1 + sum(d + 1 for _, d in pole_orders(f))
        points = free_critical_points(f)
        assert [m for _, m in points] == [1] * n
        assert len({z for z, _ in points}) == n
        assert points == sorted(points, key=lambda zm: (zm[0].real, zm[0].imag))
        # At a critical point P' cancels the pole part of f'.  Near a pole at
        # distance 1 from 0 the cluster radius falls to ~1e-11, so the
        # spacing of floats at z limits the cancellation to ~1e-5.
        for z, _ in points:
            assert abs(eval_map_derivative(f, z)) <= 1e-3 * abs(f.base.derivative().eval(z))
        count += 1
    assert count == 4 * 6 * 11 * 3


def test_census_matches_local_newton_near_the_pole(monkeypatch):
    # h_multipole: f = z^2 - 1 + lam / (z^7 (z + 1)^5).  Near -1, in
    # w = z + 1, the numerator is 2 (w - 1)^9 w^6 - lam (12 w - 5): six
    # roots at |w| ~ (5 lam / 2)^(1/6) = 2.5e-4, far below the resolution
    # of expanded coefficients.
    no_fallback(monkeypatch)
    f, _, _, _ = load_family("h_multipole")
    ((lam, _),) = f.terms
    points = [z for z, _ in free_critical_points(f) if abs(z + 1) < 0.01]
    assert len(points) == 6

    def local_newton(w):
        for _ in range(100):
            val = 2 * (w - 1) ** 9 * w**6 - lam * (12 * w - 5)
            der = 18 * (w - 1) ** 8 * w**6 + 12 * (w - 1) ** 9 * w**5 - 12 * lam
            step = val / der
            w -= step
            if abs(step) <= 1e-17 * abs(w):
                break
        return w

    for z in points:
        w = local_newton(z + 1)
        assert abs((z + 1) - w) <= 1e-10 * abs(w)
        assert abs(abs(w) - (2.5 * abs(lam)) ** (1 / 6)) <= 1e-3 * abs(w)


def test_census_found_at_every_sweep_factor_of_h_multipole(monkeypatch):
    no_fallback(monkeypatch)
    mf = load_model(FIXTURES / "h_multipole.json")
    for j in range(61):
        f = mf.build_map(lambda_override=1e-22 * 10.0 ** (-2.0 + 3.0 * j / 60))
        census = critical_census(f)
        assert len(census.free_criticals) == 15 and census.nu == 26


def test_census_falls_back_to_expanded_roots():
    # f = z^3 + lam/(z - 1) - lam/(z + 1): at the double critical point 0 of
    # z^3 the two pole terms of f' cancel, so both predictions for it sit
    # on 0 and the census takes the expanded numerator instead.
    lam = 1e-4
    f = simple_poles_map(ComplexPoly([0, 0, 0, 1]), [(1, 1, lam), (-1, 1, -lam)])
    points = free_critical_points(f)
    assert points == find_roots(free_critical_polynomial(f))
    assert sum(m for _, m in points) == 2 + 2 + 2
