"""Numerical family verification against expected models."""

import json
import math
import random
import sys

from fractions import Fraction

import pytest

import mcmlike.dynamics
import mcmlike.verify
from mcmlike.arith import PoleData
from mcmlike.cli import main
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
    _census_ring,
    _census_seeds,
    _certified_roots,
    _numerator_evaluator,
    critical_census,
    free_critical_points,
    map_degree,
    untouched_cycle_checks,
    verify_family,
)

from conftest import FIXTURES
from oracles import expanded_numerator, interpretive_poly_eval, reference_find_roots


def crits(f):
    """The critical points of f's base polynomial, which seed its census."""
    return find_roots(f.base.derivative())


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


@pytest.mark.parametrize("name", ["q_family", "r_milnor", "f_cubic"])
def test_orbit_entries_carry_the_notes_verify_reports(name):
    mf = load_model(FIXTURES / f"{name}.json")
    f = mf.build_map()
    f = mf.build_map(lambda_override=f.terms[0][0] * 1.6)
    verdict = verify_family(f, classify_polynomial(mf.polynomial), mf.pole_data, mf.verify_params())
    entries = verdict.orbit_report.entries
    notes = [d[len("orbits: "):] for d in verdict.details if d.startswith("orbits: ")]
    assert notes == [e.note for e in entries if not e.consistent]
    if name == "f_cubic":
        # Every orbit passes its pole at 2 * sqrt(0.016) = 0.253 > poleBall 0.25.
        assert len(entries) == 6 and len(notes) == 6


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
    checks = untouched_cycle_checks(f, model, pd)
    assert verify_family(f, model, pd, params).untouched == checks
    assert [c.cycle for c in checks] == [2] and checks[0].persisted
    # Without pole data every cycle is untouched; the pole-carrying cycle
    # at 0 does not persist (0 is a pole of f).
    bare = untouched_cycle_checks(f, model, None)
    assert [c.cycle for c in bare] == [1, 2]
    assert not bare[0].persisted and bare[1] == checks[0]


def test_pole_off_every_cycle_point_lies_in_no_domain():
    # q's only cycle is {0, 1}; a second pole at 3.0 sits near no cycle
    # point, so it is no trap door and orbits escaping past it fail.
    mf = load_model(FIXTURES / "q_family.json")
    f = simple_poles_map(mf.polynomial, [(0j, 1, 1e-5), (3.0, 1, 1e-5)])
    model = classify_polynomial(mf.polynomial)
    report = verify_family(f, model, mf.pole_data, mf.verify_params()).orbit_report
    assert report.pole_domains == ((1, 0), None)
    far = [e for e in report.entries if e.record.outcome.nearest_pole_index == 1]
    assert len(far) == 3
    assert all(isinstance(e.classification, InBasinOfInfinityDirectly) for e in far)


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
    census = critical_census(f, crits(f))
    assert census.nu == 2 * census.map_degree - 2
    assert sum(m for _, m in census.pole_criticals) == 0  # simple pole: d - 1 = 0
    poly = ComplexPoly([1, 0, -3, 2])
    assert map_degree(poly) == 3


@pytest.mark.parametrize("name", ["q_family", "f_cubic", "h_multipole"])
def test_free_critical_polynomial_identity(name):
    # N(z) = f'(z) * prod (z - a_k)**(d_k + 1) for both pole layouts, and
    # the census evaluates N and N' in factored form to the same values.
    f, _, _, _ = load_family(name)
    factors = pole_orders(f)
    numer = expanded_numerator(f)
    dnumer = numer.derivative()
    factored = _numerator_evaluator(f)
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
        val, der, _, _ = factored(z)
        assert abs(val - lhs) <= 1e-7 * (1.0 + abs(lhs))
        want = interpretive_poly_eval(dnumer.coeffs, z)
        assert abs(der - want) <= 1e-7 * (1.0 + abs(want))


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


def test_verify_roots_p_prime_once(monkeypatch, capsys):
    # classify_polynomial roots P'; the census takes the critical points it
    # found from the model instead of rooting P' again.
    calls = []
    real = mcmlike.dynamics.find_roots

    def counting(p, *args, **kwargs):
        calls.append(p)
        return real(p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mcmlike") and getattr(module, "find_roots", None) is real:
            monkeypatch.setattr(module, "find_roots", counting)
    assert main(["verify", str(FIXTURES / "h_multipole.json")]) == 0
    assert "census: OK (free 15" in capsys.readouterr().out
    assert calls == [load_model(FIXTURES / "h_multipole.json").polynomial.derivative()]


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
    """Make the ring start fail loudly, so that only the seeds can certify."""

    def refuse(fmap, n):
        raise AssertionError("census fell back to the ring start")

    monkeypatch.setattr(mcmlike.verify, "_census_ring", refuse)


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
        points = free_critical_points(f, crits(f))
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
    points = [z for z, _ in free_critical_points(f, crits(f)) if abs(z + 1) < 0.01]
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
        census = critical_census(f, crits(f))
        assert len(census.free_criticals) == 15 and census.nu == 26


def simple_and_sorted(certified):
    """free_critical_points' list for the (root, radius) pairs of a certificate."""
    return sorted(((z, 1) for z, _ in certified), key=lambda zm: (zm[0].real, zm[0].imag))


def test_census_falls_back_to_expanded_roots():
    # f = z^3 + lam/(z - 1) - lam/(z + 1): at the double critical point 0 of
    # z^3 the two pole terms of f' cancel, so both seeds for it sit on 0 and
    # the seeds cannot be certified; the ring start certifies six simple
    # roots, which agree with the expanded numerator's roots.
    lam = 1e-4
    f = simple_poles_map(ComplexPoly([0, 0, 0, 1]), [(1, 1, lam), (-1, 1, -lam)])
    assert _certified_roots(f, _census_seeds(f, crits(f)), 6) is None
    ring = _certified_roots(f, _census_ring(f, 6), 6)
    points = free_critical_points(f, crits(f))
    assert points == simple_and_sorted(ring)
    expanded = reference_find_roots(expanded_numerator(f))
    assert [m for _, m in expanded] == [1] * 6
    # The expanded roots carry their own rounding error, about 3e-15 here.
    for z, radius in ring:
        assert min(abs(z - w) for w, _ in expanded) <= radius + 1e-14 * (1.0 + abs(z))


def family_sweep_maps():
    """Every fixture family at the 61 lambda factors 10**(-2 + 3j/60)."""
    for path in sorted(FIXTURES.glob("*.json")):
        mf = load_model(path)
        if mf.family is not None:
            lam = mf.build_map().terms[0][0]
            for j in range(61):
                yield mf.build_map(lambda_override=lam * 10.0 ** (-2.0 + 3.0 * j / 60))


def test_ring_alone_certifies_every_family_sweep_map(monkeypatch):
    maps = list(family_sweep_maps())
    sizes = [f.base.degree - 1 + sum(d + 1 for _, d in pole_orders(f)) for f in maps]
    seeded = [_certified_roots(f, _census_seeds(f, crits(f)), n) for f, n in zip(maps, sizes)]
    monkeypatch.setattr(mcmlike.verify, "_census_seeds", lambda fmap, points: None)
    for f, n, want in zip(maps, sizes, seeded):
        ring = _certified_roots(f, _census_ring(f, n), n)
        assert free_critical_points(f, crits(f)) == simple_and_sorted(ring)
        # Each disc holds one root, so each ring disc meets the seeded disc
        # of the same root.
        for z, radius in ring:
            assert min(abs(z - w) - r for w, r in want) <= radius
    assert len(maps) == 6 * 61


def test_multiple_free_critical_point_is_unavailable():
    # f = 0.5 + 3 lam z - lam z^2 + lam / z: the numerator is
    # -lam (z - 1)^2 (2z + 1), and the certificate proves simple roots only.
    lam = 0.25
    f = simple_poles_map(ComplexPoly([0.5, 3 * lam, -lam]), [(0j, 1, lam)])
    assert [m for _, m in reference_find_roots(expanded_numerator(f))] == [1, 2]
    with pytest.raises(NonConvergence, match="not certified"):
        free_critical_points(f, crits(f))
    with pytest.raises(NonConvergence, match="not certified"):
        critical_census(f, crits(f))


def test_verify_prints_an_unavailable_census(tmp_path, capsys):
    # q's P = 2z^3 - 3z^2 + 1 with lam / (z - 9/4), lam = 81/32: the
    # numerator P' (z - 9/4)^2 - lam has the double root 3/2 in exact
    # binary arithmetic, so neither start certifies it.
    family = json.loads((FIXTURES / "q_family.json").read_text())
    family["family"]["poles"] = [{"lambda": [81 / 32, 0], "location": [2.25, 0], "order": 1}]
    path = tmp_path / "double_critical.json"
    path.write_text(json.dumps(family))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    reason = "NonConvergence: free critical points not certified from the seeds nor from a ring"
    assert "census: FAIL (unavailable)" in out and "orbits: FAIL (unavailable)" in out
    assert f"detail: census: {reason}" in out and f"detail: orbits: {reason}" in out
    assert out[-1] == "verdict: FAIL"
