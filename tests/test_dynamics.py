"""Polynomials, rational perturbations, root finding, and orbit iteration."""

import cmath
import math
import pickle
import random

import numpy as np
import pytest

from mcmlike import dynamics
from mcmlike.dynamics import (
    CYCLE_TOL,
    CYCLE_TRANSIENT,
    PERIOD_WINDOW,
    ComplexPoly,
    ConvergedToCycle,
    Escaped,
    NonConvergence,
    PoleHit,
    RationalMapExpr,
    _evaluator,
    _factories,
    _shape,
    Undecided,
    auto_radius,
    checked_escape_radius,
    eval_map_derivative,
    find_roots,
    iterate_orbit,
    newton_cycle,
    pole_orders,
    product_pole_map,
    reflections,
    simple_poles_map,
)
from mcmlike.model import classify_polynomial
from mcmlike.model_io import load_model
from mcmlike.verify import critical_census, free_critical_points, map_degree

from conftest import FIXTURES
from oracles import (
    assert_same_array,
    assert_same_scalar,
    bits,
    expanded_numerator,
    interpretive_eval,
    interpretive_poly_eval,
    reference_find_roots,
    reference_iterate_orbit,
)

Q = ComplexPoly([1, 0, -3, 2])  # 1 - 3z^2 + 2z^3


def test_poly_trims_trailing_zeros():
    p = ComplexPoly([1, 2, 0, 0])
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1
    assert ComplexPoly([0, 0]).coeffs == (0j,)


def test_poly_eval_matches_direct_sum():
    rng = random.Random(11)
    p = ComplexPoly([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)])
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = sum(c * z**k for k, c in enumerate(p.coeffs))
        assert abs(p.eval(z) - direct) <= 1e-12 * (1 + abs(direct))


def test_poly_arithmetic_and_compose():
    a = ComplexPoly([1, 1])
    b = ComplexPoly([-1, 1])
    assert (a * b).coeffs == (-1 + 0j, 0j, 1 + 0j)
    assert (a + b).coeffs == (0j, 2 + 0j)
    assert (a + a * -1.0).coeffs == (0j,)
    ident = ComplexPoly([0, 1])
    assert Q.compose(ident).coeffs == Q.coeffs
    inner = ComplexPoly([0.3 + 0.2j, 1 - 0.5j])
    z = 0.7 - 0.4j
    assert abs(Q.compose(inner).eval(z) - Q.eval(inner.eval(z))) < 1e-12


def test_from_roots_and_derivative():
    p = ComplexPoly.from_roots([1, -2, 3j], lead=2.0)
    assert p.degree == 3
    for r in (1, -2, 3j):
        assert abs(p.eval(r)) < 1e-12
    dp = p.derivative()
    z = 0.4 + 0.1j
    h = 1e-6
    fd = (p.eval(z + h) - p.eval(z - h)) / (2 * h)
    assert abs(dp.eval(z) - fd) < 1e-6


def test_find_roots_simple():
    targets = [1 + 0j, -2 + 0j, 3j]
    roots = find_roots(ComplexPoly.from_roots(targets))
    assert sorted(m for _, m in roots) == [1, 1, 1]
    for t in targets:
        assert min(abs(r - t) for r, _ in roots) < 1e-10


def test_find_roots_multiplicities():
    p = ComplexPoly.from_roots([1, 1, -2, -2, -2])
    roots = find_roots(p)
    assert [(round(r.real), m) for r, m in roots] == [(-2, 3), (1, 2)]
    assert abs(roots[0][0] + 2) < 1e-6 and abs(roots[1][0] - 1) < 1e-6


def test_find_roots_zero_deflation():
    roots = find_roots(ComplexPoly([0, 0, 0, 0, 0, 1]))
    assert roots == [(0j, 5)]


def test_find_roots_random_property():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 7)
        targets = []
        while len(targets) < n:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - t) > 0.3 for t in targets):
                targets.append(z)
        roots = find_roots(ComplexPoly.from_roots(targets))
        assert sum(m for _, m in roots) == n
        for t in targets:
            assert min(abs(r - t) for r, _ in roots) < 1e-7


@pytest.mark.parametrize(
    "coeffs",
    [
        # Roots of modulus 1e200: the iteration overflows to a nan double root.
        [1e200, 1, 1e-200],
        # The start radius (1e300 / 1e-300) ** (1/3) overflows: nan and inf roots.
        [1e300, 1, 1, 1e-300],
    ],
)
def test_find_roots_raises_on_non_finite_roots(coeffs):
    with pytest.raises(NonConvergence, match="non-finite"):
        find_roots(ComplexPoly(coeffs))
    assert_same_roots(ComplexPoly(coeffs))


def test_simple_poles_eval_and_pole_hit():
    f = simple_poles_map(ComplexPoly([0, 0, 1]), [(1 + 0j, 2, 0.5 + 0j)])
    z = 3 + 1j
    want = z * z + 0.5 / (z - 1) ** 2
    assert abs(f.eval(z) - want) < 1e-12
    assert pole_orders(f) == [(1 + 0j, 2)]
    with pytest.raises(PoleHit):
        eval_map_derivative(f, 1 + 0j)
    assert_array_matches_scalar(f, np.array([z, 0.5 - 2j, -1.5 + 0.25j, 1 + 1e-3j]))


def test_product_pole_eval():
    f = product_pole_map(ComplexPoly([-1, 0, 1]), 1e-3, [(0j, 2), (-1 + 0j, 1)])
    z = 0.5 + 0.25j
    want = z * z - 1 + 1e-3 / (z**2 * (z + 1))
    assert abs(f.eval(z) - want) < 1e-12
    assert pole_orders(f) == [(0j, 2), (-1 + 0j, 1)]
    assert_array_matches_scalar(f, np.array([z, 0.5 - 2j, -1.5 + 0.25j, -1 + 1e-3j]))


def test_single_factor_product_pole_is_a_simple_pole():
    # Both constructors give one term c / (z - a)^d, so the maps are equal
    # and every evaluator agrees bit for bit on them.
    rng = random.Random(11)
    zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(10)]
    differ = []
    for base in (Q, ComplexPoly([0.3 - 0.2j, 0, 1])):
        for d in range(1, 7):
            for a, lam in ((0j, 1e-2 + 0j), (1 - 0.5j, -3e-4 + 2e-4j), (-0.25 + 1j, 0.7j)):
                f = product_pole_map(base, lam, [(a, d)])
                g = simple_poles_map(base, [(a, d, lam)])
                assert f == g
                arr = np.array(zs)
                assert f.eval(arr).tobytes() == g.eval(arr).tobytes()
                for z in zs:
                    assert bits(f.eval(z)) == bits(g.eval(z))
                    if bits(eval_map_derivative(f, z)) != bits(eval_map_derivative(g, z)):
                        differ.append((base, a, d, lam, z))
                assert [(bits(z), m) for z, m in free_critical_points(f, find_roots(base.derivative()))] == [
                    (bits(z), m) for z, m in free_critical_points(g, find_roots(base.derivative()))
                ]
    assert differ == []


def assert_array_matches_scalar(f, zs):
    # numpy and CPython round complex * and / differently: equal to rounding.
    got = f.eval(zs)
    assert got.shape == zs.shape
    for zk, gk in zip(zs, got):
        want = f.eval(complex(zk))
        assert abs(gk - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# f.eval against the dense evaluator, which runs every identity
# operation (1 * z, + 0, z - 0, den = 1 * w) into a fresh value.


def _dense_reference(f, z):
    """f.eval as it was before identity operations were skipped."""
    if isinstance(f, ComplexPoly):
        acc = f.coeffs[-1]
        for c in reversed(f.coeffs[:-1]):
            acc = acc * z + c
        return acc
    val = _dense_reference(f.base, z)
    for c, factors in f.terms:
        den = 1
        for a, d in factors:
            w = z - a
            for _ in range(d):
                den = den * w
        val = val + c / den
    return val


def _reference_maps():
    maps = [
        ComplexPoly([0, 1]),  # z itself: the result must still be a new value
        ComplexPoly([0.3 - 0.2j, -1.5, 0, 2.5 + 1j]),  # non-monic, nonzero constant
        simple_poles_map(Q, [(0.5 - 0.25j, 3, 1e-3 + 2e-3j)]),  # off-origin triple pole
    ]
    for path in sorted(FIXTURES.glob("*.json")):
        mf = load_model(path)
        if mf.polynomial is None:
            continue
        maps.append(mf.polynomial)
        if mf.family is not None:
            f = mf.build_map()
            maps += [f, mf.build_map(lambda_override=f.terms[0][0] * 4)]
    return maps


def _reference_seeds(f):
    zero = [0.0, -0.0]
    seeds = [complex(x, y) for x in zero for y in zero]
    seeds += [complex(x, y) for x in zero for y in (1.0, -0.5)]
    seeds += [complex(x, y) for x in (0.75, -1.0) for y in zero]
    seeds += [a + complex(x, y) for a, _ in pole_orders(f) for x in zero for y in zero]
    for m in (1e-310, 1e-160, 1e-100, 1e100, 1e155, 1e200, 1e300):
        seeds += [complex(m, 0.0), complex(-0.0, m), m * (0.6 - 0.8j)]
    rng = random.Random(13)
    seeds += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
    return seeds + [complex("nan"), complex("inf"), complex(0, float("-inf"))]


def test_eval_matches_dense_reference():
    # Skipped identities change at most the sign of a zero: finite results
    # compare equal and the same entries are non-finite.
    for f in _reference_maps():
        seeds = _reference_seeds(f)
        arr = np.array(seeds)
        before = arr.copy()
        with np.errstate(all="ignore"):
            got, want = f.eval(arr), _dense_reference(f, arr)
        assert got is not arr and not np.shares_memory(got, arr)
        assert arr.tobytes() == before.tobytes()
        finite = np.isfinite(got)
        assert np.array_equal(finite, np.isfinite(want))
        assert np.array_equal(got[finite], want[finite])
        for z in seeds:
            try:
                want = _dense_reference(f, z)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    f.eval(z)
                continue
            got = f.eval(z)
            assert got is not z
            if cmath.isfinite(want):
                assert got == want
            else:
                assert not cmath.isfinite(got)


def test_eval_map_derivative_matches_finite_difference():
    rng = random.Random(7)
    maps = [
        Q,
        simple_poles_map(Q, [(0j, 1, 1e-2 + 0j)]),
        product_pole_map(ComplexPoly([-1, 0, 1]), 1e-3 + 0j, [(0j, 2), (-1 + 0j, 1)]),
    ]
    for f in maps:
        for _ in range(10):
            z = complex(rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            h = 1e-6
            fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
            assert abs(eval_map_derivative(f, z) - fd) <= 1e-5 * (1 + abs(fd))


def test_auto_radius_is_an_escape_radius():
    maps = [
        ComplexPoly([0, 0, 0, 1]),
        Q,
        simple_poles_map(Q, [(0j, 1, 1e-5 + 0j)]),
        simple_poles_map(ComplexPoly([0, 0, 0, 1]), [(0j, 3, -0.01 + 0j)]),
        product_pole_map(ComplexPoly([-1, 0, 1]), 1e-22 + 0j, [(0j, 7), (-1 + 0j, 5)]),
    ]
    for f in maps:
        radius = auto_radius(f)
        for k in range(64):
            z = radius * 1.000001 * complex(
                math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64)
            )
            assert abs(f.eval(z)) > abs(z)


def test_checked_escape_radius_rejects_a_map_with_a_non_finite_coefficient():
    cube = ComplexPoly([0, 0, 0, 1])
    maps = [simple_poles_map(cube, [(0j, 3, bad)]) for bad in (complex("nan"), complex("infj"))]
    maps.append(ComplexPoly([float("nan"), 0, 1]))
    for f in maps:
        assert not math.isfinite(auto_radius(f))
        for radius in (None, 10.0, 1e300):
            with pytest.raises(ValueError, match="auto radius .* is not finite"):
                checked_escape_radius(f, radius)


FIXTURE_REFLECTIONS = {
    "f_cubic": (1, -1),
    "g_cubic": (-1,),
    "h_multipole": (1,),
    "nd2_family": (1,),
    "q_conjugate": (),
    "q_family": (1,),
    "r_milnor": (-1,),
    "z3_d3": (1, -1),
    "z3_d4": (1, -1),
}


def assert_commutes(f, sign):
    """f(s conj z) == s conj f(z) element for element (== ignores the sign of zeros)."""
    rng = np.random.default_rng(7)
    z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    with np.errstate(all="ignore"):
        mirrored = f.eval(sign * np.conj(z))
        assert np.array_equal(mirrored, sign * np.conj(f.eval(z)))


@pytest.mark.parametrize("name", sorted(FIXTURE_REFLECTIONS))
def test_reflections_of_the_fixtures(name):
    mf = load_model(FIXTURES / f"{name}.json")
    f = mf.build_map()
    assert reflections(f) == FIXTURE_REFLECTIONS[name]
    if mf.family is not None:
        for factor in (0.25, 4):
            scaled = mf.build_map(lambda_override=f.terms[0][0] * factor)
            assert reflections(scaled) == FIXTURE_REFLECTIONS[name]
    for sign in FIXTURE_REFLECTIONS[name]:
        assert_commutes(f, sign)


def test_reflections_from_exact_parts():
    cube = ComplexPoly([0, 0, 0, 1])
    # -0.0 parts count as zero.
    assert reflections(ComplexPoly([complex(0, -0.0), 0, complex(1, -0.0)])) == (1,)
    assert reflections(ComplexPoly([complex(-0.0, 1), 0, 0, complex(1, -0.0)])) == (-1,)
    signed_zeros = simple_poles_map(cube, [(complex(-0.0, -0.0), 3, complex(-0.01, -0.0))])
    assert reflections(signed_zeros) == (1, -1)
    # An imaginary part of 5e-324 drops conj; an off-axis pole drops -conj.
    assert reflections(ComplexPoly([0, 0, complex(1, 5e-324)])) == ()
    assert reflections(simple_poles_map(cube, [(complex(0, 5e-324), 3, -0.01 + 0j)])) == (-1,)
    off_axis = simple_poles_map(cube, [(0.5 + 0j, 3, -0.01 + 0j)])
    assert reflections(off_axis) == (1,)
    assert reflections(simple_poles_map(cube, [(complex(5e-324, 0.5), 3, -0.01 + 0j)])) == ()
    # Under -conj a term of even total order needs an imaginary coefficient,
    # one of odd order a real one; the base alternates the same way.
    even_term = simple_poles_map(cube, [(0j, 2, 0.01j)])
    two_factors = product_pole_map(cube, 0.01 + 0j, [(0.5j, 1), (-0.5j, 2)])
    alternating = ComplexPoly([1j, 2, 3j, 4])
    assert reflections(even_term) == (-1,)
    assert reflections(simple_poles_map(cube, [(0j, 2, 0.01 + 0j)])) == (1,)
    assert reflections(two_factors) == (-1,)
    assert reflections(alternating) == (-1,)
    assert reflections(ComplexPoly([1j, 2, 3, 4])) == ()
    for f, sign in [(even_term, -1), (two_factors, -1), (alternating, -1), (off_axis, 1)]:
        assert_commutes(f, sign)


def test_iterate_orbit_converges_to_superattracting_fixed_point():
    rec = iterate_orbit(ComplexPoly([0, 0, 0, 1]), 0.5 + 0j)
    assert isinstance(rec.outcome, ConvergedToCycle)
    assert rec.outcome.period == 1
    assert abs(rec.outcome.representative) < 1e-6


def test_iterate_orbit_basilica_two_cycle():
    rec = iterate_orbit(ComplexPoly([-1, 0, 1]), 0.01 + 0j)
    assert isinstance(rec.outcome, ConvergedToCycle)
    assert rec.outcome.period == 2


def test_iterate_orbit_escape_no_poles():
    rec = iterate_orbit(ComplexPoly([0, 0, 0, 1]), 2 + 0j)
    out = rec.outcome
    assert isinstance(out, Escaped)
    assert out.nearest_pole_index is None
    assert out.pole_distance == float("inf")
    assert out.escape_index >= 1


def test_iterate_orbit_starts_outside():
    f = ComplexPoly([0, 0, 1])
    rec = iterate_orbit(f, 100 + 0j)
    assert isinstance(rec.outcome, Escaped)
    assert rec.outcome.escape_index == 0


def test_iterate_orbit_pole_collision_counts_as_escape():
    f = simple_poles_map(ComplexPoly([0, 0, 0, 1]), [(0j, 3, -0.01 + 0j)])
    rec = iterate_orbit(f, 0j)
    out = rec.outcome
    assert isinstance(out, Escaped)
    assert out.escape_index == 1
    assert out.pole_distance == 0.0


def test_iterate_orbit_passage_tracks_closest_pole_approach():
    f = simple_poles_map(ComplexPoly([0, 0, 0, 1]), [(0j, 3, -0.01 + 0j)])
    # A critical point of f: z^6 = -0.01.
    c = (0.01 ** (1.0 / 6.0)) * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    rec = iterate_orbit(f, c)
    out = rec.outcome
    assert isinstance(out, Escaped)
    # The pole sits at 0, so |z - 0| is |z| exactly.
    assert out.nearest_pole_index == 0
    assert out.pole_distance == min(abs(z) for z in rec.samples[: out.escape_index])


def test_iterate_orbit_passage_ties_go_to_the_later_iterate():
    # 2z plus two pole terms with coefficient 0: the orbit of 0.25 is 0.25,
    # 0.5, 1, 2 and escapes at 4.  Iterate 1 lies 0.25 from pole 0 and
    # iterate 2 lies 0.25 from pole 1; every other approach is farther.
    f = simple_poles_map(ComplexPoly([0, 2]), [(0.5 + 0.25j, 1, 0j), (1 - 0.25j, 1, 0j)])
    rec = assert_same_orbit(f, 0.25 + 0j)
    assert rec.samples == [0.25, 0.5, 1, 2, 4]
    assert rec.outcome == Escaped(4, 1, 0.25)


def test_iterate_orbit_undecided_on_parabolic():
    rec = iterate_orbit(ComplexPoly([0.25, 0, 1]), 0j, max_iter=50)
    assert isinstance(rec.outcome, Undecided)


def test_newton_cycle_basilica_two_cycle():
    z, converged, mult = newton_cycle(ComplexPoly([-1, 0, 1]), 0.01 + 0j, 2, 1e-13)
    assert converged
    assert abs(z) < 1e-12  # the cycle is {0, -1}
    assert abs(mult) < 1e-12  # super-attracting: f'(0) = 0


def test_newton_cycle_untouched_cycle_persists():
    mf = load_model(FIXTURES / "r_milnor.json")
    model = classify_polynomial(mf.polynomial)
    start = model.cycles[1].points[0]  # the untouched fixed point sqrt(2) i
    z, converged, mult = newton_cycle(mf.build_map(), start, 1, 1e-10)
    assert converged
    assert abs(z - math.sqrt(2) * 1j) <= 1e-6
    assert 0 < abs(mult) < 1e-3


def test_newton_cycle_orbit_hitting_a_pole_does_not_converge():
    # f(z) = z^2 - 1/(z - 1) sends 0 exactly onto its pole at 1.
    f = simple_poles_map(ComplexPoly([0, 0, 1]), [(1 + 0j, 1, -1 + 0j)])
    assert f.eval(0j) == 1
    assert newton_cycle(f, 0j, 2, 1e-10) == (None, False, None)


# ---------------------------------------------------------------------------
# iterate_orbit against the orbit oracle, which scans back for revisits


def assert_same_orbit(f, z0, **kwargs):
    got = iterate_orbit(f, z0, **kwargs)
    assert got == reference_iterate_orbit(f, z0, **kwargs)
    return got


CONCRETE = sorted(p.stem for p in FIXTURES.glob("*.json") if load_model(p).polynomial is not None)


def assert_same_critical_orbits(name, factors):
    mf = load_model(FIXTURES / f"{name}.json")
    kwargs = dict(max_iter=mf.verify_params().max_iter)
    maps = [mf.polynomial]
    if mf.family is not None:
        lam = mf.build_map().terms[0][0]
        maps += [mf.build_map(lambda_override=lam * s) for s in factors]
    outcomes = set()
    for f in maps:
        for c, _ in critical_census(f, find_roots(f.base.derivative())).free_criticals:
            outcomes.add(type(assert_same_orbit(f, c, **kwargs).outcome).__name__)
    return outcomes


@pytest.mark.parametrize("name", CONCRETE)
def test_iterate_orbit_matches_reference_on_fixture_critical_orbits(name):
    assert assert_same_critical_orbits(name, (0.1, 1.0, 10.0))


@pytest.mark.parametrize("name", CONCRETE)
def test_iterate_orbit_matches_3x3_search_on_sweep_factors(name):
    # verify's sweep factors; the name is that of their first, 3x3 cell-search reference.
    assert_same_critical_orbits(name, [10 ** (-2 + 3 * j / 60) for j in (0, 29, 48, 60)])


def test_iterate_orbit_matches_reference_on_random_orbits():
    rng = random.Random(2024)
    maps = [load_model(FIXTURES / f"{name}.json").build_map() for name in CONCRETE]
    outcomes = set()
    for _ in range(150):
        f = rng.choice(maps)
        z0 = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        # No revisit can be found by max_iter CYCLE_TRANSIENT.
        out = assert_same_orbit(f, z0, max_iter=rng.choice([CYCLE_TRANSIENT, 30, 400, 1000]))
        outcomes.add(type(out.outcome).__name__)
    assert outcomes == {"ConvergedToCycle", "Escaped", "Undecided"}


def _contraction(p, m):
    """z -> p + m (z - p): a fixed point at p with multiplier m."""
    return ComplexPoly([p - m * p, m])


def _cell(z, side):
    return math.floor(z.real / side), math.floor(z.imag / side)


def test_iterate_orbit_cycle_straddling_cell_boundaries():
    # With CYCLE_TOL 1e-9, every p is a corner of the cells of side 2e-9,
    # and the first two are corners of the cells of side 8e-9
    # (iterate_orbit's) too.  An attracting fixed point and an attracting
    # 2-cycle point sit on p; their multipliers are -1/2, so iterates
    # approach from alternating sides and the revisiting iterate lies in a
    # different cell from the one it revisits.
    fine, coarse = 2 * CYCLE_TOL, 8 * CYCLE_TOL
    # z^2 - 9/8 has a 2-cycle {z1, z2} with multiplier -1/2.  |f'(z2)| < 1,
    # so deviations at z1 = f(z2) are the smaller ones and the revisit is
    # found there: z1 goes onto p.
    z1 = (-1 - math.sqrt(1.5)) / 2
    corners = [
        (1000 * fine * (1 + 1j), (fine, coarse)),
        (1000 * coarse * (1 + 1j), (fine, coarse)),
        (1000.5 * coarse * (1 - 1j), (fine,)),
    ]
    for p, sides in corners:
        fixed = ComplexPoly([1.5 * p, -0.5])  # z -> p - (z - p) / 2
        s = p - z1
        two_cycle = ComplexPoly([s * s - 1.125 + s, -2 * s, 1])  # (z - s)^2 - 9/8 + s
        for f, period, z0 in ((fixed, 1, p + 3e-3 - 5e-3j), (two_cycle, 2, p + 0.01 + 0.002j)):
            rec = assert_same_orbit(f, z0)
            out = rec.outcome
            assert isinstance(out, ConvergedToCycle) and out.period == period
            assert abs(out.representative - p) < 1e-8
            for side in sides:
                assert _cell(rec.samples[-1], side) != _cell(out.representative, side)


def test_revisits_on_cell_edges_and_corners():
    # Fixed points on corners and edges of the cells of side 8 * CYCLE_TOL,
    # approached from alternating sides (negative multipliers), so revisits
    # cross cell edges.
    side = 8 * CYCLE_TOL
    crossed = 0
    for p in (250 * side * (1 + 1j), 250 * side + 250.5j * side, 250.5 * side - 250j * side, 0j):
        for m in (-0.5, 0.5j, -0.9, 0.3 - 0.6j):
            for dz in (3e-3 - 5e-3j, 2e-9, -5e-9j, 3.9e-9 + 4.1e-9j):
                rec = assert_same_orbit(_contraction(p, m), p + dz)
                out = rec.outcome
                assert isinstance(out, ConvergedToCycle) and abs(out.representative - p) < side
                crossed += _cell(rec.samples[-1], side) != _cell(out.representative, side)
    assert crossed > 10


def test_revisits_where_the_radius_floor_sets_the_cell_side():
    # Fixed points of modulus 1e7 and more give auto radii of at least 1e7,
    # so the floor R * 2**-48 (above 3e-8) sets the cell side, not
    # 8 * CYCLE_TOL, and the neighbour margin is about 1/4 of a cell.  In
    # floating point the contractions end on an exact fixed point or 2-cycle
    # next to p.
    for p in (1e7 * (1 + 1j), 1e7 - 5e6j, 6e6 + 8e6j):
        for m in (-0.5, 0.5, 0.25j):
            f = _contraction(p, m)
            assert checked_escape_radius(f, None) * 2.0**-48 > 8 * CYCLE_TOL
            for dz in (1e-3, 3e-8 - 2e-8j):
                rec = assert_same_orbit(f, p + dz, max_iter=200)
                assert isinstance(rec.outcome, ConvergedToCycle) and rec.outcome.period <= 2


@pytest.mark.parametrize("period", [1, 2, 3, PERIOD_WINDOW - 1, PERIOD_WINDOW, PERIOD_WINDOW + 1])
def test_revisits_at_the_window_edges(period):
    # A rotation by 2 pi / period revisits after exactly `period` steps (to
    # rounding), so periods up to PERIOD_WINDOW are found and the next one
    # is not.  The first revisit is from k = CYCLE_TRANSIENT + period to
    # j = CYCLE_TRANSIENT, the window's lower edge.
    rotation = ComplexPoly([0, cmath.exp(2j * math.pi / period)])
    out = assert_same_orbit(rotation, 0.6 - 0.8j, max_iter=CYCLE_TRANSIENT + 2 * PERIOD_WINDOW).outcome
    if period <= PERIOD_WINDOW:
        assert out.period == period and out.convergence_index == CYCLE_TRANSIENT
    else:
        assert isinstance(out, Undecided)


def test_collision_scan_at_the_bar_and_beside_a_nan_distance():
    # |z - 0| equal to the bar 1e-13 collides.  A nan distance first in the
    # list makes min() nan, and the scan still finds the pole beside it.
    f = simple_poles_map(Q, [(0j, 1, 1e-3 + 0j)])
    out = assert_same_orbit(f, 1e-13 + 0j).outcome
    assert out == Escaped(1, 0, 1e-13)
    g = simple_poles_map(Q, [(complex("nan"), 1, 1e-3 + 0j), (0j, 1, 1e-3 + 0j)])
    out = assert_same_orbit(g, 1e-14 + 0j).outcome
    assert isinstance(out, Escaped) and out.escape_index == 1 and out.nearest_pole_index == 1


# ---------------------------------------------------------------------------
# The compiled evaluator against the evaluation oracle: the same operations
# in the same order, so the same bits.


def _random_shape_map(rng):
    def coeff():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    lead = rng.choice([1.0, -1.0, coeff()])
    lower = [rng.choice([0.0, -0.0, 1.0, coeff(), coeff()]) for _ in range(rng.randint(0, 5))]
    base = ComplexPoly(lower + [lead])
    terms = []
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        factors = tuple(
            (rng.choice([0j, coeff()]), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
        )
        terms.append((rng.choice([coeff() * 1e-3, 1.0, -0.5j]), factors))
    return RationalMapExpr(base, tuple(terms)) if terms else base


def _shape_maps():
    rng = random.Random(20)
    maps = _reference_maps() + [ComplexPoly([3 - 1j]), ComplexPoly([0.5, 1]), ComplexPoly([0, -1])]
    maps += [RationalMapExpr(ComplexPoly([2j]), ((1e-2, ((0j, 2),)),))]  # constant base
    return maps + [_random_shape_map(rng) for _ in range(150)]


def test_compiled_evaluator_matches_the_interpretive_one():
    shapes = set()
    for f in _shape_maps():
        shapes.add(_shape(f)[0])
        seeds = _reference_seeds(f)
        arr = np.array(seeds)
        before = arr.copy()
        with np.errstate(all="ignore"):
            assert_same_array(f.eval(arr), interpretive_eval(f, arr))
            assert_same_array(f.base.eval(arr), interpretive_poly_eval(f.base.coeffs, arr))
        assert arr.tobytes() == before.tobytes()
        for z in seeds:
            try:
                want = interpretive_eval(f, z)
            except ZeroDivisionError:  # an exact pole hit
                with pytest.raises(ZeroDivisionError):
                    f.eval(z)
                continue
            got = f.eval(z)
            assert got is not z
            assert_same_scalar(got, want)
            assert_same_scalar(f.base.eval(z), interpretive_poly_eval(f.base.coeffs, z))
    assert len(shapes) > 100


def test_maps_of_one_shape_share_a_factory_and_keep_their_constants():
    f = product_pole_map(ComplexPoly([0.25, 0, 1]), 1e-3, [(0j, 2), (0.5 - 1j, 1)])
    g = product_pole_map(ComplexPoly([-0.5j, 0, 1]), -2e-2j, [(0j, 2), (1 + 1j, 1)])
    assert _shape(f)[0] == _shape(g)[0]
    ev_f, ev_g = _evaluator(f), _evaluator(g)
    assert ev_f is not ev_g and ev_f.__code__ is ev_g.__code__
    assert ev_f is _evaluator(f)  # bound once
    z = 0.3 + 0.4j
    assert_same_scalar(f.eval(z), interpretive_eval(f, z))
    assert_same_scalar(g.eval(z), interpretive_eval(g, z))
    assert f.eval(z) != g.eval(z)
    # Maps are immutable, so what they derive is kept for good.
    p = ComplexPoly([1, 2, 3])
    assert p.eval(2.0) == 17 and p.derivative().eval(2.0) == 14
    assert p.derivative() is p.derivative()
    terms = f.terms
    with pytest.raises(AttributeError):
        p.coeffs = (1 + 0j, 2 + 0j, 4 + 0j)
    with pytest.raises(AttributeError):
        f.terms = ()
    assert p.coeffs == (1 + 0j, 2 + 0j, 3 + 0j) and f.terms is terms
    assert p.eval(2.0) == 17 and _evaluator(f) is ev_f
    # A pickled map leaves its bound evaluator out and binds again.
    for m in (f, p):
        back = pickle.loads(pickle.dumps(m))
        assert back == m and "_evaluator" not in vars(back)
        assert_same_scalar(back.eval(z), m.eval(z))


def test_factory_cap_drops_the_oldest_shape(monkeypatch):
    monkeypatch.setattr(dynamics, "EVALUATOR_SHAPES", 2)
    monkeypatch.setattr(dynamics, "_factories", {})
    maps = [
        simple_poles_map(Q, [(0.5j, 2, 1e-3 + 0j)]),
        product_pole_map(ComplexPoly([0.25, 0, 1]), -2e-2j, [(0j, 2), (1 + 1j, 1)]),
        ComplexPoly([1, -0.5j, 0, 0, 2]),
    ]
    keys = [_shape(f)[0] for f in maps]
    assert len(set(keys)) == 3
    first = _evaluator(maps[0])
    for f in maps[1:]:
        _evaluator(f)
    assert list(dynamics._factories) == keys[1:]
    # Maps bound before the drop keep their evaluators.
    z = 0.3 + 0.4j
    for f in maps:
        assert_same_scalar(f.eval(z), interpretive_eval(f, z))
    # A new map of the dropped shape compiles it again, dropping the next oldest.
    again = simple_poles_map(ComplexPoly([0.5, 0, 1j, 3]), [(-1 + 0j, 2, 0.25j)])
    assert _shape(again)[0] == keys[0]
    assert_same_scalar(again.eval(z), interpretive_eval(again, z))
    assert list(dynamics._factories) == keys[2:] + keys[:1]
    assert _evaluator(again).__code__ is not first.__code__


def test_compiled_code_holds_no_coefficient():
    # The constants reach the compiled code only as the factory's
    # arguments, which the evaluator's closure holds.
    f = product_pole_map(ComplexPoly([0.125, -3, 0, 1.5]), 7e-3, [(0.75j, 3), (-0.25 + 0j, 1)])
    ev = _evaluator(f)
    key, consts = _shape(f)

    def constants(code):
        for c in code.co_consts:
            if hasattr(c, "co_consts"):
                yield from constants(c)
            else:
                yield c

    assert not [c for c in constants(_factories[key].__code__) if isinstance(c, (int, float, complex))]
    assert {cell.cell_contents for cell in ev.__closure__} == set(consts) == {1.5, -3, 0.125, 7e-3, 0.75j, -0.25}


# ---------------------------------------------------------------------------
# A polynomial is a map with no pole terms


@pytest.mark.parametrize("name", CONCRETE)
def test_polynomial_and_its_termless_map_agree(name):
    p = load_model(FIXTURES / f"{name}.json").polynomial
    f = RationalMapExpr(p, ())
    assert pole_orders(p) == pole_orders(f) == []
    assert reflections(p) == reflections(f)
    assert bits(complex(auto_radius(p))) == bits(complex(auto_radius(f)))
    assert map_degree(p) == map_degree(f) == p.degree
    seeds = _reference_seeds(p)
    arr = np.array(seeds)
    with np.errstate(all="ignore"):
        assert p.eval(arr).tobytes() == f.eval(arr).tobytes()
    for z in seeds:
        assert bits(p.eval(z)) == bits(f.eval(z))
        assert bits(eval_map_derivative(p, z)) == bits(eval_map_derivative(f, z))
    # Finite starts only: a nan sample would compare unequal to itself.
    starts = [c for c, _ in find_roots(p.derivative())] + seeds[:-3]
    for z0 in starts:
        assert iterate_orbit(p, z0) == iterate_orbit(f, z0)


def test_a_non_finite_iterate_is_not_kept_in_samples():
    # 1e300 z^2 has auto radius 1e300.  From 1, the iterate 1e300 stays
    # inside it and the next one overflows: it escapes at step 2 and is not
    # kept.  From 2, the finite 4e300 escapes at step 1 and is kept.
    f = ComplexPoly([0, 0, 1e300])
    assert auto_radius(f) == 1e300
    rec = assert_same_orbit(f, 1 + 0j)
    assert rec.samples == [1, 1e300]
    assert rec.outcome == Escaped(2, None, math.inf)
    rec = assert_same_orbit(f, 2 + 0j)
    assert rec.samples == [2, 4e300]
    assert rec.outcome == Escaped(1, None, math.inf)


# ---------------------------------------------------------------------------
# find_roots against the roots oracle on raw coefficient lists: the same
# roots bit for bit up to the sign of a zero.


def roots_or_failure(solve, poly):
    try:
        return solve(poly)
    except NonConvergence as exc:
        return str(exc)


def assert_same_roots(poly):
    got = roots_or_failure(find_roots, poly)
    want = roots_or_failure(reference_find_roots, poly)
    assert got == want, poly
    return got


@pytest.mark.parametrize("name", CONCRETE)
def test_find_roots_matches_the_raw_coefficient_form_on_fixtures(name):
    mf = load_model(FIXTURES / f"{name}.json")
    assert_same_roots(mf.polynomial.derivative())
    if mf.family is not None:
        lam = mf.build_map().terms[0][0]
        for j in range(61):
            f = mf.build_map(lambda_override=lam * 10.0 ** (-2.0 + 3.0 * j / 60))
            assert_same_roots(expanded_numerator(f))


def test_find_roots_matches_the_raw_coefficient_form_on_random_polynomials():
    rng = random.Random(15)

    def point():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    multiple = 0
    for _ in range(120):
        n = rng.randint(1, 12)
        shape = rng.choice(("random", "multiple", "clustered"))
        if shape == "random":
            poly = ComplexPoly([point() for _ in range(n)] + [point()])
        else:
            roots = []
            while len(roots) < n:
                z = point()
                k = rng.randint(1, min(4, n - len(roots)))
                if shape == "multiple":
                    roots += [z] * k
                else:
                    roots += [z + 10.0 ** rng.uniform(-9, -3) * point() for _ in range(k)]
            poly = ComplexPoly.from_roots(roots, lead=point())
        got = assert_same_roots(poly)
        multiple += isinstance(got, list) and any(m > 1 for _, m in got)
    assert multiple


def test_find_roots_keeps_the_polynomial_it_was_given():
    # Without a zero root nothing deflates, so find_roots works on p itself:
    # a second call binds no evaluator and derives no derivative again.
    p = ComplexPoly.from_roots([1, -2, 3j, 0.5 - 0.5j], lead=2.0)
    first = find_roots(p)
    ev, dp = vars(p)["_evaluator"], p.derivative()
    again = find_roots(p)
    assert vars(p)["_evaluator"] is ev and p.derivative() is dp
    assert [(bits(r), m) for r, m in again] == [(bits(r), m) for r, m in first]
