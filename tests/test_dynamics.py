"""Polynomials, rational perturbations, root finding, and orbit iteration."""

import cmath
import math
import random

import numpy as np
import pytest

from mcmlike.dynamics import (
    ABERTH_MAX_ITER,
    CYCLE_TRANSIENT,
    EPS,
    PERIOD_WINDOW,
    ROOT_CLUSTER_TOL,
    ROOT_RESIDUAL_RTOL,
    ComplexPoly,
    ConvergedToCycle,
    Escaped,
    NonConvergence,
    OrbitRecord,
    PoleHit,
    RationalMapExpr,
    Undecided,
    auto_radius,
    checked_escape_radius,
    eval_map,
    eval_map_derivative,
    eval_unchecked,
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
from mcmlike.verify import critical_census, free_critical_points, free_critical_polynomial, map_degree

from conftest import FIXTURES

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
    assert (a - a).coeffs == (0j,)
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


def test_simple_poles_eval_and_pole_hit():
    f = simple_poles_map(ComplexPoly([0, 0, 1]), [(1 + 0j, 2, 0.5 + 0j)])
    z = 3 + 1j
    want = z * z + 0.5 / (z - 1) ** 2
    assert abs(eval_map(f, z) - want) < 1e-12
    assert pole_orders(f) == [(1 + 0j, 2)]
    with pytest.raises(PoleHit):
        eval_map(f, 1 + 0j)
    assert_array_matches_scalar(f, np.array([z, 0.5 - 2j, -1.5 + 0.25j, 1 + 1e-3j]))


def test_product_pole_eval():
    f = product_pole_map(ComplexPoly([-1, 0, 1]), 1e-3, [(0j, 2), (-1 + 0j, 1)])
    z = 0.5 + 0.25j
    want = z * z - 1 + 1e-3 / (z**2 * (z + 1))
    assert abs(eval_map(f, z) - want) < 1e-12
    assert pole_orders(f) == [(0j, 2), (-1 + 0j, 1)]
    assert_array_matches_scalar(f, np.array([z, 0.5 - 2j, -1.5 + 0.25j, -1 + 1e-3j]))


def bits(z):
    return (z.real.hex(), z.imag.hex())


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
                assert eval_unchecked(f, arr).tobytes() == eval_unchecked(g, arr).tobytes()
                for z in zs:
                    assert bits(eval_unchecked(f, z)) == bits(eval_unchecked(g, z))
                    if bits(eval_map_derivative(f, z)) != bits(eval_map_derivative(g, z)):
                        differ.append((base, a, d, lam, z))
                assert [(bits(z), m) for z, m in free_critical_points(f)] == [
                    (bits(z), m) for z, m in free_critical_points(g)
                ]
    assert differ == []


def assert_array_matches_scalar(f, zs):
    # numpy and CPython round complex * and / differently: equal to rounding.
    got = eval_unchecked(f, zs)
    assert got.shape == zs.shape
    for zk, gk in zip(zs, got):
        want = eval_map(f, complex(zk))
        assert abs(gk - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# eval_unchecked against the dense evaluator, which runs every identity
# operation (1 * z, + 0, z - 0, den = 1 * w) into a fresh value.


def _dense_reference(f, z):
    """eval_unchecked and ComplexPoly.eval as they were before identity
    operations were skipped."""
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


def test_eval_unchecked_matches_dense_reference():
    # Skipped identities change at most the sign of a zero: finite results
    # compare equal and the same entries are non-finite.
    for f in _reference_maps():
        seeds = _reference_seeds(f)
        arr = np.array(seeds)
        before = arr.copy()
        with np.errstate(all="ignore"):
            got, want = eval_unchecked(f, arr), _dense_reference(f, arr)
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
                    eval_unchecked(f, z)
                continue
            got = eval_unchecked(f, z)
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
            fd = (eval_map(f, z + h) - eval_map(f, z - h)) / (2 * h)
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
            assert abs(eval_map(f, z)) > abs(z)


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
        mirrored = eval_unchecked(f, sign * np.conj(z))
        assert np.array_equal(mirrored, sign * np.conj(eval_unchecked(f, z)))


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
    want = min(abs(z) for z in rec.samples[: out.escape_index + 1])
    assert abs(out.pole_distance - want) < 1e-15
    assert abs(abs(out.passage_point) - want) < 1e-15


def test_iterate_orbit_undecided_on_parabolic():
    rec = iterate_orbit(ComplexPoly([0.25, 0, 1]), 0j, max_iter=50)
    assert isinstance(rec.outcome, Undecided)


def test_iterate_orbit_rejects_small_escape_radius():
    with pytest.raises(ValueError):
        iterate_orbit(ComplexPoly([0, 0, 1]), 0.5 + 0j, escape_radius=1.0)


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
    assert eval_map(f, 0j) == 1
    assert newton_cycle(f, 0j, 2, 1e-10) == (None, False, None)


# ---------------------------------------------------------------------------
# iterate_orbit against the backwards revisitation scan


def reference_iterate_orbit(f, z0, max_iter=512, escape_radius=None, cycle_tol=1e-9):
    """iterate_orbit with revisitation found by scanning back up to
    PERIOD_WINDOW iterates at every step: the rule the cell lookup keeps."""
    escape_radius = checked_escape_radius(f, escape_radius)
    poles = [a for a, _ in pole_orders(f)]
    rec = OrbitRecord(start=z0, samples=[z0])

    def approach(z):
        if not poles:
            return None, float("inf")
        return min(((k, abs(z - a)) for k, a in enumerate(poles)), key=lambda kd: kd[1])

    pk, pd = approach(z0)
    passage, passage_pole, passage_dist = z0, pk, pd
    z = z0
    if abs(z) > escape_radius:
        rec.outcome = Escaped(0, z0, z0, pk, pd)
        return rec
    for k in range(1, max_iter + 1):
        try:
            z_new = eval_map(f, z)
        except PoleHit as hit:
            rec.outcome = Escaped(k, z, z, hit.pole_index, abs(z - hit.location))
            return rec
        if not (math.isfinite(z_new.real) and math.isfinite(z_new.imag)):
            rec.outcome = Escaped(k, z, passage, passage_pole, passage_dist)
            return rec
        rec.samples.append(z_new)
        if abs(z_new) > escape_radius:
            if poles:
                rec.outcome = Escaped(k, z, passage, passage_pole, passage_dist)
            else:
                rec.outcome = Escaped(k, z, z, None, float("inf"))
            return rec
        pk, pd = approach(z_new)
        if poles and pd <= passage_dist:
            passage, passage_pole, passage_dist = z_new, pk, pd
        z = z_new
        if k >= CYCLE_TRANSIENT:
            lo = max(CYCLE_TRANSIENT, k - PERIOD_WINDOW)
            for j in range(k - 1, lo - 1, -1):
                if abs(z - rec.samples[j]) < cycle_tol:
                    rec.outcome = ConvergedToCycle(k - j, rec.samples[j], j)
                    return rec
    rec.outcome = Undecided()
    return rec


def assert_same_orbit(f, z0, **kwargs):
    got = iterate_orbit(f, z0, **kwargs)
    assert got == reference_iterate_orbit(f, z0, **kwargs)
    return got


CONCRETE = sorted(p.stem for p in FIXTURES.glob("*.json") if load_model(p).polynomial is not None)


@pytest.mark.parametrize("name", CONCRETE)
def test_iterate_orbit_matches_reference_on_fixture_critical_orbits(name):
    mf = load_model(FIXTURES / f"{name}.json")
    params = mf.verify_params()
    kwargs = dict(max_iter=params.max_iter, cycle_tol=params.cycle_tol)
    maps = [mf.polynomial]
    if mf.family is not None:
        lam = mf.build_map().terms[0][0]
        maps += [mf.build_map(lambda_override=lam * s) for s in (0.1, 1.0, 10.0)]
    outcomes = set()
    for f in maps:
        for c, _ in critical_census(f).free_criticals:
            outcomes.add(type(assert_same_orbit(f, c, **kwargs).outcome).__name__)
    assert outcomes


def test_iterate_orbit_matches_reference_on_random_orbits():
    rng = random.Random(2024)
    maps = [load_model(FIXTURES / f"{name}.json").build_map() for name in CONCRETE]
    outcomes = set()
    for _ in range(150):
        f = rng.choice(maps)
        z0 = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        tol = rng.choice([1e-9, 1e-6, 1e-3])
        out = assert_same_orbit(f, z0, max_iter=rng.choice([30, 400, 1000]), cycle_tol=tol)
        outcomes.add(type(out.outcome).__name__)
    assert outcomes == {"ConvergedToCycle", "Escaped", "Undecided"}


def test_iterate_orbit_cycle_straddling_cell_boundaries():
    # With cycle_tol 1e-9 the cells have side 2e-9.  An attracting fixed
    # point and an attracting 2-cycle point sit on the cell corner p; their
    # multipliers are -1/2, so iterates approach from alternating sides and
    # the revisiting iterate lies in a different cell from the one it
    # revisits.
    tol = 1e-9
    side = 2 * tol
    p = 1000 * side * (1 + 1j)

    def cell(z):
        return math.floor(z.real / side), math.floor(z.imag / side)

    fixed = ComplexPoly([1.5 * p, -0.5])  # z -> p - (z - p) / 2
    # z^2 - 9/8 has a 2-cycle {z1, z2} with multiplier -1/2.  |f'(z2)| < 1,
    # so deviations at z1 = f(z2) are the smaller ones and the revisit is
    # found there: z1 goes onto p.
    z1 = (-1 - math.sqrt(1.5)) / 2
    s = p - z1
    two_cycle = ComplexPoly([s * s - 1.125 + s, -2 * s, 1])  # (z - s)^2 - 9/8 + s
    for f, period, z0 in ((fixed, 1, p + 3e-3 - 5e-3j), (two_cycle, 2, p + 0.01 + 0.002j)):
        rec = assert_same_orbit(f, z0, cycle_tol=tol)
        out = rec.outcome
        assert isinstance(out, ConvergedToCycle) and out.period == period
        assert abs(out.representative - p) < 1e-8
        assert cell(rec.samples[-1]) != cell(out.representative)


@pytest.mark.parametrize("tol", [0.0, 1e-300, float("inf"), float("nan"), -1.0])
def test_iterate_orbit_degenerate_cycle_tolerances(tol):
    cube = ComplexPoly([0, 0, 0, 1])  # 0.5 underflows to exactly 0
    assert_same_orbit(cube, 0.5 + 0j, cycle_tol=tol)
    basilica = ComplexPoly([-1, 0, 1])
    assert_same_orbit(basilica, 0.01 + 0j, cycle_tol=tol)
    f = simple_poles_map(Q, [(0j, 1, 1e-5 + 0j)])
    assert_same_orbit(f, 0.3 + 0.2j, cycle_tol=tol, max_iter=300)
    if tol == 1e-300:
        rec = iterate_orbit(cube, 0.5 + 0j, cycle_tol=tol)
        assert rec.outcome == ConvergedToCycle(1, 0j, CYCLE_TRANSIENT)


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
        assert eval_unchecked(p, arr).tobytes() == eval_unchecked(f, arr).tobytes()
    for z in seeds:
        assert bits(eval_unchecked(p, z)) == bits(eval_unchecked(f, z))
        assert bits(eval_map_derivative(p, z)) == bits(eval_map_derivative(f, z))
    # Finite starts only: a nan sample would compare unequal to itself.
    starts = [c for c, _ in find_roots(p.derivative())] + seeds[:-3]
    for z0 in starts:
        for radius in (None, 1e300):
            assert iterate_orbit(p, z0, escape_radius=radius) == iterate_orbit(
                f, z0, escape_radius=radius
            )


def test_escape_to_overflow_reports_the_last_bounded_iterate():
    # z^2 from 1e100: 1e200 stays inside 1e300 and its square overflows.
    rec = iterate_orbit(ComplexPoly([0, 0, 1]), 1e100 + 0j, escape_radius=1e300)
    out = rec.outcome
    assert isinstance(out, Escaped) and out.escape_index == 2
    assert out.passage_point == out.last_bounded == 1e200
    assert out.nearest_pole_index is None and out.pole_distance == math.inf


# find_roots as it was when it ran its own Horner loops on raw coefficient
# lists; the ComplexPoly form must return the same roots bit for bit up to
# the sign of a zero.


def _reference_coeff_scale(coeffs, r):
    s, rk = 0.0, 1.0
    for c in coeffs:
        s += abs(c) * rk
        rk *= r
    return s


def _reference_newton_polish(coeffs, dcoeffs, z, steps=4):
    for _ in range(steps):
        val = 0j
        for c in reversed(coeffs):
            val = val * z + c
        dval = 0j
        for c in reversed(dcoeffs):
            dval = dval * z + c
        if dval == 0:
            break
        step = val / dval
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
    return z


def _reference_derivative_coeffs(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0)


def reference_find_roots(poly):
    coeffs = list(poly.coeffs)
    n = len(coeffs) - 1
    if n <= 0:
        return []
    zero_mult = 0
    while zero_mult < n and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    results = []
    if zero_mult:
        results.append((0j, zero_mult))
    m = len(coeffs) - 1
    if m == 0:
        return results
    if m == 1:
        roots = [-coeffs[0] / coeffs[1]]
    else:
        rng = random.Random(0xA8E27 + m)
        r0 = abs(coeffs[0] / coeffs[-1]) ** (1.0 / m)
        r0 = max(r0, 1e-12)
        roots = []
        for j in range(m):
            theta = 2.0 * math.pi * (j + 0.3 * rng.random()) / m + 0.4337
            rad = r0 * (1.0 + 0.12 * (rng.random() - 0.5))
            roots.append(rad * complex(math.cos(theta), math.sin(theta)))
        dcoeffs = _reference_derivative_coeffs(coeffs)
        for _ in range(ABERTH_MAX_ITER):
            max_step = 0.0
            for k in range(m):
                z = roots[k]
                val = 0j
                for c in reversed(coeffs):
                    val = val * z + c
                if val == 0:
                    continue
                dval = 0j
                for c in reversed(dcoeffs):
                    dval = dval * z + c
                if dval == 0:
                    roots[k] = z + 1e-8 * (1 + abs(z))
                    max_step = 1.0
                    continue
                ratio = val / dval
                acc = 0j
                for j in range(m):
                    if j != k:
                        dz = z - roots[j]
                        if dz == 0:
                            dz = 1e-14 * (1 + abs(z))
                        acc += 1.0 / dz
                denom = 1.0 - ratio * acc
                w = ratio if denom == 0 else ratio / denom
                if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                    w = 0j
                roots[k] = z - w
                max_step = max(max_step, abs(w) / (1.0 + abs(roots[k])))
            if max_step < 1e-14:
                break
    dcoeffs = _reference_derivative_coeffs(coeffs)
    roots = [_reference_newton_polish(coeffs, dcoeffs, z) for z in roots]
    res_tol = ROOT_RESIDUAL_RTOL * (1.0 + sum(abs(c) for c in poly.coeffs))
    worst = 0.0
    for z in roots:
        val = 0j
        for c in reversed(coeffs):
            val = val * z + c
        worst = max(worst, abs(val))
    if worst > res_tol:
        raise NonConvergence(f"root residual {worst:.3e} exceeds {res_tol:.3e}")
    results.extend(_reference_cluster_roots(roots, coeffs))
    results.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return results


def _reference_cluster_roots(roots, coeffs):
    clusters = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for i, (c, m) in enumerate(clusters):
            if abs(z - c) <= ROOT_CLUSTER_TOL * (1.0 + abs(c)):
                clusters[i] = ((c * m + z) / (m + 1), m + 1)
                break
        else:
            clusters.append((z, 1))
    n = len(coeffs) - 1
    changed = True
    while changed and len(clusters) > 1:
        changed = False
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = abs(clusters[i][0] - clusters[j][0])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        (ci, mi), (cj, mj) = clusters[i], clusters[j]
        m = mi + mj
        if m > n:
            break
        c = (ci * mi + cj * mj) / m
        noise = 4.0 * n * EPS * max(_reference_coeff_scale(coeffs, abs(c)), 1e-300)
        dm = list(coeffs)
        for _ in range(m):
            dm = list(_reference_derivative_coeffs(dm))
        am = 0j
        for cc in reversed(dm):
            am = am * c + cc
        am = abs(am) / math.factorial(m)
        if am <= 0:
            rho = float("inf")
        else:
            rho = 8.0 * (noise / am) ** (1.0 / m)
        if d <= rho and rho <= 1e-2 * (1.0 + abs(c)):
            dm1 = list(coeffs)
            for _ in range(m - 1):
                dm1 = list(_reference_derivative_coeffs(dm1))
            c = _reference_newton_polish(dm1, _reference_derivative_coeffs(dm1), c, steps=40)
            new = [cl for k, cl in enumerate(clusters) if k not in (i, j)]
            new.append((c, m))
            clusters = new
            changed = True
    return clusters


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
            assert_same_roots(free_critical_polynomial(f))


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
