"""Numerical verification of perturbed families against a model.

For a rational perturbation of a classified polynomial this module counts
critical points (census), iterates every free critical orbit, and checks the
operational consequences of the construction: escaping orbits must pass
through a trap door (operationally: close to a pole whose Fatou domain
carries pole data), bounded orbits must converge to an untouched cycle, and
untouched cycles must persist as attracting cycles of the perturbed map.
The verdict is a necessary-conditions check; it cannot prove the structure
exists, only falsify it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

from .arith import ConditionReport, PoleData, check_condition
from .dynamics import (
    EPS,
    ROOT_CLUSTER_TOL,
    ComplexPoly,
    Escaped,
    MapLike,
    NonConvergence,
    OrbitRecord,
    RationalMapExpr,
    Undecided,
    checked_escape_radius,
    iterate_orbit,
    newton_cycle,
    pole_orders,
)
from .model import HpcfpModel
from .model_io import VerifyParams
from .record import Record


class CensusMismatch(Exception):
    """The critical count with multiplicity missed 2*deg - 2."""


class CriticalCensus(Record):
    """Critical points of the rational map, counted with multiplicity.

    free_criticals are the finite zeros of the derivative numerator;
    pole_criticals are the poles themselves (local degree d_k, multiplicity
    d_k - 1); infinity contributes n - 1 for a degree-n base polynomial.
    """

    __slots__ = ("free_criticals", "pole_criticals", "infinity_multiplicity", "map_degree")

    def __init__(self, free_criticals: List[Tuple[complex, int]], pole_criticals: List[Tuple[complex, int]],
                 infinity_multiplicity: int, map_degree: int):
        self.free_criticals, self.pole_criticals = free_criticals, pole_criticals
        self.infinity_multiplicity, self.map_degree = infinity_multiplicity, map_degree

    @property
    def nu(self) -> int:
        return (
            sum(m for _, m in self.free_criticals)
            + sum(m for _, m in self.pole_criticals)
            + self.infinity_multiplicity
        )


class InBasinOfInfinityDirectly(Record):
    """Escaped without passing near any pole carrying pole data."""

    __slots__ = ()


class EscapesViaTrapDoor(Record):
    __slots__ = ("pole_index", "passage_distance")

    def __init__(self, pole_index: int, passage_distance: float):
        self.pole_index, self.passage_distance = pole_index, passage_distance


class ConvergesToBoundedCycle(Record):
    __slots__ = ("cycle",)

    def __init__(self, cycle: int):
        self.cycle = cycle


class CriticalOrbitEntry(Record):
    """One free critical orbit and its verdict; ``note`` says why an
    inconsistent orbit is inconsistent and is None for a consistent one."""

    __slots__ = ("point", "multiplicity", "record", "classification", "note")

    def __init__(self, point: complex, multiplicity: int, record: OrbitRecord, classification: object,
                 note: Optional[str]):
        self.point, self.multiplicity, self.record = point, multiplicity, record
        self.classification, self.note = classification, note

    @property
    def consistent(self) -> bool:
        return self.note is None


class CriticalOrbitReport(Record):
    __slots__ = ("entries", "pole_domains")

    def __init__(self, entries: List[CriticalOrbitEntry],
                 pole_domains: Tuple[Optional[Tuple[int, int]], ...]):
        self.entries, self.pole_domains = entries, pole_domains

    @property
    def all_consistent(self) -> bool:
        return all(e.consistent for e in self.entries)


class UntouchedCycleCheck(Record):
    __slots__ = ("cycle", "period", "found", "multiplier", "persisted")

    def __init__(self, cycle: int, period: int, found: Optional[complex], multiplier: Optional[float],
                 persisted: bool):
        self.cycle, self.period, self.found = cycle, period, found
        self.multiplier, self.persisted = multiplier, persisted


class VerificationVerdict(Record):
    __slots__ = ("degree_ok", "condition_report", "census", "orbit_report", "untouched", "details")

    def __init__(self, degree_ok: bool, condition_report: ConditionReport, census: Optional[CriticalCensus],
                 orbit_report: Optional[CriticalOrbitReport], untouched: List[UntouchedCycleCheck],
                 details: List[str]):
        self.degree_ok, self.condition_report, self.census = degree_ok, condition_report, census
        self.orbit_report, self.untouched, self.details = orbit_report, untouched, details

    @property
    def condition_holds(self) -> bool:
        return self.condition_report.overall

    @property
    def note(self) -> str:
        return "" if self.condition_holds else "NotExpectedToPass"

    @property
    def census_ok(self) -> bool:
        return self.census is not None

    @property
    def critical_orbits_ok(self) -> bool:
        return self.orbit_report is not None and self.orbit_report.all_consistent

    @property
    def untouched_cycles_ok(self) -> bool:
        return all(c.persisted for c in self.untouched)

    @property
    def passed(self) -> bool:
        return self.degree_ok and self.census_ok and self.critical_orbits_ok and self.untouched_cycles_ok


def map_degree(f: MapLike) -> int:
    """Degree of the map: base degree plus the total pole order.  This is
    the degree of the common-denominator numerator whenever the base
    degree is at least 1."""
    return f.base.degree + sum(d for _, d in pole_orders(f))


def _local_coefficient(f: RationalMapExpr, k: int, z: complex) -> complex:
    """mu_k(z) with f = P + mu_k(z) / (z - a_k)^d_k + (terms regular at a_k):
    the coefficient of pole k's term over the term's other factors.  The
    pole part of f' is -sum_k d_k mu_k(z) / (z - a_k)^(d_k + 1)."""
    c, others = [(c, fs[:i] + fs[i + 1:]) for c, fs in f.terms for i in range(len(fs))][k]
    den = 1
    for a, d in others:
        den *= (z - a) ** d
    return c / den


def _root_circle(center: complex, target: complex, count: int) -> List[complex]:
    """The count solutions of (z - center)^count = target."""
    rho = abs(target) ** (1.0 / count)
    theta = math.atan2(target.imag, target.real)
    out = []
    for j in range(count):
        phi = (theta + 2.0 * math.pi * j) / count
        out.append(center + rho * complex(math.cos(phi), math.sin(phi)))
    return out


def _taylor_coefficient(p: ComplexPoly, z: complex, j: int) -> complex:
    """Coefficient of w^j in p(z + w)."""
    for _ in range(j):
        p = p.derivative()
    return p.eval(z) / math.factorial(j)


def _census_seeds(f: RationalMapExpr, critical_points: List[Tuple[complex, int]]) -> Optional[List[complex]]:
    """Predicted free critical points from the local structure of f.

    Near a pole a of order d where P' vanishes to order m - 1, f' = 0 reads
    C (z - a)^(m-1) = d mu(a) / (z - a)^(d+1): m + d points on a circle
    around a.  A critical point b of P of multiplicity mu that is not a
    pole moves to C (z - b)^mu = -(pole part of f')(b).  critical_points
    are the roots of P' with multiplicities, as find_roots(P') gives them;
    one within ROOT_CLUSTER_TOL of a pole counts towards that pole's m.
    None when a local coefficient vanishes.
    """
    dp = f.base.derivative()
    poles = pole_orders(f)
    m = [1] * len(poles)
    seeds = []
    for b, mu in critical_points:
        near = [k for k, (a, _) in enumerate(poles) if abs(b - a) <= ROOT_CLUSTER_TOL * (1.0 + abs(a))]
        if near:
            m[near[0]] += mu
            continue
        c = _taylor_coefficient(dp, b, mu)
        if c == 0:
            return None
        slope = -sum(
            d * _local_coefficient(f, k, b) / (b - a) ** (d + 1) for k, (a, d) in enumerate(poles)
        )
        seeds += _root_circle(b, -slope / c, mu)
    for k, (a, d) in enumerate(poles):
        c = _taylor_coefficient(dp, a, m[k] - 1)
        if c == 0:
            return None
        seeds += _root_circle(a, d * _local_coefficient(f, k, a) / c, m[k] + d)
    return seeds


def _power_product(ws, exps) -> Tuple[complex, complex]:
    """(prod w^e, its derivative in z) for factors w = z - a, by the product
    rule.  On magnitudes |w| it gives the sums of the magnitudes of the
    same terms."""
    v, dv = 1.0, 0.0
    for w, e in zip(ws, exps):
        p = 1.0
        for _ in range(e - 1):
            p = p * w
        v, dv = v * p * w, dv * p * w + v * e * p
    return v, dv


def _numerator_evaluator(f: RationalMapExpr):
    """z -> (F, F', |F|~, |F'|~) for the numerator of f' over
    prod_j (z - a_j)^(d_j + 1), evaluated in factored form:

        F = P' prod_j (z - a_j)^(d_j + 1) - sum_k d_k c_k prod_{j != k} (z - a_j)^e_kj

    for the poles k in pole_orders order, c_k the coefficient of k's term,
    and e_kj 1 for a pole j in k's own term and d_j + 1 otherwise.  |F|~ and
    |F'|~ evaluate the same terms on magnitudes; they scale the rounding
    error of F and F'.
    """
    poles = pole_orders(f)
    full = [d + 1 for _, d in poles]
    signed, exps, first = [], [], 0
    for c, factors in f.terms:
        own = range(first, first + len(factors))
        for k in own:
            signed.append(-poles[k][1] * c)
            exps.append(tuple(1 if j in own else e for j, e in enumerate(full) if j != k))
        first = own.stop
    magnitudes = [abs(c) for c in signed]
    dp = f.base.derivative()
    ddp = dp.derivative()
    dp_mag = ComplexPoly(tuple(abs(c) for c in dp.coeffs))
    ddp_mag = ComplexPoly(tuple(abs(c) for c in ddp.coeffs))

    def combine(ws, p1, p2, cs):
        w, dw = _power_product(ws, full)
        val, der = p1 * w, p2 * w + p1 * dw
        for k, (c, e) in enumerate(zip(cs, exps)):
            r, dr = _power_product(ws[:k] + ws[k + 1:], e)
            val += c * r
            der += c * dr
        return val, der

    def evaluate(z):
        ws = [z - a for a, _ in poles]
        val, der = combine(ws, dp.eval(z), ddp.eval(z), signed)
        zm = abs(z)
        mag, dmag = combine(
            [abs(w) for w in ws], dp_mag.eval(zm).real, ddp_mag.eval(zm).real, magnitudes
        )
        return val, der, mag, dmag

    return evaluate


# Sweeps of the simultaneous Newton iteration (at most 31 from the ring on the fixture sweeps).
CENSUS_SWEEPS = 60


def _census_ring(f: RationalMapExpr, n: int) -> List[complex]:
    """n starting points on the circle |z| = R at a fixed phase, R the larger
    of 1 + max |a_k| over the poles and the Cauchy bound of P', so that the
    circle encloses every pole and every critical point of P."""
    dp = f.base.derivative()
    bounds = [1.0 + abs(a) for a, _ in pole_orders(f)]
    bounds += [1.0 + abs(c / dp.coeffs[-1]) for c in dp.coeffs[:-1]]
    return [max(bounds) * z for z in _root_circle(0j, complex(math.cos(2.0), math.sin(2.0)), n)]


def _certified_roots(
    f: RationalMapExpr, starts: Optional[List[complex]], n: int
) -> Optional[List[Tuple[complex, float]]]:
    """All n roots of the free critical numerator F, each with the radius
    of its inclusion disc, certified simple; None when that fails.

    From the n starting points, Newton on F in factored form with Aberth's
    correction (the step F/F' divided by 1 - (F/F') sum_j 1/(z - z_j), so
    that two approximations cannot settle on one root) moves each
    approximation until |F| is within its rounding bound
    g = 8 (n + 2) eps |F|~, or the step is below the spacing of floats at z.
    The disc around z of radius n (|F(z)| + g) / (|F'(z)| - g') holds a root
    of F (some |z - root| <= n |F / F'| for a degree-n polynomial); n
    pairwise disjoint discs hold all n roots, one each.
    """
    if starts is None or len(starts) != n:
        return None
    roots = list(starts)
    evaluate = _numerator_evaluator(f)
    gamma = 8.0 * (n + 2) * EPS
    values = [None] * n
    for _ in range(CENSUS_SWEEPS):
        moving = False
        for i, z in enumerate(roots):
            if values[i] is not None:
                continue
            val, der, mag, dmag = evaluate(z)
            if der == 0 or abs(val) <= max(gamma * mag, 2.0 * EPS * abs(z * der)):
                values[i] = (val, der, mag, dmag)
                continue
            others = roots[:i] + roots[i + 1:]
            if z in others:
                return None
            ratio = val / der
            den = 1.0 - ratio * sum(1.0 / (z - w) for w in others)
            z = z - (ratio / den if den != 0 else ratio)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                return None
            roots[i] = z
            moving = True
        if not moving:
            break
    radii = []
    for z, v in zip(roots, values):
        val, der, mag, dmag = v if v is not None else evaluate(z)
        slope = abs(der) - gamma * dmag
        if not slope > 0:
            return None
        radii.append(n * (abs(val) + gamma * mag) / slope)
    for i in range(n):
        for j in range(i + 1, n):
            if not abs(roots[i] - roots[j]) > radii[i] + radii[j]:
                return None
    return list(zip(roots, radii))


def free_critical_points(f: MapLike, critical_points: List[Tuple[complex, int]]) -> List[Tuple[complex, int]]:
    """The free critical points with multiplicities, sorted by (re, im).

    critical_points are those of the base polynomial P, as find_roots(P')
    gives them.  Without pole terms they are the answer.  With them, the
    roots of the unexpanded numerator of f', certified simple by
    ``_certified_roots`` from the seeds and, only when that fails, from
    ``_census_ring``.  When both fail (a multiple free critical point
    always does) NonConvergence.
    """
    if not f.terms:
        return list(critical_points)
    n = f.base.degree - 1 + sum(d + 1 for _, d in pole_orders(f))
    roots = (_certified_roots(f, _census_seeds(f, critical_points), n)
             or _certified_roots(f, _census_ring(f, n), n))
    if roots is None:
        raise NonConvergence("free critical points not certified from the seeds nor from a ring")
    return sorted(((z, 1) for z, _ in roots), key=lambda zm: (zm[0].real, zm[0].imag))


def critical_census(f: MapLike, critical_points: List[Tuple[complex, int]]) -> CriticalCensus:
    """Count all critical points, from those of the base polynomial as
    find_roots(P') gives them; enforce nu = 2*deg - 2 exactly."""
    deg = map_degree(f)
    n = f.base.degree
    free = free_critical_points(f, critical_points)
    pole_side = [(a, d - 1) for a, d in pole_orders(f)]
    census = CriticalCensus(
        free_criticals=free,
        pole_criticals=pole_side,
        infinity_multiplicity=n - 1,
        map_degree=deg,
    )
    if census.nu != 2 * deg - 2:
        raise CensusMismatch(
            f"nu = {census.nu} but 2*deg - 2 = {2 * deg - 2} (deg {deg})"
        )
    return census


def _nearest_cycle_point(model: HpcfpModel, z: complex) -> Optional[Tuple[float, int, int]]:
    """(distance, cycle index, phase) of the model cycle point nearest z,
    the first in cycle and phase order on ties; None without cycle points."""
    best = None
    for cyc in model.cycles:
        for j, x in enumerate(cyc.points):
            d = abs(z - x)
            if best is None or d < best[0]:
                best = (d, cyc.index, j)
    return best


# A pole within this relative distance of a model cycle point sits in that
# point's Fatou domain.
POLE_MATCH_TOL = 1e-4
# A converged critical orbit within this relative distance of a model cycle
# point converges to that cycle.
CYCLE_MATCH_TOL = 1e-2
# Step tolerance of the Newton iteration that follows each untouched cycle.
NEWTON_TOL = 1e-10


def _match_poles_to_domains(f: MapLike, model: HpcfpModel) -> Tuple[Optional[Tuple[int, int]], ...]:
    out = []
    for a, _ in pole_orders(f):
        best = _nearest_cycle_point(model, a)
        if best is not None and best[0] <= POLE_MATCH_TOL * (1.0 + abs(a)):
            out.append(best[1:])
        else:
            out.append(None)
    return tuple(out)


def _orbit_verdict(
    c: complex, out, model: HpcfpModel, doors: Set[int], touched: Set[int], params: VerifyParams
) -> Tuple[object, Optional[str]]:
    """(classification, note) of the orbit outcome ``out`` of free critical
    point c; the note is None for a consistent orbit.  doors holds the
    indices of the poles in pole-data domains, touched the indices of the
    cycles that carry pole data.
    """
    if isinstance(out, Undecided):
        return out, f"critical {c}: undecided after {params.max_iter} iterations"
    if isinstance(out, Escaped):
        pk = out.nearest_pole_index
        if pk in doors and out.pole_distance <= params.pole_ball:
            return EscapesViaTrapDoor(pk, out.pole_distance), None
        return InBasinOfInfinityDirectly(), (
            f"critical {c}: escaped without trap-door passage "
            f"(nearest pole {pk}, distance {out.pole_distance:.3g})"
        )
    # Converged: match against model cycles.
    rep = out.representative
    best = _nearest_cycle_point(model, rep)
    if best is not None and best[0] <= CYCLE_MATCH_TOL * (1.0 + abs(rep)):
        cid = best[1]
        if cid in touched:
            return ConvergesToBoundedCycle(cid), f"critical {c}: converged to touched cycle {cid}"
        return ConvergesToBoundedCycle(cid), None
    return ConvergesToBoundedCycle(-1), f"critical {c}: converged away from every model cycle"


def classify_critical_orbits(
    f: MapLike,
    model: HpcfpModel,
    pole_data: PoleData,
    census: CriticalCensus,
    params: Optional[VerifyParams] = None,
) -> CriticalOrbitReport:
    """Iterate every free critical orbit of ``census`` and classify it.

    Escaped orbits whose closest pole approach lies within pole_ball of a
    pole sitting in a pole-data domain classify as EscapesViaTrapDoor;
    other escapes are InBasinOfInfinityDirectly (inconsistent for these
    families).  Bounded orbits must converge near an untouched model cycle.
    """
    params = params or VerifyParams()
    pole_domains = _match_poles_to_domains(f, model)
    picked = {key for key, _ in pole_data.entries}
    doors = {k for k, dom in enumerate(pole_domains) if dom in picked}
    touched_cycles = {i for (i, _), _ in pole_data.entries}

    entries = []
    for c, mult in census.free_criticals:
        rec = iterate_orbit(f, c, max_iter=params.max_iter)
        verdict = _orbit_verdict(c, rec.outcome, model, doors, touched_cycles, params)
        entries.append(CriticalOrbitEntry(c, mult, rec, *verdict))
    return CriticalOrbitReport(entries=entries, pole_domains=pole_domains)


def untouched_cycle_checks(
    f: MapLike, model: HpcfpModel, pole_data: Optional[PoleData]
) -> List[UntouchedCycleCheck]:
    """Newton-refine every model cycle that carries no pole data under f.

    Each untouched cycle is followed by ``newton_cycle`` (step tolerance
    NEWTON_TOL) from its phase-0 point; it has persisted when Newton
    converged to a point within 0.05 * (1 + |start|) of the start with
    |multiplier| < 1.  Without pole data every cycle is untouched.  One
    check per untouched cycle, in model-cycle order.
    """
    touched = {i for (i, _), _ in pole_data.entries} if pole_data is not None else set()
    checks = []
    for cyc in model.cycles:
        if cyc.index in touched:
            continue
        start = cyc.points[0]
        found, converged, mult = newton_cycle(f, start, cyc.period, NEWTON_TOL)
        mult = abs(mult) if converged else None
        persisted = (
            converged and mult < 1.0 and abs(found - start) <= 0.05 * (1.0 + abs(start))
        )
        checks.append(UntouchedCycleCheck(cyc.index, cyc.period, found, mult, persisted))
    return checks


def verify_family(
    f: MapLike,
    expected_model: HpcfpModel,
    expected_pole_data: PoleData,
    params: Optional[VerifyParams] = None,
) -> VerificationVerdict:
    """Run all necessary-condition checks for (f, model, pole data).  The
    critical points of expected_model, f's classified base, seed the census."""
    params = params or VerifyParams()
    if any(not cyc.points for cyc in expected_model.cycles):
        raise ValueError(
            "expected_model needs concrete cycle points; classify the base polynomial first"
        )
    checked_escape_radius(f, None)  # also when no orbit gets iterated
    details: List[str] = []

    condition_report = check_condition(expected_model, expected_pole_data)

    n = expected_model.degree
    d_total = expected_pole_data.total_order()
    deg = map_degree(f)
    degree_ok = deg == n + d_total
    if not degree_ok:
        details.append(f"degree: map degree {deg} != n + sum d = {n + d_total}")

    census = orbit_report = None
    try:
        census = critical_census(f, [(a.point, a.multiplicity) for a in expected_model.criticals])
    except (CensusMismatch, NonConvergence) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        details.append(f"census: {exc}" if isinstance(exc, CensusMismatch) else f"census: {reason}")
        details.append(f"orbits: {reason}")
    else:
        orbit_report = classify_critical_orbits(
            f, expected_model, expected_pole_data, census, params
        )
        details.extend("orbits: " + e.note for e in orbit_report.entries if e.note is not None)

    untouched_checks = untouched_cycle_checks(f, expected_model, expected_pole_data)
    details.extend(
        f"untouched cycle {c.cycle}: persistence failed "
        f"(found {c.found}, multiplier {c.multiplier})"
        for c in untouched_checks
        if not c.persisted
    )

    return VerificationVerdict(degree_ok, condition_report, census, orbit_report, untouched_checks, details)
