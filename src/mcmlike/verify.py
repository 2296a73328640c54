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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .arith import ConditionReport, PoleData, check_condition
from .dynamics import (
    ComplexPoly,
    Escaped,
    MapLike,
    NonConvergence,
    OrbitRecord,
    SimplePoles,
    Undecided,
    checked_escape_radius,
    find_roots,
    iterate_orbit,
    newton_cycle,
    pole_orders,
)
from .model import HpcfpModel
from .model_io import VerifyParams


class CensusMismatch(Exception):
    """The critical count with multiplicity missed 2*deg - 2."""


@dataclass
class CriticalCensus:
    """Critical points of the rational map, counted with multiplicity.

    free_criticals are the finite zeros of the derivative numerator;
    pole_criticals are the poles themselves (local degree d_k, multiplicity
    d_k - 1); infinity contributes n - 1 for a degree-n base polynomial.
    """

    free_criticals: List[Tuple[complex, int]]
    pole_criticals: List[Tuple[complex, int]]
    infinity_multiplicity: int
    map_degree: int

    @property
    def nu(self) -> int:
        return (
            sum(m for _, m in self.free_criticals)
            + sum(m for _, m in self.pole_criticals)
            + self.infinity_multiplicity
        )


@dataclass
class InBasinOfInfinityDirectly:
    """Escaped without passing near any pole carrying pole data."""


@dataclass
class EscapesViaTrapDoor:
    pole_index: int
    passage_distance: float


@dataclass
class ConvergesToBoundedCycle:
    cycle: int


@dataclass
class CriticalOrbitEntry:
    point: complex
    multiplicity: int
    record: OrbitRecord
    classification: object
    t_c: Optional[int]
    consistent: bool


@dataclass
class CriticalOrbitReport:
    entries: List[CriticalOrbitEntry]
    pole_domains: Tuple[Optional[Tuple[int, int]], ...]
    notes: List[str] = field(default_factory=list)

    @property
    def all_consistent(self) -> bool:
        return all(e.consistent for e in self.entries)


@dataclass
class UntouchedCycleCheck:
    cycle: int
    period: int
    start: complex
    found: Optional[complex]
    multiplier: Optional[float]
    persisted: bool


@dataclass
class VerificationVerdict:
    degree_ok: bool
    census_ok: bool
    critical_orbits_ok: bool
    untouched_cycles_ok: bool
    condition_holds: bool
    condition_report: ConditionReport
    census: Optional[CriticalCensus]
    orbit_report: Optional[CriticalOrbitReport]
    untouched: List[UntouchedCycleCheck]
    details: List[str]
    note: str = ""

    @property
    def checks_passed(self) -> bool:
        return (
            self.degree_ok
            and self.census_ok
            and self.critical_orbits_ok
            and self.untouched_cycles_ok
        )

    @property
    def passed(self) -> bool:
        return self.checks_passed


def map_degree(f: MapLike) -> int:
    """Degree of the map: base degree plus the total pole order.  This is
    the degree of the common-denominator numerator whenever the base
    degree is at least 1."""
    base = f if isinstance(f, ComplexPoly) else f.base
    return base.degree + sum(d for _, d in pole_orders(f))


def free_critical_polynomial(f: MapLike) -> ComplexPoly:
    """Numerator of f' over the common denominator; its roots are the free
    critical points (poles never appear among them)."""
    if isinstance(f, ComplexPoly):
        return f.derivative()
    dp = f.base.derivative()
    if isinstance(f.poles, SimplePoles):
        full = ComplexPoly((1.0,))
        for t in f.poles.terms:
            full = full * ComplexPoly.from_roots([t.location] * (t.order + 1))
        out = dp * full
        for k, t in enumerate(f.poles.terms):
            rest = ComplexPoly((t.order * t.coefficient,))
            for j, u in enumerate(f.poles.terms):
                if j != k:
                    rest = rest * ComplexPoly.from_roots([u.location] * (u.order + 1))
            out = out - rest
        return out
    full = ComplexPoly((1.0,))
    for a, d in f.poles.factors:
        full = full * ComplexPoly.from_roots([a] * (d + 1))
    out = dp * full
    acc = ComplexPoly((0j,))
    for k, (a, d) in enumerate(f.poles.factors):
        rest = ComplexPoly((float(d),))
        for j, (b, _) in enumerate(f.poles.factors):
            if j != k:
                rest = rest * ComplexPoly.from_roots([b])
        acc = acc + rest
    return out - f.poles.coefficient * acc


def critical_census(f: MapLike) -> CriticalCensus:
    """Count all critical points; enforce nu = 2*deg - 2 exactly."""
    deg = map_degree(f)
    n = f.degree if isinstance(f, ComplexPoly) else f.base.degree
    free = find_roots(free_critical_polynomial(f))
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


def _match_poles_to_domains(
    f: MapLike, model: HpcfpModel, match_tol: float
) -> Tuple[Optional[Tuple[int, int]], ...]:
    out = []
    for a, _ in pole_orders(f):
        best = None
        for cyc in model.cycles:
            for j, x in enumerate(cyc.points):
                d = abs(a - x)
                if best is None or d < best[0]:
                    best = (d, cyc.index, j)
        if best is not None and best[0] <= match_tol * (1.0 + abs(a)):
            out.append((best[1], best[2]))
        else:
            out.append(None)
    return tuple(out)


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
    poles = [a for a, _ in pole_orders(f)]
    pole_domains = _match_poles_to_domains(f, model, params.match_tol)
    picked = {key for key, _ in pole_data.entries}
    touched_cycles = {i for (i, _), _ in pole_data.entries}
    radius = checked_escape_radius(f, params.escape_radius)

    entries = []
    notes: List[str] = []
    door_poles = [
        (k, poles[k])
        for k in range(len(poles))
        if pole_domains[k] is not None and pole_domains[k] in picked
    ]

    for c, mult in census.free_criticals:
        rec = iterate_orbit(
            f, c, max_iter=params.max_iter, escape_radius=radius, cycle_tol=params.cycle_tol
        )
        t_c = None
        for k in range(1, len(rec.samples)):
            zk = rec.samples[k]
            if any(abs(zk - a) <= params.pole_ball for _, a in door_poles):
                t_c = k
                break
        out = rec.outcome
        if isinstance(out, Undecided):
            entries.append(CriticalOrbitEntry(c, mult, rec, Undecided(), t_c, False))
            notes.append(f"critical {c}: undecided after {params.max_iter} iterations")
            continue
        if isinstance(out, Escaped):
            pk = out.nearest_pole_index
            dom = pole_domains[pk] if pk is not None else None
            if (
                pk is not None
                and out.pole_distance <= params.pole_ball
                and dom is not None
                and dom in picked
            ):
                entries.append(
                    CriticalOrbitEntry(
                        c, mult, rec, EscapesViaTrapDoor(pk, out.pole_distance), t_c, True
                    )
                )
            else:
                entries.append(
                    CriticalOrbitEntry(c, mult, rec, InBasinOfInfinityDirectly(), t_c, False)
                )
                notes.append(
                    f"critical {c}: escaped without trap-door passage "
                    f"(nearest pole {pk}, distance {out.pole_distance:.3g})"
                )
            continue
        # Converged: match against model cycles.
        rep = out.representative
        best = None
        for cyc in model.cycles:
            for x in cyc.points:
                d = abs(rep - x)
                if best is None or d < best[0]:
                    best = (d, cyc.index)
        if best is not None and best[0] <= params.cycle_match_tol * (1.0 + abs(rep)):
            cid = best[1]
            ok = cid not in touched_cycles
            entries.append(
                CriticalOrbitEntry(c, mult, rec, ConvergesToBoundedCycle(cid), t_c, ok)
            )
            if not ok:
                notes.append(f"critical {c}: converged to touched cycle {cid}")
        else:
            entries.append(
                CriticalOrbitEntry(c, mult, rec, ConvergesToBoundedCycle(-1), t_c, False)
            )
            notes.append(f"critical {c}: converged away from every model cycle")
    return CriticalOrbitReport(entries=entries, pole_domains=pole_domains, notes=notes)


def untouched_cycle_checks(
    f: MapLike, model: HpcfpModel, pole_data: Optional[PoleData], newton_tol: float
) -> List[UntouchedCycleCheck]:
    """Newton-refine every model cycle that carries no pole data under f.

    Each untouched cycle is followed by ``newton_cycle`` from its phase-0
    point; it has persisted when Newton converged to a point within
    0.05 * (1 + |start|) of the start with |multiplier| < 1.  Without pole
    data every cycle is untouched.  One check per untouched cycle, in
    model-cycle order.
    """
    touched = {i for (i, _), _ in pole_data.entries} if pole_data is not None else set()
    checks = []
    for cyc in model.cycles:
        if cyc.index in touched:
            continue
        start = cyc.points[0]
        found, converged, mult = newton_cycle(f, start, cyc.period, newton_tol)
        mult = abs(mult) if converged else None
        persisted = (
            converged and mult < 1.0 and abs(found - start) <= 0.05 * (1.0 + abs(start))
        )
        checks.append(UntouchedCycleCheck(cyc.index, cyc.period, start, found, mult, persisted))
    return checks


def verify_family(
    f: MapLike,
    expected_model: HpcfpModel,
    expected_pole_data: PoleData,
    params: Optional[VerifyParams] = None,
) -> VerificationVerdict:
    """Run all necessary-condition checks for (f, model, pole data)."""
    params = params or VerifyParams()
    if any(not cyc.points for cyc in expected_model.cycles):
        raise ValueError(
            "expected_model needs concrete cycle points; classify the base polynomial first"
        )
    checked_escape_radius(f, params.escape_radius)  # also when no orbit gets iterated
    details: List[str] = []

    condition_report = check_condition(expected_model, expected_pole_data)
    condition_holds = condition_report.overall

    n = expected_model.degree
    d_total = sum(d for _, d in expected_pole_data.entries)
    deg = map_degree(f)
    degree_ok = deg == n + d_total
    if not degree_ok:
        details.append(f"degree: map degree {deg} != n + sum d = {n + d_total}")

    census = None
    orbit_report = None
    try:
        census = critical_census(f)
    except (CensusMismatch, NonConvergence) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        details.append(f"census: {exc}" if isinstance(exc, CensusMismatch) else f"census: {reason}")
        details.append(f"orbits: {reason}")
    else:
        orbit_report = classify_critical_orbits(
            f, expected_model, expected_pole_data, census, params
        )
        details.extend("orbits: " + s for s in orbit_report.notes)

    untouched_checks = untouched_cycle_checks(
        f, expected_model, expected_pole_data, params.newton_tol
    )
    details.extend(
        f"untouched cycle {c.cycle}: persistence failed "
        f"(found {c.found}, multiplier {c.multiplier})"
        for c in untouched_checks
        if not c.persisted
    )
    untouched_cycles_ok = all(c.persisted for c in untouched_checks)

    note = "" if condition_holds else "NotExpectedToPass"
    return VerificationVerdict(
        degree_ok=degree_ok,
        census_ok=census is not None,
        critical_orbits_ok=orbit_report is not None and orbit_report.all_consistent,
        untouched_cycles_ok=untouched_cycles_ok,
        condition_holds=condition_holds,
        condition_report=condition_report,
        census=census,
        orbit_report=orbit_report,
        untouched=untouched_checks,
        details=details,
        note=note,
    )
