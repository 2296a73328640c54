"""Hyperbolic postcritically finite polynomial models.

``classify_polynomial`` finds the super-attracting cycles of a polynomial by
following its critical orbits, assigns each critical point to a cycle (with
a preperiod), and records the local degrees n_{i,j} of the periodic Fatou
domains.  ``normalize_type`` reduces a polynomial-plus-pole-data pair to a
canonical representative (monic, centered, residual rotations resolved), so
two pairs are affinely equivalent iff their normal forms compare equal.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import List, Optional, Sequence, Tuple

from .arith import PoleData
from .dynamics import (
    ComplexPoly,
    Escaped,
    Undecided,
    cycle_derivative,
    find_roots,
    iterate_orbit,
    newton_cycle,
    orbit_points,
)
from .record import FrozenRecord, Record


class NotHpcfp(Exception):
    """A critical orbit neither escaped nor converged to an attracting cycle."""


class MultiplierNotZero(Exception):
    """A detected bounded cycle is attracting but not super-attracting."""


class ModelWarning(UserWarning):
    """Non-fatal model irregularity (e.g. a strictly preperiodic critical)."""


# |multiplier| below this counts as super-attracting.
SUPERATTRACTING_TOL = 1e-6

# An iterate within this relative distance of a cycle point lands on it, in
# classify_polynomial.
MATCH_TOL = 1e-6

# Normal-form coefficients closer than this are equal in types_equal.
TYPE_COEFF_TOL = 1e-8


class CycleSpec(Record):
    """One super-attracting cycle; points are ordered along the orbit."""

    __slots__ = ("index", "degrees", "points", "multiplier")

    def __init__(self, index: int, degrees: Tuple[int, ...], points: Optional[Tuple[complex, ...]] = None,
                 multiplier: float = 0.0):
        self.index, self.degrees = index, degrees  # index is 1-based
        self.points, self.multiplier = points, multiplier

    @property
    def period(self) -> int:
        return len(self.degrees)


class CriticalAssignment(Record):
    __slots__ = ("point", "multiplicity", "cycle", "phase", "preperiod")

    def __init__(self, point: complex, multiplicity: int, cycle: Optional[int], phase: Optional[int],
                 preperiod: Optional[int]):
        self.point, self.multiplicity = point, multiplicity
        self.cycle, self.phase, self.preperiod = cycle, phase, preperiod  # all None when the orbit escapes


class HpcfpModel(Record):
    __slots__ = ("degree", "cycles", "criticals", "notes")

    def __init__(self, degree: int, cycles: Tuple[CycleSpec, ...],
                 criticals: Tuple[CriticalAssignment, ...] = (), notes: Tuple[str, ...] = ()):
        self.degree, self.cycles, self.criticals, self.notes = degree, cycles, criticals, notes

    @property
    def is_hpcfp(self) -> bool:
        if not self.cycles:
            return False
        return all(c.cycle is not None for c in self.criticals)


def from_abstract(degree: int, cycles: Sequence[Tuple[int, Sequence[int]]]) -> HpcfpModel:
    """Build a model from combinatorial data alone (no polynomial).

    Each cycle is (period, degrees); degrees must be >= 1 with at least one
    >= 2 per cycle, and the total critical count must fit Riemann-Hurwitz.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    specs = []
    used = 0
    for pos, (period, degrees) in enumerate(cycles, start=1):
        degrees = tuple(int(d) for d in degrees)
        if period < 1 or len(degrees) != period:
            raise ValueError(f"cycle {pos}: need exactly {period} degrees")
        if any(d < 1 for d in degrees):
            raise ValueError(f"cycle {pos}: degrees must be >= 1")
        if max(degrees) < 2:
            raise ValueError(f"cycle {pos}: a super-attracting cycle needs some degree >= 2")
        used += sum(d - 1 for d in degrees)
        specs.append(CycleSpec(pos, degrees))
    if used > degree - 1:
        raise ValueError(f"cycle degrees need {used} critical points but the polynomial has {degree - 1}")
    return HpcfpModel(degree=degree, cycles=tuple(specs))


def _reduce_period(p: ComplexPoly, z: complex, period: int) -> int:
    for q in range(1, period):
        if period % q == 0 and abs(orbit_points(p, z, q + 1)[q] - z) <= 1e-8 * (1.0 + abs(z)):
            return q
    return period


def _canonical_labels(cycles) -> Tuple[List[int], List[int]]:
    """The canonical (cycle, phase) labelling, by which pole data is keyed.

    ``cycles`` holds (period, points, degrees) per cycle in orbit order.
    Phase 0 is the phase of maximal degree, ties going to the
    lexicographically least point; cycles are ordered by (period, phase-0
    point).  Returns each cycle's rotation r (its old phase r becomes phase
    0) and the old cycle indices in canonical order.
    """
    rotations = [
        min(range(period), key=lambda j: (-degrees[j], points[j].real, points[j].imag))
        for period, points, degrees in cycles
    ]
    order = sorted(
        range(len(cycles)),
        key=lambda k: (cycles[k][0], cycles[k][1][rotations[k]].real, cycles[k][1][rotations[k]].imag),
    )
    return rotations, order


def classify_polynomial(p: ComplexPoly, max_iter: int = 2000) -> HpcfpModel:
    """Classify a polynomial through its critical orbits.

    Every critical point is iterated until it escapes or revisits (within
    dynamics.CYCLE_TOL) a previous iterate; bounded cycles are
    Newton-refined and must be super-attracting.  Degrees n_{i,j} count 1
    plus the multiplicities of the critical points sitting on the cycle
    point itself (preperiod 0).

    Raises NotHpcfp when an orbit stays undecided, MultiplierNotZero when a
    bounded cycle is merely attracting.  Critical points that reach a cycle
    only after a positive preperiod trigger a ModelWarning: postcritical
    finiteness is certified numerically, so a landing orbit and a converging
    one cannot be told apart at finite precision.
    """
    n = p.degree
    if n < 2:
        raise ValueError("degree must be >= 2")
    crits = find_roots(p.derivative())

    multipliers: List[float] = []
    pool_points: List[List[complex]] = []
    # One (critical, multiplicity, pool index, phase, preperiod) per critical
    # point, phases in raw orbit order; the last three are None on escape.
    fates = []
    notes: List[str] = []

    for c, mult in crits:
        orbit = iterate_orbit(p, c, max_iter=max_iter)
        out = orbit.outcome
        if isinstance(out, Undecided):
            raise NotHpcfp(f"critical orbit from {c} undecided after {max_iter} iterations")
        if isinstance(out, Escaped):
            fates.append((c, mult, None, None, None))
            continue
        # Newton is well conditioned near super-attracting cycles.
        z = newton_cycle(p, out.representative, out.period, 1e-13)[0]
        period = _reduce_period(p, z, out.period)
        if period != out.period:
            z = newton_cycle(p, z, period, 1e-13)[0]
        pts = orbit_points(p, z, period)
        lam = cycle_derivative(p, z, period)[1]
        if abs(lam) >= SUPERATTRACTING_TOL:
            raise MultiplierNotZero(
                f"cycle through {z} has multiplier modulus {abs(lam):.3e}"
            )
        cid = next(
            (k for k, known in enumerate(pool_points) if len(known) == period
             and min(abs(pts[0] - y) for y in known) <= MATCH_TOL * (1.0 + abs(pts[0]))),
            None,
        )
        if cid is None:
            multipliers.append(abs(lam))
            pool_points.append(pts)
            cid = len(pool_points) - 1
        # Phases are read on the cycle's points as first found, so that every
        # critical point on one cycle is phased alike.
        pts = pool_points[cid]
        landing = next(
            ((k, j) for k, zk in enumerate(orbit.samples) for j in range(period)
             if abs(zk - pts[j]) <= MATCH_TOL * (1.0 + abs(pts[j]))),
            None,
        )
        if landing is None:
            # Converged without any sample landing on the cycle within
            # MATCH_TOL; treat as preperiodic at the convergence index.
            landing = (out.convergence_index,
                       min(range(period), key=lambda j: abs(orbit.samples[-1] - pts[j])))
            notes.append(f"critical {c} converged to cycle without landing inside match_tol")
        pre, phase = landing
        if pre > 0:
            notes.append(f"critical {c} is strictly preperiodic (preperiod {pre})")
        fates.append((c, mult, cid, phase, pre))

    if not pool_points:
        raise NotHpcfp("every critical orbit escapes; no bounded cycle (N=0)")
    for note in notes:
        warnings.warn(note, ModelWarning)

    degrees = [[1] * len(pts) for pts in pool_points]
    for c, mult, cid, phase, pre in fates:
        if pre == 0:
            degrees[cid][phase] += mult
    rotations, order = _canonical_labels(
        [(len(pts), pts, deg) for pts, deg in zip(pool_points, degrees)]
    )
    specs = []
    for new, old in enumerate(order, start=1):
        r, pts, deg = rotations[old], pool_points[old], degrees[old]
        specs.append(
            CycleSpec(new, tuple(deg[r:] + deg[:r]), tuple(pts[r:] + pts[:r]), multipliers[old])
        )
    remap = {old: new for new, old in enumerate(order, start=1)}
    assignments = [
        CriticalAssignment(c, mult, None, None, None) if cid is None else
        CriticalAssignment(c, mult, remap[cid], (phase - rotations[cid]) % len(pool_points[cid]), pre)
        for c, mult, cid, phase, pre in fates
    ]
    return HpcfpModel(degree=n, cycles=tuple(specs), criticals=tuple(assignments), notes=tuple(notes))


def riemann_hurwitz_check(model: HpcfpModel) -> bool:
    """n - 1 must equal the total critical multiplicity inside periodic domains."""
    return model.degree - 1 == sum(
        sum(d - 1 for d in cyc.degrees) for cyc in model.cycles
    )


# ---------------------------------------------------------------------------
# Normal forms


class NormalizedType(FrozenRecord):
    """Canonical representative of a polynomial-plus-pole-data type."""

    __slots__ = ("coeffs", "cycles", "pole_entries")

    def __init__(self, coeffs: Tuple[complex, ...], cycles: Tuple[Tuple[int, Tuple[int, ...]], ...],
                 pole_entries: Tuple[Tuple[int, int, int], ...]):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "cycles", cycles)  # (period, degrees)
        object.__setattr__(self, "pole_entries", pole_entries)  # (cycle, phase, d)


def _fuzzy_cmp(u: Sequence[float], v: Sequence[float], tol: float = 1e-9) -> int:
    for x, y in zip(u, v):
        if abs(x - y) <= tol * (1.0 + max(abs(x), abs(y))):
            continue
        return -1 if x < y else 1
    return 0


def _candidate_structure(model: HpcfpModel, a: complex, b: complex, pole_data: Optional[PoleData]):
    txp = [tuple((x - b) / a for x in cyc.points) for cyc in model.cycles]
    rot, order = _canonical_labels(
        [(cyc.period, pts, cyc.degrees) for cyc, pts in zip(model.cycles, txp)]
    )
    cycles_out = []
    for old in order:
        cyc, r = model.cycles[old], rot[old]
        cycles_out.append((cyc.period, tuple(cyc.degrees[r:] + cyc.degrees[:r])))
    entries_out = []
    if pole_data is not None:
        new_of_old = {old: new for new, old in enumerate(order)}
        for (i, j), d in pole_data.entries:
            old = i - 1
            p = model.cycles[old].period
            entries_out.append((new_of_old[old] + 1, (j - rot[old]) % p, d))
    return tuple(cycles_out), tuple(sorted(entries_out))


def normalize_type(
    p: ComplexPoly,
    pole_data: Optional[PoleData] = None,
    model: Optional[HpcfpModel] = None,
) -> NormalizedType:
    """Canonical form of (polynomial, pole data) under affine conjugacy.

    Conjugates to a monic centered representative; the residual symmetry
    z -> w z with w**(n-1) = 1 is resolved by the lexicographically least
    coefficient vector, with exact combinatorial data (cycle labels and
    transported pole entries) breaking coefficient ties, so symmetric
    polynomials still normalize deterministically.
    """
    if model is None:
        model = classify_polynomial(p)
    if not model.cycles:
        raise NotHpcfp("no bounded super-attracting cycle; nothing to normalize")
    if pole_data is not None:
        pole_data.validate(model)
    n = p.degree
    cn = p.coeffs[-1]
    cn1 = p.coeffs[-2]
    b = -cn1 / (n * cn)
    a0 = (1.0 / cn) ** (1.0 / (n - 1))

    best = None
    for k in range(n - 1):
        a = a0 * cmath.exp(2j * math.pi * k / (n - 1)) if k else a0
        inner = ComplexPoly((b, a))
        comp = p.compose(inner)
        gc = list(comp.coeffs)
        gc[0] = gc[0] - b
        gc = [c / a for c in gc]
        # The construction guarantees monic/centered up to roundoff.
        gc[-1] = 1.0 + 0j
        if n >= 2:
            gc[-2] = 0j
        flat = []
        for c in gc:
            flat.append(c.real)
            flat.append(c.imag)
        cand = (flat, _candidate_structure(model, a, b, pole_data), tuple(gc))
        if best is None:
            best = cand
            continue
        cmp = _fuzzy_cmp(cand[0], best[0])
        if cmp < 0 or (cmp == 0 and cand[1] < best[1]):
            best = cand
    return NormalizedType(
        coeffs=best[2],
        cycles=best[1][0],
        pole_entries=best[1][1],
    )


def types_equal(t1: NormalizedType, t2: NormalizedType) -> bool:
    """Equality of normal forms: coefficients within tolerance, combinatorics exact."""
    if len(t1.coeffs) != len(t2.coeffs):
        return False
    if any(abs(x - y) > TYPE_COEFF_TOL for x, y in zip(t1.coeffs, t2.coeffs)):
        return False
    return t1.cycles == t2.cycles and t1.pole_entries == t2.pole_entries
