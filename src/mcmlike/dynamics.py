"""Core complex dynamics: polynomials, polynomial-plus-pole maps, roots, orbits.

A map is a polynomial P (ascending coefficient lists) plus pole terms,
P(z) + sum_t c_t / prod_k (z - a_k)^{d_k}, each term a coefficient c_t over
its own pole factors; a polynomial is a map whose term list is empty.
Everything downstream (classification, verification, rendering) is built
on the primitives in this module: ``find_roots``, the evaluator ``f.eval``
(scalars and arrays, without a pole check), ``eval_map_derivative``,
``cycle_derivative``, ``newton_cycle`` and ``iterate_orbit``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple, Union

from .record import FrozenRecord, Record

EPS = 2.220446049250313e-16

# Relative tolerance for treating an iterate as having landed on a pole.
POLE_COLLISION_RTOL = 1e-13

# Residual acceptance for find_roots, relative to 1 + sum |coeffs|.
ROOT_RESIDUAL_RTOL = 1e-10

# Roots closer than this (scaled by local magnitude) are one cluster.
ROOT_CLUSTER_TOL = 1e-7

# Cap on find_roots' Aberth-Ehrlich sweeps.
ABERTH_MAX_ITER = 500


class PoleHit(Exception):
    """An evaluation point collided with a pole of the map."""

    def __init__(self, pole_index: int, location: complex, at: complex):
        super().__init__(f"evaluation hit pole {pole_index} at {location}")
        self.pole_index = pole_index
        self.location = location
        self.at = at


class NonConvergence(Exception):
    """The simultaneous root iteration exceeded its cap with bad residuals."""


# ---------------------------------------------------------------------------
# Polynomials


def _trim(coeffs: Sequence[complex]) -> Tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (0j,)


class _Map(FrozenRecord):
    """Base of the map types.  A map is an immutable value: assigning to a
    field raises.  What it derives on first use (``_evaluator``, a closure,
    and a polynomial's ``_derivative``) is kept in its ``__dict__`` for good;
    a pickled map is rebuilt from its fields alone and derives them again."""

    __slots__ = ("__dict__",)

    def eval(self, z):
        """f(z) for a Python complex or a complex ndarray, without a pole check.

        Horner runs from the leading coefficient and every term's denominator
        is built one factor (z - a) at a time, so the scalar and the array
        results differ only in how Python and numpy round complex products and
        quotients.

        Horner skips 1 * z and + 0, a pole at a = 0 uses z itself, not z - 0,
        and a denominator starts from its first factor, not from 1 * (z - a).
        For finite operands these identities hold up to the sign of a zero, so
        finite results have the values of the full scheme and non-finite ones
        stay non-finite.  Arrays this call made are updated in place (``*=``,
        ``+=``: the same ufunc, the same bits); on a Python complex that is a
        rebinding.  z itself is never written to nor returned.

        The scheme runs as straight-line code compiled once per map shape (see
        ``_source``) and bound to the map's constants on its first evaluation,
        so it performs the same operations in the same order on the same
        operands as the scheme written with loops and branches, and gives the
        same bits.
        """
        return _evaluator(self)(z)


class ComplexPoly(_Map):
    """Polynomial with ascending complex coefficients: coeffs[k] * z**k.

    As a map it is its own base with no pole terms.
    """

    __slots__ = ("coeffs",)
    terms = ()

    def __init__(self, coeffs: Sequence[complex]):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def base(self) -> "ComplexPoly":
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_roots(cls, roots: Sequence[complex], lead: complex = 1.0) -> "ComplexPoly":
        p = cls((complex(lead),))
        for r in roots:
            p = p * cls((-complex(r), 1.0))
        return p

    def derivative(self) -> "ComplexPoly":
        """The derivative.  It is kept on self, so repeated calls
        (``eval_map_derivative`` at every Newton step) share one polynomial
        and its bound evaluator."""
        dp = self.__dict__.get("_derivative")
        if dp is None:
            dcs = tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
            dp = self.__dict__["_derivative"] = ComplexPoly(dcs or (0j,))
        return dp

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return ComplexPoly(tuple(out))

    def __mul__(self, other: Union["ComplexPoly", complex, float, int]):
        if isinstance(other, ComplexPoly):
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return ComplexPoly(tuple(out))
        return ComplexPoly(tuple(complex(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def compose(self, inner: "ComplexPoly") -> "ComplexPoly":
        """Return self(inner(z)) by Horner in polynomial arithmetic."""
        acc = ComplexPoly((self.coeffs[-1],))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * inner + ComplexPoly((c,))
        return acc


# ---------------------------------------------------------------------------
# Rational perturbations


PoleFactor = Tuple[complex, int]  # (location, order)


class RationalMapExpr(_Map):
    """f = base + sum over terms (c, factors) of c / prod (z - a)^d.

    Every pole (a, d) sits in exactly one term.  ``simple_poles_map``
    gives each pole a single-factor term of its own; ``product_pole_map``
    puts every pole in one term.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base: ComplexPoly, terms: Tuple[Tuple[complex, Tuple[PoleFactor, ...]], ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "terms", terms)


MapLike = Union[ComplexPoly, RationalMapExpr]


def simple_poles_map(base: ComplexPoly, terms: Sequence[Tuple[complex, int, complex]]) -> RationalMapExpr:
    return RationalMapExpr(base, tuple((complex(lam), ((complex(a), int(d)),)) for a, d, lam in terms))


def product_pole_map(base: ComplexPoly, lam: complex, factors: Sequence[PoleFactor]) -> RationalMapExpr:
    return RationalMapExpr(base, ((complex(lam), tuple((complex(a), int(d)) for a, d in factors)),))


def pole_orders(f: MapLike) -> List[PoleFactor]:
    """(location, order) of every pole, in the order the map lists them."""
    return [pole for _, factors in f.terms for pole in factors]


def fixed_by_reflection(z: complex, sign: int) -> bool:
    """Whether r(z) = sign * conj(z) fixes z, decided on exact parts: z is
    real for sign 1 and imaginary for sign -1 (a -0.0 part counts as zero)."""
    z = complex(z)
    return z.imag == 0 if sign == 1 else z.real == 0


def reflections(f: MapLike) -> Tuple[int, ...]:
    """The signs s of the reflections r(z) = s * conj(z) with f(r(z)) = r(f(z)).

    Sign 1 is z -> conj(z), sign -1 is z -> -conj(z).  Decided from exact
    coefficient parts: r commutes with f when every base coefficient c_k
    satisfies c_k = s^(k+1) conj(c_k), every pole location a satisfies
    a = s conj(a), and every term coefficient c of total order D satisfies
    c = s^(D+1) conj(c).  For sign 1 everything is real; for sign -1, c_k is
    real for odd k and imaginary for even k, poles are imaginary and a term
    coefficient is real for odd D and imaginary for even D.
    """
    return tuple(
        s
        for s in (1, -1)
        if all(fixed_by_reflection(c, s ** (k + 1)) for k, c in enumerate(f.base.coeffs))
        and all(
            fixed_by_reflection(c, s ** (sum(d for _, d in factors) + 1))
            and all(fixed_by_reflection(a, s) for a, _ in factors)
            for c, factors in f.terms
        )
    )


def _check_poles(f: MapLike, z: complex) -> None:
    for k, (a, _) in enumerate(pole_orders(f)):
        if abs(z - a) <= POLE_COLLISION_RTOL * (1.0 + abs(a)):
            raise PoleHit(k, a, z)


# Compiled evaluators.  The operations of the scheme depend only on the
# map's shape: whether the leading coefficient is 1, which lower
# coefficients are nonzero and, term by term, which poles are off 0 and
# their orders.  Each shape is compiled once; the coefficients and pole
# locations are arguments of its factory and never appear in its source.
# At most EVALUATOR_SHAPES factories are kept; the oldest is dropped first.
EVALUATOR_SHAPES = 256
_factories: dict = {}


def _shape(f: MapLike):
    """(shape key, constants) of f; the constants in the factory's order."""
    lead, *lower = reversed(f.base.coeffs)
    consts = [lead]
    consts += [c for c in lower if c != 0]
    terms = []
    for c, factors in f.terms:
        consts.append(c)
        consts += [a for a, _ in factors if a != 0]
        terms.append(tuple((a != 0, d) for a, d in factors))
    return (lead == 1, tuple(c != 0 for c in lower), tuple(terms)), consts


def _source(key) -> str:
    """Source of the factory of one shape: the scheme with every branch
    decided.  ``v`` is the value, ``d<t>`` term t's denominator and
    ``w<t>_<i>`` its factor z - a_i.  A value that may be z or a factor
    still in use is rebound (``x = x * w``); one the call made is updated in
    place (``x *= w``)."""
    lead_is_one, lower_nonzero, terms = key
    args: List[str] = []

    def const() -> str:
        args.append(f"k{len(args)}")
        return args[-1]

    lead = const()
    body = []
    if not lower_nonzero:
        body.append(f"v = {lead}")
    else:
        v_is_z = lead_is_one
        body.append("v = z" if lead_is_one else f"v = {lead} * z")
        for i, nonzero in enumerate(lower_nonzero):
            if i:
                body.append("v = v * z" if v_is_z else "v *= z")
                v_is_z = False
            if nonzero:
                body.append(f"v = v + {const()}" if v_is_z else f"v += {const()}")
                v_is_z = False
        if v_is_z:
            body.append(f"v = z * {lead}")
    for t, factors in enumerate(terms):
        c = const()
        den = None  # the name the denominator is, until it is a product
        for i, (off_zero, d) in enumerate(factors):
            w = "z"
            if off_zero:
                w = f"w{t}_{i}"
                body.append(f"{w} = z - {const()}")
            for _ in range(d):
                if den is None:
                    body.append(f"d{t} = {w}")
                    den = w
                elif den in (w, "z"):
                    body.append(f"d{t} = d{t} * {w}")
                    den = ""
                else:
                    body.append(f"d{t} *= {w}")
        body.append(f"v += {c}" if den is None else f"v += {c} / d{t}")
    lines = "".join(f"        {line}\n" for line in body)
    return f"def factory({', '.join(args)}):\n    def ev(z):\n{lines}        return v\n    return ev\n"


def _evaluator(f: MapLike):
    """f's compiled evaluator, bound on f's first evaluation and kept on f."""
    bound = f.__dict__.get("_evaluator")
    if bound is None:
        key, consts = _shape(f)
        factory = _factories.get(key)
        if factory is None:
            if len(_factories) >= EVALUATOR_SHAPES:
                del _factories[next(iter(_factories))]
            scope: dict = {}
            exec(compile(_source(key), "<map shape>", "exec"), scope)
            factory = _factories[key] = scope["factory"]
        bound = f.__dict__["_evaluator"] = factory(*consts)
    return bound


def orbit_points(f: MapLike, z: complex, period: int) -> List[complex]:
    """[z, f(z), ..., f^(period-1)(z)], evaluated without a pole check."""
    pts = [z]
    for _ in range(period - 1):
        pts.append(f.eval(pts[-1]))
    return pts


def eval_map_derivative(f: MapLike, z: complex) -> complex:
    """Evaluate f'(z) pointwise without building product polynomials."""
    _check_poles(f, z)
    val = f.base.derivative().eval(z)
    for c, factors in f.terms:
        # (c / prod w_k^d_k)' = -c num / den with w_k = z - a_k,
        # num = sum_k d_k prod_{j != k} w_j and den = prod w_k^(d_k + 1);
        # a single-factor term gets num = d exactly.
        ws = [z - a for a, _ in factors]
        num, den = 0, 1
        for k, (_, d) in enumerate(factors):
            rest = d
            for j, w in enumerate(ws):
                if j != k:
                    rest = rest * w
            num = num + rest
            for _ in range(d + 1):
                den = den * ws[k]
        val = val - num * c / den
    return val


def cycle_derivative(f: MapLike, z: complex, period: int) -> Tuple[complex, complex]:
    """(f^period(z), (f^period)'(z)); raises PoleHit on pole collision.

    The chain rule, f' at z, f(z), ..., f^(period-1)(z) multiplied in that
    order.  ``newton_cycle`` steps with both values and reports the second
    as a cycle's multiplier; ``model.classify_polynomial`` reads the second
    at a polynomial's cycle point, where f' is the cached ``p.derivative()``.
    """
    w, deriv = z, 1 + 0j
    for _ in range(period):
        deriv *= eval_map_derivative(f, w)  # checks the poles at w
        w = f.eval(w)
    return w, deriv


def newton_cycle(
    f: MapLike, z0: complex, period: int, tol: float
) -> Tuple[Optional[complex], bool, Optional[complex]]:
    """Newton's method on f^period(z) - z from z0, at most 80 steps.

    Returns (point, converged, multiplier).  It has converged once a step
    is at most tol * (1 + |z|); the multiplier (f^period)'(point) is given
    only then.  Without convergence the point is the last iterate, or None
    when an iterate of f hit a pole or left the finite plane.
    """
    z = z0
    for _ in range(80):
        try:
            w, deriv = cycle_derivative(f, z, period)
        except PoleHit:
            return None, False, None
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            return None, False, None
        denom = deriv - 1.0
        if abs(denom) < 1e-14:
            break
        step = (w - z) / denom
        z = z - step
        if abs(step) <= tol * (1.0 + abs(z)):
            try:
                return z, True, cycle_derivative(f, z, period)[1]
            except PoleHit:
                return z, False, None
    return z, False, None


def auto_radius(f: MapLike) -> float:
    """Escape radius valid for the supported map shapes.

    max(2, 1 + sum |base coefficients| + sum |pole coefficients|), with a
    Cauchy-style term so that non-monic leading coefficients below 1 still
    yield a genuine escape radius.  A non-finite coefficient gives the
    non-finite sum of the magnitudes instead, which bounds nothing.
    """
    lam_sum = sum(abs(c) for c, _ in f.terms)
    cs = f.base.coeffs
    total = sum(abs(c) for c in cs)
    if not math.isfinite(total + lam_sum):
        return total + lam_sum
    lead = abs(cs[-1])
    cauchy = 1.0 + (1.0 + (total - lead) + lam_sum) / lead if lead > 0 else 2.0
    return max(2.0, 1.0 + total + lam_sum, cauchy)


def checked_escape_radius(f: MapLike, escape_radius: Optional[float]) -> float:
    """The given escape radius, or auto_radius(f) for None.  A non-finite radius
    raises ValueError, as does one below auto_radius(f): orbits may come back.
    A map whose auto_radius is not finite (a non-finite coefficient) raises
    ValueError whatever the radius."""
    rauto = auto_radius(f)
    if not math.isfinite(rauto):
        raise ValueError(f"auto radius {rauto} of the map is not finite")
    if escape_radius is None:
        return rauto
    if not math.isfinite(escape_radius):
        raise ValueError(f"escape_radius {escape_radius} must be finite")
    if escape_radius < rauto:
        raise ValueError(f"escape_radius {escape_radius} below auto radius {rauto}")
    return escape_radius


# ---------------------------------------------------------------------------
# Root finding


def _coeff_scale(coeffs: Sequence[complex], r: float) -> float:
    s, rk = 0.0, 1.0
    for c in coeffs:
        s += abs(c) * rk
        rk *= r
    return s


def _newton_polish(p: ComplexPoly, dp: ComplexPoly, z: complex, steps: int = 4) -> complex:
    """At most ``steps`` Newton steps on p from z; dp is p's derivative."""
    for _ in range(steps):
        dval = dp.eval(z)
        if dval == 0:
            break
        step = p.eval(z) / dval
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
    return z


def find_roots(poly: ComplexPoly):
    """All roots of a polynomial with multiplicities.

    Aberth-Ehrlich simultaneous iteration from a perturbed initial ring,
    followed by Newton polishing and two clustering passes: a plain
    proximity pass at ``ROOT_CLUSTER_TOL`` and a certified pass that merges the
    floating-point scatter of genuine multiple roots (the scatter of an
    m-fold root scales like eps**(1/m), far beyond any fixed tolerance).
    Merged roots are re-polished on the (m-1)-th derivative, where the
    root is simple again.

    Returns a list of (root, multiplicity) sorted by (re, im); the
    multiplicities always sum to the degree.  Raises NonConvergence when a
    residual exceeds its tolerance or a root or residual is not finite (the
    start radius |c0/cn|^(1/m) can overflow).
    """
    n = poly.degree
    if n <= 0:
        return []

    # Exact zero roots deflate symbolically (common for derivative polys).
    zero_mult = 0
    while zero_mult < n and poly.coeffs[zero_mult] == 0:
        zero_mult += 1
    results = []
    if zero_mult:
        results.append((0j, zero_mult))
    p = ComplexPoly(poly.coeffs[zero_mult:]) if zero_mult else poly
    m = p.degree
    if m == 0:
        return results

    coeffs = p.coeffs
    dp = p.derivative()
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
        for _ in range(ABERTH_MAX_ITER):
            max_step = 0.0
            for k in range(m):
                z = roots[k]
                val = p.eval(z)
                if val == 0:
                    continue
                dval = dp.eval(z)
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

    roots = [_newton_polish(p, dp, z) for z in roots]

    res_tol = ROOT_RESIDUAL_RTOL * (1.0 + sum(abs(c) for c in poly.coeffs))
    residuals = [abs(p.eval(z)) for z in roots]
    # A non-finite root has a non-finite residual, which max() would skip.
    if not all(math.isfinite(r) for r in residuals):
        raise NonConvergence("non-finite root or residual")
    worst = max([0.0] + residuals)
    if worst > res_tol:
        raise NonConvergence(f"root residual {worst:.3e} exceeds {res_tol:.3e}")

    clusters = _cluster_roots(roots, p)
    results.extend(clusters)
    results.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return results


def _cluster_roots(roots, p: ComplexPoly):
    # Pass 1: plain proximity merge.
    clusters = []  # (centroid, multiplicity)
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for i, (c, m) in enumerate(clusters):
            if abs(z - c) <= ROOT_CLUSTER_TOL * (1.0 + abs(c)):
                clusters[i] = ((c * m + z) / (m + 1), m + 1)
                break
        else:
            clusters.append((z, 1))

    # Pass 2: certified multiple-root merge.  A genuine m-fold root can only
    # be located to (noise/|p^(m)/m!|)^(1/m); merge pairs inside that radius.
    n = p.degree
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
        noise = 4.0 * n * EPS * max(_coeff_scale(p.coeffs, abs(c)), 1e-300)
        dm1 = p
        for _ in range(m - 1):
            dm1 = dm1.derivative()
        dm = dm1.derivative()
        am = abs(dm.eval(c)) / math.factorial(m)
        if am <= 0:
            rho = float("inf")
        else:
            rho = 8.0 * (noise / am) ** (1.0 / m)
        if d <= rho and rho <= 1e-2 * (1.0 + abs(c)):
            c = _newton_polish(dm1, dm, c, steps=40)
            new = [cl for k, cl in enumerate(clusters) if k not in (i, j)]
            new.append((c, m))
            clusters = new
            changed = True
    return clusters


# ---------------------------------------------------------------------------
# Orbits


class Escaped(Record):
    """Orbit left the escape radius at ``escape_index``.

    ``nearest_pole_index`` and ``pole_distance`` describe the pre-escape
    iterate closest to any pole (the operational trap-door passage; later
    iterates win ties).  Maps without poles report None and infinite
    distance.
    """

    __slots__ = ("escape_index", "nearest_pole_index", "pole_distance")

    def __init__(self, escape_index: int, nearest_pole_index: Optional[int], pole_distance: float):
        self.escape_index = escape_index
        self.nearest_pole_index, self.pole_distance = nearest_pole_index, pole_distance


class ConvergedToCycle(Record):
    __slots__ = ("period", "representative", "convergence_index")

    def __init__(self, period: int, representative: complex, convergence_index: int):
        self.period, self.representative, self.convergence_index = period, representative, convergence_index


class Undecided(Record):
    __slots__ = ()


class OrbitRecord(Record):
    """The iterates an orbit computed (``samples[0]`` is its start) and what
    became of it."""

    __slots__ = ("samples", "outcome")

    def __init__(self, samples: list, outcome: object):
        self.samples, self.outcome = samples, outcome


# Cycle revisitation is only checked after this many iterates.
CYCLE_TRANSIENT = 20
# An iterate this close to an earlier one revisits it.
CYCLE_TOL = 1e-9
# Largest revisitation period looked for.
PERIOD_WINDOW = 256


def iterate_orbit(f: MapLike, z0: complex, max_iter: int = 512) -> OrbitRecord:
    """Iterate a map and classify the orbit.

    Outcomes: Escaped (first index beyond the escape radius R =
    auto_radius(f), trap-door passage data), ConvergedToCycle (revisitation
    within CYCLE_TOL after a short transient; smallest period wins), or
    Undecided at max_iter.  A map whose auto radius is not finite raises
    ValueError.

    Each iterate's pole distances are measured in one pass, which gives its
    approach (the nearest pole, the first on ties).  Before it is evaluated
    comes its collision: the first pole within POLE_COLLISION_RTOL *
    (1 + |a|), as ``eval_map_derivative`` checks.  A collision counts as an
    escape whose passage is the colliding iterate.  The poles are scanned
    for it, measured once more, only when the nearest distance is at most
    the largest of those bars (or is nan), which every collision needs.

    Revisitation: iterate k revisits the latest j in
    [max(CYCLE_TRANSIENT, k - PERIOD_WINDOW), k - 1] with
    |z_k - z_j| < CYCLE_TOL.  Iterates are filed in square cells of side
    s = max(8 * CYCLE_TOL, R * 2**-48) by the indices floor(x / s) of their
    real and imaginary parts.  Each computed quotient x / s is within
    2**-52 * R / s of the exact one (|x| <= R), so two parts closer than
    CYCLE_TOL have quotients closer than CYCLE_TOL / s + 2**-51 * R / s.
    Hence z_j can lie only in z_k's own cell or in the neighbour across an
    edge that z_k's quotient is within the margin
    m = CYCLE_TOL / s + (1 + R / s) * 2**-50 of (the extra 2**-50 covers
    the rounding of the fractional part), on each axis, and in the corner
    cell between two such neighbours.  m < 1/2, so at most one neighbour per
    axis qualifies, and only those cells are searched; most iterates search
    one.  The latest qualifying j is found in whichever cell holds it, so
    the result does not depend on the cells.
    """
    radius = checked_escape_radius(f, None)
    evaluate = _evaluator(f)
    poles = [a for a, _ in pole_orders(f)]
    bars = [POLE_COLLISION_RTOL * (1.0 + abs(a)) for a in poles]
    inf = math.inf
    bar = max(bars, default=-inf)
    samples = [z0]
    side = max(8.0 * CYCLE_TOL, radius * 2.0**-48)
    margin = CYCLE_TOL / side + (1.0 + radius / side) * 2.0**-50
    cells = {}

    z = z0
    for k in range(max_iter + 1):
        # z is iterate k; pd is its distance to the nearest pole pk, the first
        # on ties (min's rule: a nan first distance stays).  Its passage
        # replaces an earlier one on ties.
        pd, pk = inf, None
        for j, a in enumerate(poles):
            d = abs(z - a)
            if not j or d < pd:
                pd, pk = d, j
        if not k or pd <= passage_dist:
            passage_pole, passage_dist = pk, pd
        if not k and abs(z) > radius:
            return OrbitRecord(samples, Escaped(0, pk, pd))
        if k >= CYCLE_TRANSIENT:
            lo = k - PERIOD_WINDOW  # the cells hold no j < CYCLE_TRANSIENT
            u, v = z.real / side, z.imag / side
            cx, cy = math.floor(u), math.floor(v)
            u -= cx
            v -= cy
            dx = -1 if u < margin else 1 if 1.0 - u < margin else 0
            dy = -1 if v < margin else 1 if 1.0 - v < margin else 0
            near = [(cx, cy)]
            if dx:
                near.append((cx + dx, cy))
            if dy:
                near.append((cx, cy + dy))
                if dx:
                    near.append((cx + dx, cy + dy))
            best = -1
            for cell in near:
                for j in reversed(cells.get(cell, ())):
                    if j <= best or j < lo:
                        break
                    if abs(z - samples[j]) < CYCLE_TOL:
                        best = j
                        break
            if best >= 0:
                return OrbitRecord(samples, ConvergedToCycle(k - best, samples[best], best))
            cells.setdefault((cx, cy), []).append(k)
        if k == max_iter:
            break
        if not pd > bar:
            for j, a in enumerate(poles):
                d = abs(z - a)
                if d <= bars[j]:
                    return OrbitRecord(samples, Escaped(k + 1, j, d))
        z_new = evaluate(z)
        if not abs(z_new) <= radius:
            # A finite escaping iterate is kept; a non-finite one is not.
            if math.isfinite(z_new.real) and math.isfinite(z_new.imag):
                samples.append(z_new)
            return OrbitRecord(samples, Escaped(k + 1, passage_pole, passage_dist))
        samples.append(z_new)
        z = z_new
    return OrbitRecord(samples, Undecided())
