"""The test oracles: one plain implementation of each rule the toolkit
decides, and the exact comparisons used against them.

- Evaluation: ``interpretive_eval`` (with ``interpretive_poly_eval``), the
  scheme ``f.eval`` compiles, written with loops and branches.
- Orbit: ``reference_iterate_orbit``, which finds revisits by scanning back
  over the window and steps with the evaluation oracle.
- Render: ``masked_classify_points`` and ``masked_rgb``, one whole-array
  step at a time over a full-size mask.
- Roots: ``reference_find_roots`` on raw coefficient lists.
- Critical numerator: ``expanded_numerator``, the numerator of f' over
  the poles' common denominator, expanded into coefficients.

The code in ``src`` must give what these give, compared exactly (roots up
to the sign of a zero).  A change that replaces an implementation is checked
against the oracle of its rule; it does not keep its predecessor as one more
reference.  No oracle calls the implementation it checks, so a fault there
cannot hide in both.
"""

import math
import random

import numpy as np

from mcmlike.dynamics import (
    ABERTH_MAX_ITER,
    CYCLE_TRANSIENT,
    EPS,
    PERIOD_WINDOW,
    POLE_COLLISION_RTOL,
    ROOT_CLUSTER_TOL,
    ROOT_RESIDUAL_RTOL,
    ComplexPoly,
    ConvergedToCycle,
    Escaped,
    NonConvergence,
    OrbitRecord,
    Undecided,
    checked_escape_radius,
    pole_orders,
)
from mcmlike.render import KIND_BASIN, KIND_ESCAPED, PALETTE8

# ---------------------------------------------------------------------------
# Exact comparisons


def bits(z):
    return (z.real.hex(), z.imag.hex())


def assert_same_scalar(got, want):
    for x, y in ((got.real, want.real), (got.imag, want.imag)):
        if math.isnan(y):
            assert math.isnan(x)
        else:
            assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_same_array(got, want):
    # A constant map gives its constant, not an array, for an array z.
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype == complex and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# Evaluation


def interpretive_poly_eval(coeffs, z):
    """Horner on ascending coefficients from the leading one, with the
    identity skips decided per call: a leading 1 starts from z, a zero
    coefficient adds nothing."""
    lead, *lower = reversed(coeffs)
    if not lower:
        return lead
    acc = z if lead == 1 else lead * z
    for k, c in enumerate(lower):
        if k:
            if acc is z:
                acc = acc * z
            else:
                acc *= z
        if c != 0:
            if acc is z:
                acc = acc + c
            else:
                acc += c
    return acc * lead if acc is z else acc


def interpretive_eval(f, z):
    """f(z) without a pole check: loops over the terms and their factors."""
    val = interpretive_poly_eval(f.base.coeffs, z)
    for c, factors in f.terms:
        den = None
        for a, d in factors:
            w = z - a if a != 0 else z
            for _ in range(d):
                if den is None:
                    den = w
                elif den is w or den is z:
                    den = den * w
                else:
                    den *= w
        val += c if den is None else c / den
    return val


# ---------------------------------------------------------------------------
# Orbit


def reference_iterate_orbit(f, z0, max_iter=512, escape_radius=None, cycle_tol=1e-9):
    """iterate_orbit's rule, stated directly.  Every step scans every pole
    for a collision, then evaluates with ``interpretive_eval``; revisitation
    is found by scanning back up to PERIOD_WINDOW iterates."""
    escape_radius = checked_escape_radius(f, escape_radius)
    poles = [a for a, _ in pole_orders(f)]
    samples = [z0]

    def approach(z):
        if not poles:
            return None, float("inf")
        return min(((k, abs(z - a)) for k, a in enumerate(poles)), key=lambda kd: kd[1])

    pk, pd = approach(z0)
    passage_pole, passage_dist = pk, pd
    z = z0
    if abs(z) > escape_radius:
        return OrbitRecord(samples, Escaped(0, pk, pd))
    for k in range(1, max_iter + 1):
        for j, a in enumerate(poles):
            d = abs(z - a)
            if d <= POLE_COLLISION_RTOL * (1.0 + abs(a)):
                return OrbitRecord(samples, Escaped(k, j, d))
        z_new = interpretive_eval(f, z)
        if not (math.isfinite(z_new.real) and math.isfinite(z_new.imag)):
            return OrbitRecord(samples, Escaped(k, passage_pole, passage_dist))
        samples.append(z_new)
        if abs(z_new) > escape_radius:
            return OrbitRecord(samples, Escaped(k, passage_pole, passage_dist))
        pk, pd = approach(z_new)
        if poles and pd <= passage_dist:
            passage_pole, passage_dist = pk, pd
        z = z_new
        if k >= CYCLE_TRANSIENT:
            lo = max(CYCLE_TRANSIENT, k - PERIOD_WINDOW)
            for j in range(k - 1, lo - 1, -1):
                if abs(z - samples[j]) < cycle_tol:
                    return OrbitRecord(samples, ConvergedToCycle(k - j, samples[j], j))
    return OrbitRecord(samples, Undecided())


# ---------------------------------------------------------------------------
# Render


def masked_classify_points(f, pts, max_iter, escape_radius=None, attractors=None, capture_tol=1e-6):
    """classify_points as a loop over a full-size active mask, one step of
    every open seed at a time."""
    radius = checked_escape_radius(f, escape_radius)
    z = np.array(pts, dtype=np.complex128).ravel().copy()
    npts = z.size
    kind = np.zeros(npts, dtype=np.uint8)
    iters = np.zeros(npts, dtype=np.int32)
    bid = np.full(npts, -1, dtype=np.int16)
    bph = np.full(npts, -1, dtype=np.int16)
    apts = [(aid, ph, complex(p)) for aid, (points, _period) in enumerate(attractors or ())
            for ph, p in enumerate(points)]

    out0 = np.abs(z) > radius
    kind[out0] = KIND_ESCAPED
    active = ~out0
    for aid, ph, p in apts:
        cap = active & (np.abs(z - p) <= capture_tol)
        kind[cap] = KIND_BASIN
        bid[cap] = aid
        bph[cap] = ph
        active &= ~cap

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, max_iter + 1):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            w = interpretive_eval(f, z[idx])
            finite = np.isfinite(w.real) & np.isfinite(w.imag)
            esc = ~finite | (np.abs(np.where(finite, w, 0)) > radius)
            esc_idx = idx[esc]
            kind[esc_idx] = KIND_ESCAPED
            iters[esc_idx] = k
            rem = idx[~esc]
            wr = w[~esc]
            z[rem] = wr
            active[esc_idx] = False
            if apts:
                open_rem = np.ones(rem.size, dtype=bool)
                for aid, ph, p in apts:
                    cap = open_rem & (np.abs(wr - p) <= capture_tol)
                    ci = rem[cap]
                    kind[ci] = KIND_BASIN
                    bid[ci] = aid
                    bph[ci] = ph
                    active[ci] = False
                    open_rem &= ~cap
    return kind, iters, bid, bph


def masked_rgb(grid):
    """grid_to_rgb as masked assignments per class."""
    h, w = grid.kind.shape
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    esc = grid.kind == KIND_ESCAPED
    val = (255 - np.minimum(8 * grid.iters.astype(np.int64), 255)).astype(np.uint8)
    rgb[esc, 0] = val[esc]
    rgb[esc, 1] = val[esc]
    rgb[esc, 2] = 255
    bas = grid.kind == KIND_BASIN
    if bas.any():
        pal = np.array(PALETTE8, dtype=np.uint8)
        idx = (2 * grid.basin_id.astype(np.int64) + grid.basin_phase.astype(np.int64)) % 8
        rgb[bas] = pal[idx[bas]]
    return rgb


# ---------------------------------------------------------------------------
# Roots: find_roots on raw coefficient lists, every polynomial value taken
# with the evaluation oracle.


def _coeff_scale(coeffs, r):
    s, rk = 0.0, 1.0
    for c in coeffs:
        s += abs(c) * rk
        rk *= r
    return s


def _derivative_coeffs(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0)


def _newton_polish(coeffs, dcoeffs, z, steps=4):
    for _ in range(steps):
        dval = interpretive_poly_eval(dcoeffs, z)
        if dval == 0:
            break
        step = interpretive_poly_eval(coeffs, z) / dval
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
    return z


def reference_find_roots(poly):
    """find_roots' rule: Aberth-Ehrlich from the seeded ring, Newton
    polishing, the residual checks and both clustering passes."""
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
    dcoeffs = _derivative_coeffs(coeffs)
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
                val = interpretive_poly_eval(coeffs, z)
                if val == 0:
                    continue
                dval = interpretive_poly_eval(dcoeffs, z)
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
    roots = [_newton_polish(coeffs, dcoeffs, z) for z in roots]
    res_tol = ROOT_RESIDUAL_RTOL * (1.0 + sum(abs(c) for c in poly.coeffs))
    residuals = [abs(interpretive_poly_eval(coeffs, z)) for z in roots]
    if not all(math.isfinite(r) for r in residuals):
        raise NonConvergence("non-finite root or residual")
    worst = max([0.0] + residuals)
    if worst > res_tol:
        raise NonConvergence(f"root residual {worst:.3e} exceeds {res_tol:.3e}")
    results.extend(_cluster_roots(roots, coeffs))
    results.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return results


def _cluster_roots(roots, coeffs):
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
        noise = 4.0 * n * EPS * max(_coeff_scale(coeffs, abs(c)), 1e-300)
        dm1 = list(coeffs)
        for _ in range(m - 1):
            dm1 = _derivative_coeffs(dm1)
        dm = _derivative_coeffs(dm1)
        am = abs(interpretive_poly_eval(dm, c)) / math.factorial(m)
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
# Critical numerator


def expanded_numerator(f):
    """f' times prod_j (z - a_j)^(d_j + 1), expanded into coefficients: its
    roots are the free critical points; P' for a polynomial.  Pole k of a
    term c / prod (z - a)^d contributes -d_k c times every pole factor but
    its own, each to the power 1 within the term and d_j + 1 outside it."""
    if not f.terms:
        return f.base.derivative()
    poles = pole_orders(f)
    full = ComplexPoly((1.0,))
    for a, d in poles:
        full = full * ComplexPoly.from_roots([a] * (d + 1))
    out = f.base.derivative() * full
    first = 0
    for c, factors in f.terms:
        own = range(first, first + len(factors))
        for k in own:
            rest = ComplexPoly((poles[k][1] * c,))
            for j, (b, dj) in enumerate(poles):
                if j != k:
                    rest = rest * ComplexPoly.from_roots([b] * (1 if j in own else dj + 1))
            out = out + rest * -1.0
        first = own.stop
    return out
