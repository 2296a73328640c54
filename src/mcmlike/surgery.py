"""Surgery planning at the equipotential-level layer.

Given a model cycle and pole data satisfying the arithmetic condition, this
module computes the constants M, alpha_{i,j}, beta_{i,j} of the annulus
construction, plans the three equipotential levels (gamma^out, gamma^in,
gamma^inf as powers of a base level r), bounds the cross-domain modulus by a
Groetzsch-type inequality with constant C, and derives the admissible-r
threshold below which the non-recurrence inclusions hold.  Everything here
is level arithmetic on exponents; no planar sets are constructed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .arith import PoleData, check_cycle_index, transition_matrix
from .record import Record


class EmptyPoleSet(Exception):
    """The selected cycle has no phase carrying a pole."""


class ConditionFails(Exception):
    """The cycle violates the arithmetic condition; no constants exist."""


class ClosureError(Exception):
    """The floats cannot represent the constants: overflow, or slack lost to rounding."""


class LevelOrderViolation(Exception):
    """Level ordering Lout > Lin >= Linf failed (point (i))."""


class ThresholdViolation(Exception):
    """The non-recurrence level inequality failed at this r (point (iii))."""


class NoSlack(Exception):
    """The cycle product is not < 1: no chain inequality is strict, no threshold exists."""


class SurgeryConstants(Record):
    """Constants of one cycle's annulus construction.

    phases lists J_i in increasing order; t_gaps[j] is the first-return step
    to the next phase of J_i; product is the exact cycle product, which
    decides slack; degrees holds n_{i,j} for the whole cycle and
    pole_orders holds d_{i,j} for j in J_i.
    """

    __slots__ = ("cycle", "phases", "t_gaps", "product", "alpha", "beta", "degrees", "pole_orders")

    def __init__(self, cycle: int, phases: Tuple[int, ...], t_gaps: Dict[int, int], product: Fraction,
                 alpha: Dict[int, float], beta: Dict[int, float], degrees: Tuple[int, ...],
                 pole_orders: Dict[int, int]):
        self.cycle, self.phases, self.t_gaps, self.product = cycle, phases, t_gaps, product
        self.alpha, self.beta, self.degrees, self.pole_orders = alpha, beta, degrees, pole_orders

    @property
    def M(self) -> float:
        return _m_from_product(self.product, len(self.phases))

    @property
    def period(self) -> int:
        return len(self.degrees)

    def next_phase(self, j: int) -> int:
        return (j + self.t_gaps[j]) % self.period

    def chain_product(self, j: int) -> int:
        """prod_{k=0}^{t-1} n_{i,j+k} along the gap starting at j."""
        out = 1
        for k in range(self.t_gaps[j]):
            out *= self.degrees[(j + k) % self.period]
        return out

    def chain_lhs(self, j: int) -> float:
        nx = self.next_phase(j)
        return (self.degrees[nx] / self.pole_orders[nx]) * self.alpha[nx] + self.beta[nx]

    def chain_rhs(self, j: int) -> float:
        return self.chain_product(j) * self.alpha[j]

    def gap(self, j: int) -> float:
        return self.chain_rhs(j) - self.chain_lhs(j)


class LevelPlan(Record):
    """Equipotential levels for one cycle at base level r.

    levels[j] = (Lout, Lin, Linf) = (r**alpha_j, r**beta_j, r**delta_j).
    point_i/point_ii/point_iii record the three planned properties: level
    ordering, the modulus identity (holds by construction), and the
    non-recurrence level inequality.
    """

    __slots__ = ("levels", "delta", "r_threshold", "point_i", "point_ii", "point_iii")

    def __init__(self, levels: Dict[int, Tuple[float, float, float]], delta: Dict[int, float],
                 r_threshold: float, point_i: bool, point_ii: bool, point_iii: bool):
        self.levels, self.delta, self.r_threshold = levels, delta, r_threshold
        self.point_i, self.point_ii, self.point_iii = point_i, point_ii, point_iii


def _cycle_product(model, pole_data: PoleData, cycle: int):
    """(phases J_i, their pole orders, the exact cycle product) of one cycle.

    Raises InvalidPoleDataKey for a bad cycle index, then for bad pole data,
    then EmptyPoleSet when the cycle has no pole phase.
    """
    product = transition_matrix(model, pole_data, cycle).cyclic_product()
    phases = pole_data.picked_phases(cycle)
    if not phases:
        raise EmptyPoleSet(f"cycle {cycle} has no pole phases")
    return phases, {j: pole_data.order(cycle, j) for j in phases}, product


def _m_from_product(product, phase_count: int) -> float:
    """M = (cycle product)**(-1/(2|J_i|)); M > 1 exactly when the product < 1."""
    return float(product) ** (-1.0 / (2.0 * phase_count))


def compute_M(model, pole_data: PoleData, cycle: int) -> float:
    """M = (cycle product)**(-1/(2|J_i|)) for the pole phases J_i of cycle."""
    phases, _, product = _cycle_product(model, pole_data, cycle)
    return _m_from_product(product, len(phases))


def compute_alpha_beta(
    model,
    pole_data: PoleData,
    cycle: int,
    seed: float = 1.0,
    require_condition: bool = True,
) -> SurgeryConstants:
    """Propagate alpha around J_i by the first-return recursion; derive beta.

    seed is alpha at the first (lowest) phase of J_i.  The recursion closes
    exactly, since M**(2|J_i|) times the cycle product is 1, so its return
    to the seed is not computed.  Slack is decided on the exact product: a
    product < 1 makes every chain inequality strict.  ClosureError names the
    phase where the floats cannot carry the constants: an alpha, beta or
    chain-inequality side that overflows or, for a product < 1, an M that
    rounds to 1 or a gap that rounds to <= 0.  With require_condition=False,
    constants are produced even when the condition fails (product >= 1);
    such constants carry no slack and admit no plan.
    """
    check_cycle_index(model, cycle)
    if not 0 < seed < math.inf:
        raise ValueError(f"seed {seed} must be positive and finite")
    phases, orders, product = _cycle_product(model, pole_data, cycle)
    cyc = model.cycles[cycle - 1]
    p = cyc.period
    n = cyc.degrees
    if require_condition and not product < 1:
        raise ConditionFails(f"cycle {cycle} product {product} is not < 1")
    M = _m_from_product(product, len(phases))

    in_j = set(phases)
    t_gaps = {}
    for j in phases:
        k = 1
        while (j + k) % p not in in_j:
            k += 1
        t_gaps[j] = k

    cur = phases[0]
    alpha = {cur: float(seed)}
    for _ in range(len(phases) - 1):
        t = t_gaps[cur]
        nxt = (cur + t) % p
        bracket = 1.0 / n[nxt] + 1.0 / orders[nxt]
        for k in range(1, t):
            bracket *= 1.0 / n[(cur + k) % p]
        alpha[nxt] = (n[cur] / n[nxt]) * alpha[cur] / (M * M * bracket)
        cur = nxt

    beta = {
        j: M * alpha[j] + (M - 1.0) * (n[j] / orders[j]) * alpha[j] for j in phases
    }
    sc = SurgeryConstants(cycle, phases, t_gaps, product, alpha, beta, tuple(n), orders)
    for j in phases:
        lhs, rhs = sc.chain_lhs(j), sc.chain_rhs(j)
        if not all(math.isfinite(x) for x in (alpha[j], beta[j], lhs, rhs)):
            raise ClosureError(
                f"chain inequality overflows at phase {j}: {lhs!r} < {rhs!r} "
                f"(alpha {alpha[j]!r}, beta {beta[j]!r})"
            )
    if product < 1:
        for j in phases:
            if not (M > 1.0 and sc.gap(j) > 0.0):
                raise ClosureError(
                    f"chain slack at phase {j} is lost to rounding: product {product} < 1, "
                    f"but M = {M!r} and gap {sc.gap(j)!r}"
                )
    return sc


def _check_groetzsch_c(groetzsch_c: float) -> None:
    if not 0 <= groetzsch_c < math.inf:
        raise ValueError(f"groetzsch_c {groetzsch_c} must be >= 0 and finite")


def r_threshold(sc: SurgeryConstants, groetzsch_c: float = 1.0) -> float:
    """Largest r* below which every non-recurrence level inequality holds.

    r* = exp(-max_j 2*pi*C / (d_{next(j)} * gap_j)).  C = 0 gives r* = 1.
    NoSlack exactly when the cycle product is not < 1.
    """
    _check_groetzsch_c(groetzsch_c)
    if not sc.product < 1:
        raise NoSlack(f"cycle {sc.cycle} product {sc.product} is not < 1 (M = {sc.M})")
    if groetzsch_c == 0.0:
        return 1.0
    worst = max(
        2.0 * math.pi * groetzsch_c / (sc.pole_orders[sc.next_phase(j)] * sc.gap(j))
        for j in sc.phases
    )
    return math.exp(-worst)


def plan_levels(
    sc: SurgeryConstants,
    r: float,
    groetzsch_c: float = 1.0,
    strict: bool = True,
) -> LevelPlan:
    """Plan the three equipotential levels per pole phase at base level r.

    delta_j = beta_j + (2*pi/d_j) * mod(Gamma_{j+1}, Gamma_inf) / ln(1/r),
    with the modulus replaced by the Groetzsch upper bound
    C + (n_j/(2*pi)) * alpha_j * ln(1/r), making delta an upper estimate.
    Points checked: (i) level ordering alpha < beta <= delta and, as the
    levels round (large exponents underflow them to 0), Lout > Lin >= Linf
    > 0, (ii) the modulus identity (by construction), (iii) delta_{next(j)} <
    chain_rhs(j).  With strict=True a failing point raises; with
    strict=False the plan records the verdicts.  1/r must be finite.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must be in (0,1), got {r}")
    _check_groetzsch_c(groetzsch_c)
    inv_r = 1.0 / r
    if inv_r == math.inf:
        raise ValueError(f"1/r overflows at r = {r}")
    log_inv_r = math.log(inv_r)
    two_pi = 2.0 * math.pi

    delta: Dict[int, float] = {}
    mods: Dict[int, float] = {}
    for j in sc.phases:
        m = groetzsch_c + (sc.degrees[j] / two_pi) * sc.alpha[j] * log_inv_r
        mods[j] = m
        delta[j] = sc.beta[j] + (two_pi / sc.pole_orders[j]) * m / log_inv_r

    levels = {
        j: (r ** sc.alpha[j], r ** sc.beta[j], r ** delta[j]) for j in sc.phases
    }

    unordered = [j for j, (lout, lin, linf) in levels.items()
                 if not (sc.alpha[j] < sc.beta[j] <= delta[j] and lout > lin >= linf > 0.0)]
    point_ii = all(
        abs((delta[j] - sc.beta[j]) * log_inv_r / two_pi - mods[j] / sc.pole_orders[j])
        <= 1e-12 * (1.0 + mods[j] / sc.pole_orders[j])
        for j in sc.phases
    )
    recurrent = [j for j in sc.phases if not delta[sc.next_phase(j)] < sc.chain_rhs(j)]

    if strict and unordered:
        raise LevelOrderViolation(f"level ordering fails at phases {unordered}")
    if strict and recurrent:
        raise ThresholdViolation(f"non-recurrence levels fail at phases {recurrent} for r = {r}")

    return LevelPlan(
        levels=levels,
        delta=delta,
        r_threshold=r_threshold(sc, groetzsch_c),
        point_i=not unordered,
        point_ii=point_ii,
        point_iii=not recurrent,
    )

