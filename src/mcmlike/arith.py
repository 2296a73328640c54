"""Exact pole-data arithmetic: the existence condition and transition matrices.

Everything here is computed over exact rationals (``fractions.Fraction``),
so the strict-inequality verdicts carry no floating-point caveat.  A model
only needs to expose ``cycles`` with ``period`` and ``degrees`` fields, and
pole data attaches an integer order d >= 1 to a subset of the bounded
periodic domains, keyed by (cycle index, phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple


class InvalidPoleDataKey(Exception):
    """Pole data referenced a cycle/phase that does not exist, or d < 1."""


@dataclass(frozen=True)
class PoleData:
    """Orders d attached to picked domains, keyed by (cycle, phase).

    Cycle indices are 1-based (matching reports and model files), phases are
    0-based residues mod the cycle period.
    """

    entries: Tuple[Tuple[Tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, entries: Mapping[Tuple[int, int], int]) -> "PoleData":
        items = tuple(sorted(((int(i), int(j)), int(d)) for (i, j), d in entries.items()))
        return cls(items)

    def order(self, cycle: int, phase: int) -> int | None:
        for (i, j), d in self.entries:
            if i == cycle and j == phase:
                return d
        return None

    def picked_phases(self, cycle: int) -> Tuple[int, ...]:
        return tuple(sorted(j for (i, j), _ in self.entries if i == cycle))

    def total_order(self) -> int:
        return sum(d for _, d in self.entries)

    def validate(self, model) -> None:
        seen = set()
        for (i, j), d in self.entries:
            if d < 1:
                raise InvalidPoleDataKey(f"order d={d} at cycle {i} phase {j} must be >= 1")
            if not (1 <= i <= len(model.cycles)):
                raise InvalidPoleDataKey(f"cycle {i} out of range 1..{len(model.cycles)}")
            period = model.cycles[i - 1].period
            if not (0 <= j < period):
                raise InvalidPoleDataKey(f"phase {j} out of range for period-{period} cycle {i}")
            if (i, j) in seen:
                raise InvalidPoleDataKey(f"duplicate entry for cycle {i} phase {j}")
            seen.add((i, j))


@dataclass(frozen=True)
class CycleCondition:
    cycle: int
    product: Fraction
    holds: bool
    picked_phases: Tuple[int, ...]


@dataclass(frozen=True)
class ConditionReport:
    per_cycle: Tuple[CycleCondition, ...]
    overall: bool


def check_condition(model, pole_data: PoleData) -> ConditionReport:
    """Exact per-cycle existence condition.

    For cycle i the product runs over its phases: an unpicked phase
    contributes 1/n, a picked phase contributes 1/n + 1/d.  The cycle passes
    iff the product is strictly below 1 (exact rational comparison); cycles
    with no picked phase pass automatically, their product still reported.
    """
    pole_data.validate(model)
    rows = []
    for idx in range(1, len(model.cycles) + 1):
        prod = transition_matrix(model, pole_data, idx).cyclic_product()
        rows.append(CycleCondition(idx, prod, prod < 1, pole_data.picked_phases(idx)))
    return ConditionReport(tuple(rows), all(r.holds for r in rows))


@dataclass(frozen=True)
class TransitionMatrix:
    """Cyclic transition matrix of a cycle, entries stored exactly.

    The only nonzero entries sit on the cyclic superdiagonal: entry
    [s][(s+1) mod p] is 1/n_s, plus 1/d_s when phase s is picked.
    """

    cycle: int
    size: int
    entries: Tuple[Tuple[Fraction, ...], ...]

    def cyclic_product(self) -> Fraction:
        prod = Fraction(1)
        for s in range(self.size):
            prod *= self.entries[s][(s + 1) % self.size]
        return prod


def check_cycle_index(model, cycle: int) -> None:
    """Raise InvalidPoleDataKey unless cycle is a 1-based cycle index of model."""
    if not (1 <= cycle <= len(model.cycles)):
        raise InvalidPoleDataKey(f"cycle {cycle} out of range (model has {len(model.cycles)})")


def transition_matrix(model, pole_data: PoleData, cycle: int) -> TransitionMatrix:
    check_cycle_index(model, cycle)
    pole_data.validate(model)
    cyc = model.cycles[cycle - 1]
    p = cyc.period
    rows = [[Fraction(0)] * p for _ in range(p)]
    for s in range(p):
        n = cyc.degrees[s]
        d = pole_data.order(cycle, s)
        val = Fraction(1, n) if d is None else Fraction(1, n) + Fraction(1, d)
        rows[s][(s + 1) % p] = val
    return TransitionMatrix(cycle, p, tuple(tuple(r) for r in rows))


def leading_eigenvalue_exact(tm: TransitionMatrix) -> Tuple[Fraction, int]:
    """Exact data behind the leading eigenvalue: (cyclic product, period).

    The spectrum of a weighted cyclic permutation consists of the p-th roots
    of the cyclic product, so the spectral radius is product**(1/p); the
    strict comparison 'eigenvalue < 1' is equivalent to 'product < 1' and is
    decided exactly on the returned pair.
    """
    return tm.cyclic_product(), tm.size


def leading_eigenvalue(tm: TransitionMatrix) -> float:
    prod, p = leading_eigenvalue_exact(tm)
    return float(prod) ** (1.0 / p)


# Relative change of the estimate at which power iteration stops, and its sweep cap.
POWER_ITERATION_TOL = 1e-14
POWER_ITERATION_MAX_ITER = 20000


def power_iteration_eigenvalue(tm: TransitionMatrix) -> float:
    """Independent numerical cross-check of the leading eigenvalue.

    Runs power iteration on the p-th power of the float matrix (the p-th
    power is where the cyclic rotation of dominant eigenvalues disappears),
    then takes the p-th root of the dominant eigenvalue found.
    """
    p = tm.size
    a = [[float(x) for x in row] for row in tm.entries]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(p)) for j in range(p)]
            for i in range(p)
        ]

    b = [[1.0 if i == j else 0.0 for j in range(p)] for i in range(p)]
    for _ in range(p):
        b = matmul(b, a)

    v = [1.0 + 0.01 * i for i in range(p)]
    est = 0.0
    for _ in range(POWER_ITERATION_MAX_ITER):
        w = [sum(b[i][k] * v[k] for k in range(p)) for i in range(p)]
        nrm = max(abs(x) for x in w)
        if nrm == 0.0:
            return 0.0
        new_est = sum(wi * vi for wi, vi in zip(w, v)) / sum(vi * vi for vi in v)
        v = [x / nrm for x in w]
        if abs(new_est - est) <= POWER_ITERATION_TOL * max(1.0, abs(new_est)):
            est = new_est
            break
        est = new_est
    return est ** (1.0 / p)
