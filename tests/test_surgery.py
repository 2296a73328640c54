"""Surgery constants, level plans, and the admissible-r threshold."""

import math
import random

import pytest

from mcmlike.arith import InvalidPoleDataKey, PoleData, check_condition, transition_matrix
from mcmlike.model import from_abstract
from mcmlike.surgery import (
    ClosureError,
    ConditionFails,
    EmptyPoleSet,
    LevelOrderViolation,
    NoSlack,
    ThresholdViolation,
    compute_M,
    compute_alpha_beta,
    plan_levels,
    r_threshold,
)

from conftest import random_pole_model

Q_MODEL = from_abstract(3, [(2, (2, 2))])
Q_PD = PoleData.from_dict({(1, 0): 1})


def q_constants(seed=1.0):
    return compute_alpha_beta(Q_MODEL, Q_PD, 1, seed=seed)


def test_q_frozen_constants():
    M = compute_M(Q_MODEL, Q_PD, 1)
    assert abs(M - 2.0 / math.sqrt(3.0)) <= 1e-15
    sc = q_constants()
    assert sc.M == M
    assert sc.phases == (0,) and sc.t_gaps == {0: 2}
    assert sc.alpha[0] == 1.0
    # beta = M*alpha + (M-1)*(n/d)*alpha = 3M - 2 here.
    assert abs(sc.beta[0] - (3.0 * M - 2.0)) <= 1e-15
    assert abs(sc.beta[0] - 1.4641016151377544) <= 1e-15
    assert sc.chain_product(0) == 4
    rstar = r_threshold(sc)
    assert abs(rstar - 8.092414634802363e-06) <= 1e-18
    # r* from first principles: gap = (1 - 1/M) * 4, d_next = 1.
    gap = (1.0 - 1.0 / M) * 4.0
    assert abs(sc.gap(0) - gap) <= 1e-12
    assert abs(rstar - math.exp(-2.0 * math.pi / gap)) <= 1e-18


def test_h_two_phase_structure():
    model = from_abstract(2, [(2, (2, 1))])
    pd = PoleData.from_dict({(1, 0): 3, (1, 1): 6})
    M = compute_M(model, pd, 1)
    assert abs(M - (35.0 / 36.0) ** -0.25) <= 1e-15
    sc = compute_alpha_beta(model, pd, 1)
    assert sc.phases == (0, 1) and sc.t_gaps == {0: 1, 1: 1}
    assert sc.next_phase(0) == 1 and sc.next_phase(1) == 0
    assert sc.chain_product(0) == 2 and sc.chain_product(1) == 1
    for j in sc.phases:
        assert sc.gap(j) > 0.0


def test_seed_scales_constants_linearly():
    sc1 = q_constants()
    sc2 = q_constants(seed=2.5)
    assert sc1.M == sc2.M
    for j in sc1.phases:
        assert abs(sc2.alpha[j] - 2.5 * sc1.alpha[j]) <= 1e-12
        assert abs(sc2.beta[j] - 2.5 * sc1.beta[j]) <= 1e-12


def test_seed_must_be_positive():
    with pytest.raises(ValueError):
        q_constants(seed=0.0)
    with pytest.raises(ValueError):
        q_constants(seed=-1.0)


def test_pole_free_cycle_rejected():
    model = from_abstract(3, [(1, (2,)), (1, (2,))])
    pd = PoleData.from_dict({(1, 0): 3})
    with pytest.raises(EmptyPoleSet):
        compute_M(model, pd, 2)
    with pytest.raises(EmptyPoleSet):
        compute_alpha_beta(model, pd, 2)
    # An index outside the model is named as such, before pole phases are looked up.
    for cycle in (0, 5):
        for fn in (compute_M, compute_alpha_beta, transition_matrix):
            with pytest.raises(InvalidPoleDataKey, match=f"^cycle {cycle} out of range \\(model has 2\\)$"):
                fn(model, pd, cycle)


def test_condition_failure_blocks_constants():
    model = from_abstract(2, [(1, (2,))])
    pd = PoleData.from_dict({(1, 0): 2})
    with pytest.raises(ConditionFails):
        compute_alpha_beta(model, pd, 1)


def test_no_slack_when_condition_fails():
    model = from_abstract(2, [(1, (2,))])
    # product exactly 1 -> M = 1, zero gap.
    sc = compute_alpha_beta(model, PoleData.from_dict({(1, 0): 2}), 1, require_condition=False)
    assert sc.M == 1.0
    with pytest.raises(NoSlack):
        r_threshold(sc)
    # product 3/2 > 1 -> M < 1, negative gap.
    sc2 = compute_alpha_beta(model, PoleData.from_dict({(1, 0): 1}), 1, require_condition=False)
    assert sc2.M < 1.0 and sc2.gap(0) < 0.0
    with pytest.raises(NoSlack):
        r_threshold(sc2)


def test_random_models_close_and_have_slack():
    rng = random.Random(555)
    checked = 0
    while checked < 100:
        model, pd = random_pole_model(rng)
        report = check_condition(model, pd)
        for idx in range(1, len(model.cycles) + 1):
            phases = pd.picked_phases(idx)
            cc = report.per_cycle[idx - 1]
            if not phases or not cc.holds:
                continue
            sc = compute_alpha_beta(model, pd, idx)
            assert sc.M > 1.0
            # Loop closure: M**(2|J|) * product == 1.
            assert abs(sc.M ** (2 * len(phases)) * float(cc.product) - 1.0) <= 1e-12
            for j in phases:
                nx = sc.next_phase(j)
                t = sc.t_gaps[j]
                bracket = 1.0 / sc.degrees[nx] + 1.0 / sc.pole_orders[nx]
                for k in range(1, t):
                    bracket *= 1.0 / sc.degrees[(j + k) % sc.period]
                lhs = sc.alpha[nx] * sc.M * sc.M * bracket * sc.degrees[nx]
                rhs = sc.degrees[j] * sc.alpha[j]
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
                # chain identity: lhs of the chain inequality is rhs / M.
                assert abs(sc.chain_lhs(j) - sc.chain_product(j) * sc.alpha[j] / sc.M) <= 1e-12 * sc.chain_rhs(j)
                assert sc.gap(j) > 0.0
            checked += 1
    assert checked >= 100


def test_r_star_brackets_the_plan():
    sc = q_constants()
    rstar = r_threshold(sc)
    plan = plan_levels(sc, rstar / 2.0)
    assert plan.point_i and plan.point_ii and plan.point_iii
    assert plan.r_threshold == rstar
    assert 2.0 * rstar < 1.0
    with pytest.raises(ThresholdViolation):
        plan_levels(sc, 2.0 * rstar)
    loose = plan_levels(sc, 2.0 * rstar, strict=False)
    assert loose.point_i and not loose.point_iii


def test_level_ordering_and_values():
    sc = q_constants()
    plan = plan_levels(sc, 1e-6)
    lout, lin, linf = plan.levels[0]
    assert lout == 1e-6 ** sc.alpha[0]
    assert lin == 1e-6 ** sc.beta[0]
    assert linf == 1e-6 ** plan.delta[0]
    assert lout > lin >= linf > 0.0


def test_groetzsch_c_zero_is_r_independent():
    sc = q_constants()
    assert r_threshold(sc, groetzsch_c=0.0) == 1.0
    expected = sc.beta[0] + (sc.degrees[0] / sc.pole_orders[0]) * sc.alpha[0]
    for r in (1e-9, 0.5, 0.999999):
        plan = plan_levels(sc, r, groetzsch_c=0.0)
        assert plan.point_iii
        assert abs(plan.delta[0] - expected) <= 1e-12


def test_plan_parameter_validation():
    sc = q_constants()
    for bad_r in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            plan_levels(sc, bad_r)
    with pytest.raises(ValueError):
        plan_levels(sc, 0.5, groetzsch_c=-1.0)
    with pytest.raises(ValueError):
        r_threshold(sc, groetzsch_c=-0.1)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"groetzsch_c {c} must be >= 0 and finite"):
            r_threshold(sc, c)
        with pytest.raises(ValueError, match=f"groetzsch_c {c} must be >= 0 and finite"):
            plan_levels(sc, 0.5, c, strict=False)
    # In (0, 1), but 1/r overflows: delta would be nan.
    for tiny in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="1/r overflows"):
            plan_levels(sc, tiny, strict=False)


def test_level_order_covers_the_printed_levels():
    # The exponents are ordered, but every level r**x underflows to 0.
    sc = q_constants(1e300)
    plan = plan_levels(sc, 0.5, strict=False)
    assert sc.alpha[0] < sc.beta[0] <= plan.delta[0]
    assert plan.levels[0] == (0.0, 0.0, 0.0)
    assert not plan.point_i and plan.point_iii
    with pytest.raises(LevelOrderViolation):
        plan_levels(sc, 0.5)


def test_level_order_needs_a_positive_inner_level():
    # Lout = r is positive, but Lin = r**beta and Linf = r**delta underflow
    # to 0, so Lin >= Linf would hold only as 0 >= 0.
    plan = plan_levels(q_constants(), 1e-308, strict=False)
    assert plan.levels[0] == (1e-308, 0.0, 0.0)
    assert not plan.point_i and plan.point_ii and plan.point_iii
    with pytest.raises(LevelOrderViolation):
        plan_levels(q_constants(), 1e-308)


def test_overflowing_constants_name_their_phase():
    # alpha and beta are finite, but both sides of the chain inequality
    # overflow, so its gap is nan.
    sc = q_constants(1e307)
    assert math.isfinite(sc.chain_lhs(0)) and sc.gap(0) > 0
    with pytest.raises(ClosureError, match=r"chain inequality overflows at phase 0: inf < inf \(alpha 1e\+308"):
        q_constants(1e308)


@pytest.mark.parametrize("seed", [0.0, -1.0, math.nan, math.inf])
def test_seed_must_be_positive_and_finite(seed):
    with pytest.raises(ValueError, match="seed .* must be positive and finite"):
        q_constants(seed)
