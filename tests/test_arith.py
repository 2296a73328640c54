"""Exact condition arithmetic and transition-matrix eigenvalues."""

import random
from fractions import Fraction

import pytest

from mcmlike.arith import (
    InvalidPoleDataKey,
    PoleData,
    check_condition,
    leading_eigenvalue,
    leading_eigenvalue_exact,
    power_iteration_eigenvalue,
    transition_matrix,
)
from mcmlike.model import from_abstract

from conftest import random_pole_model

Q_MODEL = from_abstract(3, [(2, (2, 2))])
Q_PD = PoleData.from_dict({(1, 0): 1})


def test_condition_q_exact():
    report = check_condition(Q_MODEL, Q_PD)
    assert report.per_cycle[0].product == Fraction(3, 4)
    assert report.overall


def test_condition_h_exact():
    model = from_abstract(2, [(2, (2, 1))])
    pd = PoleData.from_dict({(1, 0): 3, (1, 1): 6})
    report = check_condition(model, pd)
    assert report.per_cycle[0].product == Fraction(35, 36)
    assert report.overall


def test_condition_nd2_fails_exactly_at_one():
    model = from_abstract(2, [(1, (2,))])
    report = check_condition(model, PoleData.from_dict({(1, 0): 2}))
    assert report.per_cycle[0].product == Fraction(1, 1)
    assert not report.per_cycle[0].holds
    assert not report.overall


def test_condition_nd3_holds():
    model = from_abstract(3, [(1, (3,))])
    report = check_condition(model, PoleData.from_dict({(1, 0): 3}))
    assert report.per_cycle[0].product == Fraction(2, 3)
    assert report.overall


def test_condition_r_type_per_cycle():
    model = from_abstract(3, [(1, (2,)), (1, (2,))])
    report = check_condition(model, PoleData.from_dict({(1, 0): 3}))
    products = [cc.product for cc in report.per_cycle]
    assert products == [Fraction(5, 6), Fraction(1, 2)]
    # The pole-free cycle passes automatically with its product reported.
    assert report.per_cycle[1].picked_phases == ()
    assert report.overall


def test_pole_data_validation_errors():
    with pytest.raises(InvalidPoleDataKey):
        check_condition(Q_MODEL, PoleData.from_dict({(2, 0): 1}))
    with pytest.raises(InvalidPoleDataKey):
        check_condition(Q_MODEL, PoleData.from_dict({(1, 5): 1}))
    with pytest.raises(InvalidPoleDataKey):
        check_condition(Q_MODEL, PoleData.from_dict({(1, 0): 0}))
    dup = PoleData(entries=(((1, 0), 1), ((1, 0), 2)))
    with pytest.raises(InvalidPoleDataKey):
        check_condition(Q_MODEL, dup)


def test_pole_data_accessors():
    pd = PoleData.from_dict({(1, 1): 5, (1, 0): 7})
    assert pd.picked_phases(1) == (0, 1)
    assert pd.order(1, 1) == 5 and pd.order(1, 2) is None
    assert pd.total_order() == 12
    assert dict(pd.entries) == {(1, 0): 7, (1, 1): 5}


def test_transition_matrix_structure():
    tm = transition_matrix(Q_MODEL, Q_PD, 1)
    assert tm.size == 2
    assert tm.entries[0][1] == Fraction(1, 2) + Fraction(1, 1)
    assert tm.entries[1][0] == Fraction(1, 2)
    assert tm.entries[0][0] == 0 and tm.entries[1][1] == 0
    assert tm.cyclic_product() == Fraction(3, 4)


def test_leading_eigenvalue_closed_form():
    tm = transition_matrix(Q_MODEL, Q_PD, 1)
    prod, p = leading_eigenvalue_exact(tm)
    assert (prod, p) == (Fraction(3, 4), 2)
    assert abs(leading_eigenvalue(tm) - 0.75**0.5) < 1e-15


def test_power_iteration_cross_check_named_models():
    cases = [
        (Q_MODEL, Q_PD),
        (from_abstract(2, [(2, (2, 1))]), PoleData.from_dict({(1, 0): 3, (1, 1): 6})),
        (from_abstract(3, [(1, (3,))]), PoleData.from_dict({(1, 0): 3})),
        (from_abstract(2, [(1, (2,))]), PoleData.from_dict({(1, 0): 2})),
    ]
    for model, pd in cases:
        tm = transition_matrix(model, pd, 1)
        assert abs(leading_eigenvalue(tm) - power_iteration_eigenvalue(tm)) <= 1e-12


def test_eigenvalue_condition_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        model, pd = random_pole_model(rng)
        report = check_condition(model, pd)
        for idx in range(1, len(model.cycles) + 1):
            tm = transition_matrix(model, pd, idx)
            prod, p = leading_eigenvalue_exact(tm)
            assert prod == report.per_cycle[idx - 1].product
            assert p == model.cycles[idx - 1].period
            lam = leading_eigenvalue(tm)
            pit = power_iteration_eigenvalue(tm)
            assert abs(lam - pit) <= 1e-12
            assert (prod < 1) == report.per_cycle[idx - 1].holds


def test_transition_matrix_cycle_out_of_range():
    with pytest.raises(InvalidPoleDataKey):
        transition_matrix(Q_MODEL, Q_PD, 2)
