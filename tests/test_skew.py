"""Skew-product cylinder dynamics and the census."""

import ast

import numpy as np
import pytest

import mcmlike.skew
from mcmlike.skew import (
    BuriedPreperiodic,
    BuriedWandering,
    CodeWord,
    DepthExhausted,
    SkewState,
    Unburied,
    census_at_depth,
    classify_code,
    code_step,
    skew_step,
    unburied_oracle,
)


def test_codeword_validation():
    with pytest.raises(ValueError):
        CodeWord(())
    with pytest.raises(ValueError):
        CodeWord((0, 2))
    w = CodeWord.from_string("0110")
    assert w.bits == (0, 1, 1, 0) and w.depth == 4 and str(w) == "0110"


def test_code_step_traces():
    assert code_step(CodeWord((1, 0, 1))) == CodeWord((0, 1))
    assert code_step(CodeWord((0, 0, 1))) == CodeWord((1, 0))
    with pytest.raises(DepthExhausted):
        code_step(CodeWord((1,)))


def test_skew_step_validation_and_angle():
    s = SkewState(CodeWord((1, 1)), 0.3)
    with pytest.raises(ValueError):
        skew_step(s, 0, 2)
    with pytest.raises(ValueError):
        skew_step(s, 2, 0)
    out = skew_step(s, 3, 2)
    assert out.code == CodeWord((1,))
    assert abs(out.angle - 0.9) <= 1e-15
    out0 = skew_step(SkewState(CodeWord((0, 1)), 0.3), 3, 2)
    assert out0.code == CodeWord((0,))
    assert abs(out0.angle - 0.4) <= 1e-15  # (-2 * 0.3) mod 1


def test_all_ones_cylinder_is_fixed_with_angle_n_theta():
    s = SkewState(CodeWord((1,) * 6), 0.137)
    t = skew_step(s, 3, 2)
    assert t.code.bits == (1,) * 5
    assert abs(t.angle - (3 * 0.137) % 1.0) <= 1e-15


def test_alternating_from_zero_two_steps_squares_angle_factor():
    # 0101... has head 0, and flipping its tail gives 1010... truncated, whose
    # own step returns to 0101...; the cylinder pattern is preserved at every
    # step while the angle picks up a factor of -d each time.
    d, n = 2, 3
    theta = 0.2890625  # dyadic so the mod-1 arithmetic is exact
    s = SkewState(CodeWord(tuple((i % 2) for i in range(8))), theta)  # 01010101
    one = skew_step(s, n, d)
    assert one.code.bits == tuple((i % 2) for i in range(7))  # still 0101...
    two = skew_step(one, n, d)
    assert two.code.bits == tuple((i % 2) for i in range(6))
    assert abs(two.angle - (d * d * theta) % 1.0) <= 1e-15


def test_classify_hand_traces():
    assert classify_code(CodeWord((1, 1, 1, 1)), 3) == Unburied(0)
    assert classify_code(CodeWord((0, 0, 0, 0)), 3) == Unburied(1)
    assert classify_code(CodeWord((0, 1, 0, 1)), 3) == BuriedPreperiodic(0, 1)
    assert classify_code(CodeWord((0, 1, 1)), 1) == BuriedWandering()


def test_classify_horizon_validation():
    with pytest.raises(ValueError):
        classify_code(CodeWord((1, 0)), 2)
    with pytest.raises(ValueError):
        classify_code(CodeWord((1, 0)), -1)
    with pytest.raises(ValueError):
        census_at_depth(0, 0)
    with pytest.raises(ValueError):
        census_at_depth(21, 0)
    with pytest.raises(ValueError):
        census_at_depth(5, 5)


def test_census_conservation():
    for k in (1, 4, 8, 12, 16, 20):
        census = census_at_depth(k, k - 1)
        assert census.total == 2**k


def test_census_matches_per_code_classification():
    k = 10
    for horizon in (0, 3, 9):
        counts = {"u": 0, "p": 0, "w": 0}
        for x in range(2**k):
            bits = tuple((x >> (k - 1 - i)) & 1 for i in range(k))
            out = classify_code(CodeWord(bits), horizon)
            if isinstance(out, Unburied):
                counts["u"] += 1
            elif isinstance(out, BuriedPreperiodic):
                counts["p"] += 1
            else:
                counts["w"] += 1
        census = census_at_depth(k, horizon)
        assert (census.unburied, census.buried_preperiodic, census.undetermined) == (
            counts["u"],
            counts["p"],
            counts["w"],
        )


def test_unburied_oracle_size_law_and_agreement():
    # Bit x of the oracle is set iff classify_code calls code x unburied,
    # |U(k, h)| = 2**h for h <= k - 1, and the census agrees.
    for k in range(1, 11):
        for horizon in range(k):
            oracle = unburied_oracle(k, horizon)
            hits = 0
            for x in range(2**k):
                bits = tuple((x >> (k - 1 - i)) & 1 for i in range(k))
                if isinstance(classify_code(CodeWord(bits), horizon), Unburied):
                    hits |= 1 << x
            assert oracle == hits
            assert len(oracle) == oracle.bit_count() == 2**horizon
            assert census_at_depth(k, horizon).unburied == 2**horizon


def _enumerated_census(k, horizon):
    """Reference census: classify all 2**k codes at once with numpy.

    Mirrors classify_code exactly: unburied takes precedence, then the
    first (s2, s1) truncation repeat.
    """
    total = 1 << k
    traj = [np.arange(total, dtype=np.uint32)]
    for s in range(1, horizon + 1):
        prev = traj[-1]
        length = k - s + 1
        mask = np.uint32((1 << (length - 1)) - 1)
        head = (prev >> np.uint32(length - 1)) & np.uint32(1)
        tail = prev & mask
        traj.append(np.where(head == 1, tail, tail ^ mask))

    unburied = np.zeros(total, dtype=bool)
    for s, arr in enumerate(traj):
        unburied |= arr == np.uint32((1 << (k - s)) - 1)

    preper = np.zeros(total, dtype=bool)
    open_mask = ~unburied
    for s2 in range(1, horizon + 1):
        for s1 in range(s2):
            hit = open_mask & (traj[s2] == traj[s1] >> np.uint32(s2 - s1))
            preper |= hit
            open_mask &= ~hit
    n_unburied = int(unburied.sum())
    n_preper = int(preper.sum())
    return n_unburied, n_preper, total - n_unburied - n_preper


@pytest.mark.parametrize(
    "k, horizons",
    [(k, range(k)) for k in range(1, 17)] + [(20, (0, 1, 9, 10, 18, 19))],
)
def test_census_count_matches_enumeration(k, horizons):
    for horizon in horizons:
        census = census_at_depth(k, horizon)
        counted = (census.unburied, census.buried_preperiodic, census.undetermined)
        assert counted == _enumerated_census(k, horizon), (k, horizon)


def test_skew_module_imports_no_numpy():
    # Checked on the source, since importing mcmlike loads numpy elsewhere.
    tree = ast.parse(open(mcmlike.skew.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def test_depth_twelve_headline_numbers():
    census = census_at_depth(12, 11)
    assert census.unburied == 2048
    assert census.buried_preperiodic == 2047
    assert census.undetermined == 1
