"""Tests of the benchmark itself: tail selection, output rules, op lists, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads as wl


# ---------------------------------------------------------------------------
# tail percentile


def test_percentile_matches_numpy():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(97)]
    for p in (50, 85, 90, 99.5):
        assert run.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_samples_beyond_counts_ranks_above():
    xs = list(range(100))
    for p in (50.0, 85.0, 90.0, 95.0):
        v = run.percentile(xs, p)
        assert run.samples_beyond(100, p) == sum(x > v for x in xs)


def test_tail_percentile_is_highest_with_ten_beyond():
    # 92 samples: p90 leaves exactly 10 beyond, p95 only 5.
    assert run.samples_beyond(92, 90.0) == 10
    assert run.tail_percentile(92, 99.9) == 90.0
    # The per-workload cap holds even when more samples would allow more.
    assert run.tail_percentile(1000, 85.0) == 85.0
    assert run.tail_percentile(20000, 99.9) == 99.9


def test_tail_percentile_steps_down_for_short_runs():
    # 60 samples: p85 leaves 9 beyond, so p80 (12 beyond) is used.
    assert run.samples_beyond(60, 85.0) == 9
    assert run.tail_percentile(60, 85.0) == 80.0
    assert run.tail_percentile(5, 90.0) == 50.0


# ---------------------------------------------------------------------------
# render refinement rule


def fake_grid(kind, iters=None, bid=None, bph=None):
    kind = np.array(kind, dtype=np.uint8)
    shape = kind.shape
    return SimpleNamespace(
        width=shape[1],
        height=shape[0],
        kind=kind,
        iters=np.array(iters if iters is not None else np.zeros(shape), dtype=np.int32),
        basin_id=np.array(bid if bid is not None else np.full(shape, -1), dtype=np.int16),
        basin_phase=np.array(bph if bph is not None else np.full(shape, -1), dtype=np.int16),
    )


def golden_of(grid):
    res = SimpleNamespace(code=0, stdout="wrote x\n", grid=grid)
    return wl.RenderPlanes().record(wl.Op("k", ("render",), "fast"), res)


REF = fake_grid(
    kind=[[1, 0], [2, 0]],
    iters=[[7, 0], [0, 0]],
    bid=[[-1, -1], [0, -1]],
    bph=[[-1, -1], [1, -1]],
)


def test_render_identical_grid_passes():
    golden = golden_of(REF)
    assert golden["undecided_count"] == 2
    assert golden["work"] == 7 + 2 * 512
    assert wl.refinement_ok(REF, golden)


def test_render_accepts_undecided_becoming_basin():
    new = fake_grid(
        kind=[[1, 2], [2, 2]],
        iters=[[7, 0], [0, 0]],
        bid=[[-1, 1], [0, 1]],
        bph=[[-1, 0], [1, 1]],
    )
    assert wl.refinement_ok(new, golden_of(REF))


@pytest.mark.parametrize(
    "field,value",
    [("kind", 0), ("iters", 8), ("basin_id", 1), ("basin_phase", 0)],
)
def test_render_rejects_change_to_decided_pixel(field, value):
    new = fake_grid(REF.kind.copy(), REF.iters.copy(), REF.basin_id.copy(), REF.basin_phase.copy())
    target = (0, 0) if field in ("kind", "iters") else (1, 0)
    getattr(new, field)[target] = value
    assert not wl.refinement_ok(new, golden_of(REF))


def test_render_rejects_other_size():
    assert not wl.refinement_ok(fake_grid([[1, 0, 0], [2, 0, 0]]), golden_of(REF))


def test_render_check_needs_a_grid():
    golden = golden_of(REF)
    res = wl.Result(0, golden["stdout"], 0.01, grid=None)
    chk = wl.RenderPlanes().check(None, res, golden)
    assert not chk.correct and chk.failed


# ---------------------------------------------------------------------------
# verify failure rule

VERIFY_PASS = """degree: OK
census: OK (free 4, nu 6, map degree 4)
orbits: OK (4/4 consistent)
untouched cycles: OK
condition cycle 1: 3/4
condition: holds
verdict: PASS
"""
VERIFY_GOLDEN = {"code": 0, "stdout": VERIFY_PASS, "map_degree": 4}


def verify(stdout, code=0, error=""):
    return wl.verify_check(wl.Result(code, stdout, 0.01, error), VERIFY_GOLDEN)


def test_verify_same_output_passes():
    chk = verify(VERIFY_PASS)
    assert chk.correct and not chk.failed and chk.passed and not chk.flipped


def test_verify_raise_or_exit_2_is_wrong():
    assert not verify("", code=None, error="ValueError: boom").correct
    chk = verify("error: bad\n", code=2)
    assert not chk.correct and chk.failed


VERIFY_UNAVAILABLE = VERIFY_PASS.replace(
    "census: OK (free 4, nu 6, map degree 4)", "census: FAIL (unavailable)"
).replace("verdict: PASS", "verdict: FAIL")


def test_verify_lost_census_fails_but_is_not_wrong():
    chk = verify(VERIFY_UNAVAILABLE, code=1)
    assert chk.correct and chk.failed and chk.flipped
    assert chk.reason == wl.CENSUS_UNAVAILABLE


def test_verify_census_unavailable_as_in_golden_is_not_failed():
    golden = {"code": 1, "stdout": VERIFY_UNAVAILABLE, "map_degree": 4}
    chk = wl.verify_check(wl.Result(1, VERIFY_UNAVAILABLE, 0.01), golden)
    assert chk.correct and not chk.failed and not chk.flipped
    assert chk.reason == wl.CENSUS_UNAVAILABLE


def test_verify_census_found_where_golden_had_none_must_keep_map_degree():
    golden = {"code": 1, "stdout": VERIFY_UNAVAILABLE, "map_degree": 4}
    chk = wl.verify_check(wl.Result(0, VERIFY_PASS, 0.01), golden)
    assert chk.correct and not chk.failed and chk.flipped
    chk = wl.verify_check(wl.Result(0, VERIFY_PASS.replace("map degree 4", "map degree 5"), 0.01), golden)
    assert not chk.correct and chk.failed


def test_verify_verdict_flip_is_reported_not_failed():
    out = VERIFY_PASS.replace("orbits: OK", "orbits: FAIL").replace("verdict: PASS", "verdict: FAIL")
    chk = verify(out, code=1)
    assert chk.correct and not chk.failed and chk.flipped


def test_verify_census_free_count_may_change():
    chk = verify(VERIFY_PASS.replace("free 4", "free 3"))
    assert chk.correct and not chk.failed


@pytest.mark.parametrize(
    "old,new",
    [
        ("map degree 4", "map degree 5"),
        ("degree: OK", "degree: FAIL"),
        ("condition cycle 1: 3/4", "condition cycle 1: 1/1"),
        ("condition: holds", "condition: fails"),
    ],
)
def test_verify_degree_condition_and_census_degree_must_match(old, new):
    chk = verify(VERIFY_PASS.replace(old, new))
    assert not chk.correct and chk.failed


# ---------------------------------------------------------------------------
# skew rule

SKEW_OUT = """skew n=2 d=2 depth 14 horizon 13
unburied 8192
buried_preperiodic 8191
undetermined 1
total 16384
oracle: OK (8192 unburied)
"""
SKEW_OP = wl.Op("k14|default", ("skew", "--depth", "14"), "default")


def test_skew_exact_counts_pass():
    assert wl.skew_check(SKEW_OP, wl.Result(0, SKEW_OUT, 0.1), {"stdout": SKEW_OUT, "code": 0}).correct


@pytest.mark.parametrize(
    "old,new",
    [
        ("undetermined 1", "undetermined 2"),
        ("oracle: OK (8192", "oracle: FAIL (8190"),
        ("unburied 8192\nburied_preperiodic 8191", "unburied 8191\nburied_preperiodic 8192"),
    ],
)
def test_skew_rejects_wrong_counts(old, new):
    res = wl.Result(0, SKEW_OUT.replace(old, new), 0.1)
    assert not wl.skew_check(SKEW_OP, res, {"stdout": SKEW_OUT, "code": 0}).correct


# ---------------------------------------------------------------------------
# op lists


def first_ops(work, seed, blocks):
    gen = work.blocks(random.Random(f"{work.name}:{seed}"))
    return list(itertools.islice(gen, blocks))


@pytest.mark.parametrize("name", ["render_planes", "verify_sweep", "skew_census"])
def test_op_lists_follow_the_seed(name):
    work = wl.WORKLOADS[name]()
    assert first_ops(work, 5, 8) == first_ops(work, 5, 8)
    assert first_ops(work, 5, 8) != first_ops(work, 6, 8)


def test_render_blocks_are_a_quarter_r_milnor():
    for block in first_ops(wl.RenderPlanes(), 1, 20):
        assert [op.cls for op in block].count("slow") == 1 and len(block) == 4


def test_skew_blocks_are_a_quarter_default_horizon():
    for block in first_ops(wl.SkewCensus(), 1, 5):
        assert sum(op.cls == "default" for op in block) * 4 == len(block)
        depths = sorted(int(op.argv[2]) for op in block)
        assert depths == sorted(list(wl.SKEW_DEPTHS) * 4)


def test_verify_factors_are_log_uniform_in_range():
    assert wl.verify_factor(0) == pytest.approx(0.01)
    assert wl.verify_factor(wl.VERIFY_STEPS) == pytest.approx(10.0)
    ops = [op for block in first_ops(wl.VerifySweep(), 2, 610) for op in block if op.cls == "q_family"]
    # 610 draws over 61 factors: every factor close to its share of 10.
    counts = [sum(op.key == f"q_family|f{j}" for op in ops) for j in range(61)]
    assert min(counts) >= 8 and max(counts) <= 12


def test_spread_keeps_every_prefix_balanced():
    spread = wl.Spread(range(20), random.Random(4))
    draws = [spread.draw() for _ in range(400)]
    for n in (40, 100, 400):
        low = sum(d < 10 for d in draws[:n])
        assert abs(low - n / 2) <= 2


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_op_has_a_golden(name):
    work = wl.WORKLOADS[name]()
    goldens = wl.load_goldens(name)
    for block in first_ops(work, 9, 30):
        for op in block:
            assert op.key in goldens


# ---------------------------------------------------------------------------
# tracing


@pytest.fixture(scope="module")
def cli():
    return wl.load_cli()


def test_tracer_spans_nest_and_self_time(cli):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        res = wl.run_in_process(cli, ["skew", "--depth", "6", "--horizon", "3"])
    finally:
        tracer.uninstall()
    assert res.code == 0
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert "skew.census_at_depth" in names
    summary = tracing.summarize(tracer.spans)
    # unburied_oracle recurses: every call is a span, inclusive time counts
    # only the outermost one.
    oracle = [s for s in tracer.spans if s[0] == "skew.unburied_oracle"]
    assert len(oracle) == 4 and sum(not s[6] for s in oracle) == 1
    assert summary["skew.unburied_oracle"]["incl_ns"] == oracle[0][2] - oracle[0][1]
    main = summary["cli.main"]
    assert 0 < main["self_ns"] < main["incl_ns"]
    assert tracer.counters["skew.census_at_depth.codes"] == 64
    # Uninstalled: the CLI's names are the originals again.
    assert cli.census_at_depth is sys_module("mcmlike.skew").census_at_depth
    assert not hasattr(cli.census_at_depth, "__wrapped__")


def sys_module(name):
    import sys

    return sys.modules[name]


def test_tracer_reports_absent_functions(cli):
    tracer = tracing.Tracer()
    tracer.install(("skew.census_at_depth", "skew.no_such_function", "no_such_module.f"))
    tracer.uninstall()
    assert tracer.missing == {"skew.no_such_function", "no_such_module.f"}


def test_tracer_records_the_exception_a_call_raised(cli):
    tracer = tracing.Tracer()
    tracer.install(("skew.census_at_depth",))
    try:
        with pytest.raises(ValueError):
            sys_module("mcmlike.skew").census_at_depth(0, 0)
    finally:
        tracer.uninstall()
    assert [s[5] for s in tracer.spans] == ["ValueError"]
    assert tracing.summarize(tracer.spans)["skew.census_at_depth"]["raised.ValueError"] == 1


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_lists_the_printed_metrics():
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
