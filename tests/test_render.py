"""Grid classification, PPM export, and diagnostic profiles."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from mcmlike.cli import _render_attractors
from mcmlike.dynamics import ComplexPoly, Escaped, auto_radius, reflections, simple_poles_map
from mcmlike.model_io import load_model
from mcmlike.render import (
    BLOCK,
    CAPTURE_TOL,
    FEW,
    KIND_BASIN,
    KIND_ESCAPED,
    KIND_UNDECIDED,
    PALETTE8,
    ROUND,
    ClassGrid,
    RenderSpec,
    classify_grid,
    classify_points,
    grid_to_rgb,
    grid_to_text,
    radial_profile,
    rotational_symmetry_score,
    _classify,
    _mirrored_axes,
    _seeds,
    check_ray,
    write_ppm,
)

from conftest import FIXTURES
from oracles import masked_classify_points, masked_rgb, reference_iterate_orbit

SQUARE = ComplexPoly([0, 0, 1])
CUBE = ComplexPoly([0, 0, 0, 1])


def f_map():
    return load_model(FIXTURES / "f_cubic.json").build_map()


def ppm_bytes(grid, tmp_path, name):
    path = tmp_path / name
    write_ppm(grid, str(path))
    return path.read_bytes()


def test_golden_single_undecided_pixel(tmp_path):
    # The only sample point is center + (-hw, +hw) = 0; z**2 keeps it at 0.
    spec = RenderSpec(map=SQUARE, width=1, height=1, center=1 - 1j, half_width=1.0, max_iter=16)
    grid = classify_grid(spec)
    assert grid.kind[0, 0] == KIND_UNDECIDED
    assert ppm_bytes(grid, tmp_path, "u.ppm") == b"P6\n1 1\n255\n\x00\x00\x00"
    assert grid_to_text(grid) == "U\n"


def test_golden_escape_and_basin_pixels(tmp_path):
    # Samples (-3, 0) and (0, 0): immediate escape and immediate capture.
    spec = RenderSpec(
        map=SQUARE,
        width=2,
        height=1,
        center=-1.5j,
        half_width=3.0,
        max_iter=8,
        attractors=[((0j,), 1)],
    )
    grid = classify_grid(spec)
    assert grid.tag(0, 0) == "E0" and grid.tag(1, 0) == "B0.0"
    expected = b"P6\n2 1\n255\n" + bytes((255, 255, 255)) + bytes(PALETTE8[0])
    assert ppm_bytes(grid, tmp_path, "eb.ppm") == expected
    assert grid_to_text(grid) == "E0,B0.0\n"


def test_ppm_size_law(tmp_path):
    spec = RenderSpec(map=f_map(), width=32, height=24, max_iter=16)
    data = ppm_bytes(classify_grid(spec), tmp_path, "f.ppm")
    assert len(data) == len(b"P6\n32 24\n255\n") + 32 * 24 * 3


def test_grid_matches_scalar_orbits():
    # The orbit oracle without revisits (cycle_tol 0) is the scalar form of
    # the render rule: Escaped at the first step beyond the radius, on a
    # non-finite iterate or on a pole collision, Undecided at max_iter.
    f = f_map()
    spec = RenderSpec(map=f, width=64, height=64, max_iter=64)
    grid = classify_grid(spec)
    xs = spec.center.real + (np.arange(64) - 32) * spec.pitch
    ys = spec.center.imag + (32 - np.arange(64)) * spec.pitch
    rng = random.Random(4242)
    for _ in range(30):
        ix, iy = rng.randrange(64), rng.randrange(64)
        z = complex(xs[ix], ys[iy])
        out = reference_iterate_orbit(f, z, spec.max_iter, cycle_tol=0.0).outcome
        if isinstance(out, Escaped):
            assert grid.kind[iy, ix] == KIND_ESCAPED
            assert grid.iters[iy, ix] == out.escape_index
        else:
            assert grid.kind[iy, ix] == KIND_UNDECIDED


def test_resolution_nesting_is_exact():
    f = f_map()
    lo = classify_grid(RenderSpec(map=f, width=16, height=16, max_iter=32))
    hi = classify_grid(RenderSpec(map=f, width=64, height=64, max_iter=32))
    assert np.array_equal(hi.kind[0::4, 0::4], lo.kind)
    assert np.array_equal(hi.iters[0::4, 0::4], lo.iters)


def test_determinism():
    spec = RenderSpec(map=f_map(), width=48, height=48, max_iter=32)
    first = classify_grid(spec)
    again = classify_grid(spec)
    assert rotational_symmetry_score(again, 3) == rotational_symmetry_score(first, 3)
    ray = radial_profile(spec, 0.1, 0.05, 1.5, 200)
    ray_again = radial_profile(spec, 0.1, 0.05, 1.5, 200)
    assert np.array_equal(ray.kind, ray_again.kind)
    assert np.array_equal(ray.iters, ray_again.iters)
    assert np.array_equal(first.kind, again.kind)
    assert np.array_equal(first.iters, again.iters)
    assert np.array_equal(first.basin_id, again.basin_id)
    assert np.array_equal(first.basin_phase, again.basin_phase)
    assert grid_to_rgb(first).tobytes() == grid_to_rgb(again).tobytes()


def test_odd_map_has_exact_half_turn_symmetry():
    grid = classify_grid(RenderSpec(map=f_map(), width=128, height=128, max_iter=32))
    assert rotational_symmetry_score(grid, 2) == 1.0
    with pytest.raises(ValueError):
        rotational_symmetry_score(grid, 1)


def test_symmetry_score_reevaluates_rotated_seeds():
    # |f(wz)| = |f(z)| for z^2 and any rotation w, so every order scores near 1
    # although a 6-fold rotation maps few pixels onto pixels.
    spec = RenderSpec(map=SQUARE, width=32, height=32, max_iter=64, attractors=[((0j,), 1)])
    grid = classify_grid(spec)
    assert grid.spec is spec
    assert rotational_symmetry_score(grid, 6) >= 0.995
    bare = ClassGrid(kind=grid.kind, iters=grid.iters, basin_id=grid.basin_id, basin_phase=grid.basin_phase)
    with pytest.raises(ValueError):
        rotational_symmetry_score(bare, 6)


def test_half_turn_rotates_seeds_exactly():
    # z^2 - 0.01/z^2 is even; -z is exact, exp(i*pi)*z is not, and that 1e-16
    # moves slow escapes near the Julia set by more than one index.
    even = load_model(FIXTURES / "nd2_family.json").build_map()
    grid = classify_grid(RenderSpec(map=even, width=64, height=64))
    assert rotational_symmetry_score(grid, 2) == 1.0
    assert rotational_symmetry_score(grid, 4) == 1.0


def test_radial_alternations_near_pole():
    spec = RenderSpec(map=f_map(), width=8, height=8, max_iter=16)
    prof = radial_profile(spec, 0.1, 1e-3, 1.6, 4096)
    assert prof.alternations == 8
    assert prof.alternations >= 3
    assert len(prof.radii) == 4096


def test_radial_control_polynomial_single_boundary():
    # z**3 has no trap door: exactly one escaped/bounded boundary on the ray,
    # at every iteration budget.
    for max_iter in (8, 64, 512):
        spec = RenderSpec(
            map=CUBE, width=8, height=8, max_iter=max_iter, attractors=[((0j,), 1)]
        )
        prof = radial_profile(spec, 0.1, 1e-3, 1.6, 1024)
        assert prof.alternations == 1


def test_radial_q_family():
    q = load_model(FIXTURES / "q_family.json").build_map()
    spec = RenderSpec(map=q, width=8, height=8, max_iter=64)
    prof = radial_profile(spec, 0.1, 1e-3, 1.6, 4096)
    assert prof.alternations == 8
    assert prof.alternations >= 2


def test_radial_validation():
    spec = RenderSpec(map=CUBE, width=8, height=8)
    with pytest.raises(ValueError):
        radial_profile(spec, 0.0, 1e-3, 1.6, 1)
    with pytest.raises(ValueError):
        radial_profile(spec, 0.0, 0.0, 1.6, 16)
    with pytest.raises(ValueError):
        radial_profile(spec, 0.0, 2.0, 1.6, 16)
    # An infinite r_max made every sample after the first an infinite seed,
    # read as escaped.
    for check in (check_ray, lambda *ray: radial_profile(spec, *ray)):
        with pytest.raises(ValueError, match="r_max inf must be finite"):
            check(0.0, 1e-3, math.inf, 16)
        with pytest.raises(ValueError, match="need 0 < r_min < r_max"):
            check(0.0, 1e-3, math.nan, 16)
        for angle in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"angle {angle} must be finite"):
                check(angle, 1e-3, 1.6, 16)


def test_basin_and_exterior_classification():
    spec = RenderSpec(
        map=CUBE, width=8, height=8, max_iter=64, attractors=[((0j,), 1)]
    )
    grid = classify_grid(spec)
    tags = {grid.tag(ix, iy) for ix in range(8) for iy in range(8)}
    assert "B0.0" in tags
    assert any(t.startswith("E") for t in tags)
    assert "U" not in tags
    # |z| < 1 converges, |z| > 1 escapes.
    assert grid.tag(4, 4) == "B0.0"  # sample (0.1875, -0.1875)
    assert grid.kind[0, 0] == KIND_ESCAPED  # sample (-1.5, 1.5)


def test_classify_points_paths():
    kind, iters, bid, bph = classify_points(
        SQUARE,
        np.array([30.0 + 0j, 0.5 + 0j, 1.5 + 0j]),
        max_iter=16,
        escape_radius=10.0,
        attractors=[((0.5 + 0j,), 1)],
    )
    assert kind[0] == KIND_ESCAPED and iters[0] == 0
    assert kind[1] == KIND_BASIN and bid[1] == 0 and bph[1] == 0
    # 1.5 -> 2.25 -> 5.06 -> 25.6 crosses radius 10 at step 3.
    assert kind[2] == KIND_ESCAPED and iters[2] == 3


def test_write_ppm_error_carries_path(tmp_path):
    grid = classify_grid(RenderSpec(map=SQUARE, width=1, height=1))
    bad = tmp_path / "missing" / "out.ppm"
    with pytest.raises(OSError, match="out.ppm"):
        write_ppm(grid, str(bad))


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(map=SQUARE, width=0, height=8)
    with pytest.raises(ValueError):
        RenderSpec(map=SQUARE, width=8, height=0)
    with pytest.raises(ValueError):
        RenderSpec(map=SQUARE, width=8, height=8, half_width=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            RenderSpec(map=SQUARE, width=8, height=8, half_width=bad)
    # Finite, but 2 * half_width overflows.
    with pytest.raises(ValueError, match="pixel pitch .* = inf must be finite"):
        RenderSpec(map=SQUARE, width=8, height=8, half_width=1e308)
    for bad in (complex("nan"), complex("infj"), complex(1, float("nan")), float("-inf")):
        with pytest.raises(ValueError, match="center .* must be finite"):
            RenderSpec(map=SQUARE, width=8, height=8, center=bad)
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="max_iter .* must be >= 0"):
            RenderSpec(map=SQUARE, width=8, height=8, max_iter=bad)


def test_max_iter_zero_classifies_step_zero_only():
    # Seeds -3.5, -1.5, 0.5 and 2.5: beyond the radius 2, escaping at step 1,
    # on the attractor, beyond the radius.
    spec = RenderSpec(
        map=SQUARE, width=4, height=1, center=0.5 - 1j, half_width=4.0, max_iter=0,
        attractors=[((0.5 + 0j,), 1)],
    )
    assert grid_to_text(classify_grid(spec)) == "E0,U,B0.0,E0\n"


def test_classify_points_rejects_non_finite_escape_radius():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            classify_points(SQUARE, np.array([0.5 + 0j]), max_iter=4, escape_radius=bad)


# ---------------------------------------------------------------------------
# classify_points and grid_to_rgb against the render oracles, which do the
# same arithmetic in the same order: the outputs must be equal element for
# element.


def assert_matches_reference(f, pts, max_iter, **kw):
    got = classify_points(f, pts, max_iter, **kw)
    want = masked_classify_points(f, pts, max_iter, **kw)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


@pytest.mark.parametrize(
    "name, n_attractors, lambda_scale",
    [
        # r_milnor and q_family: untouched cycles that persist.
        pytest.param("r_milnor", 1, 1, id="r_milnor-1"),
        pytest.param("q_family", 0, 1, id="q_family-0"),
        # f_cubic at 4 lambda: seeds on the axes stay open to max_iter, so
        # most steps lose no seed.  h_multipole: one term over two factors.
        pytest.param("f_cubic", 0, 4, id="f_cubic-0-lambda4"),
        pytest.param("h_multipole", 0, 1, id="h_multipole-0"),
    ],
)
def test_classify_points_matches_reference_on_family(name, n_attractors, lambda_scale):
    mf = load_model(FIXTURES / f"{name}.json")
    f = mf.build_map()
    if lambda_scale != 1:
        f = mf.build_map(lambda_override=f.terms[0][0] * lambda_scale)
    attractors, _ = _render_attractors(mf, f)
    assert len(attractors) == n_attractors
    spec = RenderSpec(map=f, width=64, height=64, attractors=attractors)
    kind, _, _, _ = assert_matches_reference(f, _seeds(spec), spec.max_iter, attractors=attractors)
    assert (KIND_BASIN in kind) == bool(attractors)


def test_classify_points_reference_edge_seeds():
    f = f_map()
    radius = auto_radius(f)
    pts = np.array([0j, 2 * radius + 0j, -radius * 1j * 1.5, 0.9 + 0.1j])
    kind, iters, _, _ = assert_matches_reference(f, pts, 16)
    # On the pole, f(0) is not finite: Escaped(1).  Beyond the radius: Escaped(0).
    assert kind[0] == KIND_ESCAPED and iters[0] == 1
    assert kind[1] == KIND_ESCAPED and iters[1] == 0
    assert kind[2] == KIND_ESCAPED and iters[2] == 0


def test_classify_points_reference_captures():
    # A seed on an attractor point is a step-0 Basin; 0.5 -> 0.25 lands within
    # CAPTURE_TOL of two listed points, and the first listed wins.
    attractors = [((0.25 + 3e-7,), 1), ((0.25 - 3e-7,), 1), ((0.9 + 0j, 0.81 + 0j), 2)]
    pts = np.array([0.9 + 0j, 0.5 + 0j, 0.81 + 0j, 0.25 + 0j])
    kind, iters, bid, bph = assert_matches_reference(SQUARE, pts, 8, attractors=attractors)
    assert list(kind) == [KIND_BASIN] * 4
    assert list(iters) == [0] * 4
    assert list(bid) == [2, 0, 2, 0]
    assert list(bph) == [0, 0, 1, 0]


def test_classify_points_reference_capture_without_escapes():
    # sqrt(1.5) is captured at 1.5 on step 1, where no seed escapes; its
    # orbit would escape on step 2, so a captured seed left open reads E2.
    pts = np.array([math.sqrt(1.5) + 0j, 0.5 + 0j])
    kind, iters, bid, _ = assert_matches_reference(SQUARE, pts, 8, attractors=[((1.5 + 0j,), 1)])
    assert list(kind) == [KIND_BASIN, KIND_UNDECIDED]
    assert list(iters) == [0, 0] and list(bid) == [0, -1]


def test_classify_points_reference_undecided_at_cap():
    f = f_map()
    spec = RenderSpec(map=f, width=32, height=32, max_iter=3)
    kind, _, _, _ = assert_matches_reference(f, _seeds(spec), spec.max_iter)
    assert np.count_nonzero(kind == KIND_UNDECIDED) > 0
    assert np.count_nonzero(kind == KIND_ESCAPED) > 0


# ---------------------------------------------------------------------------
# Tiles: classify_points advances the open seeds in blocks of at most BLOCK
# and, once at most FEW are open, in rounds of ROUND steps from step 1 on.
# Doubling is exact in binary, so under z -> 2z (escape radius 3) the seed
# 4.5 * 2**-j escapes on step j, 2**-j lands on the point 1 on step j, and 0
# stays open.

DOUBLE = ComplexPoly([0, 2])


def _escaping_on(*steps):
    return [4.5 * 2.0**-j for j in steps]


def _landing_on(*steps):
    return [2.0**-j for j in steps]


def test_tiles_more_open_seeds_than_one_block():
    # 2 * BLOCK + 17 seeds of modulus 0.5 .. 1.5 under z**2: all open at
    # step 0, more than a block still open after step 1, a partial last
    # block; moduli within about 0.003 of 1 stay open to step 12.
    n = 2 * BLOCK + 17
    r = 0.5 + np.arange(n) / n
    pts = r * np.exp(2j * math.pi * 0.618034 * np.arange(n))
    kind, iters, _, _ = assert_matches_reference(SQUARE, pts, 12, attractors=[((0j,), 1)])
    assert np.count_nonzero((kind != KIND_ESCAPED) | (iters >= 2)) > BLOCK
    assert len(set(iters[kind == KIND_ESCAPED].tolist())) > 4
    assert np.count_nonzero(kind == KIND_BASIN) > BLOCK // 2
    assert np.count_nonzero(kind == KIND_UNDECIDED) > 0


def test_tiles_escape_at_round_boundaries():
    # Rounds cover steps 1..ROUND, ROUND + 1..2 * ROUND, ...
    steps = [0, 1, 2, ROUND - 1, ROUND, ROUND + 1, 2 * ROUND, 2 * ROUND + 1]
    kind, iters, _, _ = assert_matches_reference(DOUBLE, np.array(_escaping_on(*steps)), 3 * ROUND)
    assert list(kind) == [KIND_ESCAPED] * len(steps)
    assert list(iters) == steps
    assert len(steps) <= FEW


@pytest.mark.parametrize("max_iter", [0, 1, ROUND // 2, ROUND + 3, 2 * ROUND + 5])
def test_tiles_max_iter_against_rounds(max_iter):
    # max_iter of 0, 1, below the round length, and not a multiple of it.
    esc = [0, 1, ROUND // 2, ROUND, ROUND + 1, 2 * ROUND + 1]
    land = [1, ROUND, ROUND + 1, 2 * ROUND + 5]
    pts = np.array(_escaping_on(*esc) + _landing_on(*land) + [0.0])
    kind, iters, _, _ = assert_matches_reference(
        DOUBLE, pts, max_iter, attractors=[((1 + 0j,), 1)]
    )
    want = [f"E{j}" if j <= max_iter else "U" for j in esc]
    want += ["B" if j <= max_iter else "U" for j in land] + ["U"]
    got = [f"E{i}" if k == KIND_ESCAPED else "B" if k == KIND_BASIN else "U"
           for k, i in zip(kind, iters)]
    assert got == want


def test_tiles_two_points_capture_in_one_round():
    # Round 1 lands seeds on 1 (step 4) and 0.75 (steps 4 and 6); 1 + 0.75e-6
    # is near 1 and 1 + 1.5e-6 at once and takes the first listed, while
    # 1 + 1.5e-6 itself is near the third point only.  Round 2 lands one more.
    attractors = [((1 + 0j,), 1), ((0.75 + 0j,), 1), ((1 + 1.5e-6,), 1)]
    targets = [(1.0, 4), (0.75, 4), (0.75, 6), (1 + 0.75e-6, 5), (1 + 1.5e-6, 3),
               (1.0, ROUND + 2)]
    pts = np.array([p * 2.0**-j for p, j in targets])
    kind, _, bid, bph = assert_matches_reference(DOUBLE, pts, 2 * ROUND, attractors=attractors)
    assert list(kind) == [KIND_BASIN] * len(targets)
    assert list(bid) == [0, 1, 1, 0, 2, 0] and list(bph) == [0] * len(targets)


def test_tiles_pole_collision_inside_a_round():
    # 2z + 2**-1000 / (z - 1): the term is below an ulp of 2z, so 2**-j lands
    # on the pole 1 exactly on step j and escapes, non-finite, on step j + 1.
    f = simple_poles_map(DOUBLE, [(1 + 0j, 1, 2.0**-1000)])
    steps = [0, 1, ROUND - 1, ROUND + 4]
    kind, iters, _, _ = assert_matches_reference(f, np.array(_landing_on(*steps)), 2 * ROUND)
    assert list(kind) == [KIND_ESCAPED] * len(steps)
    assert list(iters) == [j + 1 for j in steps]


def test_tiles_bound_traced_memory():
    # A 256x256 r_milnor window off its axis of symmetry.  numpy reports its
    # arrays to tracemalloc.  The traced peak is the seeds' copy (which is
    # also the open seeds' buffer), the index buffer and the four outputs,
    # plus a few blocks of temporaries: 2.8 MB here, where one whole-array
    # step at a time peaked at 5.5 MB.
    mf = load_model(FIXTURES / "r_milnor.json")
    f = mf.build_map()
    attractors, _ = _render_attractors(mf, f)
    spec = RenderSpec(map=f, width=256, height=256, center=0.1, attractors=attractors)
    pts = _seeds(spec)
    n = pts.size
    tracemalloc.start()
    try:
        classify_points(f, pts, spec.max_iter, attractors=attractors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = n * (16 + 8)  # complex128 seeds, intp indices
    outputs = n * (1 + 4 + 2 + 2)  # kind, iters, basin_id, basin_phase
    assert peak <= buffers + outputs + 8 * 16 * BLOCK


def _label_grid():
    """One row: Undecided, Escaped(0..40), then Basin(id, phase) for ids 0..5
    at both phases.  The escape indices cross the shade clamp at 32 and the
    basins wrap the eight-entry palette."""
    n_esc, basins = 41, [(i, ph) for i in range(6) for ph in (0, 1)]
    n = 1 + n_esc + len(basins)
    kind = np.zeros((1, n), dtype=np.uint8)
    iters = np.zeros((1, n), dtype=np.int32)
    bid = np.full((1, n), -1, dtype=np.int16)
    bph = np.full((1, n), -1, dtype=np.int16)
    kind[0, 1 : 1 + n_esc] = KIND_ESCAPED
    iters[0, 1 : 1 + n_esc] = np.arange(n_esc)
    kind[0, 1 + n_esc :] = KIND_BASIN
    bid[0, 1 + n_esc :] = [i for i, _ in basins]
    bph[0, 1 + n_esc :] = [ph for _, ph in basins]
    return ClassGrid(kind=kind, iters=iters, basin_id=bid, basin_phase=bph)


def test_grid_to_rgb_matches_masked_colouring():
    grid = _label_grid()
    got = grid_to_rgb(grid)
    assert got.dtype == np.uint8 and got.shape == (1, grid.width, 3)
    assert np.array_equal(got, masked_rgb(grid))


def test_grid_to_text_tags_every_label():
    grid = _label_grid()
    tags = ["U"] + [f"E{k}" for k in range(41)]
    tags += [f"B{i}.{ph}" for i in range(6) for ph in (0, 1)]
    assert grid_to_text(grid) == ",".join(tags) + "\n"
    grid.kind[0, 0] = 7  # not a class: read as Undecided
    two_rows = ClassGrid(
        kind=grid.kind[:, :4].reshape(2, 2),
        iters=grid.iters[:, :4].reshape(2, 2), basin_id=grid.basin_id[:, :4].reshape(2, 2),
        basin_phase=grid.basin_phase[:, :4].reshape(2, 2),
    )
    assert grid_to_text(two_rows) == "U,E0\nE1,E2\n"


# ---------------------------------------------------------------------------
# Mirrored windows: classify_grid classifies the fundamental region of the
# window's exact axis reflections and copies the rest.  Every label must
# equal that of classifying every seed.


MIRROR_CENTERS = (0j, 0.1 + 0j, -0.1 + 0j, 0.1j, -0.1j, 0.1 + 0.1j)
MIRROR_SIZES = ((64, 64), (65, 63), (2, 1), (1, 1))
POLY_FIXTURES = (
    "f_cubic", "g_cubic", "h_multipole", "nd2_family", "q_conjugate", "q_family",
    "r_milnor", "z3_d3", "z3_d4",
)
# (rows, columns) mirrored at centre 0 with the fixture's own attractors.
MIRRORED_AT_ZERO = {
    "f_cubic": (True, True), "g_cubic": (False, True), "h_multipole": (True, False),
    "nd2_family": (True, False), "q_conjugate": (False, False), "q_family": (True, False),
    "r_milnor": (False, True), "z3_d3": (True, True), "z3_d4": (True, True),
}


def assert_grid_matches_every_seed(spec, tmp_path):
    grid = classify_grid(spec)
    shape = (spec.height, spec.width)
    full = [a.reshape(shape) for a in _classify(spec, _seeds(spec))]
    got = (grid.kind, grid.iters, grid.basin_id, grid.basin_phase)
    for g, w in zip(got, full):
        assert g.dtype == w.dtype and g.flags.c_contiguous
        assert np.array_equal(g, w)
    reference = ClassGrid(kind=full[0], iters=full[1], basin_id=full[2], basin_phase=full[3])
    assert ppm_bytes(grid, tmp_path, "grid.ppm") == ppm_bytes(reference, tmp_path, "ref.ppm")
    return grid


def _fixture_cases():
    for name in POLY_FIXTURES:
        has_family = "family" in load_model(FIXTURES / f"{name}.json").to_dict()
        for factor in (0.25, 1, 4) if has_family else (None,):
            yield pytest.param(name, factor, id=name if factor is None else f"{name}-{factor}")


@pytest.mark.parametrize("name, factor", list(_fixture_cases()))
def test_mirrored_grid_matches_every_seed(name, factor, tmp_path):
    mf = load_model(FIXTURES / f"{name}.json")
    f = mf.build_map()
    if factor is not None:
        f = mf.build_map(lambda_override=f.terms[0][0] * factor)
    attractors, _ = _render_attractors(mf, f)
    for center in MIRROR_CENTERS:
        for width, height in MIRROR_SIZES:
            spec = RenderSpec(
                map=f, width=width, height=height, center=center, attractors=attractors,
            )
            assert_grid_matches_every_seed(spec, tmp_path)
    at_zero = RenderSpec(map=f, width=8, height=8, attractors=attractors)
    assert _mirrored_axes(at_zero) == MIRRORED_AT_ZERO[name]


def test_mirror_follows_the_window_centre():
    f = f_map()
    for center, axes in [
        (0j, (True, True)),
        (-0.0 + 0.1j, (False, True)),
        (complex(0.1, -0.0), (True, False)),
        (0.1 + 0.1j, (False, False)),
    ]:
        assert _mirrored_axes(RenderSpec(map=f, width=8, height=8, center=center)) == axes


def test_mirror_declined_for_an_attractor_one_ulp_off_the_axis(tmp_path):
    # z^2 commutes with conj, and the window's rows at 0.5 +- CAPTURE_TOL i
    # mirror each other.  The attractor sits one ulp of CAPTURE_TOL above
    # the real axis: the seed above it is captured at step 0, while its
    # mirror image lies one ulp beyond CAPTURE_TOL and its orbit falls
    # towards 0, Undecided.  Copying rows would read B0.0 in both.  On the
    # axis, both seeds lie exactly CAPTURE_TOL away and are captured.
    above = complex(0.5, math.ulp(CAPTURE_TOL))
    spec = RenderSpec(
        map=SQUARE, width=4, height=4, center=0.5, half_width=2 * CAPTURE_TOL, max_iter=8,
        attractors=[((above,), 1)],
    )
    assert reflections(SQUARE) == (1,)
    assert _mirrored_axes(spec) == (False, False)
    grid = assert_grid_matches_every_seed(spec, tmp_path)
    assert grid.tag(2, 1) == "B0.0" and grid.tag(2, 3) == "U"
    on_axis = RenderSpec(
        map=SQUARE, width=4, height=4, center=0.5, half_width=2 * CAPTURE_TOL, max_iter=8,
        attractors=[((0.5 + 0j,), 1)],
    )
    assert _mirrored_axes(on_axis) == (True, False)
    grid = assert_grid_matches_every_seed(on_axis, tmp_path)
    assert grid.tag(2, 1) == grid.tag(2, 3) == "B0.0"
