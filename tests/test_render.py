"""Grid classification, PPM export, and diagnostic profiles."""

import random

import numpy as np
import pytest

from mcmlike.dynamics import ComplexPoly, PoleHit, auto_radius, eval_map
from mcmlike.model_io import load_model
from mcmlike.render import (
    KIND_BASIN,
    KIND_ESCAPED,
    KIND_UNDECIDED,
    PALETTE8,
    ClassGrid,
    RenderSpec,
    classify_grid,
    classify_points,
    grid_to_rgb,
    grid_to_text,
    radial_profile,
    rotational_symmetry_score,
    write_ppm,
)

from conftest import FIXTURES

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
    f = f_map()
    spec = RenderSpec(map=f, width=64, height=64, max_iter=64)
    grid = classify_grid(spec)
    radius = auto_radius(f)
    xs = spec.center.real + (np.arange(64) - 32) * spec.pitch
    ys = spec.center.imag + (32 - np.arange(64)) * spec.pitch
    rng = random.Random(4242)
    for _ in range(30):
        ix, iy = rng.randrange(64), rng.randrange(64)
        z = complex(xs[ix], ys[iy])
        kind, iters = KIND_UNDECIDED, 0
        if abs(z) > radius:
            kind, iters = KIND_ESCAPED, 0
        else:
            for k in range(1, spec.max_iter + 1):
                try:
                    w = eval_map(f, z)
                except PoleHit:
                    kind, iters = KIND_ESCAPED, k
                    break
                if not (np.isfinite(w.real) and np.isfinite(w.imag)) or abs(w) > radius:
                    kind, iters = KIND_ESCAPED, k
                    break
                z = w
        assert grid.kind[iy, ix] == kind
        if kind == KIND_ESCAPED:
            assert grid.iters[iy, ix] == iters


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
    bare = ClassGrid(
        width=grid.width, height=grid.height, center=grid.center, pitch=grid.pitch,
        kind=grid.kind, iters=grid.iters, basin_id=grid.basin_id, basin_phase=grid.basin_phase,
    )
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
    assert len(prof.samples) == 4096


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
        capture_tol=1e-6,
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
