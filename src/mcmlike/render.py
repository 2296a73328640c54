"""Orbit-classification rendering of dynamical planes.

Pixels are classified by vectorized iteration with the same escape and
collision semantics as ``dynamics.iterate_orbit``: Escaped(k) at the first
iterate beyond the escape radius (index 0 for seeds already outside, with
pole collisions surfacing as non-finite iterates), Basin(id, phase) on
capture within capture_tol of a supplied attractor point, Undecided at
max_iter.  Only the seeds still open are iterated, and one comparison
|z| <= radius per iterate tells escapes from the rest.

The open seeds advance in bounded tiles: each step evaluates them in blocks
of at most BLOCK seeds, and once at most FEW are open, a round of ROUND steps
is evaluated and then checked at once.  The labels are bit-identical to one
whole-array step at a time, because a label is the seed's first event,
evaluation and checks are elementwise ufuncs (a seed's bits do not depend on
the seeds beside it), and survivors are compacted in order.

A window is classified on the fundamental region of its exact axis
reflections.  When z -> conj(z) (or z -> -conj(z)) commutes with the map,
as ``dynamics.reflections`` decides from exact coefficient parts, and fixes
the window's centre and every attractor point, the window's rows (or
columns) come in mirror pairs and only one of each pair is classified; the
other is copied.  The copies are exact, because round-to-nearest commutes
with negation and numpy's complex arithmetic and abs are sign-equivariant,
so a mirrored seed's orbit is the reflected orbit bit for bit.

Output formats: binary PPM (P6) with a frozen palette, and a plain text
matrix of class tags (``E<k>``, ``B<id>.<phase>``, ``U``).

numpy is imported inside the functions that build arrays, so importing this
module (and the CLI, which imports it) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .dynamics import (
    MapLike,
    checked_escape_radius,
    eval_unchecked,
    fixed_by_reflection,
    reflections,
)

KIND_UNDECIDED = 0
KIND_ESCAPED = 1
KIND_BASIN = 2

# classify_points' tiles, chosen by timing 256x256 windows of the fixtures
# (blocks of 4096, 8192 and 16384; FEW 64 and 128; ROUND 8, 16 and 32).  A
# block of 8192 complex128 seeds is 128 KiB, so each step's temporaries are
# reused from the heap instead of mapping fresh pages, and the per-block
# call overhead stays small.  Once at most FEW seeds are open (r_milnor
# keeps up to about 80 open to max_iter), a round of ROUND steps is checked
# at once instead of paying that overhead on a few seeds at every step.
BLOCK = 8192
FEW = 128
ROUND = 32

# Frozen basin palette; Basin(id, phase) uses entry (2*id + phase) % 8.
PALETTE8 = (
    (200, 60, 40),
    (245, 130, 50),
    (250, 200, 70),
    (90, 170, 90),
    (60, 150, 200),
    (110, 90, 190),
    (190, 90, 160),
    (140, 140, 140),
)


@dataclass
class RenderSpec:
    map: MapLike
    width: int
    height: int
    center: complex = 0j
    half_width: float = 1.5
    max_iter: int = 512
    escape_radius: Optional[float] = None
    attractors: Optional[Sequence[Tuple[Sequence[complex], int]]] = None
    capture_tol: float = 1e-6

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if self.pitch == math.inf:
            raise ValueError(f"pixel pitch 2 * half_width / width = {self.pitch} must be finite")
        if self.max_iter < 0:
            raise ValueError(f"max_iter {self.max_iter} must be >= 0")
        center = complex(self.center)
        if not (math.isfinite(center.real) and math.isfinite(center.imag)):
            raise ValueError(f"center {self.center} must be finite")

    @property
    def pitch(self) -> float:
        return 2.0 * self.half_width / self.width


@dataclass
class ClassGrid:
    width: int
    height: int
    center: complex
    pitch: float
    kind: np.ndarray  # (h, w) uint8
    iters: np.ndarray  # (h, w) int32, escape index where kind == ESCAPED
    basin_id: np.ndarray  # (h, w) int16, -1 elsewhere
    basin_phase: np.ndarray  # (h, w) int16, -1 elsewhere
    spec: Optional[RenderSpec] = None  # the spec classify_grid sampled

    def tag(self, ix: int, iy: int) -> str:
        k = self.kind[iy, ix]
        if k == KIND_ESCAPED:
            return f"E{int(self.iters[iy, ix])}"
        if k == KIND_BASIN:
            return f"B{int(self.basin_id[iy, ix])}.{int(self.basin_phase[iy, ix])}"
        return "U"


@dataclass
class RadialProfile:
    angle: float
    radii: np.ndarray
    kind: np.ndarray
    iters: np.ndarray
    alternations: int


def _orbit(f: MapLike, z: np.ndarray, steps: int) -> np.ndarray:
    """(steps, n) array of the iterates f(z), ..., f^steps(z) of n seeds."""
    import numpy as np

    if steps == 1:
        return eval_unchecked(f, z)[None]
    path = np.empty((steps, z.size), dtype=np.complex128)
    for s in range(steps):
        z = path[s] = eval_unchecked(f, z)
    return path


def classify_points(
    f: MapLike,
    pts: np.ndarray,
    max_iter: int,
    escape_radius: Optional[float] = None,
    attractors=None,
    capture_tol: float = 1e-6,
):
    """Classify a flat complex array of seeds; the common vector core.

    The open seeds and their pixel indices sit in two buffers; step 0 is the
    seeds themselves.  A seed stops at its first step with |z| > radius
    (Escaped at that step; a non-finite iterate, a pole collision, fails
    |z| <= radius, though a nan seed is not beyond it at step 0) or within
    capture_tol of an attractor point (Basin of the first point listed).  A
    non-finite radius, like one below auto_radius(f), raises ValueError.

    Tile rule: a round advances the open seeds in blocks of at most BLOCK,
    one step per round, or ROUND steps (capped at max_iter) once at most FEW
    are open, and checks each block once per round.  Survivors are compacted
    block by block into the same buffers, which is safe because the write
    position never passes the read position.  The labels are those of one
    whole-array step at a time: each seed's label is its first event,
    evaluation and checks are elementwise ufuncs, so a seed's iterates do not
    depend on which seeds share its block or round, and compaction keeps the
    seeds' order.  Iterates after a seed's first event are discarded."""
    import numpy as np

    radius = checked_escape_radius(f, escape_radius)
    z = np.array(pts, dtype=np.complex128).ravel()
    npts = z.size
    kind = np.zeros(npts, dtype=np.uint8)
    iters = np.zeros(npts, dtype=np.int32)
    bid = np.full(npts, -1, dtype=np.int16)
    bph = np.full(npts, -1, dtype=np.int16)
    apts = [(aid, ph, complex(p)) for aid, (points, _period) in enumerate(attractors or ())
            for ph, p in enumerate(points)]

    idx = np.arange(npts)
    m, k = npts, 0  # open seeds, and the step the next round starts at
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while m and k <= max_iter:
            steps = min(ROUND, max_iter + 1 - k) if k and m <= FEW else 1
            w = 0  # write position of the next survivor
            for r in range(0, m, BLOCK):
                e = min(r + BLOCK, m)
                zb, ib = z[r:e], idx[r:e]
                path = _orbit(f, zb, steps) if k else zb[None]
                a = np.abs(path)
                live = a <= radius if k else ~(a > radius)
                near = [np.abs(path - p) <= capture_tol for _aid, _ph, p in apts]
                stop = ~live
                for c in near:
                    stop |= c
                if stop.any():
                    if steps == 1:
                        gone, live, near = stop[0], live[0], [c[0] for c in near]
                    else:  # each seed's first event in the round
                        first = stop.argmax(axis=0)
                        cols = np.arange(first.size)
                        gone, live = stop.any(axis=0), live[first, cols]
                        near = [c[first, cols] for c in near]
                    esc = gone & ~live
                    out = ib[esc]
                    kind[out] = KIND_ESCAPED
                    iters[out] = k if steps == 1 else k + first[esc]
                    held = gone & live  # stopped by a point: the first listed
                    for (aid, ph, _p), c in zip(apts, near):
                        cap = held & c
                        out = ib[cap]
                        kind[out] = KIND_BASIN
                        bid[out] = aid
                        bph[out] = ph
                        held &= ~cap
                    keep = ~gone
                    zb, ib = path[-1][keep], ib[keep]
                else:
                    zb = path[-1]
                n = zb.size
                z[w : w + n] = zb
                idx[w : w + n] = ib
                w += n
            m, k = w, k + steps
    return kind, iters, bid, bph


def _seeds(spec: RenderSpec, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    """(rows, cols) complex seeds of the window's first rows and columns;
    (h, w) seeds of every pixel by default."""
    import numpy as np

    pitch = spec.pitch
    xs = spec.center.real + (np.arange(spec.width) - spec.width / 2) * pitch
    ys = spec.center.imag + (spec.height / 2 - np.arange(spec.height)) * pitch
    return xs[None, :cols] + 1j * ys[:rows, None]


def _classify(spec: RenderSpec, seeds: np.ndarray):
    """classify_points over the flattened seeds with the spec's settings."""
    return classify_points(
        spec.map, seeds, spec.max_iter, spec.escape_radius, spec.attractors, spec.capture_tol
    )


def _mirrored_axes(spec: RenderSpec) -> Tuple[bool, bool]:
    """(rows, columns): whether the window's rows, and its columns, mirror.

    A reflection r(z) = s * conj(z) of ``dynamics.reflections`` counts when it
    fixes the window's centre and every attractor point exactly.  Sign 1
    (z -> conj(z), centre.imag == 0) maps row iy onto row h - iy; sign -1
    (z -> -conj(z), centre.real == 0) maps column ix onto column w - ix.
    """
    points = [spec.center] + [p for pts, _ in spec.attractors or () for p in pts]
    signs = [s for s in reflections(spec.map) if all(fixed_by_reflection(p, s) for p in points)]
    return 1 in signs, -1 in signs


def classify_grid(spec: RenderSpec) -> ClassGrid:
    """Classify every pixel of the window.

    Pixel (ix, iy) samples center + ((ix - w/2) + i*(h/2 - iy)) * pitch, so
    power-of-two resolutions sample nested point sets exactly.

    Mirror rule: when z -> conj(z) commutes with the map and fixes the centre
    and every attractor point, row h - iy samples the conjugates of row iy's
    seeds, so only rows 0..h//2 are classified and each row k > h//2 copies
    row h - k (row 0 has no partner; even and odd h alike).  z -> -conj(z)
    does the same for columns 0..w//2 when the centre's real part is 0;
    with both, one quarter is classified.  The copies are exact: IEEE
    round-to-nearest commutes with negation, and numpy's complex add,
    multiply, division and hypot-based abs are sign-equivariant, so a
    mirrored seed's orbit is the reflected orbit bit for bit up to the sign
    of zeros, and every label reads only |z| and |z - p| for fixed p.
    Without a reflection the same code classifies the whole window.
    """
    import numpy as np

    h, w = spec.height, spec.width
    mirror_rows, mirror_cols = _mirrored_axes(spec)
    rows = h // 2 + 1 if mirror_rows else h
    cols = w // 2 + 1 if mirror_cols else w
    part = _classify(spec, _seeds(spec, rows, cols))
    kind, iters, bid, bph = (np.empty((h, w), dtype=a.dtype) for a in part)
    for full, a in zip((kind, iters, bid, bph), part):
        a = a.reshape(rows, cols)
        full[:rows, :cols] = a
        full[:rows, cols:] = a[:, w - cols : 0 : -1]
        full[rows:] = full[h - rows : 0 : -1]
    return ClassGrid(
        width=spec.width,
        height=spec.height,
        center=spec.center,
        pitch=spec.pitch,
        kind=kind,
        iters=iters,
        basin_id=bid,
        basin_phase=bph,
        spec=spec,
    )


def check_ray(angle: float, r_min: float, r_max: float, samples: int) -> None:
    """Raise ValueError unless radial_profile accepts these arguments."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if not math.isfinite(r_max):
        raise ValueError(f"r_max {r_max} must be finite")
    if not math.isfinite(angle):
        raise ValueError(f"angle {angle} must be finite")


def radial_profile(
    spec: RenderSpec, angle: float, r_min: float, r_max: float, samples: int
) -> RadialProfile:
    """Classify a geometric grid of radii along one ray from the center."""
    import numpy as np

    check_ray(angle, r_min, r_max, samples)
    t = np.arange(samples) / (samples - 1)
    radii = r_min * (r_max / r_min) ** t
    pts = spec.center + radii * np.exp(1j * angle)
    kind, iters, _, _ = _classify(spec, pts)
    esc = kind == KIND_ESCAPED
    alternations = int(np.count_nonzero(esc[1:] != esc[:-1]))
    return RadialProfile(
        angle=angle, radii=radii, kind=kind, iters=iters, alternations=alternations
    )


def check_symmetry_order(m: int) -> None:
    """Raise ValueError unless rotational_symmetry_score accepts order m."""
    if m < 2:
        raise ValueError("m must be >= 2")


def rotational_symmetry_score(grid: ClassGrid, m: int) -> float:
    """Fraction of pixels whose label matches that of the rotated seed.

    Each pixel's seed z is rotated exactly about 0 to exp(2*pi*i/m) * z and
    the rotated seeds are classified once more with the grid's own map,
    max_iter, escape radius, attractors and capture_tol.  A match is
    Escaped on both sides with escape indices within 1, or non-escaped on
    both sides.  Every pixel counts, and the window need not be centered
    at 0, but the window is classified a second time.  The grid must come
    from ``classify_grid`` (it carries the spec); a grid without a spec
    raises ValueError.
    """
    import numpy as np

    check_symmetry_order(m)
    spec = grid.spec
    if spec is None:
        raise ValueError("rotational_symmetry_score needs a grid from classify_grid")
    # Half and quarter turns are exact in floating point; exp(i*pi) is not.
    turn = {2: -1.0, 4: 1j}.get(m, np.exp(2j * math.pi / m))
    rot_kind, rot_iters, _, _ = _classify(spec, _seeds(spec) * turn)
    src_esc = grid.kind == KIND_ESCAPED
    dst_esc = (rot_kind == KIND_ESCAPED).reshape(src_esc.shape)
    dst_iters = rot_iters.reshape(src_esc.shape)
    match = (src_esc == dst_esc) & (~src_esc | (np.abs(grid.iters - dst_iters) <= 1))
    return float(np.count_nonzero(match)) / match.size


def grid_to_rgb(grid: ClassGrid) -> np.ndarray:
    """(h, w, 3) uint8 image per the frozen palette, by one lookup into a
    table of Undecided (black), Escaped(k) for k = 0..32 (the shade
    255 - min(8k, 255) is 0 from k = 32 on) and the eight basin colours."""
    import numpy as np

    shades = [255 - min(8 * k, 255) for k in range(33)]
    table = np.array([(0, 0, 0)] + [(v, v, 255) for v in shades] + list(PALETTE8), dtype=np.uint8)
    shade = 1 + np.minimum(grid.iters, 32)
    basin = 34 + ((2 * grid.basin_id.astype(np.int32) + grid.basin_phase) & 7)  # & 7 is % 8
    row = np.where(grid.kind == KIND_ESCAPED, shade, np.where(grid.kind == KIND_BASIN, basin, 0))
    return table.take(row, axis=0)


def write_ppm(grid: ClassGrid, path: str) -> None:
    """Binary PPM (P6), byte-exact for a given grid."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    rgb = grid_to_rgb(grid)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rgb.tobytes())
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def grid_to_text(grid: ClassGrid) -> str:
    """Plain text export: one row per line, comma-separated class tags.
    ``ClassGrid.tag`` formats each distinct label once, on one of its pixels."""
    import numpy as np

    # One key per label: 4k + 1 for Escaped(k), 4(id << 16 | phase) + 2 for a basin.
    key = np.where(grid.kind == KIND_ESCAPED, 4 * grid.iters.astype(np.int64) + 1, 0)
    pair = (grid.basin_id.astype(np.int64) << 16) | (grid.basin_phase.astype(np.int64) & 0xFFFF)
    key = np.where(grid.kind == KIND_BASIN, 4 * pair + 2, key).ravel()
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    tags = np.array([grid.tag(i % grid.width, i // grid.width) for i in first], dtype=object)
    rows = tags[label].reshape(grid.height, grid.width)
    return "".join(",".join(row) + "\n" for row in rows.tolist())
