"""Parameter-set constructions: Cantor-type interval sets, product point clouds,
separated lattices, and Perron trees, plus dimension diagnostics.

Interval constructions are kept exact where the arithmetic allows it: the fat
(Smith-Volterra) scheme only ever halves dyadic lengths, so every endpoint and
every total length is an exact double.  Middle-thirds endpoints carry the usual
1/3 rounding; totals are still good to 1e-15.

Point clouds are the downstream currency: grids and Fourier sums need finite
atoms, so measures are represented as seeded uniform samples per construction
cell with uniform weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import ArgumentError, FitError

MAX_DEPTH = 20
MAX_PERRON_STAGE = 8


def perron_overlap(level: int) -> float:
    """Slide fraction for merging two blocks of 2^(level-1) wedges each.

    l/(l+1) grows toward 1 at coarser merges; a constant fraction stalls
    near union ratio 0.36 while this schedule keeps compressing.
    """
    return level / (level + 1.0)


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted closed subintervals of [0,1] at a construction stage.

    Degenerate [a,a] intervals are tolerated so a one-point factor can stand
    in for a line slice in product constructions.
    """

    intervals: tuple
    depth: int

    def __post_init__(self):
        prev_end = None
        for a, b in self.intervals:
            if b < a:
                raise ArgumentError(f"interval [{a}, {b}] is reversed")
            if prev_end is not None and a <= prev_end:
                raise ArgumentError("intervals must be sorted and disjoint")
            prev_end = b
        if self.total_length() > 1.0 + 1e-12:
            raise ArgumentError("total length exceeds 1")

    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def max_interval_length(self) -> float:
        return float(max(b - a for a, b in self.intervals))

    def __len__(self):
        return len(self.intervals)

    def as_arrays(self):
        arr = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class PointSet:
    """Weighted finite point cloud standing in for a parameter set."""

    points: np.ndarray
    weights: np.ndarray
    claimed_exponent: float | None = None
    min_separation: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or len(pts) != len(w):
            raise ArgumentError("points must be (N, d) with one weight per point")
        if np.any(w < 0):
            raise ArgumentError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ArgumentError("weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def pairwise_min_distance(self) -> float:
        pts = self.points
        best = np.inf
        for i in range(0, len(pts), 512):
            chunk = pts[i : i + 512]
            d2 = np.sum((chunk[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            # mask self-distances
            for r, gi in enumerate(range(i, min(i + 512, len(pts)))):
                d2[r, gi] = np.inf
            best = min(best, float(d2.min()))
        return float(np.sqrt(best))


@dataclass(frozen=True)
class TriangleSet:
    """2-D triangles from the Perron bisect-and-slide scheme."""

    triangles: tuple          # each is ((x,y), (x,y), (x,y))
    stage: int
    direction_count: int

    def __post_init__(self):
        if self.direction_count != 2 ** self.stage:
            raise ArgumentError("direction_count must equal 2^stage")
        for tri in self.triangles:
            if triangle_area(tri) <= 1e-12:
                raise ArgumentError("degenerate triangle in set")

    def directions(self) -> np.ndarray:
        """Unit direction of each triangle's base-midpoint-to-apex median."""
        out = []
        for (ax, ay), (bx, by), (cx, cy) in self.triangles:
            mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
            v = np.array([cx - mx, cy - my])
            out.append(v / np.linalg.norm(v))
        return np.array(out)

    def median_segments(self):
        """(base midpoint, apex) pairs; each is a full-height segment in its triangle."""
        segs = []
        for (ax, ay), (bx, by), (cx, cy) in self.triangles:
            segs.append(((0.5 * (ax + bx), 0.5 * (ay + by)), (cx, cy)))
        return segs


def triangle_area(tri) -> float:
    (ax, ay), (bx, by), (cx, cy) = tri
    return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0


def point_in_triangle(p, tri, slack=1e-12) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    px, py = p
    # consistent-sign half-plane test
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    has_neg = (d1 < -slack) or (d2 < -slack) or (d3 < -slack)
    has_pos = (d1 > slack) or (d2 > slack) or (d3 > slack)
    return not (has_neg and has_pos)


# ---------------------------------------------------------------------------
# interval constructions
# ---------------------------------------------------------------------------

def _check_depth(depth: int):
    if not (0 <= depth <= MAX_DEPTH):
        raise ArgumentError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")


def cantor_middle_thirds(depth: int) -> IntervalSet:
    """2^depth intervals of length 3^-depth; removes open middle thirds."""
    _check_depth(depth)
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return IntervalSet(tuple(intervals), depth)


def fat_cantor(depth: int) -> IntervalSet:
    """Smith-Volterra scheme: stage n removes an open middle 4^-n from each piece.

    All endpoints stay dyadic, so lengths are exact doubles; the remaining
    length is 1 - (1 - 2^-depth)/2.
    """
    _check_depth(depth)
    intervals = [(0.0, 1.0)]
    for n in range(1, depth + 1):
        gap = 4.0 ** (-n)
        nxt = []
        for a, b in intervals:
            keep = (b - a - gap) / 2.0
            nxt.append((a, a + keep))
            nxt.append((b - keep, b))
        intervals = nxt
    return IntervalSet(tuple(intervals), depth)


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def _factor_exponent(iset: IntervalSet) -> float:
    side = iset.max_interval_length()
    if side <= 0.0:
        return 0.0          # degenerate one-point factor contributes nothing
    if side >= 1.0:
        return 0.0          # single full interval: zero cells of small scale
    return log(len(iset)) / log(1.0 / side)


def product_point_cloud(rows: IntervalSet, cols: IntervalSet,
                        samples_per_cell: int = 1, seed: int = 0) -> PointSet:
    """Seeded uniform samples in every product cell rows x cols, uniform weights.

    claimed_exponent sums the per-factor cell-count exponents, which matches
    log(cells)/log(1/side) when both factors share the same side length.
    """
    if samples_per_cell < 1:
        raise ArgumentError("samples_per_cell must be >= 1")
    rng = np.random.default_rng(seed)
    ra, rb = rows.as_arrays()
    ca, cb = cols.as_arrays()
    nr, nc = len(ra), len(ca)
    u = rng.random((nr * nc * samples_per_cell, 2))
    ri = np.repeat(np.arange(nr), nc * samples_per_cell)
    ci = np.tile(np.repeat(np.arange(nc), samples_per_cell), nr)
    xs = ra[ri] + u[:, 0] * (rb[ri] - ra[ri])
    ys = ca[ci] + u[:, 1] * (cb[ci] - ca[ci])
    pts = np.column_stack([xs, ys])
    n = len(pts)
    exponent = _factor_exponent(rows) + _factor_exponent(cols)
    return PointSet(pts, np.full(n, 1.0 / n), claimed_exponent=exponent)


def separated_lattice(q: int, seed: int = 0) -> PointSet:
    """q^2 points, one per unit square of [0,q]^2, offsets in [0.25, 0.75]^2.

    The offset window forces pairwise distances >= 0.5 for every seed.
    """
    if q < 2:
        raise ArgumentError("q must be >= 2")
    rng = np.random.default_rng(seed)
    base = np.stack(np.meshgrid(np.arange(q), np.arange(q), indexing="ij"), axis=-1)
    base = base.reshape(-1, 2).astype(float)
    pts = base + rng.uniform(0.25, 0.75, size=(q * q, 2))
    w = np.full(q * q, 1.0 / (q * q))
    return PointSet(pts, w, min_separation=0.5)


def thickening_radius(q: int, s: float) -> float:
    """rho_q = q^(-2/s), the annulus half-thickness in the rescaled unit frame."""
    if not (1.0 < s < 2.0):
        raise ArgumentError("s must lie in (1, 2)")
    return float(q) ** (-2.0 / s)


# ---------------------------------------------------------------------------
# dimension diagnostics
# ---------------------------------------------------------------------------

def frostman_ratio(points: PointSet, a: float, radii) -> float:
    """Empirical Frostman constant: max over (data center, r) of mu(B(x,r)) / r^a."""
    if len(points) == 0:
        raise ArgumentError("empty point set")
    if a <= 0:
        raise ArgumentError("exponent a must be positive")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ArgumentError("radii must be positive")
    pts, w = points.points, points.weights
    best = 0.0
    r2 = np.sort(radii) ** 2
    for i in range(0, len(pts), 256):
        chunk = pts[i : i + 256]
        d2 = np.sum((chunk[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        for r, rr in zip(np.sort(radii), r2):
            mass = (w[None, :] * (d2 <= rr)).sum(axis=1)
            best = max(best, float(mass.max()) / r**a)
    return best


def box_dimension(points: PointSet, scales) -> float:
    """OLS slope of log(occupied box count) against log(1/scale)."""
    scales = np.asarray(scales, dtype=float)
    if len(scales) < 3:
        raise ArgumentError("need at least 3 scales")
    if scales.max() / scales.min() < 4.0:
        raise ArgumentError("scales must span at least 2 dyadic octaves")
    pts = points.points
    counts = []
    for s in scales:
        cells = np.floor(pts / s).astype(np.int64)
        # pack the 2-D (or d-D) cell index into one key per point
        key = cells[:, 0]
        for k in range(1, cells.shape[1]):
            key = key * 2_000_003 + cells[:, k]
        counts.append(len(np.unique(key)))
    counts = np.asarray(counts, dtype=float)
    if np.all(counts == counts[0]):
        raise FitError("all box counts equal; no slope to fit")
    xs = np.log(1.0 / scales)
    ys = np.log(counts)
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


# ---------------------------------------------------------------------------
# Perron tree
# ---------------------------------------------------------------------------

def perron_tree(stage: int, base_triangle_height: float = 1.0) -> TriangleSet:
    """Besicovitch-style compression: 2^stage thin triangles, slid to overlap.

    The base triangle (base [0,1], apex (1/2, H)) is fanned into 2^stage
    wedges by base subdivision.  Sibling blocks are then merged bottom-up,
    the right block sliding left by perron_overlap(level) x (left block
    width).  Each wedge keeps its full-height median segment, so all
    2^stage directions survive every slide.
    """
    if not (0 <= stage <= MAX_PERRON_STAGE):
        raise ArgumentError(f"stage must be in [0, {MAX_PERRON_STAGE}], got {stage}")
    if base_triangle_height <= 0:
        raise ArgumentError("base_triangle_height must be positive")
    n = 2 ** stage
    shifts = np.zeros(n)

    def merge(lo, hi, level):
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        merge(lo, mid, level - 1)
        merge(mid, hi, level - 1)
        width = (mid - lo) / n
        shifts[mid:hi] -= perron_overlap(level) * width

    merge(0, n, stage)
    apex_x, apex_y = 0.5, float(base_triangle_height)
    tris = []
    for i in range(n):
        s = shifts[i]
        tris.append((
            (i / n + s, 0.0),
            ((i + 1) / n + s, 0.0),
            (apex_x + s, apex_y),
        ))
    return TriangleSet(tuple(tris), stage, n)


def verify_direction_coverage(tree: TriangleSet, samples: int = 100) -> bool:
    """Every median segment stays inside the union (sampled containment)."""
    ts = np.linspace(0.0, 1.0, samples)
    for seg, tri in zip(tree.median_segments(), tree.triangles):
        (x0, y0), (x1, y1) = seg
        for t in ts:
            p = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            if not any(point_in_triangle(p, other) for other in tree.triangles):
                return False
            # the owning wedge alone should already contain its median
            if not point_in_triangle(p, tri, slack=1e-9):
                return False
    return True
