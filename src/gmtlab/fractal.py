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
        a, b = self.as_arrays()
        if np.any(b < a):
            raise ArgumentError(f"interval [{a[b < a][0]}, {b[b < a][0]}] is reversed")
        if np.any(a[1:] <= b[:-1]):
            raise ArgumentError("intervals must be sorted and disjoint")
        if self.total_length() > 1.0 + 1e-12:
            raise ArgumentError("total length exceeds 1")

    def total_length(self) -> float:
        a, b = self.as_arrays()
        return float(np.sum(b - a))

    def max_interval_length(self) -> float:
        a, b = self.as_arrays()
        return float(np.max(b - a))

    def __len__(self):
        return len(self.intervals)

    def as_arrays(self):
        arr = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


@dataclass(frozen=True, eq=False)   # array fields: compare and hash by identity
class PointSet:
    """Weighted finite point cloud standing in for a parameter set."""

    points: np.ndarray
    weights: np.ndarray

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


@dataclass(frozen=True, eq=False)   # array fields: compare and hash by identity
class TriangleSet:
    """2-D triangles from the Perron bisect-and-slide scheme, as a (k, 3, 2) array."""

    triangles: np.ndarray     # vertices (x,y): base left, base right, apex

    def __post_init__(self):
        tris = np.asarray(self.triangles, dtype=float).reshape(-1, 3, 2)
        if np.any(triangle_area(tris) <= 1e-12):
            raise ArgumentError("degenerate triangle in set")
        object.__setattr__(self, "triangles", tris)


def triangle_area(tri):
    """Area of one triangle ((x,y), (x,y), (x,y)), or of each in a (k, 3, 2) array."""
    (ax, ay), (bx, by), (cx, cy) = np.moveaxis(np.asarray(tri, dtype=float), (-2, -1), (0, 1))
    return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0


# ---------------------------------------------------------------------------
# interval constructions
# ---------------------------------------------------------------------------

def _check_depth(depth: int):
    if not (0 <= depth <= MAX_DEPTH):
        raise ArgumentError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")


def _middle_cuts(depth: int, keep) -> IntervalSet:
    """Stage n = 1..depth keeps [a, a + k] and [b - k, b] of each piece, k = keep(b - a, n)."""
    a, b = np.zeros(1), np.ones(1)
    for n in range(1, depth + 1):
        k = keep(b - a, n)
        a, b = np.column_stack([a, b - k]).ravel(), np.column_stack([a + k, b]).ravel()
    return IntervalSet(tuple(zip(a.tolist(), b.tolist())), depth)


def cantor_middle_thirds(depth: int) -> IntervalSet:
    """2^depth intervals of length 3^-depth; removes open middle thirds."""
    _check_depth(depth)
    return _middle_cuts(depth, lambda length, n: length / 3.0)


def fat_cantor(depth: int) -> IntervalSet:
    """Smith-Volterra scheme: stage n removes an open middle 4^-n from each piece.

    All endpoints stay dyadic, so lengths are exact doubles; the remaining
    length is 1 - (1 - 2^-depth)/2.
    """
    _check_depth(depth)
    return _middle_cuts(depth, lambda length, n: (length - 4.0 ** (-n)) / 2.0)


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def product_point_cloud(rows: IntervalSet, cols: IntervalSet,
                        samples_per_cell: int = 1, seed: int = 0) -> PointSet:
    """Seeded uniform samples in every product cell rows x cols, uniform weights."""
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
    return PointSet(pts, np.full(n, 1.0 / n))


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
    return PointSet(pts, w)


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
    i = np.arange(n)
    xs = np.column_stack([i / n, (i + 1) / n, np.full(n, 0.5)]) + shifts[:, None]
    ys = np.broadcast_to([0.0, 0.0, float(base_triangle_height)], xs.shape)
    return TriangleSet(np.stack([xs, ys], axis=-1))


def verify_direction_coverage(tree: TriangleSet) -> bool:
    """Every direction of the base triangle keeps a full-height segment in the union.

    A wedge with base [x0, x1] on y = 0 and apex (a, H) holds the segment from
    each base point to the apex, so it covers the slopes dx/dy in
    [(a - x1)/H, (a - x0)/H].  Merged in order of their low ends, these
    intervals must cover the base triangle's [-1/(2H), 1/(2H)] with no gap
    above 1e-12.
    """
    (x0, _), (x1, _), (a, h) = np.moveaxis(tree.triangles, (1, 2), (0, 1))
    half = 0.5 / h.max()
    # clipping to the target keeps intervals outside it from reading as gaps
    lo = np.clip((a - x1) / h, -half, half)
    hi = np.clip((a - x0) / h, -half, half)
    order = np.argsort(lo)
    reach = np.maximum.accumulate(np.concatenate([[-half], hi[order]]))
    return bool(np.all(lo[order] <= reach[:-1] + 1e-12) and reach[-1] >= half - 1e-12)
