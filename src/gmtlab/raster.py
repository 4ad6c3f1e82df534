"""Occupancy-grid measure engine.

Grids are 2-D.  A raster marks the cells whose center lies inside a band
(|phi(x, c) - t| <= delta for phase bands, point-to-shape distance <= delta
for geometric bands).  Cell-center sampling keeps everything reproducible;
the bias per band edge is at most half a cell diagonal times the gradient
bound, which refining the grid makes observable.

A geometric band (circles, square boundaries, a circle family, filled
triangles) is given by its spans in one format: a batch of shapes maps the
row centers ys to (shape, row, lo, hi) arrays, shape[i] covering the
x-interval [lo[i], hi[i]] on the row at ys[row[i]].  Circle and
SquareBoundary hold k shapes (one center and size gives a batch of one), a
CircleFamily holds one shape per center interval.  GridSpec.index_range maps
a span to the cells whose center it contains.  Two walks turn the spans of
a batch into cells with a difference array (np.add.at, then a cumulative
sum) per block of rows (_row_blocks), each into one output: the union walk
gives the union and each shape's cell total, and the deposit walk sums a
per-shape value over the cells of the union (spectral.incidence_density's
measure, and rasterize_circles' cover counts).  spans_to_cells and deposit
run their row blocks as fan_out jobs that write into their output in a
shared anonymous mapping; inside a fan_out worker the blocks run serially
there, into a private output.  union_areas, which the scenarios' unions go
through, runs the union walk of every row block of many unions as the jobs
of one fan_out and builds no full raster; union_scanline is its one-union
reference.  The interior probe max_inscribed_interval reads its runs from
the same cell ranges, with no raster.  One generator, _cell_ranges, asks
for _SPAN_CHUNK // len(batch) rows of spans at a time and so bounds the
span memory of every consumer, the probe included.

rasterize_band is the phase predicate: it tests |phi(x, c) - t| <= delta at
every cell center c.  No run calls it: it is the brute-force reference the
span kernels are checked against.

3-D set measures use Monte Carlo instead of dense grids; see
monte_carlo_intersection.  Each call draws its chunks of unit points into
one buffer that it reuses, and tests both bands in place on the phase
values, so a chunk allocates little beyond the phase evaluation itself.
Where band A's phase has a float32 screen (phase.screen_margin), the screen
reads the unit draws, and only the rows it keeps are scaled to the box, bit
for bit as rng.uniform scales them, for the exact tests; other volumes scale
the whole chunk.

fan_out runs independent calls on forked worker processes, one per usable
CPU, and returns their results in input order: union_areas hands it the row
blocks of all the unions of a scenario, so the blocks of one large union
spread over the workers; each scenario hands it the probes, triangle rasters
or Monte Carlo volumes it needs, spans_to_cells and deposit their row
blocks, spectral.mollified_l2 its radii, spectral.surface_spectrum its
frequencies, and the CLI its scenarios under --jobs.  The workers'
initializer gets the calls, which fork hands over without pickling,
so nothing but a job's index goes to them; a job writes its one output
where it computes it (a PGM or its rows of one, a block of shared rows) and
returns only the numbers its caller reads (a block's filled cells and cell
total, an area, a volume, a radius's per-block sums, a frequency's peak),
which keeps the pickled results small.
Where forking is unsafe or pointless (one CPU, no fork, another live thread,
or already inside a worker) the calls run serially in the calling process,
so the results never depend on the worker count.
"""

from __future__ import annotations

import mmap
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, GridMismatchError
from .fractal import IntervalSet
from .phase import PhaseSpec, eval_phase_batch, screen_margin, screened_distance

MAX_CELLS_2D = 8192
MIN_CELLS = 16

_ROW_CHUNK = 64          # rows per predicate-evaluation chunk (memory bound)
_SPAN_CHUNK = 1 << 14    # shapes x rows whose spans are built at once (memory bound)
_BLOCK_CELLS = 1 << 21   # cells per row block of the span difference array (memory bound)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned 2-D box with n cells per axis (cells may be non-square)."""

    box: tuple               # ((x0, y0), (x1, y1))
    cells_per_axis: int

    def __post_init__(self):
        lo, hi = (tuple(float(v) for v in side) for side in self.box)
        object.__setattr__(self, "box", (lo, hi))
        if len(lo) != 2 or len(hi) != 2:
            raise ArgumentError("box must be 2-D (lo, hi) tuples")
        # hi - lo is finite only if both corners are, and lo < hi fails on NaN
        if not all(l < h and np.isfinite(h - l) for l, h in zip(lo, hi)):
            raise ArgumentError("box must have finite corners with hi > lo on every axis")
        n = self.cells_per_axis
        if not (MIN_CELLS <= n <= MAX_CELLS_2D):
            raise ArgumentError(f"cells_per_axis must be in [{MIN_CELLS}, {MAX_CELLS_2D}]")

    @property
    def cell_sizes(self) -> np.ndarray:
        lo, hi = self.box
        return (np.asarray(hi) - np.asarray(lo)) / self.cells_per_axis

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_sizes))

    def centers(self, axis: int) -> np.ndarray:
        lo, hi = self.box
        h = (hi[axis] - lo[axis]) / self.cells_per_axis
        return lo[axis] + (np.arange(self.cells_per_axis) + 0.5) * h

    def index_range(self, lo_val, hi_val):
        """Inclusive x-cell-index range whose centers lie in [lo_val, hi_val].

        Works elementwise on arrays.  The clips are one-sided, so an interval
        that misses every center keeps i0 > i1.
        """
        lo, hi = self.box
        h = (hi[0] - lo[0]) / self.cells_per_axis
        i0 = np.ceil((np.asarray(lo_val) - lo[0]) / h - 0.5).astype(np.int64)
        i1 = np.floor((np.asarray(hi_val) - lo[0]) / h - 0.5).astype(np.int64)
        return np.maximum(i0, 0), np.minimum(i1, self.cells_per_axis - 1)


@dataclass
class GridRaster:
    """Occupancy bitmap over a GridSpec; area() = filled cells x cell volume."""

    grid: GridSpec
    bits: np.ndarray
    filled_count: int = field(init=False)

    def __post_init__(self):
        if self.bits.shape != (self.grid.cells_per_axis,) * 2:
            raise ArgumentError("bits shape does not match grid")
        if self.bits.dtype != np.bool_:
            raise ArgumentError("bits must be boolean")
        self.filled_count = int(np.count_nonzero(self.bits))

    def area(self) -> float:
        return self.filled_count * self.grid.cell_volume


# ---------------------------------------------------------------------------
# geometric band descriptors
# ---------------------------------------------------------------------------
# Convention for 2-D bitmaps: bits[iy, ix], so a row is a horizontal grid line.

def _batch(center, size):
    """(k, 2) centers and k sizes from k of each, or from one (x, y) and a scalar."""
    center = np.asarray(center, float).reshape(-1, 2)
    return center, np.broadcast_to(np.asarray(size, float), len(center))


class Circle:
    """Delta-bands of circles: Circle((x, y), r) is a batch of one."""

    def __init__(self, center, radius):
        self.center, self.radius = _batch(center, radius)

    def __len__(self):
        return len(self.center)

    def spans(self, ys, delta: float):
        (cx, cy), r = self.center.T, self.radius
        dy = np.asarray(ys)[:, None] - cy
        dy *= dy
        ro2 = (r + delta) ** 2 - dy
        # hit (row, shape) pairs in row-major order, as np.nonzero gives them,
        # read by take on flat indexes in place of 2-D boolean gathers
        hit = np.flatnonzero(ro2 > 0.0)
        rows, shape = np.divmod(hit, len(cx))
        b = np.sqrt(ro2.take(hit))
        cx = cx.take(shape)
        # a radius under delta leaves no hole inside the band
        ri2 = (np.maximum(r - delta, 0.0) ** 2).take(shape) - dy.take(hit)
        a = np.sqrt(np.maximum(ri2, 0.0))
        inner = ri2 > 0.0
        ring = np.flatnonzero(inner)
        right = cx + b
        # spans [cx - b, cx - a] and [cx + a, cx + b]; one span [cx - b, cx + b]
        # on rows that miss the inner circle
        return (np.concatenate([shape, shape.take(ring)]),
                np.concatenate([rows, rows.take(ring)]),
                np.concatenate([cx - b, (cx + a).take(ring)]),
                np.concatenate([np.where(inner, cx - a, right), right.take(ring)]))


class SquareBoundary:
    """Euclidean delta-bands around the boundaries of axis-aligned squares."""

    def __init__(self, center, half_side):
        self.center, self.half_side = _batch(center, half_side)

    def __len__(self):
        return len(self.center)

    def spans(self, ys, delta: float):
        (cx, cy), h = self.center.T, self.half_side
        ady = np.abs(np.asarray(ys)[:, None] - cy)
        # rows within delta of the top/bottom edge are covered across the
        # square, out to the rounded corners outside it
        edge = (ady >= h - delta) & (ady <= h + delta)
        rows1, one = np.nonzero(edge)
        d, h1 = ady[edge], h[one]
        w = np.where(d > h1, np.sqrt(np.maximum(delta * delta - (d - h1) ** 2, 0.0)), delta)
        # middle rows: only the two vertical edges contribute
        rows2, two = np.nonzero(ady < h - delta)
        left, right = cx[two] - h[two], cx[two] + h[two]
        return (np.concatenate([one, two, two]), np.concatenate([rows1, rows2, rows2]),
                np.concatenate([(cx[one] - h1) - w, left - delta, right - delta]),
                np.concatenate([(cx[one] + h1) + w, left + delta, right + delta]))


@dataclass(frozen=True)
class CircleFamily:
    """Circles of one radius centered on every point of intervals x {y0}.

    The union over a center interval [u, v] has exact per-row coverage
    [u + a, v + b] and [u - b, v - a]: a continuum union, not a sampled one.
    A family is a batch of one shape per center interval; the bands of
    neighbouring intervals overlap, so it is meant for unions, not counts.
    """

    intervals: IntervalSet
    y0: float
    radius: float

    def __len__(self):
        return len(self.intervals)

    def spans(self, ys, delta: float):
        # the circle at (0, y0) covers [-b, -a] and [a, b] (or [-b, b]) per row
        _, rows, lo, hi = Circle((0.0, self.y0), self.radius).spans(ys, delta)
        u, v = self.intervals.as_arrays()
        return (np.tile(np.arange(len(u)), len(lo)), np.repeat(rows, len(u)),
                (lo[:, None] + u).ravel(), (hi[:, None] + v).ravel())


def _triangle_spans(triangles, ys):
    """(shape, row, lo, hi) of filled triangles given as (k, 3, 2) vertices.

    A horizontal line meets a triangle in [min, max] of its edge crossings.
    """
    y = np.asarray(ys)[:, None]
    xlo = np.full((len(y), len(triangles)), np.inf)
    xhi = np.full((len(y), len(triangles)), -np.inf)
    for k in range(3):
        (x1, y1), (x2, y2) = triangles[:, k].T, triangles[:, (k + 1) % 3].T
        hit = (y >= np.minimum(y1, y2)) & (y <= np.maximum(y1, y2))
        flat = y1 == y2         # a horizontal edge covers its extent on its row
        with np.errstate(all="ignore"):     # inf/nan only where flat or ~hit discard it
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        xlo = np.where(hit, np.minimum(xlo, np.where(flat, np.minimum(x1, x2), xc)), xlo)
        xhi = np.where(hit, np.maximum(xhi, np.where(flat, np.maximum(x1, x2), xc)), xhi)
    hit = xlo <= xhi
    rows, shape = np.nonzero(hit)
    return shape, rows, xlo[hit], xhi[hit]


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

def _check_delta(delta: float, grid: GridSpec):
    if not (np.isfinite(delta) and delta > 0.0):
        raise ArgumentError("delta must be positive and finite")
    coarse = float(np.max(grid.cell_sizes))
    if delta < coarse / 4.0:
        raise ArgumentError(
            f"delta {delta} below cell_size/4 = {coarse / 4.0}: grid too coarse for band"
        )
    if delta < coarse / 2.0:
        warnings.warn(
            f"delta {delta} below cell_size/2 = {coarse / 2.0}; band may alias",
            stacklevel=3,
        )


def rasterize_band(spec, x, t, delta: float, grid: GridSpec) -> GridRaster:
    """Cells whose center c satisfies |phi(x, c) - t| <= delta, for a 2-D PhaseSpec.

    The centers go a block of rows at a time (bits[iy, ix]).  Span batches
    go through union_scanline instead.
    """
    if not isinstance(spec, PhaseSpec) or spec.dim != 2:
        raise ArgumentError("rasterize_band takes a 2-D PhaseSpec; spans go to union_scanline")
    _check_delta(delta, grid)
    x = np.asarray(x, float)
    n = grid.cells_per_axis
    xs, ycent = grid.centers(0), grid.centers(1)
    bits = np.zeros((n, n), dtype=bool)
    for j0 in range(0, n, _ROW_CHUNK):
        ys = ycent[j0 : j0 + _ROW_CHUNK]
        px, py = np.meshgrid(xs, ys, indexing="xy")
        pts = np.column_stack([px.ravel(), py.ravel()])
        inside = np.abs(eval_phase_batch(spec, x, pts) - t) <= delta
        bits[j0 : j0 + len(ys), :] = inside.reshape(len(ys), n)
    return GridRaster(grid, bits)


def _cell_ranges(grid: GridSpec, count: int, spans, ys):
    """(shape, row, i0, i1) cell ranges of `count` shapes' spans on rows ys.

    spans(ys) gets _SPAN_CHUNK // count whole rows (at least one) at a time;
    row indexes ys, and ranges that contain no cell center are dropped.
    """
    step = max(1, _SPAN_CHUNK // max(count, 1))
    for c0 in range(0, len(ys), step):
        shape, row, lo, hi = spans(ys[c0 : c0 + step])
        i0, i1 = grid.index_range(lo, hi)
        keep = i0 <= i1
        # rebound, so the unfiltered arrays are freed while the caller works
        shape, row, i0, i1 = shape[keep], row[keep] + c0, i0[keep], i1[keep]
        yield shape, row, i0, i1


def _shared(n: int, dtype):
    """A zero-filled n x n array in an anonymous mapping that forked workers write into.

    Inside a worker no fan_out forks, so the array is private there.
    """
    import multiprocessing
    if multiprocessing.parent_process() is not None:
        return np.zeros((n, n), dtype)
    return np.frombuffer(mmap.mmap(-1, n * n * np.dtype(dtype).itemsize), dtype).reshape(n, n)


def _row_blocks(grid: GridSpec):
    """(j0, j1) row ranges of at most _BLOCK_CELLS cells (at least one row) each."""
    n = grid.cells_per_axis
    block = min(n, max(1, _BLOCK_CELLS // n))
    return [(j0, min(j0 + block, n)) for j0 in range(0, n, block)]


def spans_to_cells(grid: GridSpec, count: int, spans):
    """(union bits, per-shape cell totals) of the row spans of `count` 2-D shapes.

    spans(ys) -> (shape, row, lo, hi) arrays: shape[i] covers [lo[i], hi[i]]
    on the grid row whose center is ys[row[i]].  A cell is in the union if
    its center lies in a span.  Spans count one by one: a cell under two
    overlapping spans of one shape (as a CircleFamily gives) counts twice in
    the totals, and only the union ignores the overlap.

    Rows go a block at a time, one fan_out job (_block_cells) per block, so
    the only full-grid array is the union, in an anonymous shared mapping
    that the workers' writes reach; the jobs return their blocks' totals.
    """
    bits = _shared(grid.cells_per_axis, bool)
    return bits, sum(fan_out(_block_cells, [(grid, count, spans, j0, j1, bits[j0:j1])
                                            for j0, j1 in _row_blocks(grid)]))


def deposit(grid: GridSpec, count: int, spans, bits, density):
    """Sum of density[k] over the spans of shape k, per cell, zero off bits.

    spans is as for spans_to_cells and bits its union.  The row blocks walk
    the spans again as fan_out jobs, into a float array in a shared mapping.
    """
    mass = _shared(grid.cells_per_axis, float)
    fan_out(_block_cells, [(grid, count, spans, j0, j1, bits[j0:j1], mass[j0:j1], density)
                           for j0, j1 in _row_blocks(grid)])
    return mass


def _block_cells(grid: GridSpec, count: int, spans, j0: int, j1: int, bits,
                 mass=None, density=None):
    """Walk the spans on rows j0:j1 into bits, or with mass into mass alone.

    bits (and mass) hold the block's rows only.  The union walk returns the
    rows' per-shape cell totals, the deposit walk (with mass) None.  Either
    walk sums one difference array (np.add.at, then a cumulative sum) over
    the block's cells plus one, in place:
    np.bincount would allocate a block-sized array per chunk of spans.  The
    union walk adds 1 per span into an integer buffer, the deposit walk
    density[k] per span of shape k into a float one; the union's bits then
    pin the deposit's support, so prefix-sum roundoff dust cannot leak
    outside the banded cells, as its rows are copied into mass.
    """
    n = grid.cells_per_axis
    size = (j1 - j0) * n
    run = np.zeros(size + 1, dtype=np.int64 if mass is None else float)
    totals = np.zeros(count, dtype=np.int64)
    for shape, row, i0, i1 in _cell_ranges(grid, count, spans, grid.centers(1)[j0:j1]):
        cells = i1 - i0 + 1
        if mass is None:
            w = 1
            totals += np.bincount(shape, cells, minlength=count).astype(np.int64)
        else:
            w = density[shape]
        # start is the flat index of a span's first cell in the block
        start = row * n + i0
        np.add.at(run, start, w)
        np.subtract.at(run, start + cells, w)
    np.cumsum(run, out=run)
    summed = run[:size].reshape(j1 - j0, n)
    if mass is not None:
        np.maximum(summed, 0.0, out=summed)
        # mass starts zeroed, so the cells off the union stay 0
        np.copyto(mass, summed, where=bits)
        return None
    np.greater(summed, 0, out=bits)
    return totals


def union_scanline(shapes, delta: float, grid: GridSpec):
    """(union: GridRaster, per-shape cell totals) of a span batch's delta-bands, in one walk.

    The totals add up to sum_z I(z), I(z) = #{bands covering z}, over the cell centers z.
    """
    _check_delta(delta, grid)
    bits, totals = spans_to_cells(grid, len(shapes), lambda ys: shapes.spans(ys, delta))
    return GridRaster(grid, bits), totals


def union_areas(calls) -> list:
    """[(area, summed per-shape cell totals)] of union_scanline calls (shapes, delta, grid[, pgm]).

    Each pair is what union_scanline's union and totals give, and a call's
    pgm path gets the bytes write_pgm would write.  All deltas are checked
    and every PGM file is created at its full size before the row blocks of
    all the calls run as _union_block jobs of one fan_out; if a job raises,
    the PGM files are removed.  No full raster is built.
    """
    calls = [tuple(call) + (None,) * (4 - len(call)) for call in calls]
    for _, delta, grid, _ in calls:
        _check_delta(delta, grid)
    jobs, owner = [], []
    for k, (shapes, delta, grid, pgm) in enumerate(calls):
        for j0, j1 in _row_blocks(grid):
            jobs.append((shapes, delta, grid, j0, j1, pgm))
            owner.append(k)
    pgms = [(pgm, grid.cells_per_axis) for _, _, grid, pgm in calls if pgm is not None]
    try:
        for pgm, n in pgms:
            with open(pgm, "wb") as fh:
                fh.write(_pgm_header(n))
                fh.truncate(len(_pgm_header(n)) + n * n)
        blocks = fan_out(_union_block, jobs)
    except BaseException:
        for pgm, _ in pgms:
            Path(pgm).unlink(missing_ok=True)
        raise
    filled, cells = [0] * len(calls), [0] * len(calls)
    for k, (f, c) in zip(owner, blocks):
        filled[k] += f
        cells[k] += c
    return [(f * grid.cell_volume, c) for f, c, (_, _, grid, _) in zip(filled, cells, calls)]


def _union_block(shapes, delta: float, grid: GridSpec, j0: int, j1: int, pgm):
    """(filled cells, summed cell totals) of rows j0:j1 of a union_areas call.

    With pgm, the rows are written over their place in that file, whose
    first image row is the grid's last row.
    """
    n = grid.cells_per_axis
    bits = np.empty((j1 - j0, n), bool)
    totals = _block_cells(grid, len(shapes), lambda ys: shapes.spans(ys, delta), j0, j1, bits)
    if pgm is not None:
        with open(pgm, "r+b") as fh:
            fh.seek(len(_pgm_header(n)) + (n - j1) * n)
            fh.write(np.where(bits[::-1], np.uint8(255), np.uint8(0)))
    return int(np.count_nonzero(bits)), int(totals.sum())


def rasterize_circles(circles: Circle, delta: float, grid: GridSpec):
    """Union + exact per-cell cover counts for a Circle batch.

    Returns (union: GridRaster, counts: int32 array, band_cell_counts:
    per-circle filled-cell totals).  The counts field is the incidence
    function I(z) = #{bands covering z} at cell centers, the deposit of 1
    per band: its prefix sums of +-1.0 are exact.
    """
    _check_delta(delta, grid)
    spans = lambda ys: circles.spans(ys, delta)
    bits, per_band = spans_to_cells(grid, len(circles), spans)
    counts = deposit(grid, len(circles), spans, bits, np.ones(len(circles))).astype(np.int32)
    return GridRaster(grid, bits), counts, per_band


def rasterize_triangles(triangles, grid: GridSpec) -> GridRaster:
    """Exact filled union of 2-D triangles (no band thickness) by spans."""
    triangles = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    bits, _ = spans_to_cells(grid, len(triangles), lambda ys: _triangle_spans(triangles, ys))
    return GridRaster(grid, bits)


# ---------------------------------------------------------------------------
# bitmap algebra
# ---------------------------------------------------------------------------

def _check_same_grid(*rasters):
    g0 = rasters[0].grid
    for r in rasters[1:]:
        if r.grid != g0:
            raise GridMismatchError("rasters live on different grids")
    return g0


def union_raster(rasters) -> GridRaster:
    rasters = list(rasters)
    if not rasters:
        raise ArgumentError("union of zero rasters")
    grid = _check_same_grid(*rasters)
    bits = np.zeros_like(rasters[0].bits)
    for r in rasters:
        np.logical_or(bits, r.bits, out=bits)
    return GridRaster(grid, bits)


def intersection_raster(a: GridRaster, b: GridRaster) -> GridRaster:
    grid = _check_same_grid(a, b)
    return GridRaster(grid, a.bits & b.bits)


# ---------------------------------------------------------------------------
# interior probes
# ---------------------------------------------------------------------------

def max_inscribed_interval(shape, delta: float, grid: GridSpec, within=None) -> float:
    """Longest horizontal run of a span shape batch's delta-band cells, in length units.

    It equals the longest run of filled cells in a row of the union
    union_scanline(shape, delta, grid) gives, read from the spans with
    no raster: a row's cell ranges (_cell_ranges) are sorted by i0, and
    ranges that touch (i0 <= running max i1 + 1) merge.  within = (lo, hi)
    keeps only the rows whose y-center lies in that range.  Runs never cross
    rows, so the runs of each chunk of rows are merged on their own.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise ArgumentError("delta must be positive and finite")
    n = grid.cells_per_axis
    ys = grid.centers(1)
    if within is not None:
        ys = ys[(within[0] <= ys) & (ys <= within[1])]
    best = 0
    for _, row, i0, i1 in _cell_ranges(grid, len(shape), lambda y: shape.spans(y, delta), ys):
        # offset by row, ranges sort by (row, i0), and no range of a row can
        # touch one of the next row
        start, end = row * (n + 2) + i0, row * (n + 2) + i1
        order = np.argsort(start)
        start, end = start[order], np.maximum.accumulate(end[order])
        # a merged run begins at each range that touches none before it
        begins = start > np.append(-2, end[:-1]) + 1
        run_start = np.maximum.accumulate(np.where(begins, start, 0))
        best = max(best, int(np.max(end - run_start + 1, initial=0)))
    return best * float(grid.cell_sizes[0])


# ---------------------------------------------------------------------------
# Monte Carlo (d >= 2; the 3-D measure path)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    estimate: float
    std_error: float
    hits: int
    samples: int
    low_confidence: bool


MC_MIN_SAMPLES = 100_000
MC_MIN_HITS = 100
# Samples per draw, and rows of each call's reused point buffer.  At 2^15 a
# 3-D chunk's buffers (768 KiB of unit draws, 384 KiB each of the screen's
# float32 coordinates and sines) stay in a 2 MiB L2 cache; a larger chunk
# leaves it, and a smaller one pays the fixed cost of each numpy call more
# often.  intersection-hypothesis (2-core x86_64, 2 MiB L2 per core, 12
# alternating rounds) took 0.404 s at 2^15 against 0.428 s at 2^14 (lower in
# 2 of 12) and 0.423 s at 2^16 (lower in 5 of 12).
_MC_CHUNK = 1 << 15


def monte_carlo_intersection(family, delta: float, box, samples: int, seed: int = 0) -> MCResult:
    """Volume of the intersection of two phase bands by uniform sampling.

    family: pair of (PhaseSpec, x, t) triples.  A hit satisfies both band
    conditions |phi_i(x_i, y) - t_i| <= delta.  Returns a low-confidence
    result (never raises) when samples or hits are too few to trust.  Each
    chunk draws the next points of the seed's stream, so the result does not
    depend on the chunk size.  A float32 screen, where band A's kind has
    one, drops only samples farther than delta + its error bound from band A,
    so the hits are those of the exact tests alone.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ArgumentError("delta must be positive and finite")
    if samples < 1:
        raise ArgumentError("samples must be at least 1")
    (spec_a, xa, ta), (spec_b, xb, tb) = family
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    # hi - lo is finite only if both corners are, and lo < hi fails on NaN
    if lo.shape != hi.shape or not np.all((lo < hi) & np.isfinite(hi - lo)):
        raise ArgumentError("invalid sampling box: need finite corners with hi > lo")
    width = hi - lo
    vol = float(np.prod(width))
    rng = np.random.default_rng(seed)
    buf = np.empty((min(_MC_CHUNK, samples), len(lo)))
    # the screen's margin grows with the box's largest coordinate, so the box
    # is checked finite first
    margin = screen_margin(spec_a, xa, ta, float(np.max(np.abs([lo, hi]))))
    if margin is not None:
        # band A widened by the margin, its edges rounded outward to float32
        # so that comparing float32 distances with them is exact
        edges = np.nextafter(np.float32([ta - delta - margin, ta + delta + margin]),
                             np.float32([-np.inf, np.inf]))
    hits = 0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        # rng.uniform(lo, hi, size=(m, d)) bit for bit: unit draws into the
        # buffer, each then scaled by width and shifted by lo
        pts = buf[:m]
        rng.random(out=pts)
        # rows are selected by index: take is 3x faster than a boolean row
        # mask when few rows are kept
        if margin is None:
            # a column at a time, which is 3x faster than broadcasting width
            for col, w, start in zip(pts.T, width, lo):
                col *= w
                col += start
        else:
            # the float32 screen reads the unit draws, and only the rows it
            # keeps are scaled for the exact test
            near = screened_distance(spec_a, xa, pts, lo, width)
            pts = pts.take(np.flatnonzero((edges[0] <= near) & (near <= edges[1])), axis=0)
            pts *= width
            pts += lo
        dev = eval_phase_batch(spec_a, xa, pts)
        dev -= ta
        in_a = np.flatnonzero(np.abs(dev, out=dev) <= delta)
        if len(in_a):
            dev = eval_phase_batch(spec_b, xb, pts.take(in_a, axis=0))
            dev -= tb
            hits += int(np.count_nonzero(np.abs(dev, out=dev) <= delta))
        done += m
    p = hits / samples
    estimate = vol * p
    std_error = vol * float(np.sqrt(max(p * (1.0 - p), 0.0) / samples))
    low = samples < MC_MIN_SAMPLES or hits < MC_MIN_HITS
    return MCResult(estimate, std_error, hits, samples, low)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


_JOBS = None     # (fn, calls) of a fan_out worker, set by _take_jobs


def _take_jobs(fn, calls):
    global _JOBS
    _JOBS = fn, calls


def _run_job(i: int):
    fn, calls = _JOBS
    return fn(*calls[i])


def fan_out(fn, calls, workers=None) -> list:
    """[fn(*call) for call in calls], run on forked worker processes.

    The workers' initializer _take_jobs gets fn and calls, which under fork
    are inherited, not pickled, so fn may be a lambda and a call may hold a
    closure or an array in a shared mapping; each job is sent as its index
    and only its result is pickled, so a job should return only what its
    caller reads.  min(len(calls), usable CPUs, workers) processes run the
    calls and the results come back in input order.  The calls run serially
    in this process instead where one worker would do, where the platform
    cannot fork, while another thread is alive (a forked child would inherit
    that thread's locks in whatever state they are), and inside a worker
    process, so workers never start workers.  The workers are joined before
    this returns, also when a job raises; its exception then re-raises here.
    """
    calls = list(calls)
    workers = min(len(calls), _usable_cpus(), workers or len(calls))
    # imported here to keep them off the import of raster
    import multiprocessing
    if (workers <= 1 or threading.active_count() > 1
            or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(*call) for call in calls]
    from concurrent.futures.process import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_take_jobs, initargs=(fn, calls)) as pool:
        return list(pool.map(_run_job, range(len(calls))))


# ---------------------------------------------------------------------------
# PGM export
# ---------------------------------------------------------------------------

def write_pgm(raster: GridRaster, path):
    """Binary PGM (P5), 255 = filled, top row = largest y.

    The image is built as uint8 and written from its own buffer, so the only
    array this allocates is one byte per cell.
    """
    img = np.where(raster.bits[::-1, :], np.uint8(255), np.uint8(0))
    with open(path, "wb") as fh:
        fh.write(_pgm_header(len(img)))
        fh.write(img)


def _pgm_header(n: int) -> bytes:
    """The P5 header of an n x n image with maxval 255."""
    return f"P5\n{n} {n}\n255\n".encode()


def pgm_band_filename(scenario: str, n: int, delta: float) -> str:
    return f"{scenario}_{n}_{delta:g}.pgm"
