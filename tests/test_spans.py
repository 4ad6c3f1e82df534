"""Differential test of the span kernel against brute-force cell centers.

Random batches of circles, of square boundaries and of triangles, and
random circle families, are turned into cells by the union walk
raster.spans_to_cells and the deposit walk raster.deposit and,
independently, by evaluating each shape's distance function at every cell
center.  Union bits, cover counts (the deposit of 1 per shape), per-shape
cell totals and the weighted incidence deposit must agree except at centers
within EDGE_TOL of a band edge, where rounding decides.  A circle family's
spans may overlap, so for families only the union is compared.  The
interior probe raster.max_inscribed_interval, which merges a batch's spans
row by row, must read the longest row run of the same cells.  The kernel's
block and chunk sizes are shrunk so that every example crosses row-block
and row-chunk boundaries.  Row blocks run on forked workers, which must give
the bytes of the same blocks run serially; the hypothesis tests pin one
usable CPU, so that an example forks no worker pool.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab import raster as ra
from gmtlab.fractal import IntervalSet

from children import assert_no_child

EDGE_TOL = 1e-9
BOX = ((-2.0, -2.0), (2.0, 2.0))

coord = st.floats(-1.8, 1.8, allow_nan=False)
length = st.floats(0.0, 1.5, allow_nan=False)


@st.composite
def intervals(draw):
    ends = sorted(set(draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                                    min_size=2, max_size=6))))
    pairs = tuple(zip(ends[0::2], ends[1::2]))
    return IntervalSet(pairs or ((ends[0], ends[0]),), 0)


def batch(kind):
    """A batch of one kind of shape from (cx, cy, size) rows."""
    rows = st.lists(st.tuples(coord, coord, length), min_size=1, max_size=5)
    return rows.map(lambda r: kind(np.array(r)[:, :2], np.array(r)[:, 2]))


shapes = st.one_of(batch(ra.Circle), batch(ra.SquareBoundary))
family = st.builds(ra.CircleFamily, intervals(), coord, length)
triangle = st.tuples(*[st.tuples(coord, coord)] * 3)


def _distances(obj, x, y):
    """Distance from points to each shape's curve, one array per shape."""
    if isinstance(obj, ra.CircleFamily):
        # over centers u in [a, b], |(x, y) - (u, y0)| sweeps [near, far]
        best = np.full(x.shape, np.inf)
        dy2 = (y - obj.y0) ** 2
        for a, b in obj.intervals.intervals:
            near = np.sqrt((x - np.clip(x, a, b)) ** 2 + dy2)
            far = np.sqrt(np.maximum((x - a) ** 2, (x - b) ** 2) + dy2)
            gap = np.where(obj.radius < near, near - obj.radius,
                           np.maximum(obj.radius - far, 0.0))
            best = np.minimum(best, gap)
        return [best]
    if isinstance(obj, ra.Circle):
        return [np.abs(np.hypot(x - cx, y - cy) - r)
                for (cx, cy), r in zip(obj.center, obj.radius)]
    if isinstance(obj, ra.SquareBoundary):
        out = []
        for (cx, cy), h in zip(obj.center, obj.half_side):
            ax, ay = np.abs(x - cx) - h, np.abs(y - cy) - h
            outside = np.hypot(np.maximum(ax, 0.0), np.maximum(ay, 0.0))
            out.append(np.where((ax > 0) | (ay > 0), outside, -np.maximum(ax, ay)))
        return out
    raise TypeError(obj)


def _segment_distance(a, b, x, y):
    """Distance from points (x, y) to the segment from a to b."""
    (ax, ay), (vx, vy) = a, (b[0] - a[0], b[1] - a[1])
    vv = vx * vx + vy * vy
    s = np.clip(((x - ax) * vx + (y - ay) * vy) / vv, 0.0, 1.0) if vv > 0 else 0.0
    return np.hypot(x - (ax + s * vx), y - (ay + s * vy))


def _triangle_inside_and_edge(tri, x, y):
    v = np.asarray(tri, float)
    cross = [(v[(k + 1) % 3, 0] - v[k, 0]) * (y - v[k, 1])
             - (v[(k + 1) % 3, 1] - v[k, 1]) * (x - v[k, 0]) for k in range(3)]
    inside = (np.min(cross, axis=0) >= 0) | (np.max(cross, axis=0) <= 0)
    # a zero-area triangle has all crosses 0 on its whole line: clip to its box
    inside &= (x >= v[:, 0].min()) & (x <= v[:, 0].max())
    inside &= (y >= v[:, 1].min()) & (y <= v[:, 1].max())
    edge = np.minimum.reduce([_segment_distance(v[k], v[(k + 1) % 3], x, y) for k in range(3)])
    return inside, edge


def _centers(grid):
    return np.meshgrid(grid.centers(0), grid.centers(1), indexing="xy")


def _cover(grid, count, spans, bits):
    """The int32 cover counts: the deposit of 1 per shape, which must be whole."""
    ones = ra.deposit(grid, count, spans, bits, np.ones(count))
    assert np.array_equal(ones, np.round(ones))
    return ones.astype(np.int32)


def _density(grid, weights, totals):
    """weights[k] per unit volume of shape k's cells, 0 for a shape with none."""
    return np.divide(weights, totals * grid.cell_volume, out=np.zeros(len(totals)),
                     where=totals > 0)


def _check(bits, cover, totals, brute, near):
    """Kernel outputs against per-shape brute-force bits.

    near[k] marks the centers within EDGE_TOL of shape k's band edge; only
    there may the kernel and the brute force disagree.
    """
    sure = ~np.logical_or.reduce(near)
    stack = np.array(brute, dtype=np.int32)
    assert np.array_equal(bits[sure], stack.any(axis=0)[sure])
    assert cover.dtype == np.int32
    assert np.array_equal(cover[sure], stack.sum(axis=0)[sure])
    assert len(totals) == len(brute)
    for total, b, edge in zip(totals, brute, near):
        assert abs(int(total) - int(b.sum())) <= int(edge.sum())
    return sure


@settings(max_examples=80, deadline=None, derandomize=True)
@given(obj=shapes, n=st.integers(16, 48), delta=st.floats(0.13, 0.4),
       rows=st.integers(1, 5), chunk=st.integers(1, 9),
       weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
def test_span_kernel_matches_brute_force(obj, n, delta, rows, chunk, weights):
    grid = ra.GridSpec(BOX, n)
    x, y = _centers(grid)
    dist = _distances(obj, x, y)
    w = np.asarray(weights[: len(obj)])
    # the blocks run in this process, which saves three worker pools an
    # example; test_forked_blocks_give_the_bytes_of_serial_blocks holds the
    # forked blocks to the same bytes
    with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
            mock.patch.object(ra, "_SPAN_CHUNK", chunk), \
            mock.patch.object(ra, "_usable_cpus", lambda: 1):
        spans = lambda ys: obj.spans(ys, delta)       # noqa: E731
        bits, totals = ra.spans_to_cells(grid, len(obj), spans)
        cover = _cover(grid, len(obj), spans, bits)
        mass = ra.deposit(grid, len(obj), spans, bits, _density(grid, w, totals))
        union, union_totals = ra.union_scanline(obj, delta, grid)
    brute = [d <= delta for d in dist]
    sure = _check(bits, cover, totals, brute, [np.abs(d - delta) <= EDGE_TOL for d in dist])
    assert np.array_equal(union.bits, bits) and np.array_equal(union_totals, totals)

    # weighted deposit: weight k spread evenly over shape k's cells
    ref = np.zeros((n, n))
    for k, b in enumerate(brute):
        if totals[k]:
            ref[b] += w[k] / (totals[k] * grid.cell_volume)
    assert np.allclose(mass[sure], ref[sure], rtol=1e-9, atol=1e-12)
    assert np.all(mass[~bits] == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fam=family, n=st.integers(16, 48), delta=st.floats(0.13, 0.4),
       rows=st.integers(1, 5), chunk=st.integers(1, 9))
def test_circle_family_union_matches_brute_force(fam, n, delta, rows, chunk):
    # a family's spans may overlap, so only its union is checked
    grid = ra.GridSpec(BOX, n)
    x, y = _centers(grid)
    (dist,) = _distances(fam, x, y)
    with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
            mock.patch.object(ra, "_SPAN_CHUNK", chunk), \
            mock.patch.object(ra, "_usable_cpus", lambda: 1):
        union, _ = ra.union_scanline(fam, delta, grid)
    sure = np.abs(dist - delta) > EDGE_TOL
    assert np.array_equal(union.bits[sure], (dist <= delta)[sure])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circles=st.lists(st.tuples(coord, coord, length), min_size=1, max_size=6),
       n=st.integers(16, 48), delta=st.floats(0.13, 0.4),
       rows=st.integers(1, 5), chunk=st.integers(1, 9))
def test_rasterize_circles_matches_brute_force(circles, n, delta, rows, chunk):
    grid = ra.GridSpec(BOX, n)
    x, y = _centers(grid)
    c = np.array(circles)
    dist = _distances(ra.Circle(c[:, :2], c[:, 2]), x, y)
    with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
            mock.patch.object(ra, "_SPAN_CHUNK", chunk), \
            mock.patch.object(ra, "_usable_cpus", lambda: 1):
        union, counts, per_band = ra.rasterize_circles(ra.Circle(c[:, :2], c[:, 2]), delta, grid)
    _check(union.bits, counts, per_band, [d <= delta for d in dist],
           [np.abs(d - delta) <= EDGE_TOL for d in dist])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triangles=st.lists(triangle, min_size=1, max_size=6),
       n=st.integers(16, 48), rows=st.integers(1, 5), chunk=st.integers(1, 9))
def test_triangle_spans_match_brute_force(triangles, n, rows, chunk):
    grid = ra.GridSpec(BOX, n)
    x, y = _centers(grid)
    inside, edge = zip(*[_triangle_inside_and_edge(t, x, y) for t in triangles])
    tris = np.asarray(triangles, dtype=float)
    with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
            mock.patch.object(ra, "_SPAN_CHUNK", chunk), \
            mock.patch.object(ra, "_usable_cpus", lambda: 1):
        spans = lambda ys: ra._triangle_spans(tris, ys)   # noqa: E731
        bits, totals = ra.spans_to_cells(grid, len(tris), spans)
        cover = _cover(grid, len(tris), spans, bits)
        union = ra.rasterize_triangles(triangles, grid)
    _check(bits, cover, totals, inside, [e <= EDGE_TOL for e in edge])
    assert np.array_equal(union.bits, bits)


def separate_buffer_deposit(grid, count, spans, weights, bits):
    """The weighted deposit summed in its own buffer of block * n + 1 cells.

    This is raster.deposit as it was before it was written in place:
    every span adds its density at its first cell and subtracts it one past
    its last, even where that is one past the block's last cell.  Also
    returns, per row block, how many spans end on the block's last cell.
    """
    n = grid.cells_per_axis
    ycent = grid.centers(1)
    first = np.zeros(count)
    for shape, _, i0, i1 in ra._cell_ranges(grid, count, spans, ycent):
        first += np.bincount(shape, i1 - i0 + 1, minlength=count)
    density = np.divide(weights, first * grid.cell_volume, out=np.zeros(count),
                        where=first > 0)
    mass = np.zeros((n, n))
    block = max(1, ra._BLOCK_CELLS // n)
    dep = np.zeros(block * n + 1)
    edge_ends = []
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        dep[:] = 0.0
        edge_ends.append(0)
        for shape, row, i0, i1 in ra._cell_ranges(grid, count, spans, ycent[j0:j1]):
            start, cells = row * n + i0, i1 - i0 + 1
            w = density[shape]
            np.add.at(dep, start, w)
            np.subtract.at(dep, start + cells, w)
            edge_ends[-1] += int(np.count_nonzero(start + cells == (j1 - j0) * n))
        np.cumsum(dep, out=dep)
        mass[j0:j1] = dep[: (j1 - j0) * n].reshape(j1 - j0, n)
    mass[~bits] = 0.0
    np.maximum(mass, 0.0, out=mass)
    return mass, edge_ends


@pytest.mark.parametrize("n,rows", [(37, 4), (48, 5), (29, 3)])
def test_in_place_deposit_is_byte_equal_to_separate_buffer(n, rows):
    # shapes wider than the box run to its right edge, so spans end on a
    # block's last cell; the first shape covers the top right corner, the
    # last cell of the last block, which is partial as n is not a multiple
    # of rows
    grid = ra.GridSpec(((-1.0, -2.0), (1.0, 2.0)), n)
    rng = np.random.default_rng(n)
    for kind in (ra.Circle, ra.SquareBoundary):
        centers = np.vstack([(1.0, 2.0), rng.uniform(-1.8, 1.8, (5, 2))])
        obj = kind(centers, np.r_[0.2, rng.uniform(0.3, 1.5, 5)])
        w = rng.uniform(0.01, 1.0, 6)
        spans = lambda ys: obj.spans(ys, 0.3)       # noqa: E731
        with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
                mock.patch.object(ra, "_SPAN_CHUNK", 2):
            bits, totals = ra.spans_to_cells(grid, len(obj), spans)
            mass = ra.deposit(grid, len(obj), spans, bits, _density(grid, w, totals))
            want, edge_ends = separate_buffer_deposit(grid, len(obj), spans, w, bits)
        assert len(edge_ends) == -(-n // rows) and n % rows
        assert edge_ends[-1] > 0 and any(edge_ends[:-1])
        assert mass.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["circles", "squares", "triangles"])
def test_forked_blocks_give_the_bytes_of_serial_blocks(monkeypatch, tmp_path, kind):
    grid = ra.GridSpec(BOX, 45)
    rng = np.random.default_rng(7)
    centers, sizes = rng.uniform(-1.8, 1.8, (6, 2)), rng.uniform(0.2, 1.5, 6)
    if kind == "triangles":
        triangles = rng.uniform(-1.8, 1.8, (6, 3, 2))
        shape_spans = lambda ys: ra._triangle_spans(triangles, ys)   # noqa: E731
    else:
        obj = (ra.Circle if kind == "circles" else ra.SquareBoundary)(centers, sizes)
        shape_spans = lambda ys: obj.spans(ys, 0.2)                   # noqa: E731
    weights = rng.uniform(0.01, 1.0, 6)
    runs = {}
    # four workers on fewer cores write their rows into the same mappings
    for cpus in (4, 2, 1):
        monkeypatch.setattr(ra, "_usable_cpus", lambda: cpus)
        walk = {}
        for tag in ("union", "deposit"):
            def spans(ys, tag=tag, cpus=cpus):
                # the process that walks these rows leaves its pid
                (tmp_path / f"{cpus}-{tag}-{os.getpid()}").touch()
                return shape_spans(ys)
            walk[tag] = spans

        with mock.patch.object(ra, "_BLOCK_CELLS", 4 * 45), \
                mock.patch.object(ra, "_SPAN_CHUNK", 3):
            bits, totals = ra.spans_to_cells(grid, 6, walk["union"])
            cover = ra.deposit(grid, 6, walk["deposit"], bits, np.ones(6))
            mass = ra.deposit(grid, 6, walk["deposit"], bits, _density(grid, weights, totals))
        runs[cpus] = bits, totals, cover, mass
    assert_no_child()
    for cpus in (4, 2):
        for forked, serial in zip(runs[cpus], runs[1]):
            assert forked.dtype == serial.dtype and forked.tobytes() == serial.tobytes()
    bits, _, cover, mass = runs[2]
    assert np.array_equal(cover > 0, bits) and mass.any()

    def pids(prefix):
        return {int(f.name.rpartition("-")[2]) for f in tmp_path.glob(prefix + "-*")}

    for cpus in (4, 2):
        assert pids(f"{cpus}-deposit") and os.getpid() not in pids(f"{cpus}-deposit")
        assert pids(f"{cpus}-union") and os.getpid() not in pids(f"{cpus}-union")
    assert pids("1-union") == pids("1-deposit") == {os.getpid()}


def _longest_run(bits):
    """Longest run of filled cells along any row, by a plain scan."""
    best = 0
    for row in bits:
        run = 0
        for b in row:
            run = run + 1 if b else 0
            best = max(best, run)
    return best


within = st.one_of(st.none(), st.lists(st.floats(-2.2, 2.2), min_size=2, max_size=2).map(sorted))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(obj=st.one_of(family, shapes), n=st.integers(16, 48), delta=st.floats(0.13, 0.4),
       rows=st.integers(1, 5), chunk=st.integers(1, 9), band=within)
def test_interior_probe_matches_row_runs(obj, n, delta, rows, chunk, band):
    # a box narrower than the shapes clips runs at both ends of a row
    grid = ra.GridSpec(((-1.0, -2.0), (1.0, 2.0)), n)
    x, y = _centers(grid)
    with mock.patch.object(ra, "_BLOCK_CELLS", rows * n), \
            mock.patch.object(ra, "_SPAN_CHUNK", chunk), \
            mock.patch.object(ra, "_usable_cpus", lambda: 1):
        probe = ra.max_inscribed_interval(obj, delta, grid, within=band)
        bits = ra.spans_to_cells(grid, len(obj), lambda ys: obj.spans(ys, delta))[0]
    ys = grid.centers(1)
    keep = np.ones(n, bool) if band is None else (band[0] <= ys) & (ys <= band[1])
    cell = float(grid.cell_sizes[0])
    assert probe == _longest_run(bits[keep]) * cell
    dist = _distances(obj, x, y)
    if not any(np.any(np.abs(d - delta)[keep] <= EDGE_TOL) for d in dist):
        brute = np.logical_or.reduce([d <= delta for d in dist])
        assert probe == _longest_run(brute[keep]) * cell
