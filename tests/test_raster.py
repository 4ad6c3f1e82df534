import math
import mmap
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gmtlab import cli
from gmtlab import fractal as fr
from gmtlab import phase as ph
from gmtlab import raster as ra
from gmtlab import spectral as sp
from gmtlab.errors import ArgumentError, GridMismatchError
from gmtlab.phase import PhaseSpec, eval_phase_batch

from children import assert_no_child

BOX2 = ((-1.5, -1.5), (1.5, 1.5))

ANNULUS_AREA = math.pi * ((1.1) ** 2 - (0.9) ** 2)   # = pi * 0.4


def annulus(n=1024, delta=0.1, box=BOX2):
    grid = ra.GridSpec(box, n)
    return ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), delta, grid)[0]


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ArgumentError):
        ra.GridSpec(((0.0,), (1.0,)), 64)              # 1-D box
    with pytest.raises(ArgumentError):
        ra.GridSpec(((0, 0), (1, 0)), 64)              # hi == lo on axis 1
    with pytest.raises(ArgumentError):
        ra.GridSpec(BOX2, 15)
    with pytest.raises(ArgumentError):
        ra.GridSpec(BOX2, 8193)
    with pytest.raises(ArgumentError):
        ra.GridSpec(((0, 0, 0), (1, 1, 1)), 64)        # 3-D volumes go by Monte Carlo
    with pytest.raises(ArgumentError):
        ra.GridSpec(((0, 0), (1, 1, 1)), 64)
    # a corner that is not finite, or finite corners whose width overflows
    for box in (((-2.0, -1.0), (2.0, np.nan)), ((np.nan, 0.0), (1.0, 1.0)),
                ((0.0, -np.inf), (1.0, 1.0)), ((0.0, 0.0), (np.inf, 1.0)),
                ((-1e308, 0.0), (1e308, 1.0))):
        with pytest.raises(ArgumentError, match="finite corners"):
            ra.GridSpec(box, 64)


def test_grid_spec_geometry():
    g = ra.GridSpec(((0.0, -1.0), (2.0, 1.0)), 16)
    assert np.allclose(g.cell_sizes, [0.125, 0.125])
    assert g.cell_volume == pytest.approx(0.125 * 0.125, rel=1e-15)
    xs = g.centers(0)
    assert xs[0] == pytest.approx(0.0625)
    assert xs[-1] == pytest.approx(2.0 - 0.0625)


def test_index_range_inclusive_on_centers():
    g = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 16)      # centers at (k + 0.5)/16
    # [0.03125, 0.15625] contains exactly centers 0.03125 and 0.09375
    i0, i1 = g.index_range(0.03125, 0.15625)
    assert (i0, i1) == (0, 2)
    i0, i1 = g.index_range(0.05, 0.12)         # only center 0.09375
    assert (i0, i1) == (1, 1)
    i0, i1 = g.index_range(0.04, 0.09)         # gap between centers
    assert i0 > i1
    i0, i1 = g.index_range(-5.0, -1.0)         # fully outside
    assert i0 > i1
    # elementwise on arrays, with the same one-sided clips
    i0, i1 = g.index_range(np.array([0.03125, 0.05, 0.04, -5.0, 0.9]),
                           np.array([0.15625, 0.12, 0.09, -1.0, 7.0]))
    assert i0.tolist()[:2] == [0, 1] and i1.tolist()[:2] == [2, 1]
    assert np.all(i0[2:4] > i1[2:4])
    assert (i0[4], i1[4]) == (14, 15)


def test_grid_raster_validation_and_area():
    g = ra.GridSpec(BOX2, 16)
    with pytest.raises(ArgumentError):
        ra.GridRaster(g, np.zeros((16, 15), dtype=bool))
    with pytest.raises(ArgumentError):
        ra.GridRaster(g, np.zeros((16, 16), dtype=np.uint8))
    bits = np.zeros((16, 16), dtype=bool)
    bits[3, 4:7] = True
    r = ra.GridRaster(g, bits)
    assert r.filled_count == 3
    assert r.area() == pytest.approx(3 * (3.0 / 16) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# band area oracles
# ---------------------------------------------------------------------------

def test_annulus_area_within_5_percent():
    area = annulus().area()
    assert abs(area / ANNULUS_AREA - 1.0) <= 0.05


def test_square_boundary_band_area():
    # quantized value on an n=1024 grid; exact Euclidean band area is
    # 16*h*delta + (pi - 4)*delta^2 = 0.797854, strip rounding pushes it up
    grid = ra.GridSpec(BOX2, 1024)
    band, _ = ra.union_scanline(ra.SquareBoundary((0.0, 0.0), 1.0), 0.05, grid)
    assert abs(band.area() / 0.81 - 1.0) <= 0.05


def test_scanline_matches_phase_predicate_bitwise():
    # two independent routes to the same annulus must agree cell for cell
    grid = ra.GridSpec(BOX2, 256)
    spec = PhaseSpec("unit-distance", 2)
    via_phase = ra.rasterize_band(spec, (0.0, 0.0), 1.0, 0.1, grid)
    via_scan, _ = ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), 0.1, grid)
    assert np.array_equal(via_phase.bits, via_scan.bits)


def test_band_monotone_in_delta():
    thin = annulus(n=512, delta=0.05)
    thick = annulus(n=512, delta=0.1)
    assert not np.any(thin.bits & ~thick.bits)
    assert thick.filled_count > thin.filled_count


def test_delta_guards():
    grid = ra.GridSpec(BOX2, 64)               # cell = 3/64 = 0.046875
    with pytest.raises(ArgumentError):
        annulus(n=64, delta=0.01)              # below cell/4
    with pytest.raises(ArgumentError):
        ra.union_scanline(ra.Circle((0, 0), 1.0), -0.1, grid)
    with pytest.warns(UserWarning):
        annulus(n=64, delta=0.02)              # in [cell/4, cell/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        annulus(n=64, delta=0.05)              # comfortably resolved


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["union_scanline", "rasterize_circles",
                                   "max_inscribed_interval", "incidence_density"])
def test_non_finite_delta_is_rejected(entry, delta):
    # NaN and inf pass a bare delta <= 0 test, and would give empty bands
    grid = ra.GridSpec(BOX2, 64)
    circle = ra.Circle((0.0, 0.0), 1.0)
    cloud = fr.product_point_cloud(fr.cantor_middle_thirds(1), fr.cantor_middle_thirds(1))
    calls = {
        "union_scanline": lambda: ra.union_scanline(circle, delta, grid),
        "rasterize_circles": lambda: ra.rasterize_circles(circle, delta, grid),
        "max_inscribed_interval": lambda: ra.max_inscribed_interval(circle, delta, grid),
        "incidence_density": lambda: sp.incidence_density(ra.Circle, cloud, 1.0, delta, grid),
    }
    with pytest.raises(ArgumentError, match="finite"):
        calls[entry]()


def test_unknown_shape_rejected():
    grid = ra.GridSpec(BOX2, 64)
    with pytest.raises(ArgumentError):
        ra.rasterize_band(object(), None, None, 0.1, grid)
    with pytest.raises(ArgumentError):       # span batches go through union_scanline
        ra.rasterize_band(ra.Circle((0.0, 0.0), 1.0), None, None, 0.1, grid)
    with pytest.raises(ArgumentError):
        ra.rasterize_band(PhaseSpec("unit-distance", 3), (0.0, 0.0, 0.0), 1.0, 0.1, grid)


# ---------------------------------------------------------------------------
# bitmap algebra
# ---------------------------------------------------------------------------

def two_offset_circles(n=256):
    grid = ra.GridSpec(BOX2, n)
    a, _ = ra.union_scanline(ra.Circle((-0.3, 0.0), 1.0), 0.1, grid)
    b, _ = ra.union_scanline(ra.Circle((0.3, 0.1), 1.0), 0.1, grid)
    return grid, a, b


def test_inclusion_exclusion_exact():
    grid, a, b = two_offset_circles()
    union = ra.union_raster([a, b])
    inter = ra.intersection_raster(a, b)
    # cell counts are integers, so the identity is exact
    assert a.filled_count + b.filled_count == union.filled_count + inter.filled_count


def test_union_algebra():
    grid, a, b = two_offset_circles(n=128)
    ab = ra.union_raster([a, b])
    ba = ra.union_raster([b, a])
    assert np.array_equal(ab.bits, ba.bits)
    assert np.array_equal(ra.union_raster([a, a]).bits, a.bits)
    c, _ = ra.union_scanline(ra.Circle((0.0, -0.4), 0.8), 0.1, a.grid)
    left = ra.union_raster([ra.union_raster([a, b]), c])
    right = ra.union_raster([a, ra.union_raster([b, c])])
    assert np.array_equal(left.bits, right.bits)
    with pytest.raises(ArgumentError):
        ra.union_raster([])


def test_grid_mismatch_rejected():
    a = annulus(n=256)
    b = annulus(n=512)
    with pytest.raises(GridMismatchError):
        ra.intersection_raster(a, b).area()
    c = annulus(n=256, box=((-2.0, -2.0), (2.0, 2.0)))
    with pytest.raises(GridMismatchError):
        ra.union_raster([a, c])


# ---------------------------------------------------------------------------
# circle batches (union + incidence counts)
# ---------------------------------------------------------------------------

def test_circle_batch_matches_scanline_per_circle():
    grid = ra.GridSpec(BOX2, 256)
    circles = [(-0.3, 0.0, 1.0), (0.3, 0.1, 1.0), (0.0, -0.5, 0.6)]
    batch = ra.Circle([c[:2] for c in circles], [c[2] for c in circles])
    union, counts, per_band = ra.rasterize_circles(batch, 0.1, grid)
    singles = [
        ra.union_scanline(ra.Circle((cx, cy), r), 0.1, grid)[0]
        for cx, cy, r in circles
    ]
    stacked = np.sum([s.bits.astype(np.int32) for s in singles], axis=0)
    assert np.array_equal(counts, stacked)
    assert np.array_equal(union.bits, stacked > 0)
    for s, cells in zip(singles, per_band):
        assert s.filled_count == cells
    assert counts.sum() == per_band.sum()
    # the union walk alone gives the same union and per-circle totals
    scan_union, scan_totals = ra.union_scanline(batch, 0.1, grid)
    assert np.array_equal(scan_union.bits, union.bits)
    assert np.array_equal(scan_totals, per_band)


def test_circle_batch_incidence_integral_bounds_union():
    grid = ra.GridSpec(BOX2, 512)
    rng = np.random.default_rng(5)
    circles = ra.Circle(
        np.column_stack([rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.3, 0.3, 40)]), 1.0)
    union, counts, per_band = ra.rasterize_circles(circles, 0.05, grid)
    integral = counts.sum() * grid.cell_volume
    assert integral >= union.area() - 1e-12
    assert np.all(counts[union.bits] >= 1)
    assert np.all(counts[~union.bits] == 0)


def test_circle_batch_offgrid_circle_contributes_nothing():
    grid = ra.GridSpec(BOX2, 64)
    union, counts, per_band = ra.rasterize_circles(ra.Circle((40.0, 0.0), 1.0), 0.05, grid)
    assert union.filled_count == 0
    assert per_band[0] == 0


def test_circle_family_covers_sampled_union():
    # continuum union over center intervals vs dense center sampling:
    # every sampled center is in the intervals, so sampled bits are a subset
    grid = ra.GridSpec(((-2.0, -2.0), (2.0, 2.0)), 256)
    ivals = fr.IntervalSet(((0.0, 0.2), (0.5, 0.6)), 0)
    fam, _ = ra.union_scanline(ra.CircleFamily(ivals, 0.0, 1.0), 0.12, grid)
    centers = np.concatenate([np.linspace(a, b, 1500) for a, b in ivals.intervals])
    circles = ra.Circle(np.column_stack([centers, np.zeros_like(centers)]), 1.0)
    sampled, _ = ra.union_scanline(circles, 0.12, grid)
    assert not np.any(sampled.bits & ~fam.bits)
    assert sampled.area() >= 0.99 * fam.area()


@pytest.mark.parametrize("measure", [
    lambda shapes, grid: ra.union_scanline(shapes, 0.05, grid)[0].bits,
    lambda shapes, grid: ra.max_inscribed_interval(shapes, 0.05, grid),
], ids=["union_scanline", "max_inscribed_interval"])
def test_circle_family_spans_come_a_chunk_at_a_time(monkeypatch, measure):
    # each interval is one shape, so a call for spans gets _SPAN_CHUNK // len(family)
    # rows and returns at most two spans per shape and row, for the union and
    # for the interior probe alike
    fam = ra.CircleFamily(fr.fat_cantor(4), 0.0, 1.0)
    grid = ra.GridSpec(((-2.0, -1.5), (3.0, 1.5)), 128)
    whole = measure(fam, grid)
    calls = []

    class Spy:
        def __len__(self):
            return len(fam)

        def spans(self, ys, delta):
            out = fam.spans(ys, delta)
            calls.append((len(ys), len(out[0])))
            return out

    monkeypatch.setattr(ra, "_SPAN_CHUNK", 64)
    chunked = measure(Spy(), grid)
    assert max(spans for _, spans in calls) <= 2 * 64
    assert max(rows for rows, _ in calls) == 64 // 16      # 16 intervals at depth 4
    assert sum(rows for rows, _ in calls) == 128
    assert np.array_equal(chunked, whole)


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

def test_triangle_area_exact_on_aligned_grid():
    grid = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 256)
    tri = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    r = ra.rasterize_triangles([tri], grid)
    assert r.area() == pytest.approx(0.5, abs=2e-3)


def test_triangle_vertex_order_irrelevant():
    grid = ra.GridSpec(BOX2, 128)
    tri = ((-0.8, -0.7), (0.9, -0.2), (0.1, 0.8))
    r1 = ra.rasterize_triangles([tri], grid)
    r2 = ra.rasterize_triangles([tri[::-1]], grid)
    assert np.array_equal(r1.bits, r2.bits)


def test_triangle_flat_edge_on_a_row_center_is_filled():
    # the base lies exactly on the row-0 centers: a closed triangle keeps it
    grid = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 16)
    r = ra.rasterize_triangles([((0.0, 1 / 32), (1.0, 1 / 32), (0.5, 0.9))], grid)
    assert r.bits[0].all()
    assert r.bits[1, 0] == False and r.bits[1, 1:15].all()   # noqa: E712


def test_triangle_outside_box_is_empty():
    grid = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 64)
    r = ra.rasterize_triangles([((-9.0, -9.0), (-8.0, -9.0), (-8.5, -8.0))], grid)
    assert r.filled_count == 0


def test_perron_union_compresses():
    grid = ra.GridSpec(((-2.0, -1.0), (2.0, 1.5)), 1024)
    areas = []
    for stage in range(6):
        tris = fr.perron_tree(stage).triangles
        areas.append(ra.rasterize_triangles(tris, grid).area())
    base = areas[0]
    assert base == pytest.approx(0.5, rel=2e-3)
    assert all(b <= a + 1e-9 for a, b in zip(areas, areas[1:]))
    assert areas[5] / base <= 0.35


# ---------------------------------------------------------------------------
# interior probes and refinement
# ---------------------------------------------------------------------------

class FixedSpans:
    """Stub span shape: fixed x-intervals on the rows whose y-center is a key."""

    def __init__(self, by_y):
        self.by_y = by_y

    def __len__(self):
        return 1            # every span belongs to shape 0

    def spans(self, ys, delta):
        found = [(j, lo, hi) for j, y in enumerate(ys) for lo, hi in self.by_y.get(y, ())]
        rows, lo, hi = zip(*found) if found else ((), (), ())
        return (np.zeros(len(rows), dtype=np.int64), np.array(rows, dtype=np.int64),
                np.array(lo, float), np.array(hi, float))


def test_max_inscribed_interval_on_constructed_stripes():
    g = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 16)
    xc, yc = g.centers(0), g.centers(1)
    stripes = FixedSpans({
        # ranges 3..4 and 5..5 touch: one run of 3 cells
        yc[2]: [(xc[3], xc[4]), (xc[5], xc[5])],
        # runs 0..1 and 4..5; the last span misses every center
        yc[5]: [(xc[0], xc[1]), (xc[4], xc[5]), (xc[8] + 1e-3, xc[8] + 2e-3)],
        # 4..4 lies inside 3..7, which 6..8 extends: one run of 6 cells
        yc[8]: [(xc[3], xc[7]), (xc[4], xc[4]), (xc[6], xc[8])],
        # clipped at the right and at the left edge; the rows do not join
        yc[11]: [(xc[12], xc[15] + 1.0)],
        yc[12]: [(xc[0] - 1.0, xc[1])],
    })
    cell = 1.0 / 16
    assert ra.max_inscribed_interval(stripes, 0.1, g) == pytest.approx(6 * cell, rel=1e-12)
    # restrict to one row at a time: the split row's run is 2 cells
    for j, cells in {2: 3, 5: 2, 8: 6, 11: 4, 12: 2}.items():
        assert ra.max_inscribed_interval(
            stripes, 0.1, g, within=(yc[j] - 1e-9, yc[j] + 1e-9)) == pytest.approx(
            cells * cell, rel=1e-12)
    assert ra.max_inscribed_interval(
        stripes, 0.1, g, within=(yc[11], yc[12])) == pytest.approx(4 * cell, rel=1e-12)
    assert ra.max_inscribed_interval(FixedSpans({}), 0.1, g) == 0.0


def test_max_inscribed_interval_validation():
    for delta in (0.0, -0.1):
        with pytest.raises(ArgumentError):
            ra.max_inscribed_interval(FixedSpans({}), delta, ra.GridSpec(BOX2, 16))


def test_refinement_series_tracks_truth():
    # the annulus area converges as the grid refines
    errs = []
    for n in (64, 128, 256, 512):
        band, _ = ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), 0.1,
                                    ra.GridSpec(BOX2, n))
        errs.append(abs(band.area() - ANNULUS_AREA))
    assert errs[-1] <= errs[0]
    assert errs[-1] / ANNULUS_AREA <= 0.01


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------

def mc_family(offset=0.3):
    spec = PhaseSpec("unit-distance", 2)
    return ((spec, (-offset, 0.0), 1.0), (spec, (offset, 0.0), 1.0))


def test_monte_carlo_agrees_with_grid_intersection():
    grid = ra.GridSpec(BOX2, 2048)
    a, _ = ra.union_scanline(ra.Circle((-0.3, 0.0), 1.0), 0.1, grid)
    b, _ = ra.union_scanline(ra.Circle((0.3, 0.0), 1.0), 0.1, grid)
    truth = ra.intersection_raster(a, b).area()
    res = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 400_000, seed=11)
    assert not res.low_confidence
    assert abs(res.estimate - truth) <= max(3.0 * res.std_error, 0.01)


def test_monte_carlo_deterministic_under_seed():
    r1 = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 150_000, seed=3)
    r2 = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 150_000, seed=3)
    assert r1 == r2


def test_monte_carlo_low_confidence_flags():
    few = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 50_000, seed=0)
    assert few.low_confidence
    # disjoint bands: zero hits, flagged but not an error
    none = ra.monte_carlo_intersection(
        mc_family(offset=5.0), 0.1, ((-1.0, -1.0), (1.0, 1.0)), 120_000, seed=0
    )
    assert none.hits == 0
    assert none.estimate == 0.0
    assert none.low_confidence


def test_monte_carlo_validation():
    with pytest.raises(ArgumentError):
        ra.monte_carlo_intersection(mc_family(), -0.1, BOX2, 1000)
    with pytest.raises(ArgumentError):
        ra.monte_carlo_intersection(mc_family(), 0.1, ((0, 0), (0, 1)), 1000)
    for samples in (0, -5):
        with pytest.raises(ArgumentError, match="samples"):
            ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, samples)
    # non-finite inputs: a NaN box used to give a NaN estimate, an infinite
    # one a RuntimeWarning, and a NaN delta zero hits
    nan, inf = float("nan"), float("inf")
    for box in (((-1.5, nan), (1.5, 1.5)), ((-1.5, -1.5), (inf, 1.5))):
        with pytest.raises(ArgumentError, match="box"):
            ra.monte_carlo_intersection(mc_family(), 0.1, box, 1000)
    with pytest.raises(ArgumentError, match="delta"):
        ra.monte_carlo_intersection(mc_family(), nan, BOX2, 1000)


SPHERE3 = PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
PARAB3 = PhaseSpec("translated-paraboloid", 3)
BOX3 = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))


def mixed_calls():
    calls = []
    for k, sep in enumerate((0.25, 0.5, 1.0)):
        sphere = ((SPHERE3, (0.0, 0.0, 0.0), 1.0), (SPHERE3, (sep, 0.0, 0.0), 1.0))
        parab = ((PARAB3, (0.0, 0.0, 0.0), 1.0), (PARAB3, (0.0, 0.0, sep), 1.0 - sep))
        calls.append((sphere, 0.04, BOX3, 20_000 + 999 * k, 7 + k))
        calls.append((parab, 0.02, ((-1.0, -1.0, 0.9), (1.0, 1.0, 3.1)), 15_000, 40 + k))
    return calls


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_volumes_match_serial_calls(monkeypatch, workers):
    calls = mixed_calls()
    serial = [ra.monte_carlo_intersection(*call) for call in calls]
    assert sum(r.hits for r in serial) > 0
    monkeypatch.setattr(ra, "_usable_cpus", lambda: workers)
    assert ra.fan_out(ra.monte_carlo_intersection, calls) == serial
    assert ra.fan_out(ra.monte_carlo_intersection, []) == []


def test_monte_carlo_volumes_raise_a_bad_call(monkeypatch):
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 2)
    calls = mixed_calls()
    calls[3] = calls[3][:3] + (0,) + calls[3][4:]
    with pytest.raises(ArgumentError, match="samples"):
        ra.fan_out(ra.monte_carlo_intersection, calls)


# ---------------------------------------------------------------------------
# fan_out: independent calls on forked worker processes
# ---------------------------------------------------------------------------

def pid_of(i):
    """(i, the process the job ran in): a fan_out job."""
    return i, os.getpid()


def fail_on(i):
    if i == 2:
        raise ArgumentError(f"job {i} failed")
    return i


def nested(i):
    """(pid of this job, pids of a fan-out started inside it)."""
    return os.getpid(), [pid for _, pid in ra.fan_out(pid_of, [(0,), (1,)])]


def forks_to(monkeypatch, cpus):
    monkeypatch.setattr(ra, "_usable_cpus", lambda: cpus)


def test_fan_out_equals_serial_calls_in_input_order(monkeypatch):
    forks_to(monkeypatch, 2)
    circles = ra.Circle(fr.product_point_cloud(fr.cantor_middle_thirds(3),
                                               fr.cantor_middle_thirds(3), seed=1).points, 1.0)
    grid = ra.GridSpec(((-1.1, -1.1), (2.1, 2.1)), 128)
    calls = [(circles, d, grid) for d in (0.1, 0.05, 0.03)]
    got = ra.fan_out(ra.rasterize_circles, calls)
    assert_no_child()
    for (union, counts, totals), call in zip(got, calls):
        want_union, want_counts, want_totals = ra.rasterize_circles(*call)
        assert np.array_equal(union.bits, want_union.bits)
        assert np.array_equal(counts, want_counts) and np.array_equal(totals, want_totals)
    assert ra.fan_out(pid_of, []) == []


def test_fan_out_runs_on_forked_workers(monkeypatch):
    forks_to(monkeypatch, 2)
    got = ra.fan_out(pid_of, [(i,) for i in range(5)])
    assert [i for i, _ in got] == list(range(5))
    assert os.getpid() not in {pid for _, pid in got}
    assert_no_child()


def test_fan_out_caps_workers(monkeypatch):
    forks_to(monkeypatch, 2)
    assert {pid for _, pid in ra.fan_out(pid_of, [(0,), (1,)], workers=1)} == {os.getpid()}


def test_fan_out_runs_serially_on_one_cpu(monkeypatch):
    forks_to(monkeypatch, 1)
    assert ra.fan_out(pid_of, [(0,), (1,)]) == [(0, os.getpid()), (1, os.getpid())]


def test_fan_out_runs_serially_without_fork(monkeypatch):
    forks_to(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert ra.fan_out(pid_of, [(0,), (1,)]) == [(0, os.getpid()), (1, os.getpid())]


def test_fan_out_runs_serially_beside_another_thread(monkeypatch):
    forks_to(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert ra.fan_out(pid_of, [(0,), (1,)]) == [(0, os.getpid()), (1, os.getpid())]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert_no_child()


def test_fan_out_runs_serially_inside_a_worker(monkeypatch):
    forks_to(monkeypatch, 2)
    for worker, inner in ra.fan_out(nested, [(0,), (1,)]):
        assert worker != os.getpid() and inner == [worker, worker]
    assert_no_child()


def test_fan_out_reraises_a_failed_job_after_joining(monkeypatch):
    forks_to(monkeypatch, 2)
    with pytest.raises(ArgumentError, match="job 2 failed") as failed:
        ra.fan_out(fail_on, [(i,) for i in range(4)])
    # the cause holds the traceback from the worker's side
    assert ", in fail_on\n" in str(failed.value.__cause__)
    assert_no_child()


def exit_seven():
    os._exit(7)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def unpicklable():
    return lambda: None


@pytest.mark.parametrize("end", [exit_seven, kill_self, unpicklable])
def test_fan_out_names_the_job_that_breaks_its_worker(monkeypatch, end):
    # job 3 ends its worker only if it runs in one; an alarm fails a hang
    forks_to(monkeypatch, 2)
    parent = os.getpid()

    def job(i):
        return end() if i == 3 and os.getpid() != parent else i

    def hang(*_):
        raise AssertionError("fan_out hung on a broken worker")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match=r"fan_out job 3\b"):
            ra.fan_out(job, [(i,) for i in range(6)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child()


def test_fan_out_reaps_its_first_worker_when_the_second_fork_fails(monkeypatch):
    forks_to(monkeypatch, 2)
    forked, real = [], os.fork

    def fork():
        if forked:
            raise OSError("no second fork")
        forked.append(real())
        return forked[-1]

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="no second fork"):
        ra.fan_out(pid_of, [(i,) for i in range(4)])
    assert len(forked) == 1
    assert_no_child()


def test_fan_out_writes_buffered_text_once_and_keeps_job_prints(monkeypatch, capfd):
    # a buffered stdout, as a file or a pipe gives: text left in its buffer
    # at the fork must not come out again from the workers
    forks_to(monkeypatch, 2)
    with open(os.dup(1), "w") as stream, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stream)
        sys.stdout.write("before ")
        pids = ra.fan_out(lambda i: (print(f"job {i}"), os.getpid())[1], [(0,), (1,)])
    out = capfd.readouterr().out
    assert os.getpid() not in pids
    assert out.startswith("before ") and out.count("before") == 1
    assert sorted(out[len("before "):].splitlines()) == ["job 0", "job 1"]
    assert_no_child()


def test_fan_out_runs_a_lambda_on_forked_workers(monkeypatch):
    # the workers inherit fn and calls through fork: neither is pickled
    forks_to(monkeypatch, 2)
    offset = 10
    got = ra.fan_out(lambda i: (i + offset, os.getpid()), [(i,) for i in range(4)])
    assert [i for i, _ in got] == [10, 11, 12, 13]
    assert os.getpid() not in {pid for _, pid in got}
    assert_no_child()


def test_fan_out_workers_write_into_a_shared_array(monkeypatch):
    forks_to(monkeypatch, 2)
    shared = np.frombuffer(mmap.mmap(-1, 6 * 8), np.int64)
    assert ra.fan_out(lambda i: shared.__setitem__(i, os.getpid()),
                      [(i,) for i in range(6)]) == [None] * 6
    assert np.all(shared > 0) and os.getpid() not in set(shared.tolist())
    assert_no_child()


def test_nested_fan_out_keeps_the_outer_jobs(monkeypatch):
    # six jobs on two workers: some worker runs a job after its first job's
    # serial inner fan_out has finished, and must still run the outer calls
    forks_to(monkeypatch, 2)

    def job(i):
        return i, ra.fan_out(lambda k: k * i, [(1,), (2,)]), os.getpid()

    got = ra.fan_out(job, [(i,) for i in range(6)])
    assert [(i, inner) for i, inner, _ in got] == [(i, [i, 2 * i]) for i in range(6)]
    assert len({pid for _, _, pid in got}) < 6
    assert os.getpid() not in {pid for _, _, pid in got}
    assert_no_child()


def in_mapping(array):
    """Whether array's memory is an mmap (a _shared output)."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def test_union_in_a_forked_job_is_private_and_equals_the_serial_bytes(monkeypatch):
    # no fan_out forks inside a worker, so a job's span outputs need no mapping
    forks_to(monkeypatch, 2)
    grid = ra.GridSpec(BOX2, 64)
    circles = ra.Circle(((0.0, 0.0), (0.3, -0.2)), (1.0, 0.7))
    deltas = [0.1, 0.05]

    def job(delta):
        bits = ra.union_scanline(circles, delta, grid)[0].bits
        return in_mapping(bits), bits.tobytes(), os.getpid()

    got = ra.fan_out(job, [(d,) for d in deltas])
    assert [mapped for mapped, _, _ in got] == [False, False]
    assert os.getpid() not in {pid for _, _, pid in got}
    serial = [ra.union_scanline(circles, d, grid)[0].bits for d in deltas]
    assert all(in_mapping(bits) for bits in serial)
    assert [bits for _, bits, _ in got] == [bits.tobytes() for bits in serial]
    assert_no_child()


def test_fan_out_calls_from_two_threads_run_their_own_jobs(monkeypatch):
    # beside another thread both calls run serially in their own threads,
    # and the jobs of one must never run the other's calls
    forks_to(monkeypatch, 2)
    got = {}

    def run(tag):
        got[tag] = ra.fan_out(lambda i: (time.sleep(0.001), tag, i)[1:],
                              [(i,) for i in range(20)])

    threads = [threading.Thread(target=run, args=(tag,)) for tag in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {tag: [(tag, i) for i in range(20)] for tag in "ab"}
    assert_no_child()


def test_monte_carlo_hits_pinned():
    # recorded before the draws and band tests moved into reused buffers
    hits = [ra.monte_carlo_intersection(*call).hits for call in mixed_calls()]
    assert hits == [126, 250, 67, 289, 38, 266]


def unscreened_hits(family, delta, box, samples, seed):
    """Hits of monte_carlo_intersection without the float32 screen.

    The loop before the screen: both exact band tests on every sample.
    """
    (spec_a, xa, ta), (spec_b, xb, tb) = family
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, samples, ra._MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(ra._MC_CHUNK, samples - done), len(lo)))
        in_a = np.abs(eval_phase_batch(spec_a, xa, pts) - ta) <= delta
        dev = eval_phase_batch(spec_b, xb, pts[in_a]) - tb
        hits += int(np.count_nonzero(np.abs(dev) <= delta))
    return hits


def test_screened_hits_equal_unscreened_on_random_boxes():
    # far-out boxes make the float32 rounding of y, and so the margin, large
    # against delta; a margin that missed a term would drop true hits there
    rng = np.random.default_rng(21)
    hits = []
    for case in range(24):
        d = 2 + case % 3
        spec = PhaseSpec("diffeo-distance", d, {"kappa": rng.uniform(-0.95, 0.95)})
        center = rng.uniform(-1.0, 1.0, d) * 10.0 ** (case % 6)
        half = rng.uniform(0.5, 2.0, d)
        box = (center - half, center + half)
        # level sets through the box: t from the distance at a point inside it
        xa, xb = center + rng.uniform(-2.0, 2.0, (2, d))
        inside = center + rng.uniform(-0.5, 0.5, d) * half
        ta, tb = (float(ph.eval_phase(spec, x, inside)) for x in (xa, xb))
        family = ((spec, xa, ta), (spec, xb, tb))
        delta = rng.uniform(0.02, 0.3)
        assert ph.screen_margin(spec, xa, ta, float(np.max(np.abs(box)))) is not None
        got = ra.monte_carlo_intersection(family, delta, box, 40_000, seed=case).hits
        assert got == unscreened_hits(family, delta, box, 40_000, case), case
        hits.append(got)
    assert sum(h > 0 for h in hits) >= 20


def test_screened_rows_are_the_uniform_draws(monkeypatch):
    # the screen reads unit draws and only its kept rows are scaled: band A's
    # exact test must see rng.uniform's rows bit for bit, all of band A among them
    spec = PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
    xa = (0.0, 0.0, 0.0)
    family = ((spec, xa, 1.0), (spec, (0.5, 0.0, 0.0), 1.0))
    box = ((-0.3, -1.45, -1.45), (0.8, 1.45, 1.45))
    samples, delta, seed = 3 * ra._MC_CHUNK + 123, 0.02, 5
    seen = []

    def recording(spec, x, ys):
        if x is xa:
            seen.extend(row.tobytes() for row in ys)
        return eval_phase_batch(spec, x, ys)

    monkeypatch.setattr(ra, "eval_phase_batch", recording)
    ra.monte_carlo_intersection(family, delta, box, samples, seed)
    ref = np.random.default_rng(seed).uniform(box[0], box[1], (samples, 3))
    in_a = np.abs(eval_phase_batch(spec, xa, ref) - 1.0) <= delta
    assert set(seen) <= {row.tobytes() for row in ref}
    assert {row.tobytes() for row in ref[in_a]} <= set(seen)
    assert 1000 < np.count_nonzero(in_a) <= len(seen) < samples // 10


@pytest.mark.parametrize("chunk", [1000, 4097])
def test_monte_carlo_result_independent_of_chunk_size(monkeypatch, chunk):
    # the 3-D calls end on a short chunk at both sizes
    calls = [(mc_family(), 0.1, BOX2, 30_000, 5)] + mixed_calls()
    default = [ra.monte_carlo_intersection(*call) for call in calls]
    monkeypatch.setattr(ra, "_MC_CHUNK", chunk)
    assert [ra.monte_carlo_intersection(*call) for call in calls] == default


# ---------------------------------------------------------------------------
# union_areas: the row blocks of many unions as the jobs of one fan_out
# ---------------------------------------------------------------------------

def union_calls(tmp_path):
    """A Circle, a SquareBoundary and a CircleFamily batch, each with a PGM path,
    on a 100-row grid, and a circle batch without one on a 64-row grid."""
    rng = np.random.default_rng(11)
    grid = ra.GridSpec(BOX2, 100)
    centers, sizes = rng.uniform(-1.0, 1.0, (8, 2)), rng.uniform(0.2, 0.8, 8)
    return [(ra.Circle(centers, sizes), 0.05, grid, tmp_path / "circles.pgm"),
            (ra.SquareBoundary(centers, sizes), 0.05, grid, tmp_path / "squares.pgm"),
            (ra.CircleFamily(fr.fat_cantor(2), -0.3, 0.6), 0.05, grid,
             tmp_path / "family.pgm"),
            (ra.Circle(centers[:3], sizes[:3]), 0.08, ra.GridSpec(BOX2, 64))]


@pytest.mark.parametrize("cpus", [1, 2])
def test_union_areas_equal_union_scanline_and_write_pgm(monkeypatch, tmp_path, cpus):
    calls = union_calls(tmp_path)
    want = []
    for shapes, delta, grid, *pgm in calls:
        union, totals = ra.union_scanline(shapes, delta, grid)
        ra.write_pgm(union, tmp_path / "serial.pgm")
        want.append((union.area(), totals.sum(),
                     (tmp_path / "serial.pgm").read_bytes() if pgm else None))
    monkeypatch.setattr(ra, "_usable_cpus", lambda: cpus)
    # blocks of 30 rows at n = 100 and of 46 at n = 64, so the last block of
    # every grid is shorter and a PGM's first rows come from it
    monkeypatch.setattr(ra, "_BLOCK_CELLS", 3000)
    assert ra._row_blocks(calls[0][2]) == [(0, 30), (30, 60), (60, 90), (90, 100)]
    assert ra._row_blocks(calls[3][2]) == [(0, 46), (46, 64)]
    real = ra._block_cells

    def walk(*args):
        # the process that walks these rows leaves its pid
        (tmp_path / f"walk-{os.getpid()}").touch()
        return real(*args)

    monkeypatch.setattr(ra, "_block_cells", walk)
    got = ra.union_areas(calls)
    pgms = [call[3] if len(call) == 4 else None for call in calls]
    assert [(area, cells, pgm and pgm.read_bytes())
            for (area, cells), pgm in zip(got, pgms)] == want
    assert all(isinstance(v, (int, float)) for pair in got for v in pair)
    walkers = {int(f.name[5:]) for f in tmp_path.glob("walk-*")}
    assert (os.getpid() in walkers) == (cpus == 1) and len(walkers) == cpus
    assert_no_child()


def test_block_that_raises_in_a_worker_exits_three_and_leaves_no_pgm(monkeypatch, tmp_path,
                                                                      capsys):
    # four blocks per 64-row union; every block but the first fails, and
    # only in a forked worker, after the first block may have written its rows
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ra, "_BLOCK_CELLS", 16 * 64)
    parent, real = os.getpid(), ra._block_cells

    def walk(grid, count, spans, j0, j1, *out):
        if j0 > 0 and os.getpid() != parent:
            raise ArgumentError(f"rows {j0}:{j1} failed in a worker")
        return real(grid, count, spans, j0, j1, *out)

    monkeypatch.setattr(ra, "_block_cells", walk)
    code = cli.main(["run", "fixed-level-positivity", "--out", str(tmp_path / "r"),
                     "--set", "n=64", "--set", "depths=2", "--set", "deltas=0.1,0.2"])
    assert code == 3
    sub = tmp_path / "r" / "fixed-level-positivity"
    assert "failed in a worker" in (sub / "FAILED").read_text()
    assert ", in walk\n" in (sub / "FAILED").read_text()
    assert [p.name for p in sub.iterdir()] == ["FAILED"]
    assert "ERROR" in capsys.readouterr().out
    assert_no_child()


# ---------------------------------------------------------------------------
# PGM export
# ---------------------------------------------------------------------------

def test_pgm_bytes(tmp_path):
    g = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 16)
    bits = np.zeros((16, 16), dtype=bool)
    bits[15, :] = True                       # top row in grid coordinates
    path = tmp_path / "band.pgm"
    ra.write_pgm(ra.GridRaster(g, bits), path)
    data = path.read_bytes()
    header = b"P5\n16 16\n255\n"
    assert data.startswith(header)
    payload = data[len(header):]
    assert len(payload) == 256
    assert payload[:16] == b"\xff" * 16      # written top row first
    assert payload[16:] == b"\x00" * 240


def test_pgm_allocates_one_byte_per_cell(tmp_path):
    # an int64 image cast to uint8 peaked at 36 MiB here; a uint8 image
    # written from its own buffer allocates 4 MiB
    g = ra.GridSpec(((0.0, 0.0), (1.0, 1.0)), 2048)
    rst = ra.GridRaster(g, np.random.default_rng(0).random((2048, 2048)) < 0.3)
    tracemalloc.start()
    try:
        ra.write_pgm(rst, tmp_path / "big.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2048 * 2048
    payload = (tmp_path / "big.pgm").read_bytes()[len(b"P5\n2048 2048\n255\n"):]
    assert payload == np.where(rst.bits[::-1], 255, 0).astype(np.uint8).tobytes()


def test_pgm_band_filename():
    assert ra.pgm_band_filename("kakeya", 1024, 0.05) == "kakeya_1024_0.05.pgm"
    assert ra.pgm_band_filename("cantor", 256, 0.1) == "cantor_256_0.1.pgm"
