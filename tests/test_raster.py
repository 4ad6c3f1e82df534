import math
import warnings

import numpy as np
import pytest

from gmtlab import fractal as fr
from gmtlab import raster as ra
from gmtlab.errors import ArgumentError, GridMismatchError
from gmtlab.phase import PhaseSpec

BOX2 = ((-1.5, -1.5), (1.5, 1.5))

ANNULUS_AREA = math.pi * ((1.1) ** 2 - (0.9) ** 2)   # = pi * 0.4


def annulus(n=1024, delta=0.1, box=BOX2):
    grid = ra.GridSpec(box, n)
    return ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), delta, grid)


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
    i0, i1 = g.index_range(0.03125, 0.15625, axis=0)
    assert (i0, i1) == (0, 2)
    i0, i1 = g.index_range(0.05, 0.12, axis=0)         # only center 0.09375
    assert (i0, i1) == (1, 1)
    i0, i1 = g.index_range(0.04, 0.09, axis=0)         # gap between centers
    assert i0 > i1
    i0, i1 = g.index_range(-5.0, -1.0, axis=0)         # fully outside
    assert i0 > i1
    # elementwise on arrays, with the same one-sided clips
    i0, i1 = g.index_range(np.array([0.03125, 0.05, 0.04, -5.0, 0.9]),
                           np.array([0.15625, 0.12, 0.09, -1.0, 7.0]), axis=0)
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
    assert r.check_count()


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
    band = ra.union_scanline(ra.SquareBoundary((0.0, 0.0), 1.0), 0.05, grid)
    assert abs(band.area() / 0.81 - 1.0) <= 0.05


def test_scanline_matches_phase_predicate_bitwise():
    # two independent routes to the same annulus must agree cell for cell
    grid = ra.GridSpec(BOX2, 256)
    spec = PhaseSpec("unit-distance", 2)
    via_phase = ra.rasterize_band(spec, (0.0, 0.0), 1.0, 0.1, grid)
    via_scan = ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), 0.1, grid)
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
    a = ra.union_scanline(ra.Circle((-0.3, 0.0), 1.0), 0.1, grid)
    b = ra.union_scanline(ra.Circle((0.3, 0.1), 1.0), 0.1, grid)
    return grid, a, b


def test_inclusion_exclusion_exact():
    grid, a, b = two_offset_circles()
    union = ra.union_raster([a, b])
    inter = ra.intersection_raster(a, b)
    # cell counts are integers, so the identity is exact
    assert a.filled_count + b.filled_count == union.filled_count + inter.filled_count
    assert ra.intersection_area(a, b) == pytest.approx(inter.area(), rel=1e-15)


def test_union_algebra():
    grid, a, b = two_offset_circles(n=128)
    ab = ra.union_raster([a, b])
    ba = ra.union_raster([b, a])
    assert np.array_equal(ab.bits, ba.bits)
    assert np.array_equal(ra.union_raster([a, a]).bits, a.bits)
    c = ra.union_scanline(ra.Circle((0.0, -0.4), 0.8), 0.1, a.grid)
    left = ra.union_raster([ra.union_raster([a, b]), c])
    right = ra.union_raster([a, ra.union_raster([b, c])])
    assert np.array_equal(left.bits, right.bits)
    with pytest.raises(ArgumentError):
        ra.union_raster([])


def test_grid_mismatch_rejected():
    a = annulus(n=256)
    b = annulus(n=512)
    with pytest.raises(GridMismatchError):
        ra.intersection_area(a, b)
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
        ra.union_scanline(ra.Circle((cx, cy), r), 0.1, grid)
        for cx, cy, r in circles
    ]
    stacked = np.sum([s.bits.astype(np.int32) for s in singles], axis=0)
    assert np.array_equal(counts, stacked)
    assert np.array_equal(union.bits, stacked > 0)
    for s, cells in zip(singles, per_band):
        assert s.filled_count == cells
    assert counts.sum() == per_band.sum()


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
    fam = ra.union_scanline(ra.CircleFamily(ivals, 0.0, 1.0), 0.12, grid)
    centers = np.concatenate([np.linspace(a, b, 1500) for a, b in ivals.intervals])
    circles = ra.Circle(np.column_stack([centers, np.zeros_like(centers)]), 1.0)
    sampled = ra.union_scanline(circles, 0.12, grid)
    assert not np.any(sampled.bits & ~fam.bits)
    assert sampled.area() >= 0.99 * fam.area()


@pytest.mark.parametrize("measure", [
    lambda shapes, grid: ra.union_scanline(shapes, 0.05, grid).bits,
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
        band = ra.union_scanline(ra.Circle((0.0, 0.0), 1.0), 0.1,
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
    a = ra.union_scanline(ra.Circle((-0.3, 0.0), 1.0), 0.1, grid)
    b = ra.union_scanline(ra.Circle((0.3, 0.0), 1.0), 0.1, grid)
    truth = ra.intersection_area(a, b)
    res = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 400_000, seed=11)
    assert not res.low_confidence
    assert abs(res.estimate - truth) <= max(3.0 * res.std_error, 0.01)


def test_monte_carlo_deterministic_under_seed():
    r1 = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 150_000, seed=3)
    r2 = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 150_000, seed=3)
    assert r1 == r2
    est, err = r1                      # tuple unpacking stays supported
    assert est == r1.estimate and err == r1.std_error


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
    assert ra.monte_carlo_volumes(calls) == serial
    assert ra.monte_carlo_volumes([]) == []


def test_monte_carlo_volumes_raise_a_bad_call(monkeypatch):
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 2)
    calls = mixed_calls()
    calls[3] = calls[3][:3] + (0,) + calls[3][4:]
    with pytest.raises(ArgumentError, match="samples"):
        ra.monte_carlo_volumes(calls)


@pytest.mark.parametrize("chunk", [1000, 4097])
def test_monte_carlo_result_independent_of_chunk_size(monkeypatch, chunk):
    default = ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 30_000, seed=5)
    monkeypatch.setattr(ra, "_MC_CHUNK", chunk)
    assert ra.monte_carlo_intersection(mc_family(), 0.1, BOX2, 30_000, seed=5) == default


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


def test_pgm_band_filename():
    assert ra.pgm_band_filename("kakeya", 1024, 0.05) == "kakeya_1024_0.05.pgm"
    assert ra.pgm_band_filename("cantor", 256, 0.1) == "cantor_256_0.1.pgm"
