import hashlib
import math

import numpy as np
import pytest

from gmtlab import fractal as fr
from gmtlab.errors import ArgumentError, FitError

LOG32 = math.log(2) / math.log(3)

# sha256 over the float64 bytes of every stage in order (Cantor depths 0..16,
# Perron stages 0..8), recorded before the constructions moved onto arrays
CONSTRUCTION_DIGESTS = {
    "cantor_middle_thirds": "f8a7d2aea050f80cd74628b405f457fdbba612fbe09a2d214304fa0ff326f4d3",
    "fat_cantor": "b501a74218c7b401d6ccfa28c7514f5eea7a427d70530073560b599e49af34fb",
    "perron_tree": "d847ab499957a9c4f634435123da6ef3f46e42b8579550d7b9b942f89289eb41",
}


def cantor_line_cloud(depth, seed=0):
    rows = fr.cantor_middle_thirds(depth)
    return fr.product_point_cloud(rows, fr.IntervalSet(((0.0, 0.0),), 0), 1, seed=seed)


# ---------------------------------------------------------------------------
# middle-thirds construction
# ---------------------------------------------------------------------------

def test_cantor_depth0_is_unit_interval():
    c = fr.cantor_middle_thirds(0)
    assert c.intervals == ((0.0, 1.0),)


def test_cantor_depth2_endpoints():
    c = fr.cantor_middle_thirds(2)
    expect = [(0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1)]
    assert len(c) == 4
    for (a, b), (ea, eb) in zip(c.intervals, expect):
        assert a == pytest.approx(ea, abs=1e-15)
        assert b == pytest.approx(eb, abs=1e-15)


def test_cantor_counts_and_lengths():
    for depth in range(0, 12):
        c = fr.cantor_middle_thirds(depth)
        assert len(c) == 2**depth
        assert c.total_length() == pytest.approx((2 / 3) ** depth, rel=1e-12)
        assert c.max_interval_length() == pytest.approx(3.0**-depth, rel=1e-12)


def test_cantor_depth7_total_length_frozen():
    # (2/3)^7 = 128/2187
    assert fr.cantor_middle_thirds(7).total_length() == pytest.approx(128 / 2187, rel=1e-12)


def test_depth_range_validated():
    for bad in (-1, 21):
        with pytest.raises(ArgumentError):
            fr.cantor_middle_thirds(bad)
        with pytest.raises(ArgumentError):
            fr.fat_cantor(bad)


# ---------------------------------------------------------------------------
# fat Cantor construction (all dyadic, so equalities are exact)
# ---------------------------------------------------------------------------

def test_fat_cantor_remaining_length_exact():
    assert fr.fat_cantor(1).total_length() == 0.75
    assert fr.fat_cantor(2).total_length() == 0.625
    assert fr.fat_cantor(4).total_length() == 0.53125
    for depth in range(0, 13):
        assert fr.fat_cantor(depth).total_length() == 1.0 - 0.5 * (1.0 - 2.0**-depth)


def test_fat_cantor_max_interval_lengths_frozen():
    assert fr.fat_cantor(2).max_interval_length() == 0.15625
    assert fr.fat_cantor(6).max_interval_length() == 0.0079345703125


def test_fat_cantor_piece_recursion():
    # splitting piece of length L_n removes 4^-(n+1): L_n = 2 L_{n+1} + 4^-(n+1)
    lengths = [fr.fat_cantor(d).max_interval_length() for d in range(0, 9)]
    for n in range(8):
        assert lengths[n] == 2.0 * lengths[n + 1] + 4.0 ** -(n + 1)


def test_fat_cantor_structure():
    f = fr.fat_cantor(6)
    assert len(f) == 64
    starts, ends = f.as_arrays()
    assert np.all(starts[1:] > ends[:-1])
    # all pieces the same length at a given depth
    assert np.allclose(ends - starts, f.max_interval_length(), rtol=0, atol=0)


def test_interval_set_rejects_disorder():
    with pytest.raises(ArgumentError):
        fr.IntervalSet(((0.5, 0.4),), 0)
    with pytest.raises(ArgumentError):
        fr.IntervalSet(((0.0, 0.5), (0.4, 0.8)), 0)


# ---------------------------------------------------------------------------
# product point clouds
# ---------------------------------------------------------------------------

def test_product_cloud_depth0_single_point():
    ps = fr.product_point_cloud(fr.cantor_middle_thirds(0), fr.cantor_middle_thirds(0), 1, 5)
    assert len(ps.points) == 1
    assert ps.weights[0] == 1.0


def test_product_cloud_counts_weights_exponent():
    c6 = fr.cantor_middle_thirds(6)
    ps = fr.product_point_cloud(c6, c6, 1, seed=0)
    assert len(ps.points) == 4096
    assert abs(ps.weights.sum() - 1.0) <= 1e-12
    assert ps.points.min() >= 0.0 and ps.points.max() <= 1.0


def test_product_cloud_line_factor_exponent():
    ps = cantor_line_cloud(6)
    assert len(ps.points) == 64
    assert np.all(ps.points[:, 1] == 0.0)


def test_product_cloud_reproducible():
    c4 = fr.cantor_middle_thirds(4)
    a = fr.product_point_cloud(c4, c4, 2, seed=123)
    b = fr.product_point_cloud(c4, c4, 2, seed=123)
    assert np.array_equal(a.points, b.points)
    c = fr.product_point_cloud(c4, c4, 2, seed=124)
    assert not np.array_equal(a.points, c.points)


def test_product_cloud_points_inside_cells():
    c3 = fr.cantor_middle_thirds(3)
    ps = fr.product_point_cloud(c3, c3, 3, seed=9)
    starts, ends = c3.as_arrays()
    for x in ps.points[:, 0]:
        assert np.any((starts <= x) & (x <= ends))


# ---------------------------------------------------------------------------
# separated lattice
# ---------------------------------------------------------------------------

def min_distance(points):
    """Smallest distance between two distinct rows of points."""
    gaps = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    return gaps.min()


def test_lattice_basic():
    ps = fr.separated_lattice(2, seed=0)
    assert len(ps.points) == 4
    assert min_distance(ps.points) >= 0.5


def test_lattice_q16_rescaled_fits_unit_square():
    ps = fr.separated_lattice(16, seed=1)
    assert len(ps.points) == 256
    scaled = ps.points / 16.0
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def test_lattice_separation_over_100_seeds():
    for seed in range(100):
        ps = fr.separated_lattice(5, seed=seed)
        assert min_distance(ps.points) >= 0.5


def test_lattice_rejects_small_q():
    with pytest.raises(ArgumentError):
        fr.separated_lattice(1)


def test_thickening_radius_formula():
    # q^(-2/s) at s=1.5 is q^(-4/3)
    assert fr.thickening_radius(16, 1.5) == pytest.approx(16.0 ** (-4 / 3), rel=1e-12)
    assert fr.thickening_radius(16, 1.5) == pytest.approx(0.02480, abs=5e-6)
    with pytest.raises(ArgumentError):
        fr.thickening_radius(8, 2.5)


# ---------------------------------------------------------------------------
# Frostman diagnostics
# ---------------------------------------------------------------------------

def test_frostman_single_point():
    ps = fr.PointSet(np.array([[0.3, 0.4]]), np.array([1.0]))
    assert fr.frostman_ratio(ps, 1.0, [1.0]) == 1.0


def test_frostman_uniform_grid_bounded():
    side = 64
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1)
    pts = grid.reshape(-1, 2) / side + 0.5 / side
    ps = fr.PointSet(pts, np.full(side * side, 1.0 / side**2))
    ratio = fr.frostman_ratio(ps, 2.0, [2.0**-k for k in range(6)])
    assert ratio <= 16.0


def test_frostman_cantor_product_matched_exponent():
    c6 = fr.cantor_middle_thirds(6)
    cc = fr.product_point_cloud(c6, c6, 1, seed=0)
    radii = [3.0**-k for k in range(7)]
    # mu(B(x, 3^-k)) = 4^-k at cell-aligned centers, so the matched exponent
    # 2 log_3 2 gives ratio 1 up to cell-sampling jitter
    ratio = fr.frostman_ratio(cc, 2 * LOG32, radii)
    assert 0.9 <= ratio <= 1.5


def test_frostman_overdeclared_exponent_blows_up():
    c6 = fr.cantor_middle_thirds(6)
    cc = fr.product_point_cloud(c6, c6, 1, seed=0)
    radii = [3.0**-k for k in range(7)]
    # the worst ratio at the finest radius against the one at the coarsest
    growth = fr.frostman_ratio(cc, 1.6, [radii[-1]]) / fr.frostman_ratio(cc, 1.6, [radii[0]])
    assert growth >= 4.0


def test_frostman_validation():
    ps = fr.PointSet(np.array([[0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        fr.frostman_ratio(ps, -1.0, [0.5])
    with pytest.raises(ArgumentError):
        fr.frostman_ratio(ps, 1.0, [0.0])
    # an empty point set never reaches frostman_ratio
    with pytest.raises(ArgumentError, match="sum to 1"):
        fr.PointSet(np.zeros((0, 2)), np.zeros(0))


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------

def test_box_dimension_uniform_cloud():
    rng = np.random.default_rng(0)
    ps = fr.PointSet(rng.random((10_000, 2)), np.full(10_000, 1e-4))
    slope = fr.box_dimension(ps, [2.0**-k for k in range(2, 7)])
    assert slope == pytest.approx(2.0, abs=0.1)


def test_box_dimension_cantor_product():
    c7 = fr.cantor_middle_thirds(7)
    cc = fr.product_point_cloud(c7, c7, 1, seed=0)
    slope = fr.box_dimension(cc, [3.0**-k for k in range(1, 7)])
    assert slope == pytest.approx(2 * LOG32, abs=0.08)


def test_box_dimension_cantor_line():
    slope = fr.box_dimension(cantor_line_cloud(7), [3.0**-k for k in range(1, 7)])
    assert slope == pytest.approx(LOG32, abs=0.08)


def test_box_dimension_degenerate_fit():
    ps = fr.PointSet(np.array([[0.5, 0.5]]), np.array([1.0]))
    with pytest.raises(FitError):
        fr.box_dimension(ps, [0.5, 0.25, 0.125])


def test_box_dimension_scale_validation():
    ps = fr.PointSet(np.random.default_rng(1).random((100, 2)), np.full(100, 0.01))
    with pytest.raises(ArgumentError):
        fr.box_dimension(ps, [0.5, 0.25])
    with pytest.raises(ArgumentError):
        fr.box_dimension(ps, [0.5, 0.4, 0.3])


# ---------------------------------------------------------------------------
# Perron tree
# ---------------------------------------------------------------------------

def test_perron_stage0_base_triangle():
    t = fr.perron_tree(0)
    assert len(t.triangles) == 1
    assert fr.triangle_area(t.triangles[0]) == pytest.approx(0.5, rel=1e-12)


def test_perron_counts_and_area_budget():
    for stage in range(0, 7):
        t = fr.perron_tree(stage)
        assert len(t.triangles) == 2**stage
        # wedges partition the base triangle, so areas sum to 1/2 regardless of slides
        total = sum(fr.triangle_area(x) for x in t.triangles)
        assert total == pytest.approx(0.5, rel=1e-12)


def moved_apex_tree():
    """perron_tree(3) with the apex of wedge 2 moved 5 units to the right."""
    tris = fr.perron_tree(3).triangles.copy()
    tris[2, 2, 0] += 5.0
    return fr.TriangleSet(tris)


def test_perron_direction_coverage_exact():
    for height in (1.0, 2.0):
        for stage in range(0, 9):
            assert fr.verify_direction_coverage(fr.perron_tree(stage, height))
    # the moved wedge still contains its own median but no longer covers
    # its share of the directions
    assert not fr.verify_direction_coverage(moved_apex_tree())


def test_array_sets_compare_and_hash_by_identity():
    c = fr.cantor_middle_thirds(2)
    for make in (lambda: fr.perron_tree(2), lambda: fr.product_point_cloud(c, c, 1, seed=0)):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_perron_height_parameter():
    t = fr.perron_tree(2, base_triangle_height=2.0)
    total = sum(fr.triangle_area(x) for x in t.triangles)
    assert total == pytest.approx(1.0, rel=1e-12)
    assert all(v[2][1] == 2.0 for v in t.triangles)


def test_perron_stage_validation():
    with pytest.raises(ArgumentError):
        fr.perron_tree(-1)
    with pytest.raises(ArgumentError):
        fr.perron_tree(9)


# ---------------------------------------------------------------------------
# construction golden digests
# ---------------------------------------------------------------------------

def _digest(stages):
    h = hashlib.sha256()
    for x in stages:
        h.update(np.asarray(x, dtype=float).tobytes())
    return h.hexdigest()


def test_construction_golden_digests():
    trees = [fr.perron_tree(s) for s in range(9)]
    got = {
        "cantor_middle_thirds": _digest(fr.cantor_middle_thirds(d).intervals
                                        for d in range(17)),
        "fat_cantor": _digest(fr.fat_cantor(d).intervals for d in range(17)),
        "perron_tree": _digest(t.triangles for t in trees),
    }
    assert got == CONSTRUCTION_DIGESTS
