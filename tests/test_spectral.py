import math
import warnings

import numpy as np
import pytest

from gmtlab import fractal as fr
from gmtlab import raster as ra
from gmtlab import spectral as sp
from gmtlab.errors import ArgumentError, EmptyLevelError, FitError
from gmtlab.phase import PhaseSpec

UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))


def dirac_density(n=1024, at=(0.4371, 0.5517)):
    grid = ra.GridSpec(UNIT_BOX, n)
    return sp.grid_density_from_points(fr.PointSet((at,), (1.0,)), grid)


def cantor_square_density(depth=5, n=1024, samples=16, seed=0):
    c = fr.cantor_middle_thirds(depth)
    cloud = fr.product_point_cloud(c, c, samples, seed=seed)
    return sp.grid_density_from_points(cloud, ra.GridSpec(UNIT_BOX, n))


# ---------------------------------------------------------------------------
# density plumbing
# ---------------------------------------------------------------------------

def test_density_validation():
    grid = ra.GridSpec(UNIT_BOX, 16)
    with pytest.raises(ArgumentError):
        sp.GriddedDensity(grid, -np.ones((16, 16)))
    with pytest.raises(ArgumentError):
        sp.GriddedDensity(grid, np.ones((16, 15)))
    with pytest.raises(ArgumentError):
        sp.GriddedDensity(grid, np.ones((16, 16)), total_mass=2.0)
    d = sp.GriddedDensity(grid, np.ones((16, 16)))
    assert d.total_mass == pytest.approx(1.0, rel=1e-12)
    assert d.l2_norm() == pytest.approx(1.0, rel=1e-12)


def test_single_point_occupies_single_cell():
    d = dirac_density(n=64)
    assert int(np.count_nonzero(d.values)) == 1
    assert d.total_mass == pytest.approx(1.0, rel=1e-12)
    assert float(d.values.max()) == pytest.approx(64.0 * 64.0, rel=1e-12)


def test_coincident_points_share_one_cell():
    grid = ra.GridSpec(UNIT_BOX, 64)
    pts = fr.PointSet(((0.501, 0.501), (0.502, 0.502)), (0.5, 0.5))
    d = sp.grid_density_from_points(pts, grid)
    assert int(np.count_nonzero(d.values)) == 1
    assert d.total_mass == pytest.approx(1.0, rel=1e-12)


def test_point_on_hi_face_allowed_outside_rejected():
    grid = ra.GridSpec(UNIT_BOX, 32)
    d = sp.grid_density_from_points(fr.PointSet(((1.0, 1.0),), (1.0,)), grid)
    assert d.values[31, 31] > 0
    with pytest.raises(ArgumentError):
        sp.grid_density_from_points(fr.PointSet(((1.0001, 0.5),), (1.0,)), grid)


def test_cloud_occupancy_matches_distinct_cells():
    c = fr.cantor_middle_thirds(6)
    cloud = fr.product_point_cloud(c, c, 1, seed=3)
    grid = ra.GridSpec(UNIT_BOX, 1024)
    d = sp.grid_density_from_points(cloud, grid)
    idx = np.floor(np.asarray(cloud.points) * 1024).astype(int)
    idx = np.minimum(idx, 1023)
    distinct = len({(i, j) for i, j in idx})
    assert int(np.count_nonzero(d.values)) == distinct
    assert abs(d.total_mass - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# dyadic windows
# ---------------------------------------------------------------------------

def test_windows_partition_unity_on_resolved_band():
    rho = np.linspace(0.0, 500.0, 20001)
    total = sum(sp.lp_window(rho, j) for j in range(0, 10))
    covered = rho <= 2.0**10 * (1.0 - sp.LP_WINDOW_WIDTH)
    assert np.max(np.abs(total[covered] - 1.0)) <= 1e-10


def test_window_supports_inside_dyadic_blocks():
    rho = np.linspace(0.0, 2000.0, 40001)
    for j in range(1, 9):
        eta = sp.lp_window(rho, j)
        live = rho[eta > 0]
        assert live.min() >= 2.0 ** (j - 1)
        assert live.max() <= 2.0 ** (j + 2)


def test_dirac_band_norms_grow_linearly():
    # flat spectrum: each dyadic band holds ~2^(2j) bins, norm ~ 2^j
    norms = sp.lp_projection_norms(dirac_density(), 9)
    sel = [(j, v) for j, v in norms if 2 <= j <= 8]
    fit = sp.fit_decay([j for j, _ in sel], [v for _, v in sel])
    assert abs(fit.slope - 1.0) <= 0.15


def test_uniform_density_has_no_high_bands():
    grid = ra.GridSpec(UNIT_BOX, 256)
    u = sp.GriddedDensity(grid, np.full((256, 256), 1.0))
    norms = dict(sp.lp_projection_norms(u, 7))
    assert norms[0] == pytest.approx(1.0, rel=1e-12)
    for j in range(2, 8):
        assert norms[j] <= 1e-6 * norms[0]


def test_band_energy_sums_to_density_energy():
    for density in (dirac_density(n=512), cantor_square_density(depth=4, n=512, samples=4)):
        j_max = 8                      # 2^8 = Nyquist of n=512
        total = sum(v * v for _, v in sp.lp_projection_norms(density, j_max))
        ratio = total / density.l2_norm() ** 2
        assert 0.98 <= ratio <= 1.02


def test_cantor_square_band_decay_slope():
    mu = cantor_square_density()
    sel = [(j, v) for j, v in sp.lp_projection_norms(mu, 9) if 3 <= j <= 7]
    fit = sp.fit_decay([j for j, _ in sel], [v for _, v in sel])
    # 1 - log3(2) = 0.3691, the band growth of the two-Cantor product measure
    assert abs(fit.slope - 0.3691) <= 0.10


def test_lp_rejects_bad_j_max():
    d = dirac_density(n=64)
    with pytest.raises(ArgumentError):
        sp.lp_projection_norms(d, 6)       # 2^6 = 64 > Nyquist 32
    with pytest.raises(ArgumentError):
        sp.lp_projection_norms(d, 0)
    sp.lp_projection_norms(d, 5)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    a = [3.0, 4.0, 5.0, 6.0]
    norms = [2.0 ** (-0.5 * x + 1.25) for x in a]
    fit = sp.fit_decay(a, norms)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.25, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.fitted(4.0) == pytest.approx(norms[1], rel=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(FitError):
        sp.fit_decay([1.0], [2.0])
    with pytest.raises(FitError):
        sp.fit_decay([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(FitError):
        sp.fit_decay([2.0, 2.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# incidence measure
# ---------------------------------------------------------------------------

def test_single_center_band_is_uniform():
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 512)
    centers = fr.PointSet(((0.0, 0.0),), (1.0,))
    nu = sp.incidence_density(ra.Circle, centers, 1.0, 0.05, grid)
    live = nu.values[nu.values > 0]
    assert nu.total_mass == pytest.approx(1.0, rel=1e-12)
    assert float(live.max()) == pytest.approx(float(live.min()), rel=1e-12)


def test_two_far_centers_split_mass():
    grid = ra.GridSpec(((-2.5, -1.3), (2.5, 1.3)), 512)
    centers = fr.PointSet(((-1.2, 0.0), (1.2, 0.0)), (0.5, 0.5))
    nu = sp.incidence_density(ra.Circle, centers, 1.0, 0.02, grid)
    xs = grid.centers(0)
    left = float(nu.values[:, xs < 0].sum() * grid.cell_volume)
    right = float(nu.values[:, xs > 0].sum() * grid.cell_volume)
    assert left == pytest.approx(0.5, rel=1e-9)
    assert right == pytest.approx(0.5, rel=1e-9)


def test_phase_route_matches_circle_route():
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 256)
    centers = fr.PointSet(((0.1, -0.2), (-0.3, 0.25)), (0.4, 0.6))
    fast = sp.incidence_density(ra.Circle, centers, 1.0, 0.05, grid)
    slow = sp.incidence_density(PhaseSpec("unit-distance", 2), centers, 1.0, 0.05, grid)
    assert np.array_equal(fast.values > 0, slow.values > 0)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-9 * float(fast.values.max())


def test_empty_band_centers_drop_mass_with_warning():
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 256)
    centers = fr.PointSet(((0.0, 0.0), (50.0, 0.0)), (0.5, 0.5))
    with pytest.warns(UserWarning):
        nu = sp.incidence_density(ra.Circle, centers, 1.0, 0.05, grid)
    assert nu.total_mass == pytest.approx(0.5, rel=1e-9)
    all_far = fr.PointSet(((50.0, 0.0), (60.0, 0.0)), (0.5, 0.5))
    with pytest.raises(EmptyLevelError):
        sp.incidence_density(ra.Circle, all_far, 1.0, 0.05, grid)


def test_incidence_needs_resolved_delta():
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 64)    # cell ~ 0.047
    centers = fr.PointSet(((0.0, 0.0),), (1.0,))
    with pytest.raises(ArgumentError):
        sp.incidence_density(ra.Circle, centers, 1.0, 0.01, grid)


def test_incidence_support_inside_union_raster():
    grid = ra.GridSpec(((-1.2, -1.3), (2.2, 1.3)), 1024)
    c4 = fr.cantor_middle_thirds(4)
    cloud = fr.product_point_cloud(c4, c4, 1, seed=0)
    nu = sp.incidence_density(ra.Circle, cloud, 1.0, 0.01, grid)
    union = ra.union_scanline(ra.Circle(cloud.points, 1.0), 0.01, grid)
    assert not np.any((nu.values > 0) & ~union.bits)
    assert abs(nu.total_mass - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_preserves_mass_and_positivity():
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 512)
    centers = fr.PointSet(((0.0, 0.0),), (1.0,))
    nu = sp.incidence_density(ra.Circle, centers, 1.0, 0.05, grid)
    for eps in (0.04, 0.08, 0.16):
        lam = sp.mollify(nu, eps)
        assert abs(lam.total_mass - nu.total_mass) <= 1e-6 * nu.total_mass
        assert float(lam.values.min()) >= 0.0


def test_mollify_fixes_constants():
    grid = ra.GridSpec(UNIT_BOX, 256)
    u = sp.GriddedDensity(grid, np.full((256, 256), 3.0))
    series = sp.mollified_l2(u, [0.02, 0.04, 0.08])
    base = u.l2_norm()
    for _, nrm in series:
        assert abs(nrm / base - 1.0) <= 0.01


def test_mollify_validation():
    grid = ra.GridSpec(UNIT_BOX, 64)                      # cell ~ 0.0156
    u = sp.GriddedDensity(grid, np.ones((64, 64)))
    with pytest.raises(ArgumentError):
        sp.mollify(u, 0.02)
    with pytest.raises(ArgumentError):
        sp.mollified_l2(u, [])


def test_mollified_dichotomy_bounded_vs_blowup():
    # unions of unit circles: centers of box dimension > 1 give an
    # area-positive union (norms level off); centers of dimension < 1 give a
    # shell-like union whose mollified energy keeps growing as eps shrinks
    grid = ra.GridSpec(((-1.2, -1.3), (2.2, 1.3)), 2048)
    eps = [0.04, 0.02, 0.01]
    c5 = fr.cantor_middle_thirds(5)
    square = fr.product_point_cloud(c5, c5, 1, seed=0)
    nu_sq = sp.incidence_density(ra.Circle, square, 1.0, 0.005, grid)
    ratios = [b / a for (_, a), (_, b) in zip(
        sp.mollified_l2(nu_sq, eps), sp.mollified_l2(nu_sq, eps)[1:])]
    assert all(r <= 1.05 for r in ratios)
    line = fr.product_point_cloud(
        fr.cantor_middle_thirds(8), fr.IntervalSet(((0.0, 0.0),), 0), 1, seed=0)
    nu_ln = sp.incidence_density(ra.Circle, line, 1.0, 0.005, grid)
    series = sp.mollified_l2(nu_ln, eps)
    growth = [b / a for (_, a), (_, b) in zip(series, series[1:])]
    # dimension-count oracle: union dimension <= log3(2) + 1, so halving eps
    # grows the norm by ~2^((1 - log3 2)/2) = 1.137 in the limit
    assert all(g >= 1.10 for g in growth)


# ---------------------------------------------------------------------------
# surface spectra
# ---------------------------------------------------------------------------

DYADIC = [2.0**k for k in range(3, 10)]


def test_zero_frequency_returns_cutoff_mass():
    mags = sp.surface_spectrum("circle-2d", [0.0], 16, seed=1)
    assert mags[0][1] == pytest.approx(1.8, abs=1e-5)
    mags3 = sp.surface_spectrum("curve-3d", [0.0], 16, seed=1)
    assert mags3[0][1] == pytest.approx(1.8, abs=1e-5)


def test_circle_decay_slope():
    fit = sp.surface_fourier_decay("circle-2d", DYADIC, 32, seed=0)
    assert abs(fit.slope - (-0.5)) <= 0.07


def test_curve_decay_slope():
    fit = sp.surface_fourier_decay("curve-3d", DYADIC, 32, seed=0)
    assert abs(fit.slope - (-1.0 / 3.0)) <= 0.07


def test_decay_fit_deterministic():
    a = sp.surface_fourier_decay("curve-3d", DYADIC, 24, seed=9)
    b = sp.surface_fourier_decay("curve-3d", DYADIC, 24, seed=9)
    assert a == b
    c = sp.surface_fourier_decay("curve-3d", DYADIC, 24, seed=10)
    assert c != a


def test_surface_validation():
    with pytest.raises(ArgumentError):
        sp.surface_spectrum("circle-2d", [8.0], 8, seed=0)
    with pytest.raises(ArgumentError):
        sp.surface_spectrum("klein-bottle", [8.0], 16, seed=0)
    with pytest.raises(ArgumentError):
        sp.surface_fourier_decay("circle-2d", [8.0, 4.0], 16, seed=0)
    with pytest.raises(ArgumentError):
        sp.surface_fourier_decay("circle-2d", [-4.0, 8.0], 16, seed=0)
    with pytest.raises(FitError):
        sp.surface_fourier_decay("circle-2d", [8.0, 16.0], 16, seed=0)
