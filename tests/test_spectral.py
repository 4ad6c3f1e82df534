import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gmtlab import fractal as fr
from gmtlab import raster as ra
from gmtlab import spectral as sp
from gmtlab.errors import ArgumentError, EmptyLevelError, FitError

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
    with pytest.raises(TypeError):     # total_mass is computed, never passed
        sp.GriddedDensity(grid, np.ones((16, 16)), total_mass=1.0)
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


def full_spectrum_band_norms(density, j_max):
    """Reference: every band piece formed on the full complex fft2."""
    n = density.grid.cells_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)
    rho = np.hypot(k[:, None], k[None, :])
    spec = np.fft.fft2(density.values)
    scale = math.sqrt(density.grid.cell_volume) / n
    return [(j, scale * float(np.linalg.norm(sp.lp_window(rho, j) * spec)))
            for j in range(j_max + 1)]


# even n (Nyquist column weight 1), odd n (no Nyquist column), hx != hy
SPECTRAL_GRIDS = [(UNIT_BOX, 128), (UNIT_BOX, 127), (((-1.2, -1.3), (2.2, 1.3)), 96)]


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_half_spectrum_band_norms_match_full_spectrum(box, n):
    grid = ra.GridSpec(box, n)
    rng = np.random.default_rng(n)
    c3 = fr.cantor_middle_thirds(3)
    densities = (sp.GriddedDensity(grid, rng.random((n, n))),
                 sp.incidence_density(ra.Circle, fr.product_point_cloud(c3, c3, 1, seed=0),
                                      1.0, 0.05, grid))
    j_max = int(math.log2(n // 2))
    for density in densities:
        got = sp.lp_projection_norms(density, j_max)
        want = full_spectrum_band_norms(density, j_max)
        assert [j for j, _ in got] == [j for j, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_spectral_blocks_tile_the_half_spectrum(box, n):
    # blocks of 11 frequency rows for the band windows and of 6 columns for
    # the bump DFT: several blocks per call, the last one partial
    grid = ra.GridSpec(box, n)
    nu = sp.GriddedDensity(grid, np.random.default_rng(n).random((n, n)))
    cell = float(np.max(grid.cell_sizes))
    eps = [2.5 * cell, 0.15, 0.6 * n * cell]
    whole = [sp.mollify(nu, e).values for e in eps]
    with mock.patch.object(sp, "_BLOCK_FREQS", 6 * n):
        bands = sp.lp_projection_norms(nu, int(math.log2(n // 2)))
        norms = sp.mollified_l2(nu, eps)
        pieces = [sp.mollify(nu, e).values for e in eps]
    for (_, g), (_, w) in zip(bands, full_spectrum_band_norms(nu, len(bands) - 1)):
        assert g == pytest.approx(w, rel=1e-12)
    for (_, g), lam in zip(norms, whole):
        assert g == pytest.approx(sp.GriddedDensity(grid, lam).l2_norm(), rel=1e-12)
    for got, lam in zip(pieces, whole):
        assert np.max(np.abs(got - lam)) <= 1e-12 * float(lam.max())


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_norms_off_the_in_place_power_keep_their_bits(box, n):
    # reference: P in an array of its own, and one lp_window per band, over
    # the same blocks of rows and columns
    grid = ra.GridSpec(box, n)
    nu = sp.GriddedDensity(grid, np.random.default_rng(n).random((n, n)))
    spec = np.fft.rfft(nu.values, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    want = np.square(spec.real) + np.square(spec.imag)
    want[:, 1:(n + 1) // 2] *= 2.0
    got = sp._half_power(nu.values)
    assert not got.flags.c_contiguous
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    j_max = int(math.log2(n // 2))
    fy = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    fx = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    # blocks of 3 and of 11 rows, whose high rows skip their low bands, and
    # one block of every column: a view of all columns of the strided P
    # would reach vdot uncopied
    for block in (2 * n, 6 * n, sp._BLOCK_FREQS):
        with mock.patch.object(sp, "_BLOCK_FREQS", block), \
                mock.patch.object(sp, "_smooth_step", wraps=sp._smooth_step) as steps:
            bands = sp.lp_projection_norms(nu, j_max)
            mollified = sp.mollified_l2(nu, [0.15])
            kernel = list(sp._bump_dft(grid, 0.15))
        sums = np.zeros(j_max + 1)
        step = block // want.shape[1]
        for r0 in range(0, n, step):
            rho = np.hypot(fy[r0 : r0 + step], fx)
            for j in range(j_max + 1):
                sums[j] += np.vdot(sp.lp_window(rho, j) ** 2, want[r0 : r0 + step])
        scale = math.sqrt(grid.cell_volume) / n
        assert bands == [(j, scale * math.sqrt(float(s))) for j, s in enumerate(sums)]
        # without skips every block computes one smooth step per band
        blocks = -(-n // step)
        assert (steps.call_count < blocks * (j_max + 1)) == (blocks > 1)
        total = sum(float(np.vdot(k * k, want[:, cols])) for cols, k in kernel)
        assert mollified == [(0.15, math.sqrt(grid.cell_volume**3 * total) / n)]


def test_half_power_runs_once_per_density():
    nu = cantor_square_density(depth=3, n=128, samples=4)
    with mock.patch.object(sp, "_half_power", wraps=sp._half_power) as half:
        bands = sp.lp_projection_norms(nu, 6)
        mollified = sp.mollified_l2(nu, [0.05, 0.1])
        assert sp.lp_projection_norms(nu, 6) == bands
    assert half.call_count == 1
    # a new density over the same values computes its own P, to the same bits
    fresh = sp.GriddedDensity(nu.grid, nu.values)
    assert sp.mollified_l2(fresh, [0.05, 0.1]) == mollified
    assert sp.lp_projection_norms(fresh, 6) == bands


def test_spectral_floats_do_not_depend_on_usable_cpus(monkeypatch):
    grid = ra.GridSpec(((-1.2, -1.3), (2.2, 1.3)), 96)
    values = np.random.default_rng(96).random((96, 96))
    freqs = [0.0, 3.0, 8.0, 64.0, 100.5]
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(ra, "_usable_cpus", lambda: cpus)
        nu = sp.GriddedDensity(grid, values)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            runs[cpus] = (sp.lp_projection_norms(nu, 5), sp.mollified_l2(nu, [0.08, 0.1, 0.3]),
                          sp.surface_spectrum("circle-2d", freqs, 16, seed=2),
                          sp.surface_spectrum("curve-3d", freqs, 24, seed=2))
        # the radii and each spectrum's frequencies fork on two CPUs only
        assert (fork.call_count > 0) == (cpus == 2)
    assert runs[1] == runs[2]
    assert multiprocessing.active_children() == []


def test_negative_frequency_is_refused_before_forking(monkeypatch):
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 2)
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        with pytest.raises(ArgumentError, match="nonnegative"):
            sp.surface_spectrum("circle-2d", [8.0, -1.0, 16.0], 16, seed=0)
        assert fork.call_count == 0
        # the same call without the negative frequency does fork
        sp.surface_spectrum("circle-2d", [8.0, 16.0], 16, seed=0)
        assert fork.call_count > 0


def refused_before_forking(monkeypatch, bad, good):
    """bad() raises ArgumentError with no fork; good(), its finite twin, forks."""
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 2)
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        with pytest.raises(ArgumentError, match="finite"):
            bad()
        assert fork.call_count == 0
        good()
        assert fork.call_count > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_radius_is_refused_before_forking(monkeypatch, bad):
    nu = dirac_density(n=64)
    refused_before_forking(monkeypatch, lambda: sp.mollified_l2(nu, [0.1, bad, 0.2]),
                           lambda: sp.mollified_l2(nu, [0.1, 0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_frequency_is_refused_before_forking(monkeypatch, bad):
    refused_before_forking(
        monkeypatch, lambda: sp.surface_spectrum("circle-2d", [8.0, bad, 16.0], 16),
        lambda: sp.surface_spectrum("circle-2d", [8.0, 16.0], 16))


@pytest.mark.parametrize("freqs", [[4.0, 8.0, math.nan, 32.0], [4.0, 8.0, 16.0, math.inf]])
def test_non_finite_decay_frequency_is_refused_before_forking(monkeypatch, freqs):
    refused_before_forking(
        monkeypatch, lambda: sp.surface_fourier_decay("circle-2d", freqs, 16),
        lambda: sp.surface_fourier_decay("circle-2d", [4.0, 8.0, 16.0, 32.0], 16))


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
    # cell-centre brute force: each centre's weight is spread evenly over the
    # cells whose centre lies within delta of its unit circle
    grid = ra.GridSpec(((-1.5, -1.5), (1.5, 1.5)), 256)
    centers = fr.PointSet(((0.1, -0.2), (-0.3, 0.25)), (0.4, 0.6))
    fast = sp.incidence_density(ra.Circle, centers, 1.0, 0.05, grid)
    x, y = np.meshgrid(grid.centers(0), grid.centers(1), indexing="xy")
    slow = np.zeros((256, 256))
    for (cx, cy), w in zip(centers.points, centers.weights):
        band = np.abs(np.hypot(x - cx, y - cy) - 1.0) <= 0.05
        slow[band] += w / (np.count_nonzero(band) * grid.cell_volume)
    assert np.array_equal(fast.values > 0, slow > 0)
    assert np.max(np.abs(fast.values - slow)) <= 1e-9 * float(fast.values.max())


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
    union, _ = ra.union_scanline(ra.Circle(cloud.points, 1.0), 0.01, grid)
    assert not np.any((nu.values > 0) & ~union.bits)
    assert abs(nu.total_mass - 1.0) <= 1e-9


def test_incidence_density_bytes_are_golden():
    # the density's float64 bytes at a small size, with one center whose band
    # misses the grid: a change of the deposit's order or normalisation moves
    # them, which is a behaviour change that records a new digest
    grid = ra.GridSpec(((-1.2, -1.3), (2.2, 1.3)), 256)
    c4 = fr.cantor_middle_thirds(4)
    cloud = fr.product_point_cloud(c4, c4, 1, seed=0)
    centers = fr.PointSet(np.vstack([cloud.points, [(50.0, 0.0)]]),
                          np.r_[cloud.weights * 0.75, 0.25])
    with pytest.warns(UserWarning, match="1 of 257 centers"):
        nu = sp.incidence_density(ra.Circle, centers, 1.0, 0.02, grid)
    assert nu.values.dtype == np.float64
    assert hashlib.sha256(nu.values.tobytes()).hexdigest() == (
        "ec15575ec55ca0af0b167d9deb344d5014f72eb7a53552784558c59ef9888bb9")


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


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_mollified_l2_matches_mollify_norm(box, n):
    grid = ra.GridSpec(box, n)
    c3 = fr.cantor_middle_thirds(3)
    nu = sp.incidence_density(ra.Circle, fr.product_point_cloud(c3, c3, 1, seed=0),
                              1.0, 0.05, grid)
    # every bump wraps round both axes (negative offsets); the widest one
    # reaches past half the box, so its support block is a full period
    cell = float(np.max(grid.cell_sizes))
    eps = [2.5 * cell, 0.15, 0.6 * n * cell]
    got = sp.mollified_l2(nu, eps)
    assert [e for e, _ in got] == eps
    for e, g in got:
        assert g == pytest.approx(sp.mollify(nu, e).l2_norm(), rel=1e-12)


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_mollified_point_mass_is_the_wrapped_bump(box, n):
    # a point mass in the corner cell: its mollification is the bump itself,
    # wrapped round both axes, so the support block must match the bump
    # sampled at every cell's nearest wrapped offset; the widest bump reaches
    # past half the box
    grid = ra.GridSpec(box, n)
    lo, _ = grid.box
    corner = tuple(l + 0.5 * h for l, h in zip(lo, grid.cell_sizes))
    nu = sp.grid_density_from_points(fr.PointSet((corner,), (1.0,)), grid)
    hx, hy = (float(c) for c in grid.cell_sizes)
    dx = np.arange(n) * hx
    dy = np.arange(n) * hy
    dx = np.minimum(dx, n * hx - dx)
    dy = np.minimum(dy, n * hy - dy)
    for eps in (2.5 * max(hx, hy), 0.15, 0.6 * n * max(hx, hy)):
        r2 = (dy[:, None] ** 2 + dx[None, :] ** 2) / eps**2
        bump = np.zeros((n, n))
        inside = r2 < 1.0
        bump[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        bump /= bump.sum() * grid.cell_volume
        lam = sp.mollify(nu, eps).values
        assert np.max(np.abs(lam - bump)) <= 1e-12 * float(bump.max())


def wrapped_bump_kernel(grid, epsilon):
    """Reference: the bump's support block placed in an n x n kernel.

    The block of offsets -m .. m per axis (at most one period) is built and
    normalized as the mollifier does and written at the wrapped indices.
    """
    n = grid.cells_per_axis
    hx, hy = (float(c) for c in grid.cell_sizes)
    ix, iy = (np.arange(-min(m, (n - 1) // 2), min(m, n // 2) + 1)
              for m in (int(epsilon / hx) + 1, int(epsilon / hy) + 1))
    r2 = ((iy * hy)[:, None] ** 2 + (ix * hx)[None, :] ** 2) / epsilon**2
    block = np.zeros(r2.shape)
    inside = r2 < 1.0
    block[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    block /= block.sum() * grid.cell_volume
    kernel = np.zeros((n, n))
    kernel[np.ix_(iy % n, ix % n)] = block
    return kernel


@pytest.mark.parametrize("box,n", SPECTRAL_GRIDS)
def test_bump_dft_matches_wrapped_kernel_transform(box, n):
    grid = ra.GridSpec(box, n)
    cell = float(np.max(grid.cell_sizes))
    for eps in (2.5 * cell, 0.15, 0.6 * n * cell):       # the last is a full period
        want = np.fft.rfft2(wrapped_bump_kernel(grid, eps)).real
        # one block of columns, then blocks of 6 with a partial last one
        for block in (sp._BLOCK_FREQS, 6 * n):
            with mock.patch.object(sp, "_BLOCK_FREQS", block):
                cols, ks = zip(*sp._bump_dft(grid, eps))
            assert [c.start for c in cols] == [0] + [c.stop for c in cols[:-1]]
            assert cols[-1].stop == n // 2 + 1
            got = np.concatenate(ks, axis=1)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spectral_calls_stay_within_memory_bounds():
    # tracemalloc sees numpy's buffers; each call's peak above what was live
    # before it, outputs included, is bounded in n x n float arrays.  It does
    # not see arrays in shared mappings, so the deposit is bounded by
    # test_deposit_memory_counts_its_shared_mappings instead.
    grid = ra.GridSpec(((-1.1, -1.1), (2.1, 2.1)), 1024)
    c5 = fr.cantor_middle_thirds(5)
    cloud = fr.product_point_cloud(c5, c5, seed=0)
    nu = sp.incidence_density(ra.Circle, cloud, 1.0, 0.01, grid)

    def peak(call):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - live

    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        _, bands = peak(lambda: sp.lp_projection_norms(nu, 9))
        _, mollified = peak(lambda: sp.mollified_l2(nu, [0.08, 0.04, 0.02, 0.01]))
        _, smoothed = peak(lambda: sp.mollify(nu, 0.08))
    finally:
        if started:
            tracemalloc.stop()
    full = nu.values.nbytes
    # one half spectrum (about one grid), which holds its own power, and the
    # FFT's working buffer (1.39 and 1.36 grids measured; P beside the
    # spectrum made both 1.53)
    assert bands <= 1.45 * full
    assert mollified <= 1.45 * full
    # the spectrum and the output
    assert smoothed <= 2.5 * full


_DEPOSIT_RSS = """
import json, resource
from unittest import mock
from gmtlab import fractal as fr, raster as ra, spectral as sp

def peak_kib():
    # this process's own high-water mark: its ru_maxrss would also hold the
    # peak of the process that started it
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

ra._usable_cpus = lambda: {cpus}
grid = ra.GridSpec(((-1.1, -1.1), (2.1, 2.1)), 1024)
c5 = fr.cantor_middle_thirds(5)
cloud = fr.product_point_cloud(c5, c5, seed=0)
before = peak_kib()
# two row blocks, as the 2048-cell grid of perfbench's spectral-profile has
with mock.patch.object(ra, "_BLOCK_CELLS", 512 * 1024):
    nu = sp.incidence_density(ra.Circle, cloud, 1.0, 0.01, grid)
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([before, peak_kib(), workers, nu.values.nbytes]))
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_deposit_memory_counts_its_shared_mappings(cpus):
    # resident peaks (KiB) count the pages of the shared output mappings that
    # a process has touched, which tracemalloc does not see; a fresh process
    # keeps its peak before the call at its resident size
    out = subprocess.run([sys.executable, "-c", _DEPOSIT_RSS.format(cpus=cpus)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])})
    before, after, workers, full = json.loads(out.stdout)
    rise = (after - before) * 1024
    if cpus == 1:
        # the mapped outputs and one block buffer at a time, the union walk's
        # counts or the deposit walk's sums (2.37 grids measured)
        assert rise <= 2.5 * full
    else:
        # the parent holds only the mapped outputs (1.15 grids measured); a
        # worker starts from the parent's pages and adds its block's buffer
        # and the half of the outputs it writes (0.45)
        assert rise <= 1.3 * full
        assert 0 < (workers - before) * 1024 <= 0.6 * full


def test_mollify_validation():
    grid = ra.GridSpec(UNIT_BOX, 64)                      # cell ~ 0.0156
    u = sp.GriddedDensity(grid, np.ones((64, 64)))
    with pytest.raises(ArgumentError):
        sp.mollify(u, 0.02)
    for bad in (math.nan, math.inf):
        with pytest.raises(ArgumentError, match="finite"):
            sp.mollify(u, bad)
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
    series = sp.mollified_l2(nu_sq, eps)
    ratios = [b / a for (_, a), (_, b) in zip(series, series[1:])]
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
