"""Frequency-side diagnostics for gridded measures.

Densities live on 2-D grids (see raster.GridSpec).  Dyadic band norms use
radial raised-cosine windows and are computed entirely in the frequency
domain: for a window eta and DFT F of the density, the band piece's
cell-volume-weighted L2 norm is sqrt(cell_volume) / n * ||eta * F||_2, by the
discrete Parseval identity, so no inverse transform is needed.

Surface spectra are direct oscillatory quadratures of arc-length measures
with a smooth cutoff; decay slopes come from a least-squares fit of log2
magnitude against log2 frequency, taking the max over a seeded direction
family per frequency because the bounds being probed are sup-type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, EmptyLevelError, FitError
from .phase import PhaseSpec
from .raster import GridSpec, rasterize_band, spans_to_cells

# Relative half-width of each window's cosine transition.  Wider transitions
# smear band energy across neighbours: for a flat spectrum the deficit in
# sum ||piece||^2 is about (pi/3) w, so w = 0.015 keeps Parseval within 2%.
LP_WINDOW_WIDTH = 0.015

QUAD_NODES = 4096
ARC_HALF_WIDTH = 1.1
ARC_PLATEAU = 0.7


@dataclass
class GriddedDensity:
    """Nonnegative field on a 2-D grid; total_mass = sum(values) x cell volume."""

    grid: GridSpec
    values: np.ndarray
    total_mass: float = field(default=-1.0)

    def __post_init__(self):
        n = self.grid.cells_per_axis
        if self.values.shape != (n, n):
            raise ArgumentError("values shape does not match grid")
        if float(self.values.min(initial=0.0)) < 0.0:
            raise ArgumentError("density values must be nonnegative")
        mass = float(self.values.sum() * self.grid.cell_volume)
        if self.total_mass < 0.0:
            self.total_mass = mass
        elif abs(mass - self.total_mass) > 1e-9 * max(abs(self.total_mass), 1e-300):
            raise ArgumentError("total_mass inconsistent with values")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.grid.cell_volume))


def grid_density_from_points(points, grid: GridSpec) -> GriddedDensity:
    """Deposit each point's weight into its containing cell; mass stays 1."""
    n = grid.cells_per_axis
    lo, hi = (np.asarray(side, float) for side in grid.box)
    pts = np.asarray(points.points, float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ArgumentError("point cloud must be 2-D")
    if np.any(pts < lo) or np.any(pts > hi):
        raise ArgumentError("point outside grid box")
    idx = np.floor((pts - lo) / grid.cell_sizes).astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)         # points exactly on the hi face
    values = np.zeros((n, n))
    np.add.at(values, (idx[:, 1], idx[:, 0]), np.asarray(points.weights, float))
    values /= grid.cell_volume
    return GriddedDensity(grid, values)


# ---------------------------------------------------------------------------
# dyadic band norms
# ---------------------------------------------------------------------------

def _cosine_step(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """1 up to a, 0 from b on, a raised-cosine ramp between."""
    out = np.zeros_like(x)
    out[x <= a] = 1.0
    ramp = (x > a) & (x < b)
    out[ramp] = 0.5 * (1.0 + np.cos(np.pi * (x[ramp] - a) / (b - a)))
    return out


def _smooth_step(rho: np.ndarray, cutoff: float) -> np.ndarray:
    """1 below cutoff(1-w), 0 above cutoff(1+w), raised-cosine between."""
    return _cosine_step(rho, cutoff * (1.0 - LP_WINDOW_WIDTH), cutoff * (1.0 + LP_WINDOW_WIDTH))


def lp_window(rho: np.ndarray, j: int) -> np.ndarray:
    """Radial window for band j: difference of smoothed steps at 2^(j+1), 2^j.

    Support of band j >= 1 is [2^j (1-w), 2^(j+1) (1+w)], inside the dyadic
    blocks [2^(j-1), 2^(j+2)]; band 0 is everything below ~2.  The family
    telescopes, so eta_0 + ... + eta_J = 1 exactly below 2^(J+1) (1-w).
    """
    if j == 0:
        return _smooth_step(rho, 2.0)
    return _smooth_step(rho, 2.0 ** (j + 1)) - _smooth_step(rho, 2.0**j)


def lp_projection_norms(density: GriddedDensity, j_max: int):
    """[(j, L2 norm of the band-j piece)] for j = 0 .. j_max.

    Frequencies are in grid units (cycles per box side); Nyquist is n/2.
    With 2^j_max = n/2 the windows cover every discrete frequency including
    the corners, so the pieces' squared norms sum back to the density's
    squared norm up to transition overlap (within 2%).
    """
    n = density.grid.cells_per_axis
    if j_max < 1:
        raise ArgumentError("j_max must be at least 1")
    if 2**j_max > n // 2:
        raise ArgumentError(f"2^j_max = {2**j_max} exceeds Nyquist {n // 2}")
    k = np.fft.fftfreq(n, d=1.0 / n)
    rho = np.hypot(k[:, None], k[None, :])
    spec = np.fft.fft2(density.values)
    scale = math.sqrt(density.grid.cell_volume) / n
    out = []
    for j in range(j_max + 1):
        piece = lp_window(rho, j) * spec
        out.append((j, scale * float(np.linalg.norm(piece))))
    return out


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    abscissae: tuple
    norms: tuple
    slope: float
    intercept: float
    residual: float

    def fitted(self, a: float) -> float:
        return 2.0 ** (self.slope * a + self.intercept)


def fit_decay(abscissae, norms) -> DecayFit:
    """Least squares of log2(norm) against abscissa; residual is fit RMS."""
    a = np.asarray(abscissae, float)
    v = np.asarray(norms, float)
    if len(a) != len(v) or len(a) < 2:
        raise FitError("need at least two points to fit")
    if np.any(v <= 0.0):
        raise FitError("norms must be positive for a log fit")
    if np.ptp(a) <= 0.0:
        raise FitError("abscissae are all equal")
    logs = np.log2(v)
    slope, intercept = np.polyfit(a, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * a + intercept)) ** 2)))
    return DecayFit(tuple(a.tolist()), tuple(v.tolist()), float(slope), float(intercept), resid)


# ---------------------------------------------------------------------------
# incidence measure
# ---------------------------------------------------------------------------

def incidence_density(obj, centers, level, delta: float, grid: GridSpec) -> GriddedDensity:
    """Weighted superposition of level bands, one per center.

    obj is either a PhaseSpec (band = {y : |phi(x_i, y) - level_i| <= delta},
    rasterized per center) or a span shape class such as Circle, built once
    as the batch obj(centers, levels) and deposited by
    raster.spans_to_cells.  Each center's weight is spread uniformly over
    its band's filled cells.  Centers whose band misses the grid are
    dropped with a warning count; if all bands are empty the measure is
    undefined.
    """
    import warnings

    cell = float(np.max(grid.cell_sizes))
    if delta < cell:
        raise ArgumentError(f"delta {delta} under cell size {cell}: bands unresolved")
    pts = np.asarray(centers.points, float)
    weights = np.asarray(centers.weights, float)
    levels = np.broadcast_to(np.asarray(level, float), (len(pts),))
    if isinstance(obj, PhaseSpec):
        values, dropped = _incidence_phase(obj, pts, levels, weights, delta, grid)
    else:
        shapes = obj(pts, levels)
        _, _, cells, values = spans_to_cells(
            grid, len(shapes), lambda ys: shapes.spans(ys, delta), weights=weights)
        dropped = int(np.count_nonzero(cells == 0))
    if dropped == len(pts):
        raise EmptyLevelError("every center's band misses the grid")
    if dropped:
        warnings.warn(f"{dropped} of {len(pts)} centers had empty bands; mass dropped")
    return GriddedDensity(grid, values)


def _incidence_phase(spec, pts, levels, weights, delta, grid):
    n = grid.cells_per_axis
    values = np.zeros((n, n))
    dropped = 0
    for x, t, w in zip(pts, levels, weights):
        band = rasterize_band(spec, x, float(t), delta, grid)
        if band.filled_count == 0:
            dropped += 1
            continue
        values[band.bits] += w / (band.filled_count * grid.cell_volume)
    return values, dropped


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def mollify(nu: GriddedDensity, epsilon: float) -> GriddedDensity:
    """Convolve with a unit-mass radial C-infinity bump of radius epsilon.

    The kernel is sampled at wrapped cell offsets and the convolution is
    circular (FFT); callers keep mass an epsilon away from the box edge.
    Discrete normalization makes mass preservation exact to roundoff.
    """
    grid = nu.grid
    cell = float(np.max(grid.cell_sizes))
    if epsilon < 2.0 * cell:
        raise ArgumentError(f"epsilon {epsilon} under 2 x cell size {2 * cell}")
    n = grid.cells_per_axis
    hx, hy = (float(c) for c in grid.cell_sizes)
    dx = np.arange(n) * hx
    dy = np.arange(n) * hy
    dx = np.minimum(dx, n * hx - dx)
    dy = np.minimum(dy, n * hy - dy)
    r2 = (dy[:, None] ** 2 + dx[None, :] ** 2) / epsilon**2
    kernel = np.zeros((n, n))
    inside = r2 < 1.0
    kernel[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    kernel /= kernel.sum() * grid.cell_volume
    lam = np.fft.irfft2(
        np.fft.rfft2(nu.values) * np.fft.rfft2(kernel), s=(n, n)
    ) * grid.cell_volume
    np.maximum(lam, 0.0, out=lam)
    return GriddedDensity(grid, lam)


def mollified_l2(nu: GriddedDensity, epsilons) -> list:
    """[(epsilon, ||nu * bump_eps||_2)] for each requested radius."""
    if len(epsilons) == 0:
        raise ArgumentError("no epsilons given")
    return [(float(e), mollify(nu, float(e)).l2_norm()) for e in epsilons]


# ---------------------------------------------------------------------------
# surface-measure spectra
# ---------------------------------------------------------------------------

def _surface_nodes(mode: str):
    s = np.linspace(-ARC_HALF_WIDTH, ARC_HALF_WIDTH, QUAD_NODES)
    w = _cosine_step(np.abs(s), ARC_PLATEAU, ARC_HALF_WIDTH) * (s[1] - s[0])
    if mode == "circle-2d":
        gamma = np.column_stack([np.cos(s), np.sin(s)])
    elif mode == "curve-3d":
        gamma = np.column_stack([s, s**2 / 2.0, s**3 / 6.0])
    else:
        raise ArgumentError(f"unknown surface mode {mode!r}")
    return gamma, w


def _surface_directions(mode: str, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if mode == "circle-2d":
        # normals of plateau points; each frequency then has a stationary arc point
        ang = rng.uniform(-ARC_PLATEAU, ARC_PLATEAU, count)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    s0 = rng.uniform(-0.6, 0.6, count)
    # directions orthogonal to tangent and normal at gamma(s0): the phase
    # s -> omega . gamma(s) then has a cubic degeneracy, the worst decay
    omega = np.column_stack([s0**2 / 2.0, -s0, np.ones_like(s0)])
    return omega / np.linalg.norm(omega, axis=1, keepdims=True)


def surface_spectrum(mode: str, freqs, directions: int, seed: int = 0) -> list:
    """[(freq, max over directions of |sigma-hat(freq x omega)|)].

    sigma-hat by direct quadrature over 4096 arc nodes with the smooth
    cutoff; freq 0 returns the cutoff's total mass.
    """
    if directions < 16:
        raise ArgumentError("need at least 16 directions")
    gamma, w = _surface_nodes(mode)
    omegas = _surface_directions(mode, directions, seed)
    proj = omegas @ gamma.T                 # (directions, nodes)
    out = []
    for f in freqs:
        if f < 0:
            raise ArgumentError("frequencies must be nonnegative")
        amp = np.abs((w * np.exp(-2j * np.pi * f * proj)).sum(axis=1))
        out.append((float(f), float(amp.max())))
    return out


def surface_fourier_decay(mode: str, freqs, directions: int, seed: int = 0) -> DecayFit:
    """Decay slope of the max direction-envelope, log2-log2, over dyadic freqs."""
    freqs = [float(f) for f in freqs]
    if any(f <= 0 for f in freqs):
        raise ArgumentError("decay fit needs strictly positive frequencies")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ArgumentError("frequencies must be strictly increasing")
    if math.log2(freqs[-1] / freqs[0]) < 2.0:
        raise FitError("need at least 2 octaves of frequencies")
    mags = surface_spectrum(mode, freqs, directions, seed)
    return fit_decay([math.log2(f) for f, _ in mags], [m for _, m in mags])
