"""Frequency-side diagnostics for gridded measures.

Densities live on 2-D grids (see raster.GridSpec); the incidence measure is
each center's weight spread over its band's cells (raster.deposit).  Every
L2 norm here is read off one half-spectrum power array P = |rfft2(values)|^2
by the discrete Parseval identity.  P lives in the real parts of the
spectrum it is squared out of, whose y transform is written over its x
transform, so the spectrum is the only full-size array beside the density.
A density's values are fixed once it is built, so P is its cached power,
computed on the first band or mollified norm asked of it.  A real density's
DFT is conjugate-symmetric, so each column k of P with 0 < k < n/2 also
stands for the mirror column n - k and is weighted by 2; column 0 and, for
even n, the Nyquist column n/2 are their own mirrors and keep weight 1.

- Dyadic band norms use radial raised-cosine windows eta, evaluated on the
  half grid a block of rows at a time: the band piece's cell-volume-weighted
  L2 norm is sqrt(cell_volume) / n * sqrt(sum(eta^2 P)).  On a block of
  rows whose frequencies all lie past a band's upper smooth step, both of
  the band's steps are 0 and so is eta: the band is skipped there, since
  adding its 0.0 would change no bit of the sum.
- Mollified norms use the same P: the bump kernel is even at wrapped
  offsets, so its DFT K is real, and ||nu * bump||_2 is
  sqrt(cell_volume^3 * sum(K^2 P)) / n.  K comes from the bump's support
  block a block of columns at a time, never from an n x n kernel.  The
  radii run as raster.fan_out jobs, whose forked workers inherit P; each
  returns its per-block sums, which are added here in block order.

Surface spectra are direct oscillatory quadratures of arc-length measures
with a smooth cutoff; decay slopes come from a least-squares fit of log2
magnitude against log2 frequency, taking the max over a seeded direction
family per frequency because the bounds being probed are sup-type.  The
frequencies run as raster.fan_out jobs, each returning its max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ArgumentError, EmptyLevelError, FitError
from .raster import GridSpec, deposit, fan_out, spans_to_cells

# Relative half-width of each window's cosine transition.  Wider transitions
# smear band energy across neighbours: for a flat spectrum the deficit in
# sum ||piece||^2 is about (pi/3) w, so w = 0.015 keeps Parseval within 2%.
LP_WINDOW_WIDTH = 0.015

QUAD_NODES = 4096
ARC_HALF_WIDTH = 1.1
ARC_PLATEAU = 0.7
_BLOCK_FREQS = 1 << 16   # half-spectrum entries per window or kernel block (memory bound)


@dataclass
class GriddedDensity:
    """Nonnegative field on a 2-D grid; total_mass = sum(values) x cell volume.

    values are fixed once the density is built: total_mass is computed here,
    and power (the half power P of the module docstring) on its first use.
    """

    grid: GridSpec
    values: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        n = self.grid.cells_per_axis
        if self.values.shape != (n, n):
            raise ArgumentError("values shape does not match grid")
        if float(self.values.min(initial=0.0)) < 0.0:
            raise ArgumentError("density values must be nonnegative")
        self.total_mass = float(self.values.sum() * self.grid.cell_volume)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.vdot(self.values, self.values) * self.grid.cell_volume))

    @cached_property
    def power(self) -> np.ndarray:
        return _half_power(self.values)


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
    out = (x <= a).astype(x.dtype)
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
    power = density.power
    fy = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    fx = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    sums = np.zeros(j_max + 1)
    step = max(1, _BLOCK_FREQS // power.shape[1])
    for r0 in range(0, n, step):
        rho = np.hypot(fy[r0 : r0 + step], fx)
        nearest = float(rho.min())
        block = np.ascontiguousarray(power[r0 : r0 + step])
        # lp_window(rho, j), each smooth step computed once: band j's upper
        # step is band j + 1's lower one.  A block with rho >= the upper
        # step's b everywhere (_cosine_step's own test) has eta = 0 and skips
        # the band; None marks a lower step not yet computed.  Blocks hold
        # whole rows, out to rho >= 2^j_max, so none lies on a 1 plateau
        below = 0.0
        for j in range(j_max + 1):
            if nearest >= 2.0 ** (j + 1) * (1.0 + LP_WINDOW_WIDTH):
                below = None
                continue
            if below is None:
                below = _smooth_step(rho, 2.0**j)
            above = _smooth_step(rho, 2.0 ** (j + 1))
            eta = above - below
            eta *= eta
            sums[j] += np.vdot(eta, block)
            below = above
    scale = math.sqrt(density.grid.cell_volume) / n
    return [(j, scale * math.sqrt(float(s))) for j, s in enumerate(sums)]


def _half_power(values: np.ndarray) -> np.ndarray:
    """|rfft2(values)|^2, inner columns doubled for their conjugate mirrors.

    P is squared into the spectrum's own real parts and returned as that
    strided view.  A vdot over a strided view sums in another order than
    over contiguous memory, so readers take contiguous copies of their blocks.
    """
    spec = np.fft.rfft(values, axis=1)
    np.fft.fft(spec, axis=0, out=spec)      # rfft2, in the memory of one spectrum
    power = np.square(spec.real, out=spec.real)
    power += np.square(spec.imag, out=spec.imag)
    power[:, 1:(values.shape[1] + 1) // 2] *= 2.0
    return power


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    residual: float


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
    return DecayFit(float(slope), float(intercept), resid)


# ---------------------------------------------------------------------------
# incidence measure
# ---------------------------------------------------------------------------

def incidence_density(obj, centers, level, delta: float, grid: GridSpec) -> GriddedDensity:
    """Weighted superposition of level bands, one per center.

    obj is a span shape class such as Circle, built once as the batch
    obj(centers, levels) and deposited by raster.deposit.  Each center's
    weight is spread uniformly over its band's filled cells (spans_to_cells).
    Centers whose band misses the grid are dropped with a warning count; if
    all bands are empty the measure is undefined.
    """
    import warnings

    cell = float(np.max(grid.cell_sizes))
    if not np.isfinite(delta):
        raise ArgumentError("delta must be finite")
    if delta < cell:
        raise ArgumentError(f"delta {delta} under cell size {cell}: bands unresolved")
    pts = np.asarray(centers.points, float)
    weights = np.asarray(centers.weights, float)
    levels = np.broadcast_to(np.asarray(level, float), (len(pts),))
    shapes = obj(pts, levels)
    spans = lambda ys: shapes.spans(ys, delta)
    bits, cells = spans_to_cells(grid, len(shapes), spans)
    dropped = int(np.count_nonzero(cells == 0))
    if dropped == len(pts):
        raise EmptyLevelError("every center's band misses the grid")
    if dropped:
        warnings.warn(f"{dropped} of {len(pts)} centers had empty bands; mass dropped")
    density = np.divide(weights, cells * grid.cell_volume, out=np.zeros(len(shapes)),
                        where=cells > 0)
    return GriddedDensity(grid, deposit(grid, len(shapes), spans, bits, density))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _bump_dft(grid: GridSpec, epsilon: float):
    """Column blocks (cols, K[:, cols]) of K = rfft2(kernel).real.

    The kernel is the unit-mass radial C-infinity bump of radius epsilon at
    wrapped offsets, normalized on its support block -m .. m per axis (at
    most one period).  Being even along each axis, K is an rfft along x of
    the block's rows, then an FFT along y a block of columns at a time:
    O(n^2 log n) at any radius, where a cosine matmul along y would cost
    n (2m+1) (n/2+1), cubic for a full-period bump.
    """
    cell = float(np.max(grid.cell_sizes))
    if not 2.0 * cell <= epsilon < math.inf:
        raise ArgumentError(f"epsilon {epsilon} not finite or under 2 x cell size {2 * cell}")
    n = grid.cells_per_axis
    hx, hy = (float(c) for c in grid.cell_sizes)
    ix, iy = (np.arange(-min(m, (n - 1) // 2), min(m, n // 2) + 1)
              for m in (int(epsilon / hx) + 1, int(epsilon / hy) + 1))
    r2 = ((iy * hy)[:, None] ** 2 + (ix * hx)[None, :] ** 2) / epsilon**2
    block = np.zeros(r2.shape)
    inside = r2 < 1.0
    block[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    block /= block.sum() * grid.cell_volume
    rows = np.zeros((len(iy), n))
    rows[:, ix % n] = block
    across = np.fft.rfft(rows, axis=1).real
    step = max(1, _BLOCK_FREQS // n)
    for c0 in range(0, across.shape[1], step):
        k = np.zeros((n, min(step, across.shape[1] - c0)), dtype=complex)
        k[iy % n] = across[:, c0 : c0 + step]
        yield slice(c0, c0 + k.shape[1]), np.fft.fft(k, axis=0, out=k).real


def mollify(nu: GriddedDensity, epsilon: float) -> GriddedDensity:
    """Convolve with a unit-mass radial C-infinity bump of radius epsilon.

    The kernel is sampled at wrapped cell offsets and the convolution is
    circular (FFT); callers keep mass an epsilon away from the box edge.
    Discrete normalization makes mass preservation exact to roundoff.
    """
    grid = nu.grid
    spec = np.fft.rfft(nu.values, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    for cols, k in _bump_dft(grid, epsilon):
        spec[:, cols] *= k
    np.fft.ifft(spec, axis=0, out=spec)
    lam = np.fft.irfft(spec, grid.cells_per_axis, axis=1)
    lam *= grid.cell_volume
    np.maximum(lam, 0.0, out=lam)
    return GriddedDensity(grid, lam)


def mollified_l2(nu: GriddedDensity, epsilons) -> list:
    """[(epsilon, ||nu * bump_eps||_2)] for each requested radius.

    Equal to mollify(nu, epsilon).l2_norm() up to roundoff, from one power
    array for all radii and no inverse transform.
    """
    if len(epsilons) == 0:
        raise ArgumentError("no epsilons given")
    if not all(map(math.isfinite, epsilons)):
        raise ArgumentError("epsilons must be finite")
    grid = nu.grid
    power = nu.power
    # one fan_out job per radius; the workers inherit P
    blocks = fan_out(lambda e: [float(np.vdot(k * k, np.ascontiguousarray(power[:, cols])))
                                for cols, k in _bump_dft(grid, e)],
                     [(float(e),) for e in epsilons])
    return [(float(e), math.sqrt(grid.cell_volume**3 * sum(sums)) / grid.cells_per_axis)
            for e, sums in zip(epsilons, blocks)]


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
    freqs = list(freqs)
    if not all(0.0 <= f < math.inf for f in freqs):
        raise ArgumentError("frequencies must be nonnegative and finite")
    gamma, w = _surface_nodes(mode)
    omegas = _surface_directions(mode, directions, seed)
    proj = omegas @ gamma.T                 # (directions, nodes)
    # one fan_out job per frequency; the workers inherit w and proj
    peaks = fan_out(lambda f: np.abs((w * np.exp(-2j * np.pi * f * proj)).sum(axis=1)).max(),
                    [(f,) for f in freqs])
    return [(float(f), float(peak)) for f, peak in zip(freqs, peaks)]


def surface_fourier_decay(mode: str, freqs, directions: int, seed: int = 0) -> DecayFit:
    """Decay slope of the max direction-envelope, log2-log2, over dyadic freqs."""
    freqs = [float(f) for f in freqs]
    if not all(0.0 < f < math.inf for f in freqs):
        raise ArgumentError("decay fit needs strictly positive finite frequencies")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ArgumentError("frequencies must be strictly increasing")
    if math.log2(freqs[-1] / freqs[0]) < 2.0:
        raise FitError("need at least 2 octaves of frequencies")
    mags = surface_spectrum(mode, freqs, directions, seed)
    return fit_decay([math.log2(f) for f, _ in mags], [m for _, m in mags])
