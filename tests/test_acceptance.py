"""End-to-end acceptance checklist, one test per shipped claim.

Each test prints a single PASS/FAIL line with the measured numbers, so a
verbose run reads as a release checklist. The slow scenario tapes are run
once at library defaults (seed 0) and shared across tests.

All twelve criteria pass. Three scenarios keep a red verdict by design:
fixed-level-positivity (control-shrink), flat-counterexample (flat-shrink,
zero-area-intercept) and interior-failure (run-bound) state idealized
targets the constructions cannot reach at their parameters, so
`gmt-lab run all` exits 1. Criteria 04, 05 and 08 check instead the rate or
bound the geometry does give, derived in the test and printed next to the
measured value:
  * 04: the Cantor-line control drains at the covering rate of the Cantor
    set, inside the exact range of |N_{delta/4}(C)| / |N_delta(C)|,
  * 05: flat square unions shrink at every halving of delta, with a
    log-log exponent at least halfway to the projection's covering rate,
  * 08: the widest horizontal run matches the exact two-translate run of
    the fat-Cantor slices, and the unthickened run shrinks with depth.
"""

import copy
import functools
import math

import numpy as np

from gmtlab import cli
from gmtlab import fractal as fr
from gmtlab import phase as ph
from gmtlab import raster as ra
from gmtlab import scenarios as sc
from gmtlab import spectral as sp

UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))


def _emit(num: int, ok, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@functools.lru_cache(maxsize=None)
def report(scenario_id: str):
    return sc.run_scenario(scenario_id, {}, seed=0)


def verdict(rep, name: str):
    for v in rep.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"{rep.scenario_id} has no verdict {name!r}")


# ---------------------------------------------------------------------------
# 1. curvature determinants against closed forms and finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_curvature_oracles():
    rng = np.random.default_rng(41)
    worst_dot = worst_fd = 0.0
    dot = ph.PhaseSpec("dot-product", 3)
    for _ in range(100):
        # positive octant keeps x.y away from zero so rel error is meaningful
        x = rng.uniform(0.25, 1.25, 3)
        y = rng.uniform(0.25, 1.25, 3)
        det = ph.rotational_curvature(dot, x, y)
        want = float(x @ y)
        worst_dot = max(worst_dot, abs(det - want) / abs(want))
        fd = ph.rotational_curvature_fd(dot, x, y)
        worst_fd = max(worst_fd, abs(fd - det) / abs(det))

    worst_unit = 0.0
    for d in (2, 3):
        spec = ph.PhaseSpec("unit-distance", d)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, d)
            v = rng.normal(size=d)
            y = x + v / np.linalg.norm(v)       # radius 1 offsets
            det = ph.rotational_curvature(spec, x, y)
            worst_unit = max(worst_unit, abs(abs(det) - 1.0))
            fd = ph.rotational_curvature_fd(spec, x, y)
            worst_fd = max(worst_fd, abs(fd - det))

    worst_par = 0.0
    par = ph.PhaseSpec("translated-paraboloid", 3)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-1.0, 1.0, 3)
        det = ph.rotational_curvature(par, x, y)
        worst_par = max(worst_par, abs(abs(det) - 4.0))
        fd = ph.rotational_curvature_fd(par, x, y)
        worst_fd = max(worst_fd, abs(fd - det) / 4.0)

    ok = worst_dot <= 1e-4 and worst_unit <= 1e-9 and worst_par <= 1e-9 \
        and worst_fd <= 1e-4
    _emit(1, ok, f"dot rel err {worst_dot:.2e}, unit |det|-1 {worst_unit:.2e}, "
                 f"paraboloid |det|-4 {worst_par:.2e}, fd gap {worst_fd:.2e}")


# ---------------------------------------------------------------------------
# 2. dyadic band norms of the planar Cantor product measure
# ---------------------------------------------------------------------------

def test_criterion_02_band_decay_slope():
    grid = ra.GridSpec(UNIT_BOX, 2048)
    c = fr.cantor_middle_thirds(6)
    cloud = fr.product_point_cloud(c, c, 16, seed=0)
    mu = sp.grid_density_from_points(cloud, grid)
    sel = [(j, v) for j, v in sp.lp_projection_norms(mu, 8) if 3 <= j <= 8]
    slope = sp.fit_decay([j for j, _ in sel], [v for _, v in sel]).slope

    spike = sp.grid_density_from_points(fr.PointSet(((0.4371, 0.5517),), (1.0,)), grid)
    dsel = [(j, v) for j, v in sp.lp_projection_norms(spike, 8) if 3 <= j <= 8]
    dirac = sp.fit_decay([j for j, _ in dsel], [v for _, v in dsel]).slope

    # band growth of the product measure: (2 - 2*log3(2)) / 2
    ok = abs(slope - 0.3691) <= 0.10 and abs(dirac - 1.0) <= 0.15
    _emit(2, ok, f"cantor band slope {slope:.4f} (target 0.3691 +- 0.10), "
                 f"point-mass control {dirac:.4f} (target 1.0 +- 0.15)")


# ---------------------------------------------------------------------------
# 3. stationary-phase decay of surface measures
# ---------------------------------------------------------------------------

def test_criterion_03_surface_decay_slopes():
    freqs = [2.0 ** k for k in range(3, 10)]
    octaves = math.log2(freqs[-1] / freqs[0])
    circle = sp.surface_fourier_decay("circle-2d", freqs, 32, seed=0)
    curve = sp.surface_fourier_decay("curve-3d", freqs, 32, seed=0)
    ok = octaves >= 4 and abs(circle.slope - (-0.5)) <= 0.07 \
        and abs(curve.slope - (-1.0 / 3.0)) <= 0.07
    _emit(3, ok, f"circle slope {circle.slope:.4f} (target -0.5 +- 0.07), "
                 f"3-d curve slope {curve.slope:.4f} (target -0.333 +- 0.07) "
                 f"over {octaves:g} octaves")


# ---------------------------------------------------------------------------
# 4. circle unions over the Cantor square keep area; the line control drains
#    at the covering rate of the Cantor set
# ---------------------------------------------------------------------------

LOG3_2 = math.log(2.0) / math.log(3.0)      # dimension of the Cantor set C


def _neighbourhood(iset, w: float):
    """Measure and piece count of the closed w-neighbourhood of iset."""
    lo, hi = iset.as_arrays()
    lo, hi = lo - w, hi + w
    # equal lengths keep starts and ends sorted: count each interval up to
    # where the next one starts
    measure = float(np.sum(np.minimum(hi, np.append(lo[1:], np.inf)) - lo))
    return measure, 1 + int(np.count_nonzero(lo[1:] > hi[:-1]))


def _covering_ratio_range(c, d_lo: float, k: float):
    """Range of r(w) = |N_{w/k}(C)| / |N_w(C)| over one log-period [d_lo, 3 d_lo].

    |N_w(c)| is piecewise linear in w, with kinks where w closes a gap 3^-j,
    so r is monotone between the kinks w = 3^-j / 2 and w = k 3^-j / 2 and
    takes its extremes there or at the ends. C = C/3 u (2/3 + C/3) gives
    |N_{w/3}(C)| = 2/3 |N_w(C)| for w < 1/2, so r(w/3) = r(w): one period
    holds every value r takes at small scale. N_w(c) = N_w(C) once w is at
    least half an interval of c.
    """
    assert d_lo / k >= c.max_interval_length() / 2.0
    kinks = [m * 3.0 ** -j / 2.0 for j in range(1, c.depth + 1) for m in (1.0, k)]
    ws = [d_lo, 3.0 * d_lo] + [w for w in kinks if d_lo < w < 3.0 * d_lo]
    r = [_neighbourhood(c, w / k)[0] / _neighbourhood(c, w)[0] for w in ws]
    return min(r), max(r)


def _line_raster_margin(c, delta: float, grid) -> float:
    """Bound on the relative rounding error of the line-control area at delta.

    The raster counts cell centres, so each piece of a row slice gains or
    loses less than one cell. A row meets each unit circle in [a, b] with
    b - a = 4 delta / (a + b) >= 2 delta, so it holds at most two translates
    of N_w(P), w >= delta, P the centres (one in each interval of c, of
    length s). A gap of N_w(P) is a gap of c wider than 2 (w - s), so N_w(P)
    has at most the pieces of N_{delta - s}(c) and contains it. Rows with
    |y| < rho = sqrt((1 - delta)^2 - 1/4) have a > 1/2 and two disjoint
    translates, which bounds the area from below. Polar rows, |y| above
    sqrt(1 + 2 delta), have b < delta and get one piece per centre.
    """
    s = c.max_interval_length()
    measure, pieces = _neighbourhood(c, delta - s)
    hx, hy = (float(v) for v in grid.cell_sizes)
    rows = 2.0 * (1.0 + delta) / hy + 1.0
    polar_rows = 2.0 * ((1.0 + delta - math.sqrt(1.0 + 2.0 * delta)) / hy + 1.0)
    slack = (rows * 2 * pieces + polar_rows * len(c)) * hx * hy
    rho = math.sqrt((1.0 - delta) ** 2 - 0.25)
    return slack / (2.0 * (2.0 * rho - hy) * measure)


def criterion_04(rep):
    """(ok, detail) for a fixed-level-positivity report.

    The line control's centres lie on C_depth x {0}. Each row slice of its
    union is two translates of C thickened by about delta / sqrt(1 - y^2),
    so the area ratio from delta to delta/k is a weighted mean of r(w) and
    lies in r's range, around the covering rate k^-(1 - log3 2). The
    scenario's control-shrink verdict asks for <= 0.5, which no delta gives.
    """
    floor = verdict(rep, "union-area-floor")
    stab = verdict(rep, "union-area-stability")
    depth = rep.params["depths"][-1]
    (d_lo, ratio), = rep.series[f"line-shrink-depth{depth}"]
    d_hi = min(rep.params["deltas"], key=lambda d: abs(d - 4.0 * d_lo))
    k = d_hi / d_lo
    c = fr.cantor_middle_thirds(depth)
    r_lo, r_hi = _covering_ratio_range(c, d_lo, k)
    x0, y0, x1, y1 = rep.params["box"]
    grid = ra.GridSpec(((x0, y0), (x1, y1)), rep.params["n"])
    e_lo, e_hi = (_line_raster_margin(c, d, grid) for d in (d_lo, d_hi))
    lo = r_lo * (1.0 - e_lo) / (1.0 + e_hi)
    hi = r_hi * (1.0 + e_lo) / (1.0 - e_hi)
    ok = floor.passed and stab.passed and lo <= ratio <= hi
    return ok, (f"area {floor.measured:.4f} (needs >= {floor.threshold}), "
                f"worst halving change {stab.measured:.2%} "
                f"(needs <= {stab.threshold:.0%}), line control ratio per "
                f"quartering {ratio:.4f} (target [{r_lo:.4f}, {r_hi:.4f}] "
                f"about the covering rate {k ** -(1.0 - LOG3_2):.4f}, raster "
                f"margin {e_lo:.2%} / {e_hi:.2%}: needs [{lo:.4f}, {hi:.4f}])")


def test_criterion_04_fixed_level_positivity():
    _emit(4, *criterion_04(report("fixed-level-positivity")))


# ---------------------------------------------------------------------------
# 5. flat square boundaries lose area as delta shrinks; circles gain it
# ---------------------------------------------------------------------------

def criterion_05(rep):
    """(ok, detail) for a flat-counterexample report.

    The flat collapse is a delta -> 0 statement. Axis-parallel sides see the
    centres only through their projections, copies of C of dimension
    log3 2 < 1, so the square band over the deepest cloud drains like
    |N_delta(C)| ~ delta^(1 - log3 2): exponent 0.369, the projection's
    covering rate. A union that keeps its area has exponent 0. The target is
    halfway, (1 - log3 2) / 2 = 0.185, so neither rate passes for the other.
    Per-depth shrinking at fixed delta (the flat-shrink verdict) cannot be
    seen: with one centre per Cantor cell and 2 delta wider than the deeper
    gaps, a deeper cloud only fills the same neighbourhood more densely.
    """
    growth = verdict(rep, "curved-growth")
    deep = max(rep.params["depths"])
    ladder = sorted(rep.series[f"square-ladder-depth{deep}"], reverse=True)
    deltas = np.array([d for d, _ in ladder])
    areas = np.array([a for _, a in ladder])
    shrinks = bool(np.all(areas[1:] < areas[:-1]))
    exponent = float(np.polyfit(np.log(deltas), np.log(areas), 1)[0])
    target = (1.0 - LOG3_2) / 2.0
    ok = growth.passed and shrinks and exponent >= target
    steps = " / ".join(f"{a:.3f}" for a in areas)
    return ok, (f"square ladder at depth {deep} {steps} over delta "
                f"{deltas[0]:g} -> {deltas[-1]:g} (needs strictly decreasing), "
                f"log-log exponent {exponent:.3f} (needs >= {target:.3f}, half "
                f"the covering rate {1.0 - LOG3_2:.3f}), worst circle step "
                f"ratio {growth.measured:.4f} (needs >= {growth.threshold:g})")


def test_criterion_05_flat_counterexample():
    _emit(5, *criterion_05(report("flat-counterexample")))


# ---------------------------------------------------------------------------
# 6. separated lattices: unit-frame areas level off and incidences dominate
# ---------------------------------------------------------------------------

def test_criterion_06_discrete_incidence():
    rep = report("discrete-incidence")
    floor = verdict(rep, "area-floor")
    spread = verdict(rep, "area-spread")
    dom = verdict(rep, "incidence-dominates")
    ok = floor.passed and spread.passed and dom.passed
    _emit(6, ok, f"min area {floor.measured:.3f} (needs >= {floor.threshold}), "
                 f"spread {spread.measured:.3f} (needs <= {spread.threshold}), "
                 f"incidence slack {dom.measured:.3f} (needs >= 0)")


# ---------------------------------------------------------------------------
# 7. thickened intersections: warped spheres stay bounded, tangent
#    paraboloids blow up as delta shrinks
# ---------------------------------------------------------------------------

def test_criterion_07_intersection_dichotomy():
    rep = report("intersection-hypothesis")
    bound = verdict(rep, "intersection-bound")
    growth_at_1 = dict(rep.series["paraboloid-growth"])[1.0]

    deltas = rep.params["deltas"]
    worst_step = 0.0
    for coarse, fine in zip(deltas, deltas[1:]):
        rc = dict(rep.series[f"diffeo-ratio-d{coarse:g}"])
        rf = dict(rep.series[f"diffeo-ratio-d{fine:g}"])
        for sep, r in rc.items():
            if sep == 0.0:
                continue
            worst_step = max(worst_step, abs(rf[sep] / r - 1.0))

    rel = max(v for name, rows in rep.series.items() if "relerr" in name
              for _, v in rows)
    ok = bound.passed and growth_at_1 >= 1.8 and worst_step <= 0.5 \
        and rel < 0.10 and rep.params["low_confidence_cells"] == 0
    _emit(7, ok, f"sphere ratio max {bound.measured:.3f} (needs <= 50), "
                 f"halving drift {worst_step:.2%} (needs <= 50%), "
                 f"paraboloid growth at sep 1 {growth_at_1:.3f} (needs >= 1.8), "
                 f"mc rel err {rel:.2%} (needs < 10%)")


# ---------------------------------------------------------------------------
# 8. fat-Cantor circle union: solid area, yet runs shrink toward an empty
#    interior, measured against the exact two-translate slices
# ---------------------------------------------------------------------------

def _widest_run(iset, ys, d: float) -> float:
    """Widest piece of the exact row slices of the circle-family band.

    Unit circles centred on iset x {0}: the band of half-width d meets row y
    in [u + a, v + b] and [u - b, v - a] for each interval [u, v], with a, b
    the half-chords of radii 1 - d and 1 + d. Merging them per row is the
    continuum union that the raster samples.
    """
    u, v = iset.as_arrays()
    y2 = np.asarray(ys, dtype=float)[:, None] ** 2
    b = np.sqrt((1.0 + d) ** 2 - y2)
    a = np.sqrt(np.maximum((1.0 - d) ** 2 - y2, 0.0))
    lo = np.hstack([u - b, u + a])
    hi = np.hstack([v - a, v + b])
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    start = np.ones(lo.shape, dtype=bool)
    start[:, 1:] = lo[:, 1:] > reach[:, :-1]
    end = np.ones(lo.shape, dtype=bool)
    end[:, :-1] = start[:, 1:]
    return float(np.max(reach[end] - lo[start]))


def _exact_runs(rep):
    """Probe cell, and exact widest runs per depth: thickened as the probe
    band is, and unthickened."""
    p = rep.params
    px0, py0, px1, py1 = p["probe_box"]
    probe = ra.GridSpec(((px0, py0), (px1, py1)), p["probe_n"])
    ys = probe.centers(1)
    ys = ys[(-p["run_band"] <= ys) & (ys <= p["run_band"])]
    d_run = float(np.max(probe.cell_sizes)) / 4.0   # the scenario's probe band
    sets = {dep: fr.fat_cantor(dep) for dep in p["depths"]}
    thick = {dep: _widest_run(f, ys, d_run) for dep, f in sets.items()}
    bare = {dep: _widest_run(f, ys, 0.0) for dep, f in sets.items()}
    return float(probe.cell_sizes[0]), thick, bare


def criterion_08(rep):
    """(ok, detail) for an interior-failure report.

    Each slice is (F - c) u (F + c), c = sqrt(1 - y^2), and the two
    translates interleave, so a run chains many intervals of F: the
    run-bound verdict's 2L + 4h, which allows two, fails even without
    thickening. The measured widest run is held to the exact run of the
    thickened slice at the probe's own rows instead. Each end of a run
    rounds to a cell centre, by less than one cell, so the two agree within
    two probe cells. The unthickened slice has an empty interior in the
    limit, so its widest run must strictly shrink with depth, also past the
    probe's resolution (the depth-6 gaps 4^-6 are narrower than a cell).
    """
    floor = verdict(rep, "area-floor")
    mono = verdict(rep, "run-monotone")
    cell, thick, bare = _exact_runs(rep)
    measured = dict(rep.series["max-run"])
    depths = sorted(measured)
    off = max(abs(measured[dep] - thick[dep]) for dep in depths) / cell
    thins = all(bare[a] > bare[b] for a, b in zip(depths, depths[1:]))
    ok = floor.passed and mono.passed and off <= 2.0 and thins

    def fmt(runs):
        return " / ".join(f"{runs[dep]:.4f}" for dep in depths)

    return ok, (f"area {floor.measured:.4f} (needs >= {floor.threshold}), "
                f"runs non-increasing {mono.passed}, widest runs "
                f"{fmt(measured)} at depths {depths[0]}-{depths[-1]} vs exact "
                f"{fmt(thick)}: worst gap {off:.2f} cells (needs <= 2 cells "
                f"of {cell:.6f}), unthickened runs {fmt(bare)} "
                f"(needs strictly decreasing)")


def test_criterion_08_interior_failure():
    _emit(8, *criterion_08(report("interior-failure")))


# ---------------------------------------------------------------------------
# 9. sliding-triangle tree: area collapses while directions stay covered
# ---------------------------------------------------------------------------

def test_criterion_09_triangle_compression():
    rep = report("kakeya-compression")
    comp = verdict(rep, "stage-compression")
    cover = verdict(rep, "direction-coverage")
    ok = comp.passed and cover.passed
    _emit(9, ok, f"stage-5 area ratio {comp.measured:.4f} "
                 f"(needs <= {comp.threshold}), direction coverage "
                 f"{cover.measured:.0%} at every stage")


# ---------------------------------------------------------------------------
# 10. the cubic curve family really lies inside {X = YZ}
# ---------------------------------------------------------------------------

def test_criterion_10_hypersurface_identity():
    rep = report("bourgain-compression")
    ident = verdict(rep, "hypersurface-identity")
    count = rep.series["max-residual"][0][0]
    ok = ident.passed and count == 10_000
    _emit(10, ok, f"max |X - YZ| {ident.measured:.2e} over {count} samples "
                  f"(needs <= {ident.threshold:g})")


# ---------------------------------------------------------------------------
# 11. tube-map jacobian equals |cos u| and stays transversal mid-wedge
# ---------------------------------------------------------------------------

def test_criterion_11_transversality():
    rep = report("transversality")
    err = verdict(rep, "jacobian-matches-cosine")
    floor = verdict(rep, "transversal-floor")
    ok = err.passed and floor.passed and rep.params["samples"] == 100
    _emit(11, ok, f"max |J - |cos u|| {err.measured:.2e} on a 100x100 grid "
                  f"(needs <= {err.threshold:g}), wedge floor "
                  f"{floor.measured:.4f} (needs >= {floor.threshold})")


# ---------------------------------------------------------------------------
# 12. plumbing: exact set algebra, mass-preserving mollification,
#     reproducible artifacts, and the exit-code contract
# ---------------------------------------------------------------------------

def test_criterion_12_infrastructure(tmp_path):
    rng = np.random.default_rng(7)
    grid = ra.GridSpec(UNIT_BOX, 64)
    for _ in range(1000):
        a = ra.GridRaster(grid, rng.random((64, 64)) < 0.3)
        b = ra.GridRaster(grid, rng.random((64, 64)) < 0.3)
        union = ra.union_raster([a, b])
        inter = ra.intersection_raster(a, b)
        assert a.filled_count + b.filled_count \
            == union.filled_count + inter.filled_count

    c = fr.cantor_middle_thirds(4)
    nu = sp.grid_density_from_points(fr.product_point_cloud(c, c, 4, seed=2),
                                     ra.GridSpec(UNIT_BOX, 512))
    drift = max(abs(sp.mollify(nu, eps).total_mass - nu.total_mass)
                / nu.total_mass for eps in (0.05, 0.02))
    assert drift <= 1e-6

    # report.json embeds wall time, so reproducibility is on the data files
    args = ["run", "discrete-incidence", "--seed", "4",
            "--set", "qs=8,16", "--set", "n=256"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*")
                   if p.suffix in (".csv", ".pgm"))
    assert len(files) > 3
    identical = all((tmp_path / "a" / f).read_bytes()
                    == (tmp_path / "b" / f).read_bytes() for f in files)
    assert identical

    codes = (
        cli.main(["run", "transversality", "--out", str(tmp_path / "ok")]),
        cli.main(["run", "transversality", "--set", "fd_step=0.1",
                  "--out", str(tmp_path / "red")]),
        cli.main(["run", "no-such-scenario", "--out", str(tmp_path / "use")]),
        cli.main(["run", "kakeya-compression", "--set", "stages=7",
                  "--out", str(tmp_path / "boom")]),
    )
    assert codes == (0, 1, 2, 3)

    _emit(12, True, f"set algebra exact on 1000 pairs, mollified mass drift "
                    f"{drift:.1e}, {len(files)} artifacts byte-identical, "
                    f"exit codes {codes}")


# ---------------------------------------------------------------------------
# negative controls: criteria 04, 05 and 08 reject reports of the wrong shape
# ---------------------------------------------------------------------------

def _doctored(rep, name: str, rows):
    """Copy of rep with series name replaced by rows."""
    fake = copy.copy(rep)
    fake.series = {**rep.series, name: rows}
    return fake


def test_criteria_04_05_08_reject_doctored_reports():
    fixed = report("fixed-level-positivity")
    flat = report("flat-counterexample")
    interior = report("interior-failure")
    assert criterion_04(fixed)[0]
    assert criterion_05(flat)[0]
    assert criterion_08(interior)[0]

    key = f"line-shrink-depth{fixed.params['depths'][-1]}"
    (d_lo, _), = fixed.series[key]
    doctored = [criterion_04(_doctored(fixed, key, [(d_lo, 0.93)]))]

    key = f"square-ladder-depth{max(flat.params['depths'])}"
    level = flat.series[key][-1][1]
    doctored.append(criterion_05(
        _doctored(flat, key, [(d, level) for d, _ in flat.series[key]])))

    runs = interior.series["max-run"]
    cell, thick, _ = _exact_runs(interior)
    first = runs[0][0]
    doctored.append(criterion_08(
        _doctored(interior, "max-run", [(dep, runs[0][1]) for dep, _ in runs])))
    doctored.append(criterion_08(_doctored(
        interior, "max-run", [(first, thick[first] + 3.0 * cell)] + runs[1:])))

    passed = [detail for ok, detail in doctored if ok]
    assert not passed, passed
