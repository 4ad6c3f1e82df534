"""Named end-to-end experiments with pass/fail verdicts.

Each run_* function binds phase families, fractal constructions, rasters,
and Monte Carlo into one reproducible experiment.  Given identical params
and seed the returned series are bit-identical, so the CSVs written by
reporting.write_report reproduce byte for byte.

All thresholds are keyword arguments with documented defaults (collected in
DEFAULTS); none are buried in the code paths.  A verdict can legitimately
fail: the report records the measured value either way.  Passing out_dir
writes PGM snapshots of final unions and lists them in report.artifacts;
manifest/CSV writing is the caller's job.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

import numpy as np

from . import fractal, phase, raster
from .errors import ArgumentError
from .fractal import IntervalSet
from .raster import GridSpec
from .reporting import ExperimentReport, Verdict


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _flat_box(grid: GridSpec):
    (x0, y0), (x1, y1) = grid.box
    return (float(x0), float(y0), float(x1), float(y1))


def _verdict(name, threshold, measured, passed) -> Verdict:
    return Verdict(name, float(threshold), float(measured), bool(passed))


def _finish(scenario_id, params, series, verdicts, artifacts, seed, t0):
    # numpy scalars break json.dump and repr-based CSVs; flatten to builtins
    clean = {
        name: [(a if isinstance(a, int) else float(a), float(v)) for a, v in rows]
        for name, rows in series.items()
    }
    return ExperimentReport(scenario_id, params, clean, verdicts, artifacts,
                            seed, time.perf_counter() - t0)


def _grid_from(params) -> GridSpec:
    x0, y0, x1, y1 = params["box"]
    return GridSpec(((x0, y0), (x1, y1)), int(params["n"]))


def _require_box(grid: GridSpec, lo, hi, why: str):
    (x0, y0), (x1, y1) = grid.box
    if x0 > lo[0] or y0 > lo[1] or x1 < hi[0] or y1 < hi[1]:
        raise ArgumentError(f"box {grid.box} must contain {why}")


def _pgm(rst, scenario_id: str, delta: float, out_dir, artifacts: list):
    if out_dir is None:
        return
    name = raster.pgm_band_filename(scenario_id, rst.grid.cells_per_axis, delta)
    raster.write_pgm(rst, Path(out_dir) / name)
    artifacts.append(name)


def _circle_rows(points, radius: float):
    pts = np.asarray(points, dtype=float)
    return np.column_stack([pts, np.full(len(pts), float(radius))])


def _cantor_cloud(depth: int, seed: int, on_line: bool = False):
    """Point cloud over C_depth x C_depth, or over C_depth x {0} when on_line."""
    c = fractal.cantor_middle_thirds(depth)
    cols = IntervalSet(((0.0, 0.0),), depth) if on_line else c
    return fractal.product_point_cloud(c, cols, seed=seed)


# ---------------------------------------------------------------------------
# 1. fixed-level positivity: curved unions keep area, thin center sets lose it
# ---------------------------------------------------------------------------

def run_fixed_level_positivity(depths, grid: GridSpec, deltas, seed: int = 0,
                               area_floor: float = 0.5, stability_tol: float = 0.05,
                               control_ratio: float = 0.5,
                               out_dir=None) -> ExperimentReport:
    """Unit-circle unions over a planar Cantor product vs a Cantor line.

    The product centers give a union whose area stabilizes as the band
    shrinks; the line centers sit below the dimension threshold and their
    union keeps draining.  The control verdict demands a halving of area
    from delta to delta/4; the measured decay follows the covering-count
    rate 4^(1 - log 2/log 3) ~ 1.67x, so that verdict fails by design and
    documents the gap between the qualitative claim and this center set.
    """
    t0 = time.perf_counter()
    depths = sorted(int(d) for d in depths)
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not depths or not deltas:
        raise ArgumentError("need at least one depth and one delta")
    _require_box(grid, (-1.0, -1.0), (2.0, 2.0), "all unit circles around [0,1]^2")

    series = {}
    artifacts = []
    verdicts = []
    final_union = None
    for depth in depths:
        cloud = _cantor_cloud(depth, seed)
        line = _cantor_cloud(depth, seed, on_line=True)
        cxc_rows, line_rows = [], []
        for d in deltas:
            union, _, _ = raster.rasterize_circles(_circle_rows(cloud.points, 1.0), d, grid)
            cxc_rows.append((d, union.area()))
            lu, _, _ = raster.rasterize_circles(_circle_rows(line.points, 1.0), d, grid)
            line_rows.append((d, lu.area()))
            if depth == depths[-1] and d == deltas[-1]:
                final_union = union
        series[f"cxc-area-depth{depth}"] = cxc_rows
        series[f"line-area-depth{depth}"] = line_rows
        series[f"cxc-stability-depth{depth}"] = [
            (fine, abs(1.0 - af / ac))
            for (coarse, ac), (fine, af) in zip(cxc_rows, cxc_rows[1:])
        ]

    last = depths[-1]
    cxc_rows = series[f"cxc-area-depth{last}"]
    line_rows = series[f"line-area-depth{last}"]
    floor_measured = cxc_rows[-1][1]
    verdicts.append(_verdict("union-area-floor", area_floor, floor_measured,
                            floor_measured >= area_floor))
    changes = [v for _, v in series[f"cxc-stability-depth{last}"]]
    if changes:
        worst = max(changes)
        verdicts.append(_verdict("union-area-stability", stability_tol, worst,
                                worst <= stability_tol))
    # control pair: finest delta against the entry nearest 4x coarser
    d_lo, a_lo = line_rows[-1]
    d_hi, a_hi = min(line_rows, key=lambda row: abs(row[0] - 4.0 * d_lo))
    if d_hi > d_lo and a_hi > 0.0:
        shrink = a_lo / a_hi
        series[f"line-shrink-depth{last}"] = [(d_lo, shrink)]
        verdicts.append(_verdict("control-shrink", control_ratio, shrink,
                                shrink <= control_ratio))

    _pgm(final_union, "fixed-level-positivity", deltas[-1], out_dir, artifacts)
    params = {"depths": depths, "deltas": deltas, "n": grid.cells_per_axis,
              "box": _flat_box(grid), "area_floor": area_floor,
              "stability_tol": stability_tol, "control_ratio": control_ratio}
    return _finish("fixed-level-positivity", params, series, verdicts, artifacts, seed, t0)


# ---------------------------------------------------------------------------
# 2. flat counterexample: square boundaries refuse to lose area like curves do
# ---------------------------------------------------------------------------

def run_flat_counterexample(depths, deltas, grid: GridSpec, seed: int = 0,
                            shrink_ratio: float = 0.8, intercept_tol: float = 0.05,
                            out_dir=None) -> ExperimentReport:
    """Square-boundary bands over the Cantor product, circles as contrast.

    At band width 0.01 every Cantor gap below 3^-4 is bridged, so deeper
    center sets reconstitute the same thickened slices and the per-depth
    areas refuse to shrink; the shrink and zero-intercept verdicts state
    the idealized flat-collapse signature and fail at this scale.  The
    circle substitute gives the curvature contrast: its areas grow.
    """
    t0 = time.perf_counter()
    depths = sorted(int(d) for d in depths)
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not depths or not deltas:
        raise ArgumentError("need at least one depth and one delta")
    _require_box(grid, (-1.5, -1.5), (2.5, 2.5), "[-1.5, 2.5]^2")

    d_min = deltas[-1]
    series = {}
    artifacts = []
    square_rows, circle_rows = [], []
    final_union = None
    for depth in depths:
        cloud = _cantor_cloud(depth, seed)
        squares = [raster.SquareBoundary((x, y), 1.0) for x, y in cloud.points]
        union = raster.union_scanline(squares, d_min, grid)
        square_rows.append((depth, union.area()))
        cu, _, _ = raster.rasterize_circles(_circle_rows(cloud.points, 1.0), d_min, grid)
        circle_rows.append((depth, cu.area()))
        if depth == depths[-1]:
            final_union = union
    series[f"square-area-d{d_min:g}"] = square_rows
    series[f"circle-area-d{d_min:g}"] = circle_rows

    verdicts = []
    sq_ratios = [(b[0], b[1] / a[1]) for a, b in zip(square_rows, square_rows[1:]) if a[1] > 0]
    if sq_ratios:
        series["square-step-ratio"] = sq_ratios
        worst = max(v for _, v in sq_ratios)
        verdicts.append(_verdict("flat-shrink", shrink_ratio, worst, worst <= shrink_ratio))
    ci_ratios = [(b[0], b[1] / a[1]) for a, b in zip(circle_rows, circle_rows[1:]) if a[1] > 0]
    if ci_ratios:
        series["circle-step-ratio"] = ci_ratios
        least = min(v for _, v in ci_ratios)
        verdicts.append(_verdict("curved-growth", 1.0, least, least >= 1.0))

    # delta ladder at the deepest level, extrapolated linearly to delta = 0
    deep = depths[-1]
    cloud = _cantor_cloud(deep, seed)
    squares = [raster.SquareBoundary((x, y), 1.0) for x, y in cloud.points]
    ladder = []
    for d in deltas:
        if d == d_min:
            ladder.append((d, square_rows[-1][1]))
        else:
            ladder.append((d, raster.union_scanline(squares, d, grid).area()))
    series[f"square-ladder-depth{deep}"] = ladder
    if len(ladder) >= 2:
        xs = np.array([d for d, _ in ladder])
        ys = np.array([a for _, a in ladder])
        intercept = float(np.polyfit(xs, ys, 1)[1])
        series["zero-area-intercept"] = [(0.0, intercept)]
        verdicts.append(_verdict("zero-area-intercept", intercept_tol, intercept,
                                intercept <= intercept_tol))

    _pgm(final_union, "flat-counterexample", d_min, out_dir, artifacts)
    params = {"depths": depths, "deltas": deltas, "n": grid.cells_per_axis,
              "box": _flat_box(grid), "shrink_ratio": shrink_ratio,
              "intercept_tol": intercept_tol}
    return _finish("flat-counterexample", params, series, verdicts, artifacts, seed, t0)


# ---------------------------------------------------------------------------
# 3. discrete incidence: separated lattices keep a fixed share of the plane
# ---------------------------------------------------------------------------

def run_discrete_incidence(qs, s: float, r: float = 1.0, seed: int = 0,
                           grid: GridSpec = None, c0: float = 6.0,
                           ratio_bound: float = 2.0, out_dir=None) -> ExperimentReport:
    """Annuli of width q^(-2/s) around a 1-separated lattice, unit frame.

    Everything is rescaled by 1/q: centers land in [0,1]^2, radii stay r,
    and the reported areas equal area/q^2 of the q-frame picture.  c0 is a
    calibration constant frozen from the q=8 run (measured 7.73, kept with
    a 20 percent margin), not a derived bound.
    """
    t0 = time.perf_counter()
    qs = sorted(int(q) for q in qs)
    if not qs:
        raise ArgumentError("need at least one q")
    if not 1.0 < s < 2.0:
        raise ArgumentError("s must lie in (1, 2)")
    if grid is None:
        grid = GridSpec(((-1.1, -1.1), (2.1, 2.1)), 2048)
    _require_box(grid, (-r, -r), (1.0 + r, 1.0 + r), "all annuli around [0,1]^2")

    series = {"unit-area": [], "incidence-integral": [], "incidence-slack": [],
              "band-width": []}
    artifacts = []
    final_union = None
    for q in qs:
        lattice = fractal.separated_lattice(q, seed=seed)
        rho = fractal.thickening_radius(q, s)
        circles = _circle_rows(lattice.points / q, r)
        union, _, per_band = raster.rasterize_circles(circles, rho, grid)
        area = union.area()
        integral = float(per_band.sum() * grid.cell_volume)
        series["unit-area"].append((q, area))
        series["incidence-integral"].append((q, integral))
        series["incidence-slack"].append((q, integral - area))
        series["band-width"].append((q, rho))
        final_union = union

    areas = [a for _, a in series["unit-area"]]
    least = min(areas)
    spread = max(areas) / least
    series["area-spread"] = [(qs[-1], spread)]
    verdicts = [
        _verdict("area-floor", c0, least, least >= c0),
        _verdict("area-spread", ratio_bound, spread, spread <= ratio_bound),
    ]
    slack = min(v for _, v in series["incidence-slack"])
    verdicts.append(_verdict("incidence-dominates", 0.0, slack, slack >= 0.0))

    _pgm(final_union, "discrete-incidence", fractal.thickening_radius(qs[-1], s),
         out_dir, artifacts)
    params = {"qs": qs, "s": s, "r": r, "n": grid.cells_per_axis,
              "box": _flat_box(grid), "c0": c0, "ratio_bound": ratio_bound}
    return _finish("discrete-incidence", params, series, verdicts, artifacts, seed, t0)


# ---------------------------------------------------------------------------
# 4. intersection hypothesis: curved pairs obey the two-band bound, flat don't
# ---------------------------------------------------------------------------

def _mc_boxes(sep: float, d_max: float):
    """Sampling boxes that contain the band intersections at separation sep."""
    if sep == 0.0:
        diffeo = ((-1.45, -1.45, -1.45), (1.45, 1.45, 1.45))
    else:
        # ring slab: |Phi_1 - sep/2| <= 2*delta/sep, plus the warp amplitude
        hw = 0.35 + 2.0 * d_max / sep
        diffeo = ((sep / 2 - hw, -1.45, -1.45), (sep / 2 + hw, 1.45, 1.45))
    paraboloid = ((-1.0, -1.0, 0.9), (1.0, 1.0, 3.1))
    return diffeo, paraboloid


def run_intersection_hypothesis(deltas, separations, samples: int, seed: int = 0,
                                kappa: float = 0.3, c_pass: float = 50.0,
                                growth_floor: float = 1.8,
                                out_dir=None) -> ExperimentReport:
    """Monte Carlo measure of band intersections for two sphere selections.

    ratio(delta, sep) = measure x (delta + sep) / delta^2.  The warped
    spheres keep their ratios bounded; the degenerate paraboloid family
    picks the same surface at every parameter, so its intersection equals a
    single band and the ratio inflates as delta shrinks.  sep = 0 rows are
    degenerate (intersection = band) and stay out of both verdicts.  A
    verdict with a low-confidence Monte Carlo cell is withheld, and a failing
    `inconclusive` verdict counts those cells instead.
    """
    t0 = time.perf_counter()
    deltas = sorted((float(d) for d in deltas), reverse=True)
    separations = [float(v) for v in separations]
    if not deltas or not separations:
        raise ArgumentError("need at least one delta and one separation")
    if min(deltas) < 0.01:
        raise ArgumentError("deltas below 0.01 are too thin for the sampler")
    for sep in separations:
        if sep != 0.0 and not 0.25 <= sep <= 1.5:
            raise ArgumentError(f"separation {sep} outside [0.25, 1.5]")
    samples = int(samples)

    sphere = phase.PhaseSpec(phase.KIND_DIFFEO_DISTANCE, 3, {"kappa": kappa})
    parab = phase.PhaseSpec(phase.KIND_PARABOLOID, 3)
    d_max = max(deltas)
    series = {"paraboloid-growth": []}
    low_diffeo = low_parab = 0
    diffeo_vals, growth_vals = [], []
    for i, d in enumerate(deltas):
        drows, prows, drel, prel = [], [], [], []
        for j, sep in enumerate(separations):
            dbox, pbox = _mc_boxes(sep, d_max)
            sub = seed * 1_000_003 + i * 101 + j
            fam = ((sphere, (0.0, 0.0, 0.0), 1.0), (sphere, (sep, 0.0, 0.0), 1.0))
            mc = raster.monte_carlo_intersection(fam, d, dbox, samples, seed=sub)
            ratio = mc.estimate * (d + sep) / d**2
            drows.append((sep, ratio))
            drel.append((sep, mc.std_error / mc.estimate if mc.estimate else np.inf))
            if sep != 0.0:
                diffeo_vals.append(ratio)
                low_diffeo += mc.low_confidence
            # same surface at both parameters: t(x) = 1 - x3 on a vertical segment
            fam = ((parab, (0.0, 0.0, 0.0), 1.0), (parab, (0.0, 0.0, sep), 1.0 - sep))
            mc = raster.monte_carlo_intersection(fam, d, pbox, samples, seed=sub + 17)
            prows.append((sep, mc.estimate * (d + sep) / d**2))
            prel.append((sep, mc.std_error / mc.estimate if mc.estimate else np.inf))
            if sep != 0.0:
                low_parab += mc.low_confidence
        series[f"diffeo-ratio-d{d:g}"] = drows
        series[f"diffeo-relerr-d{d:g}"] = drel
        series[f"paraboloid-ratio-d{d:g}"] = prows
        series[f"paraboloid-relerr-d{d:g}"] = prel

    for coarse, fine in zip(deltas, deltas[1:]):
        rc = dict(series[f"paraboloid-ratio-d{coarse:g}"])
        rf = dict(series[f"paraboloid-ratio-d{fine:g}"])
        for sep in separations:
            if sep == 0.0 or rc[sep] == 0.0:
                continue
            growth = rf[sep] / rc[sep]
            series["paraboloid-growth"].append((sep, growth))
            growth_vals.append(growth)
    if not series["paraboloid-growth"]:
        del series["paraboloid-growth"]

    verdicts = []
    if diffeo_vals and not low_diffeo:
        worst = max(diffeo_vals)
        verdicts.append(_verdict("intersection-bound", c_pass, worst, worst <= c_pass))
    if growth_vals and not low_parab:
        least = min(growth_vals)
        verdicts.append(_verdict("degenerate-growth", growth_floor, least,
                                least >= growth_floor))
    low = int(low_diffeo + low_parab)
    if low:
        # a withheld verdict leaves the run undecided, and undecided is no pass
        verdicts.append(_verdict("inconclusive", 0, low, False))

    params = {"deltas": deltas, "separations": separations, "samples": samples,
              "kappa": kappa, "c_pass": c_pass, "growth_floor": growth_floor,
              "low_confidence_cells": low}
    return _finish("intersection-hypothesis", params, series, verdicts, [], seed, t0)


# ---------------------------------------------------------------------------
# 5. interior failure: positive area, yet no horizontal breathing room
# ---------------------------------------------------------------------------

def run_interior_failure(depths, grid: GridSpec, deltas,
                         probe_n: int = 8192,
                         probe_box=(-1.05, -0.905, 2.05, 0.905),
                         run_band: float = 0.9, area_floor: float = 0.3,
                         seed: int = 0, out_dir=None) -> ExperimentReport:
    """Unit circles centered on a fat Cantor set sitting on the x-axis.

    The union keeps positive area at every depth, but each horizontal slice
    lives in two translates of the center set, so inscribed runs shrink as
    the construction deepens.  The run bound 2L + 4h assumes runs chain at
    most two surviving intervals; the two translates interleave as the
    slice height sweeps, chaining coarser-scale siblings across bridged
    gaps, so the measured run parks near that coarser scale and the bound
    verdict fails at this resolution.
    """
    t0 = time.perf_counter()
    depths = sorted(int(d) for d in depths)
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not depths or not deltas:
        raise ArgumentError("need at least one depth and one delta")
    _require_box(grid, (-1.5, -1.5), (2.5, 1.5), "[-1.5, 2.5] x [-1.5, 1.5]")
    px0, py0, px1, py1 = (float(v) for v in probe_box)
    probe = GridSpec(((px0, py0), (px1, py1)), int(probe_n))
    probe_cell = float(np.max(probe.cell_sizes))
    d_run = probe_cell / 4.0
    d_min = deltas[-1]

    series = {f"area-d{d_min:g}": [], "max-run": [], "run-bound": []}
    artifacts = []
    verdicts = []
    final_union = None
    for depth in depths:
        f_set = fractal.fat_cantor(depth)
        family = raster.CircleFamily(f_set, 0.0, 1.0)
        union = raster.rasterize_band(family, None, None, d_min, grid)
        series[f"area-d{d_min:g}"].append((depth, union.area()))
        with warnings.catch_warnings():
            # the probe band sits at the resolution floor on purpose
            warnings.simplefilter("ignore")
            fine = raster.rasterize_band(family, None, None, d_run, probe)
        run = raster.max_inscribed_interval(fine, axis=0, within=(-run_band, run_band))
        bound = 2.0 * f_set.max_interval_length() + 4.0 * float(probe.cell_sizes[0])
        series["max-run"].append((depth, run))
        series["run-bound"].append((depth, bound))
        if depth == depths[-1]:
            final_union = union

    deep = depths[-1]
    ladder = [(d, series[f"area-d{d_min:g}"][-1][1]) if d == d_min
              else (d, raster.rasterize_band(raster.CircleFamily(
                  fractal.fat_cantor(deep), 0.0, 1.0), None, None, d, grid).area())
              for d in deltas]
    series[f"area-ladder-depth{deep}"] = ladder

    floor_measured = dict(series[f"area-d{d_min:g}"])[deep]
    verdicts.append(_verdict("area-floor", area_floor, floor_measured,
                            floor_measured >= area_floor))
    runs = series["max-run"]
    ratios = [(b[0], b[1] / a[1]) for a, b in zip(runs, runs[1:]) if a[1] > 0]
    if ratios:
        series["run-step-ratio"] = ratios
        worst = max(v for _, v in ratios)
        verdicts.append(_verdict("run-monotone", 1.0, worst, worst <= 1.0))
    run_deep = dict(runs)[deep]
    bound_deep = dict(series["run-bound"])[deep]
    verdicts.append(_verdict("run-bound", bound_deep, run_deep, run_deep <= bound_deep))

    _pgm(final_union, "interior-failure", d_min, out_dir, artifacts)
    params = {"depths": depths, "deltas": deltas, "n": grid.cells_per_axis,
              "box": _flat_box(grid), "probe_n": int(probe_n),
              "probe_box": (px0, py0, px1, py1), "run_band": run_band,
              "area_floor": area_floor}
    return _finish("interior-failure", params, series, verdicts, artifacts, seed, t0)


# ---------------------------------------------------------------------------
# 6. kakeya compression: the sliding-wedge tree sheds area, keeps directions
# ---------------------------------------------------------------------------

def run_kakeya_compression(stages, grid: GridSpec, samples: int = 100,
                           compression_ratio: float = 0.35, seed: int = 0,
                           out_dir=None) -> ExperimentReport:
    """Perron tree per stage: union area shrinks, direction coverage holds."""
    t0 = time.perf_counter()
    stages = sorted(int(s) for s in stages)
    if not stages:
        raise ArgumentError("need at least one stage")
    if stages[-1] > 6:
        raise ArgumentError("stages beyond 6 are not part of this experiment")
    if stages[0] < 0:
        raise ArgumentError("stages must be nonnegative")

    series = {"union-area": [], "direction-coverage": [], "directions": []}
    artifacts = []
    final_union = None
    for stage in stages:
        tree = fractal.perron_tree(stage)
        union = raster.rasterize_triangles(tree.triangles, grid)
        covered = fractal.verify_direction_coverage(tree, samples)
        series["union-area"].append((stage, union.area()))
        series["direction-coverage"].append((stage, 1.0 if covered else 0.0))
        series["directions"].append((stage, float(len(tree.triangles))))
        final_union = union

    areas = series["union-area"]
    verdicts = []
    steps = [(b[0], b[1] / a[1]) for a, b in zip(areas, areas[1:]) if a[1] > 0]
    if steps:
        series["area-step-ratio"] = steps
        worst = max(v for _, v in steps)
        verdicts.append(_verdict("area-monotone", 1.0, worst, worst <= 1.0))
    by_stage = dict(areas)
    # the compression target is pinned to stage 5 against the base triangle
    if 0 in by_stage and 5 in by_stage and by_stage[0] > 0:
        compression = by_stage[5] / by_stage[0]
        series["compression"] = [(5, compression)]
        verdicts.append(_verdict("stage-compression", compression_ratio, compression,
                                compression <= compression_ratio))
    coverage = min(v for _, v in series["direction-coverage"])
    verdicts.append(_verdict("direction-coverage", 1.0, coverage, coverage >= 1.0))

    _pgm(final_union, "kakeya-compression", 0.0, out_dir, artifacts)
    params = {"stages": stages, "n": grid.cells_per_axis, "box": _flat_box(grid),
              "samples": int(samples), "compression_ratio": compression_ratio}
    return _finish("kakeya-compression", params, series, verdicts, artifacts, seed, t0)


# ---------------------------------------------------------------------------
# 7. bourgain compression: a 3-parameter curve family trapped in a surface
# ---------------------------------------------------------------------------

def run_bourgain_compression(grid_of_params, seed: int = 0,
                             residual_tol: float = 1e-12,
                             out_dir=None) -> ExperimentReport:
    """Curves (w1 - t*y2 - t^2*y1, w2 - t*y1, t), w1 = 0, w2 = -y2.

    Every point satisfies X = Y*Z exactly; the verdict checks the residual
    stays at rounding level over the sampled parameters.  grid_of_params is
    either an (k, 3) array of (y1, y2, t) rows or an integer sample count
    drawn uniformly from [-2, 2]^2 x [0, 1] under the seed.
    """
    t0 = time.perf_counter()
    if isinstance(grid_of_params, (int, np.integer)):
        count = int(grid_of_params)
        if count < 1:
            raise ArgumentError("sample count must be positive")
        rng = np.random.default_rng(seed)
        y1 = rng.uniform(-2.0, 2.0, count)
        y2 = rng.uniform(-2.0, 2.0, count)
        t = rng.uniform(0.0, 1.0, count)
    else:
        pts = np.asarray(grid_of_params, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ArgumentError("grid_of_params must be (k, 3) rows of (y1, y2, t)")
        y1, y2, t = pts[:, 0], pts[:, 1], pts[:, 2]

    x_val = -t * y2 - t * t * y1
    y_val = -y2 - t * y1
    z_val = t
    residuals = np.abs(x_val - y_val * z_val)
    worst = float(residuals.max())
    series = {"max-residual": [(int(len(y1)), worst)]}
    verdicts = [_verdict("hypersurface-identity", residual_tol, worst,
                        worst <= residual_tol)]
    params = {"samples": int(len(y1)), "residual_tol": residual_tol}
    return _finish("bourgain-compression", params, series, verdicts, [], seed, t0)


# ---------------------------------------------------------------------------
# 8. transversality: the unit-offset map stays an immersion away from tangency
# ---------------------------------------------------------------------------

_CURVE_FRAMES = ("line", "arc")


def _frame(curve: str, ts):
    """Position, unit tangent, unit normal along the curve, vectorized."""
    ts = np.asarray(ts, dtype=float)
    if curve == "line":
        zero, one = np.zeros_like(ts), np.ones_like(ts)
        g = np.stack([ts, zero], -1)
        tan = np.stack([one, zero], -1)
        nor = np.stack([zero, one], -1)
    else:
        g = np.stack([np.cos(ts), np.sin(ts)], -1)
        tan = np.stack([-np.sin(ts), np.cos(ts)], -1)
        nor = -g
    return g, tan, nor


def _offset_map(curve: str, ts, us):
    """F(t, u) = gamma(t) + cos(u) T(t) + sin(u) N(t), broadcast over a grid.

    Offsetting in the moving frame keeps the angle u measured from the
    tangent, so the Jacobian is |cos u| for any unit-speed curve: the
    curvature terms cancel inside the determinant.
    """
    g, tan, nor = _frame(curve, ts)
    cu = np.cos(us)[..., None]
    su = np.sin(us)[..., None]
    return g + cu * tan + su * nor


def run_transversality(curve: str = "line", samples: int = 100,
                       fd_step: float = 1e-6, min_floor: float = 0.49,
                       err_tol: float = 1e-3, seed: int = 0,
                       out_dir=None) -> ExperimentReport:
    """Finite-difference Jacobian of the unit-offset map on a (t, u) grid."""
    t0 = time.perf_counter()
    if curve not in _CURVE_FRAMES:
        raise ArgumentError(f"curve must be one of {_CURVE_FRAMES}")
    samples = int(samples)
    if samples < 4:
        raise ArgumentError("need at least a 4x4 grid")
    h = float(fd_step)

    ts = np.linspace(0.0, 1.0, samples)[:, None]
    us = np.linspace(0.0, np.pi / 2.0, samples)[None, :]
    d_t = (_offset_map(curve, ts + h, us) - _offset_map(curve, ts - h, us)) / (2 * h)
    d_u = (_offset_map(curve, ts, us + h) - _offset_map(curve, ts, us - h)) / (2 * h)
    jac = np.abs(d_t[..., 0] * d_u[..., 1] - d_t[..., 1] * d_u[..., 0])
    oracle = np.abs(np.cos(us))

    u_axis = us[0]
    series = {
        "jacobian-min-by-u": list(zip(u_axis, jac.min(axis=0))),
        "jacobian-err-by-u": list(zip(u_axis, np.abs(jac - oracle).max(axis=0))),
    }
    wedge = (u_axis >= np.pi / 6.0) & (u_axis <= np.pi / 3.0)
    if not wedge.any():
        raise ArgumentError("grid too coarse to sample u in [pi/6, pi/3]")
    worst_err = max(v for _, v in series["jacobian-err-by-u"])
    floor = min(v for u, v in series["jacobian-min-by-u"] if np.pi / 6 <= u <= np.pi / 3)
    verdicts = [
        _verdict("jacobian-matches-cosine", err_tol, worst_err, worst_err <= err_tol),
        _verdict("transversal-floor", min_floor, floor, floor >= min_floor),
    ]
    params = {"curve": curve, "samples": samples, "fd_step": h,
              "min_floor": min_floor, "err_tol": err_tol}
    return _finish("transversality", params, series, verdicts, [], seed, t0)


# ---------------------------------------------------------------------------
# registry: one flat, overridable param dict per scenario
# ---------------------------------------------------------------------------

DEFAULTS = {
    "fixed-level-positivity": {
        "depths": [6], "deltas": [0.04, 0.02, 0.01], "n": 2048,
        "box": (-1.1, -1.1, 2.1, 2.1), "area_floor": 0.5,
        "stability_tol": 0.05, "control_ratio": 0.5,
    },
    "flat-counterexample": {
        "depths": [3, 4, 5], "deltas": [0.08, 0.04, 0.02, 0.01], "n": 2048,
        "box": (-1.5, -1.5, 2.5, 2.5), "shrink_ratio": 0.8, "intercept_tol": 0.05,
    },
    "discrete-incidence": {
        "qs": [8, 16, 32], "s": 1.5, "r": 1.0, "n": 2048,
        "box": (-1.1, -1.1, 2.1, 2.1), "c0": 6.0, "ratio_bound": 2.0,
    },
    "intersection-hypothesis": {
        "deltas": [0.04, 0.02], "separations": [0.0, 0.25, 0.5, 1.0],
        "samples": 2_000_000, "kappa": 0.3, "c_pass": 50.0, "growth_floor": 1.8,
    },
    "interior-failure": {
        "depths": [3, 4, 5, 6], "deltas": [0.04, 0.02, 0.01], "n": 2048,
        "box": (-1.5, -1.5, 2.5, 1.5), "probe_n": 8192,
        "probe_box": (-1.05, -0.905, 2.05, 0.905), "run_band": 0.9,
        "area_floor": 0.3,
    },
    "kakeya-compression": {
        "stages": [0, 1, 2, 3, 4, 5], "n": 2048, "box": (-2.0, -1.0, 2.0, 1.5),
        "samples": 100, "compression_ratio": 0.35,
    },
    "bourgain-compression": {
        "samples": 10_000, "residual_tol": 1e-12,
    },
    "transversality": {
        "curve": "line", "samples": 100, "fd_step": 1e-6,
        "min_floor": 0.49, "err_tol": 1e-3,
    },
}


def scenario_ids():
    return list(DEFAULTS)


def run_scenario(scenario_id: str, overrides=None, seed: int = 0,
                 out_dir=None) -> ExperimentReport:
    """Dispatch one scenario with DEFAULTS overlaid by overrides."""
    if scenario_id not in DEFAULTS:
        raise ArgumentError(f"unknown scenario {scenario_id!r}")
    p = dict(DEFAULTS[scenario_id])
    for key, value in (overrides or {}).items():
        if key not in p:
            raise ArgumentError(f"unknown key {key!r} for scenario {scenario_id}")
        p[key] = value

    if scenario_id == "fixed-level-positivity":
        return run_fixed_level_positivity(
            p["depths"], _grid_from(p), p["deltas"], seed=seed,
            area_floor=p["area_floor"], stability_tol=p["stability_tol"],
            control_ratio=p["control_ratio"], out_dir=out_dir)
    if scenario_id == "flat-counterexample":
        return run_flat_counterexample(
            p["depths"], p["deltas"], _grid_from(p), seed=seed,
            shrink_ratio=p["shrink_ratio"], intercept_tol=p["intercept_tol"],
            out_dir=out_dir)
    if scenario_id == "discrete-incidence":
        return run_discrete_incidence(
            p["qs"], p["s"], r=p["r"], seed=seed, grid=_grid_from(p),
            c0=p["c0"], ratio_bound=p["ratio_bound"], out_dir=out_dir)
    if scenario_id == "intersection-hypothesis":
        return run_intersection_hypothesis(
            p["deltas"], p["separations"], p["samples"], seed=seed,
            kappa=p["kappa"], c_pass=p["c_pass"], growth_floor=p["growth_floor"],
            out_dir=out_dir)
    if scenario_id == "interior-failure":
        return run_interior_failure(
            p["depths"], _grid_from(p), p["deltas"], probe_n=p["probe_n"],
            probe_box=p["probe_box"], run_band=p["run_band"],
            area_floor=p["area_floor"], seed=seed, out_dir=out_dir)
    if scenario_id == "kakeya-compression":
        return run_kakeya_compression(
            p["stages"], _grid_from(p), samples=p["samples"],
            compression_ratio=p["compression_ratio"], seed=seed, out_dir=out_dir)
    if scenario_id == "bourgain-compression":
        return run_bourgain_compression(
            p["samples"], seed=seed, residual_tol=p["residual_tol"],
            out_dir=out_dir)
    return run_transversality(
        p["curve"], p["samples"], fd_step=p["fd_step"],
        min_floor=p["min_floor"], err_tol=p["err_tol"], seed=seed, out_dir=out_dir)
