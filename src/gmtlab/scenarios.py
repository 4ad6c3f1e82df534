"""Named end-to-end experiments with pass/fail verdicts.

SCENARIOS is the one registry: scenario id -> (defaults, runner).  Each
runner is registered with its defaults by the @_scenario line above it, and
those defaults are the only place a parameter gets its value.  Thresholds
are literals at their verdicts, so no override can move one.  run_scenario
overlays the caller's overrides on a copy of the defaults and calls
runner(p, seed, out_dir) on the resolved dict p.  The runner reads
everything from p, writes the normalised values back into it (sorted
ladders, integer sizes, float boxes), may add derived entries, and returns
its series, verdicts and PGM names.  p becomes the report's params.

Given identical params and seed the returned series are bit-identical, so
the CSVs written by reporting.write_report reproduce byte for byte.  A
verdict can legitimately fail: the report records the measured value either
way, and a run that decides no verdict fails with an `undecided` one.
Passing out_dir writes PGM snapshots of final unions and lists them in
report.artifacts; manifest/CSV writing is the caller's job.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from . import fractal, phase, raster
from .errors import ArgumentError
from .fractal import IntervalSet
from .raster import GridSpec
from .reporting import ExperimentReport, Verdict


# ---------------------------------------------------------------------------
# registry and shared plumbing
# ---------------------------------------------------------------------------

SCENARIOS = {}


def _scenario(scenario_id: str, **defaults):
    """Register runner(p, seed, out_dir) -> (series, verdicts, artifacts)."""
    def register(runner):
        SCENARIOS[scenario_id] = (defaults, runner)
        return runner
    return register


def scenario_ids():
    return list(SCENARIOS)


def run_scenario(scenario_id: str, overrides=None, seed: int = 0,
                 out_dir=None) -> ExperimentReport:
    """Run one scenario on its registry defaults overlaid by overrides."""
    if scenario_id not in SCENARIOS:
        raise ArgumentError(f"unknown scenario {scenario_id!r}")
    defaults, runner = SCENARIOS[scenario_id]
    p = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in p:
            raise ArgumentError(f"unknown key {key!r} for scenario {scenario_id}")
        p[key] = value

    t0 = time.perf_counter()
    series, verdicts, artifacts = runner(p, seed, out_dir)
    if not verdicts:
        # a run that decides nothing is no pass
        p["decided_verdicts"] = 0
        verdicts = [_verdict("undecided", 1, 0, False)]
    # numpy scalars break json.dump and repr-based CSVs; flatten to builtins
    clean = {
        name: [(a if isinstance(a, int) else float(a), float(v)) for a, v in rows]
        for name, rows in series.items()
    }
    return ExperimentReport(scenario_id, p, clean, verdicts, artifacts, seed,
                            time.perf_counter() - t0)


def _verdict(name, threshold, measured, passed) -> Verdict:
    return Verdict(name, float(threshold), float(measured), bool(passed))


def _at_most(name, limit, measured) -> Verdict:
    return _verdict(name, limit, measured, measured <= limit)


def _at_least(name, floor, measured) -> Verdict:
    return _verdict(name, floor, measured, measured >= floor)


def _grid(p, box: str = "box", n: str = "n") -> GridSpec:
    """The grid p[box], p[n] describe; both are normalised in place."""
    p[n] = int(p[n])
    p[box] = tuple(float(v) for v in p[box])
    x0, y0, x1, y1 = p[box]
    return GridSpec(((x0, y0), (x1, y1)), p[n])


def _depths_and_deltas(p):
    """p's depths sorted up and deltas sorted down, normalised in place."""
    p["depths"] = sorted(int(d) for d in p["depths"])
    p["deltas"] = sorted((float(d) for d in p["deltas"]), reverse=True)
    if not p["depths"] or not p["deltas"]:
        raise ArgumentError("need at least one depth and one delta")
    return p["depths"], p["deltas"]


def _require_box(grid: GridSpec, lo, hi, why: str):
    (x0, y0), (x1, y1) = grid.box
    if x0 > lo[0] or y0 > lo[1] or x1 < hi[0] or y1 < hi[1]:
        raise ArgumentError(f"box {grid.box} must contain {why}")


def _pgm(scenario_id: str, grid: GridSpec, delta: float, out_dir):
    """(path, [name]) of a run's PGM snapshot in out_dir, or (None, []) without one."""
    if out_dir is None:
        return None, []
    name = raster.pgm_band_filename(scenario_id, grid.cells_per_axis, delta)
    return Path(out_dir) / name, [name]


def _cantor_cloud(depth: int, seed: int, on_line: bool = False):
    """Point cloud over C_depth x C_depth, or over C_depth x {0} when on_line."""
    c = fractal.cantor_middle_thirds(depth)
    cols = IntervalSet(((0.0, 0.0),), depth) if on_line else c
    return fractal.product_point_cloud(c, cols, seed=seed)


def _triangles_job(triangles, grid: GridSpec, pgm=None):
    """Area of the filled triangles' union, written as a PGM to pgm if given.

    A raster.fan_out job: it writes its PGM where it computes the union and
    returns only the area, so no raster crosses back.
    """
    union = raster.rasterize_triangles(triangles, grid)
    if pgm is not None:
        raster.write_pgm(union, pgm)
    return union.area()


def _by_key(job, calls: dict):
    """{key: job(*call)} for calls {key: call}, run in order by raster.fan_out."""
    return dict(zip(calls, raster.fan_out(job, list(calls.values()))))


def _areas(calls: dict):
    """{key: area} of the raster.union_areas calls {key: (shapes, delta, grid[, pgm])}."""
    return {key: area for key, (area, _) in zip(calls, raster.union_areas(calls.values()))}


def _step_ratios(rows):
    """(abscissa, value / previous value) for consecutive rows, skipping zeros."""
    return [(b[0], b[1] / a[1]) for a, b in zip(rows, rows[1:]) if a[1] > 0]


# ---------------------------------------------------------------------------
# 1. fixed-level positivity: curved unions keep area, thin center sets lose it
# ---------------------------------------------------------------------------

@_scenario("fixed-level-positivity", depths=[6], deltas=[0.04, 0.02, 0.01],
           n=2048, box=(-1.1, -1.1, 2.1, 2.1))
def _fixed_level_positivity(p, seed, out_dir):
    """Unit-circle unions over a planar Cantor product vs a Cantor line.

    The product centers give a union whose area stabilizes as the band
    shrinks; the line centers sit below the dimension threshold and their
    union keeps draining.  The control verdict demands a halving of area
    from delta to delta/4; the measured decay follows the covering-count
    rate 4^(1 - log 2/log 3) ~ 1.67x, so that verdict fails by design and
    documents the gap between the qualitative claim and this center set.
    """
    depths, deltas = _depths_and_deltas(p)
    grid = _grid(p)
    _require_box(grid, (-1.0, -1.0), (2.0, 2.0), "all unit circles around [0,1]^2")

    # per depth and delta, the cloud's union and then the line's; the
    # deepest, finest cloud union is the PGM
    deep, d_lo = depths[-1], deltas[-1]
    pgm, artifacts = _pgm("fixed-level-positivity", grid, d_lo, out_dir)
    calls = {}
    for depth in depths:
        cloud = raster.Circle(_cantor_cloud(depth, seed).points, 1.0)
        line = raster.Circle(_cantor_cloud(depth, seed, on_line=True).points, 1.0)
        for d in deltas:
            calls["cxc", depth, d] = cloud, d, grid
            calls["line", depth, d] = line, d, grid
    calls["cxc", deep, d_lo] += (pgm,)
    area = _areas(calls)

    series = {}
    for depth in depths:
        cxc_rows = [(d, area["cxc", depth, d]) for d in deltas]
        series[f"cxc-area-depth{depth}"] = cxc_rows
        series[f"line-area-depth{depth}"] = [(d, area["line", depth, d]) for d in deltas]
        series[f"cxc-stability-depth{depth}"] = [
            (fine, abs(1.0 - af / ac))
            for (coarse, ac), (fine, af) in zip(cxc_rows, cxc_rows[1:])
        ]

    verdicts = [_at_least("union-area-floor", 0.5, area["cxc", deep, d_lo])]
    changes = [v for _, v in series[f"cxc-stability-depth{deep}"]]
    if changes:
        verdicts.append(_at_most("union-area-stability", 0.05, max(changes)))
    # control pair: finest delta against the entry nearest 4x coarser
    a_lo = area["line", deep, d_lo]
    d_hi, a_hi = min(series[f"line-area-depth{deep}"], key=lambda row: abs(row[0] - 4.0 * d_lo))
    if d_hi > d_lo and a_hi > 0.0:
        shrink = a_lo / a_hi
        series[f"line-shrink-depth{deep}"] = [(d_lo, shrink)]
        verdicts.append(_at_most("control-shrink", 0.5, shrink))

    return series, verdicts, artifacts


# ---------------------------------------------------------------------------
# 2. flat counterexample: square boundaries refuse to lose area like curves do
# ---------------------------------------------------------------------------

@_scenario("flat-counterexample", depths=[3, 4, 5], deltas=[0.08, 0.04, 0.02, 0.01],
           n=2048, box=(-1.5, -1.5, 2.5, 2.5))
def _flat_counterexample(p, seed, out_dir):
    """Square-boundary bands over the Cantor product, circles as contrast.

    At band width 0.01 every Cantor gap below 3^-4 is bridged, so deeper
    center sets reconstitute the same thickened slices and the per-depth
    areas refuse to shrink; the shrink and zero-intercept verdicts state
    the idealized flat-collapse signature and fail at this scale.  The
    circle substitute gives the curvature contrast: its areas grow.
    """
    depths, deltas = _depths_and_deltas(p)
    grid = _grid(p)
    _require_box(grid, (-1.5, -1.5), (2.5, 2.5), "[-1.5, 2.5]^2")

    deep, d_min = depths[-1], deltas[-1]
    # per depth the squares' union at d_min and the circles', then the
    # deepest squares at the ladder's coarser deltas (d_min's call is kept)
    pgm, artifacts = _pgm("flat-counterexample", grid, d_min, out_dir)
    calls = {}
    for depth in depths:
        cloud = _cantor_cloud(depth, seed)
        calls["square", depth, d_min] = raster.SquareBoundary(cloud.points, 1.0), d_min, grid
        calls["circle", depth, d_min] = raster.Circle(cloud.points, 1.0), d_min, grid
    for d in deltas:
        calls["square", deep, d] = calls["square", deep, d_min][0], d, grid
    calls["square", deep, d_min] += (pgm,)
    area = _areas(calls)
    square_rows = [(depth, area["square", depth, d_min]) for depth in depths]
    circle_rows = [(depth, area["circle", depth, d_min]) for depth in depths]
    series = {f"square-area-d{d_min:g}": square_rows,
              f"circle-area-d{d_min:g}": circle_rows}

    verdicts = []
    sq_ratios = _step_ratios(square_rows)
    if sq_ratios:
        series["square-step-ratio"] = sq_ratios
        verdicts.append(_at_most("flat-shrink", 0.8, max(v for _, v in sq_ratios)))
    ci_ratios = _step_ratios(circle_rows)
    if ci_ratios:
        series["circle-step-ratio"] = ci_ratios
        verdicts.append(_at_least("curved-growth", 1.0, min(v for _, v in ci_ratios)))

    # delta ladder over the deepest level's squares, extrapolated to delta = 0
    ladder = [(d, area["square", deep, d]) for d in deltas]
    series[f"square-ladder-depth{deep}"] = ladder
    if len(ladder) >= 2:
        xs = np.array([d for d, _ in ladder])
        ys = np.array([a for _, a in ladder])
        intercept = float(np.polyfit(xs, ys, 1)[1])
        series["zero-area-intercept"] = [(0.0, intercept)]
        verdicts.append(_at_most("zero-area-intercept", 0.05, intercept))

    return series, verdicts, artifacts


# ---------------------------------------------------------------------------
# 3. discrete incidence: separated lattices keep a fixed share of the plane
# ---------------------------------------------------------------------------

@_scenario("discrete-incidence", qs=[8, 16, 32], s=1.5, r=1.0, n=2048,
           box=(-1.1, -1.1, 2.1, 2.1))
def _discrete_incidence(p, seed, out_dir):
    """Annuli of width q^(-2/s) around a 1-separated lattice, unit frame.

    Everything is rescaled by 1/q: centers land in [0,1]^2, radii stay r,
    and the reported areas equal area/q^2 of the q-frame picture.  The area
    floor c0 = 6.0 is a calibration constant frozen from the q=8 run
    (measured 7.73, kept with a 20 percent margin), not a derived bound.
    """
    p["qs"] = qs = sorted(int(q) for q in p["qs"])
    if not qs:
        raise ArgumentError("need at least one q")
    s, r = p["s"], p["r"]
    grid = _grid(p)
    _require_box(grid, (-r, -r), (1.0 + r, 1.0 + r), "all annuli around [0,1]^2")

    series = {"unit-area": [], "incidence-integral": [], "incidence-slack": [],
              "band-width": []}
    calls = {q: (raster.Circle(fractal.separated_lattice(q, seed=seed).points / q, r),
                 fractal.thickening_radius(q, s), grid) for q in qs}
    pgm, artifacts = _pgm("discrete-incidence", grid, calls[qs[-1]][1], out_dir)
    calls[qs[-1]] += (pgm,)
    unions = dict(zip(calls, raster.union_areas(calls.values())))
    for q in qs:
        (area, cells), rho = unions[q], calls[q][1]
        integral = float(cells * grid.cell_volume)
        series["unit-area"].append((q, area))
        series["incidence-integral"].append((q, integral))
        series["incidence-slack"].append((q, integral - area))
        series["band-width"].append((q, rho))

    areas = [a for _, a in series["unit-area"]]
    least = min(areas)
    spread = max(areas) / least
    series["area-spread"] = [(qs[-1], spread)]
    slack = min(v for _, v in series["incidence-slack"])
    verdicts = [
        _at_least("area-floor", 6.0, least),
        _at_most("area-spread", 2.0, spread),
        _at_least("incidence-dominates", 0.0, slack),
    ]
    return series, verdicts, artifacts


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


@_scenario("intersection-hypothesis", deltas=[0.04, 0.02],
           separations=[0.0, 0.25, 0.5, 1.0], samples=2_000_000, kappa=0.3)
def _intersection_hypothesis(p, seed, out_dir):
    """Monte Carlo measure of band intersections for two sphere selections.

    ratio(delta, sep) = measure x (delta + sep) / delta^2.  The warped
    spheres keep their ratios bounded; the degenerate paraboloid family
    picks the same surface at every parameter, so its intersection equals a
    single band and the ratio inflates as delta shrinks.  sep = 0 rows are
    degenerate (intersection = band) and stay out of both verdicts.  A
    verdict with a low-confidence Monte Carlo cell is withheld, and a failing
    `inconclusive` verdict counts those cells instead.  The volumes run on
    raster.fan_out's workers; `mc_samples` and `mc_hits` record their totals.
    """
    p["deltas"] = deltas = sorted((float(d) for d in p["deltas"]), reverse=True)
    p["separations"] = separations = [float(v) for v in p["separations"]]
    if not deltas or not separations:
        raise ArgumentError("need at least one delta and one separation")
    if min(deltas) < 0.01:
        raise ArgumentError("deltas below 0.01 are too thin for the sampler")
    for sep in separations:
        if sep != 0.0 and not 0.25 <= sep <= 1.5:
            raise ArgumentError(f"separation {sep} outside [0.25, 1.5]")
    p["samples"] = samples = int(p["samples"])
    if samples < 1:
        raise ArgumentError("samples must be at least 1")

    sphere = phase.PhaseSpec(phase.KIND_DIFFEO_DISTANCE, 3, {"kappa": p["kappa"]})
    parab = phase.PhaseSpec(phase.KIND_PARABOLOID, 3)
    d_max = max(deltas)
    calls = {}      # keyed by (family, delta index, separation index)
    for i, d in enumerate(deltas):
        for j, sep in enumerate(separations):
            dbox, pbox = _mc_boxes(sep, d_max)
            sub = seed * 1_000_003 + i * 101 + j
            fam = ((sphere, (0.0, 0.0, 0.0), 1.0), (sphere, (sep, 0.0, 0.0), 1.0))
            calls["diffeo", i, j] = fam, d, dbox, samples, sub
            # same surface at both parameters: t(x) = 1 - x3 on a vertical segment
            fam = ((parab, (0.0, 0.0, 0.0), 1.0), (parab, (0.0, 0.0, sep), 1.0 - sep))
            calls["paraboloid", i, j] = fam, d, pbox, samples, sub + 17
    volumes = _by_key(raster.monte_carlo_intersection, calls)
    p["mc_samples"] = sum(mc.samples for mc in volumes.values())
    p["mc_hits"] = sum(mc.hits for mc in volumes.values())

    series = {}
    ratio = {}      # by the keys of the volumes
    unsure = {"diffeo": 0, "paraboloid": 0}     # low-confidence cells off sep = 0
    for i, d in enumerate(deltas):
        for family in unsure:
            cells = [(sep, volumes[family, i, j]) for j, sep in enumerate(separations)]
            rows = [(sep, mc.estimate * (d + sep) / d**2) for sep, mc in cells]
            ratio.update(((family, i, j), r) for j, (_, r) in enumerate(rows))
            series[f"{family}-ratio-d{d:g}"] = rows
            series[f"{family}-relerr-d{d:g}"] = [
                (sep, mc.std_error / mc.estimate if mc.estimate else np.inf)
                for sep, mc in cells]
            unsure[family] += sum(mc.low_confidence for sep, mc in cells if sep != 0.0)

    diffeo_vals = [r for (family, _, j), r in ratio.items()
                   if family == "diffeo" and separations[j] != 0.0]
    # each separation's paraboloid ratio against its own at the next coarser delta
    growth = [(sep, ratio["paraboloid", i, j] / ratio["paraboloid", i - 1, j])
              for i in range(1, len(deltas)) for j, sep in enumerate(separations)
              if sep != 0.0 and ratio["paraboloid", i - 1, j] != 0.0]
    if growth:
        series["paraboloid-growth"] = growth

    verdicts = []
    if diffeo_vals and not unsure["diffeo"]:
        verdicts.append(_at_most("intersection-bound", 50.0, max(diffeo_vals)))
    if growth and not unsure["paraboloid"]:
        verdicts.append(_at_least("degenerate-growth", 1.8, min(v for _, v in growth)))
    p["low_confidence_cells"] = low = int(sum(unsure.values()))
    if low:
        # a withheld verdict leaves the run undecided, and undecided is no pass
        verdicts.append(_verdict("inconclusive", 0, low, False))
    return series, verdicts, []


# ---------------------------------------------------------------------------
# 5. interior failure: positive area, yet no horizontal breathing room
# ---------------------------------------------------------------------------

@_scenario("interior-failure", depths=[3, 4, 5, 6], deltas=[0.04, 0.02, 0.01],
           n=2048, box=(-1.5, -1.5, 2.5, 1.5), probe_n=8192,
           probe_box=(-1.05, -0.905, 2.05, 0.905), run_band=0.9)
def _interior_failure(p, seed, out_dir):
    """Unit circles centered on a fat Cantor set sitting on the x-axis.

    The union keeps positive area at every depth, but each horizontal slice
    lives in two translates of the center set, so inscribed runs shrink as
    the construction deepens.  The run bound 2L + 4h assumes runs chain at
    most two surviving intervals; the two translates interleave as the
    slice height sweeps, chaining coarser-scale siblings across bridged
    gaps, so the measured run parks near that coarser scale and the bound
    verdict fails at this resolution.
    """
    depths, deltas = _depths_and_deltas(p)
    grid = _grid(p)
    _require_box(grid, (-1.5, -1.5), (2.5, 1.5), "[-1.5, 2.5] x [-1.5, 1.5]")
    probe = _grid(p, "probe_box", "probe_n")
    d_run = float(np.max(probe.cell_sizes)) / 4.0
    d_min = deltas[-1]

    families = [raster.CircleFamily(fractal.fat_cantor(depth), 0.0, 1.0) for depth in depths]
    # the union per depth at d_min, then the deepest family's delta ladder
    deep = depths[-1]
    pgm, artifacts = _pgm("interior-failure", grid, d_min, out_dir)
    calls = {(depth, d_min): (fam, d_min, grid) for depth, fam in zip(depths, families)}
    for d in deltas:
        calls[deep, d] = families[-1], d, grid
    calls[deep, d_min] += (pgm,)
    area = _areas(calls)
    within = (-p["run_band"], p["run_band"])
    run_lengths = raster.fan_out(raster.max_inscribed_interval,
                                 [(fam, d_run, probe, within) for fam in families])
    areas = [(depth, area[depth, d_min]) for depth in depths]
    bounds = [(depth, 2.0 * family.intervals.max_interval_length()
               + 4.0 * float(probe.cell_sizes[0])) for depth, family in zip(depths, families)]
    runs = list(zip(depths, run_lengths))
    series = {f"area-d{d_min:g}": areas, "max-run": runs, "run-bound": bounds}
    series[f"area-ladder-depth{deep}"] = [(d, area[deep, d]) for d in deltas]

    verdicts = [_at_least("area-floor", 0.3, areas[-1][1])]
    ratios = _step_ratios(runs)
    if ratios:
        series["run-step-ratio"] = ratios
        verdicts.append(_at_most("run-monotone", 1.0, max(v for _, v in ratios)))
    verdicts.append(_at_most("run-bound", bounds[-1][1], runs[-1][1]))
    return series, verdicts, artifacts


# ---------------------------------------------------------------------------
# 6. kakeya compression: the sliding-wedge tree sheds area, keeps directions
# ---------------------------------------------------------------------------

@_scenario("kakeya-compression", stages=[0, 1, 2, 3, 4, 5], n=2048, box=(-2.0, -1.0, 2.0, 1.5))
def _kakeya_compression(p, seed, out_dir):
    """Perron tree per stage: union area shrinks, direction coverage holds."""
    p["stages"] = stages = sorted(int(s) for s in p["stages"])
    if not stages:
        raise ArgumentError("need at least one stage")
    if stages[-1] > 6:
        raise ArgumentError("stages beyond 6 are not part of this experiment")
    grid = _grid(p)

    trees = [fractal.perron_tree(stage) for stage in stages]
    for stage, tree in zip(stages, trees):
        tris = tree.triangles
        _require_box(grid, tris.min(axis=(0, 1)), tris.max(axis=(0, 1)),
                     f"the stage-{stage} triangles")
    pgm, artifacts = _pgm("kakeya-compression", grid, 0.0, out_dir)
    calls = {stage: (tree.triangles, grid) for stage, tree in zip(stages, trees)}
    calls[stages[-1]] += (pgm,)
    area = _by_key(_triangles_job, calls)

    series = {"union-area": [], "direction-coverage": [], "directions": []}
    for stage, tree in zip(stages, trees):
        covered = fractal.verify_direction_coverage(tree)
        series["union-area"].append((stage, area[stage]))
        series["direction-coverage"].append((stage, 1.0 if covered else 0.0))
        series["directions"].append((stage, float(len(tree.triangles))))

    areas = series["union-area"]
    verdicts = []
    steps = _step_ratios(areas)
    if steps:
        series["area-step-ratio"] = steps
        verdicts.append(_at_most("area-monotone", 1.0, max(v for _, v in steps)))
    by_stage = dict(areas)
    # the compression target is pinned to stage 5 against the base triangle
    if 0 in by_stage and 5 in by_stage and by_stage[0] > 0:
        compression = by_stage[5] / by_stage[0]
        series["compression"] = [(5, compression)]
        verdicts.append(_at_most("stage-compression", 0.35, compression))
    coverage = min(v for _, v in series["direction-coverage"])
    verdicts.append(_at_least("direction-coverage", 1.0, coverage))
    return series, verdicts, artifacts


# ---------------------------------------------------------------------------
# 7. bourgain compression: a 3-parameter curve family trapped in a surface
# ---------------------------------------------------------------------------

@_scenario("bourgain-compression", samples=10_000)
def _bourgain_compression(p, seed, out_dir):
    """Curves (w1 - t*y2 - t^2*y1, w2 - t*y1, t), w1 = 0, w2 = -y2.

    Every point satisfies X = Y*Z exactly; the verdict checks the residual
    stays at rounding level over `samples` parameters (y1, y2, t) drawn
    uniformly from [-2, 2]^2 x [0, 1] under the seed.
    """
    p["samples"] = count = int(p["samples"])
    if count < 1:
        raise ArgumentError("sample count must be positive")
    rng = np.random.default_rng(seed)
    y1 = rng.uniform(-2.0, 2.0, count)
    y2 = rng.uniform(-2.0, 2.0, count)
    t = rng.uniform(0.0, 1.0, count)
    x, y, z = phase.bourgain_curve(y1, y2, t)
    worst = float(np.abs(x - y * z).max())
    verdicts = [_at_most("hypersurface-identity", 1e-12, worst)]
    return {"max-residual": [(count, worst)]}, verdicts, []


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


@_scenario("transversality", curve="line", samples=100, fd_step=1e-6)
def _transversality(p, seed, out_dir):
    """Finite-difference Jacobian of the unit-offset map on a (t, u) grid."""
    curve = p["curve"]
    if curve not in _CURVE_FRAMES:
        raise ArgumentError(f"curve must be one of {_CURVE_FRAMES}")
    p["samples"] = samples = int(p["samples"])
    if samples < 4:
        raise ArgumentError("need at least a 4x4 grid")
    p["fd_step"] = h = float(p["fd_step"])
    if not h > 0.0:
        raise ArgumentError(f"fd_step must be positive, got {h}")

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
    verdicts = [_at_most("jacobian-matches-cosine", 1e-3, worst_err),
                _at_least("transversal-floor", 0.49, floor)]
    return series, verdicts, []
