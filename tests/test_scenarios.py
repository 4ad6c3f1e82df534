import copy
import dataclasses
import functools
import math
import os
import warnings

import numpy as np
import pytest

from gmtlab import fractal as fr
from gmtlab import raster as ra
from gmtlab import scenarios as sc
from gmtlab.errors import ArgumentError
from gmtlab.phase import bourgain_curve

from children import assert_no_child


# small grids keep the suite quick; acceptance reruns the full defaults
@functools.lru_cache(maxsize=None)
def quick(sid, seed=0):
    overrides = {
        "fixed-level-positivity": {"n": 512},
        "flat-counterexample": {"n": 512, "depths": (3, 4)},
        "discrete-incidence": {"n": 512, "qs": (8, 16)},
        "intersection-hypothesis": {"samples": 200_000},
        "interior-failure": {"n": 512, "probe_n": 2048, "depths": (3, 4)},
        "kakeya-compression": {"n": 512},
        "bourgain-compression": {},
        "transversality": {},
    }[sid]
    return sc.run_scenario(sid, {k: list(v) if isinstance(v, tuple) else v
                                 for k, v in overrides.items()}, seed=seed)


def verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict named {name} in {report.scenario_id}")


def one_point(depth):
    """A Cantor construction collapsed to the point 0.5 at every depth."""
    return fr.IntervalSet(((0.5, 0.5),), depth)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lists_eight_scenarios():
    ids = sc.scenario_ids()
    assert len(ids) == 8
    assert ids[0] == "fixed-level-positivity"
    assert "transversality" in ids


def test_unknown_scenario_rejected():
    with pytest.raises(ArgumentError):
        sc.run_scenario("no-such-thing")


def test_unknown_override_key_rejected_by_name():
    with pytest.raises(ArgumentError, match="bogus"):
        sc.run_scenario("kakeya-compression", {"bogus": 1})


def test_run_that_decides_nothing_fails_as_undecided():
    # one depth and one delta: no step ratio, no ladder fit, so no verdict
    rep = sc.run_scenario("flat-counterexample", {"depths": [0], "deltas": [0.05], "n": 64})
    assert [(v.name, v.threshold, v.passed) for v in rep.verdicts] == [("undecided", 1.0, False)]
    assert rep.verdicts[0].measured == rep.params["decided_verdicts"] == 0
    assert rep.summary_line() == "flat-counterexample: FAIL (0/1 verdicts)"


def test_out_dir_collects_pgm_artifact(tmp_path):
    rep = sc.run_scenario("kakeya-compression",
                          {"n": 256, "stages": [0, 1]}, out_dir=tmp_path)
    assert rep.artifacts == ["kakeya-compression_256_0.pgm"]
    assert (tmp_path / rep.artifacts[0]).stat().st_size > 0


def test_scenario_jobs_return_numbers_and_write_the_serial_pgm(monkeypatch, tmp_path):
    # a job writes its PGM rows where it computes them, so no raster crosses
    # back from it; the file holds the same bytes as the serial union's
    real = ra.fan_out
    results = []

    def recorded(fn, calls, workers=None):
        out = real(fn, calls, workers)
        if fn in (ra._union_block, sc._triangles_job):
            results.extend(out)
        return out

    def holds_array(value):
        if isinstance(value, tuple):
            return any(map(holds_array, value))
        return isinstance(value, (ra.GridRaster, np.ndarray))

    monkeypatch.setattr(ra, "fan_out", recorded)
    kakeya = sc.run_scenario("kakeya-compression", {"n": 256}, out_dir=tmp_path)
    incidence = sc.run_scenario("discrete-incidence", {"n": 256, "qs": [8, 16]},
                                out_dir=tmp_path)
    # six triangle jobs, and one row block per 256-row union
    assert len(results) == 6 + 2
    assert not any(map(holds_array, results))

    triangles = ra.rasterize_triangles(
        fr.perron_tree(5).triangles, ra.GridSpec(((-2.0, -1.0), (2.0, 1.5)), 256))
    lattice = ra.Circle(fr.separated_lattice(16, seed=0).points / 16, 1.0)
    circles = ra.rasterize_circles(lattice, fr.thickening_radius(16, 1.5),
                                   ra.GridSpec(((-1.1, -1.1), (2.1, 2.1)), 256))[0]
    for rep, union in [(kakeya, triangles), (incidence, circles)]:
        ra.write_pgm(union, tmp_path / "serial.pgm")
        assert (tmp_path / rep.artifacts[0]).read_bytes() == (tmp_path / "serial.pgm").read_bytes()


# every scenario at a small size; ladders unsorted and boxes as int lists, so
# the reports show the normalised values
SMALL = {
    "fixed-level-positivity": {"n": 256, "depths": [2], "deltas": [0.02, 0.04]},
    "flat-counterexample": {"n": 256, "depths": [3, 2], "deltas": [0.04, 0.08]},
    "discrete-incidence": {"n": 256, "qs": [8]},
    "intersection-hypothesis": {"samples": 1000, "deltas": [0.02, 0.04]},
    "interior-failure": {"n": 256, "probe_n": 256, "depths": [2], "deltas": [0.04]},
    "kakeya-compression": {"n": 256, "stages": [1, 0], "box": [-2, -1, 2, 2]},
    "bourgain-compression": {"samples": 100},
    "transversality": {"samples": 16},
}


def run_small(sid, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # coarse grids alias on purpose
        return sc.run_scenario(sid, SMALL[sid], seed=seed)


def test_every_report_records_the_run_seed():
    assert list(SMALL) == sc.scenario_ids()
    for sid in SMALL:
        assert run_small(sid, seed=4).seed == 4, sid


def normalised(key, value):
    if key in ("depths", "qs", "stages"):
        return sorted(int(v) for v in value)
    if key == "deltas":
        return sorted((float(v) for v in value), reverse=True)
    if key in ("box", "probe_box"):
        return tuple(float(v) for v in value)
    return value


def test_report_params_hold_every_resolved_default():
    registry = copy.deepcopy({sid: defaults for sid, (defaults, _) in sc.SCENARIOS.items()})
    for sid, defaults in registry.items():
        params = run_small(sid).params
        assert set(params) - set(defaults) <= {"low_confidence_cells", "decided_verdicts",
                                               "mc_samples", "mc_hits"}
        for key, default in defaults.items():
            expected = normalised(key, SMALL[sid].get(key, default))
            assert repr(params[key]) == repr(expected), (sid, key)
    # runs write into their own copy, never into the registry
    assert registry == {sid: defaults for sid, (defaults, _) in sc.SCENARIOS.items()}


# ---------------------------------------------------------------------------
# fixed-level positivity
# ---------------------------------------------------------------------------

def test_fixed_level_area_floor_holds():
    rep = quick("fixed-level-positivity")
    v = verdict(rep, "union-area-floor")
    assert v.passed and v.measured == pytest.approx(7.6343, rel=1e-3)


def test_fixed_level_area_stable_under_band_halving():
    rep = quick("fixed-level-positivity")
    v = verdict(rep, "union-area-stability")
    assert v.passed and v.measured <= 0.05


def test_fixed_level_line_control_keeps_too_much_area():
    # a center line of dimension log2/log3 drains area at rate ~4^-0.37 per
    # quartering, short of the demanded halving: the verdict records a miss
    rep = quick("fixed-level-positivity")
    v = verdict(rep, "control-shrink")
    assert not v.passed
    assert v.measured == pytest.approx(0.59, abs=0.03)


def test_fixed_level_line_areas_fall_with_band():
    rep = quick("fixed-level-positivity")
    rows = rep.series["line-area-depth6"]
    areas = [a for _, a in rows]
    assert areas == sorted(areas, reverse=True)
    assert areas[-1] < 0.5 * rep.series["cxc-area-depth6"][-1][1]


def test_fixed_level_rejects_tight_box():
    with pytest.raises(ArgumentError, match="box"):
        sc.run_scenario("fixed-level-positivity", {
            "depths": [2], "deltas": [0.04], "n": 64, "box": (-0.5, -0.5, 1.5, 1.5)})


def test_fixed_level_rejects_empty_lists():
    with pytest.raises(ArgumentError):
        sc.run_scenario("fixed-level-positivity", {"depths": [], "deltas": [0.04], "n": 64})


def test_fixed_level_deterministic():
    a = sc.run_scenario("fixed-level-positivity", {"n": 256, "depths": [3]}, seed=5)
    b = sc.run_scenario("fixed-level-positivity", {"n": 256, "depths": [3]}, seed=5)
    assert a.series == b.series
    c = sc.run_scenario("fixed-level-positivity", {"n": 256, "depths": [3]}, seed=6)
    assert c.series != a.series


def test_fixed_level_line_centers_fail_union_area_stability(monkeypatch):
    # the Cantor line in place of the product cloud: its union drains by
    # about 2^-0.37 per halving of delta, a change near 0.24 against 0.05
    cloud = sc._cantor_cloud
    monkeypatch.setattr(sc, "_cantor_cloud",
                        lambda depth, seed, on_line=False: cloud(depth, seed, on_line=True))
    rep = sc.run_scenario("fixed-level-positivity", {"n": 512})
    v = verdict(rep, "union-area-stability")
    assert v.measured > 0.2 and not v.passed


def test_fixed_level_one_point_center_set_fails_union_area_floor(monkeypatch):
    # a center set of dimension 0: the product cloud is one unit circle, whose
    # band has area pi((1 + d)^2 - (1 - d)^2) = 4 pi d, 0.126 at d = 0.01
    monkeypatch.setattr(fr, "cantor_middle_thirds", one_point)
    rep = sc.run_scenario("fixed-level-positivity", {"n": 512, "depths": [2]})
    v = verdict(rep, "union-area-floor")
    assert v.measured == pytest.approx(4 * math.pi * 0.01, rel=0.05) and not v.passed


# ---------------------------------------------------------------------------
# flat counterexample
# ---------------------------------------------------------------------------

def test_flat_single_center_matches_offset_square():
    rep = sc.run_scenario("flat-counterexample",
                          {"depths": [0], "deltas": [0.05], "n": 1024})
    area = rep.series["square-area-d0.05"][0][1]
    # band area 8 * half_side * 2*delta + 4 corners (2*delta)^2 = 0.81
    assert area == pytest.approx(0.81, rel=0.05)


def test_flat_squares_refuse_to_shrink():
    rep = quick("flat-counterexample")
    v = verdict(rep, "flat-shrink")
    assert not v.passed
    assert v.measured > 1.0


def test_flat_intercept_stays_positive():
    rep = quick("flat-counterexample")
    v = verdict(rep, "zero-area-intercept")
    assert not v.passed
    assert v.measured > 1.0


def test_flat_circle_substitute_grows():
    rep = quick("flat-counterexample")
    v = verdict(rep, "curved-growth")
    assert v.passed
    assert v.measured >= 1.0


def test_flat_thinned_deeper_clouds_fail_curved_growth(monkeypatch):
    # 2^(8 - depth) centers of each cloud, so a deeper cloud has half as many
    # circles and their union area shrinks
    cloud = sc._cantor_cloud

    def thinned(depth, seed, on_line=False):
        points = cloud(depth, seed, on_line).points[: 2 ** (8 - depth)]
        return fr.PointSet(points, np.full(len(points), 1.0 / len(points)))

    monkeypatch.setattr(sc, "_cantor_cloud", thinned)
    rep = sc.run_scenario("flat-counterexample", {"n": 512, "depths": [3, 4]})
    v = verdict(rep, "curved-growth")
    assert v.measured < 0.6 and not v.passed


def test_flat_ladder_series_monotone_in_band():
    rep = quick("flat-counterexample")
    rows = rep.series["square-ladder-depth4"]
    assert [d for d, _ in rows] == [0.08, 0.04, 0.02, 0.01]
    areas = [a for _, a in rows]
    assert areas == sorted(areas, reverse=True)


# ---------------------------------------------------------------------------
# discrete incidence
# ---------------------------------------------------------------------------

def test_discrete_incidence_verdicts_pass():
    rep = quick("discrete-incidence")
    assert verdict(rep, "area-floor").passed
    assert verdict(rep, "area-spread").passed
    assert verdict(rep, "incidence-dominates").passed


def test_discrete_incidence_band_width_formula():
    rep = quick("discrete-incidence")
    widths = dict(rep.series["band-width"])
    assert widths[16] * 16 == pytest.approx(16.0 ** (-1.0 / 3.0), rel=1e-12)


def test_discrete_incidence_integral_dominates_each_q():
    rep = quick("discrete-incidence")
    area = dict(rep.series["unit-area"])
    integral = dict(rep.series["incidence-integral"])
    for q in area:
        assert integral[q] >= area[q]


def doctored_circles(monkeypatch, doctor):
    """The union walk of each row block, with its rows and per-band totals
    passed through doctor(first row, rows, per_band), which edits the rows in
    place and returns the totals."""
    real = ra._block_cells

    def walk(grid, count, spans, j0, j1, bits):
        return doctor(j0, bits, real(grid, count, spans, j0, j1, bits))

    monkeypatch.setattr(ra, "_block_cells", walk)


def test_discrete_incidence_first_band_only_fails_incidence_dominates(monkeypatch):
    # per-band totals that keep only the first annulus: the integral drops
    # to one band's area, below the union of all of them
    def first_band_only(j0, bits, per_band):
        kept = np.zeros_like(per_band)
        kept[0] = per_band[0]
        return kept

    doctored_circles(monkeypatch, first_band_only)
    rep = sc.run_scenario("discrete-incidence", {"n": 512, "qs": [8, 16]})
    v = verdict(rep, "incidence-dominates")
    assert v.measured < 0.0 and not v.passed


def test_discrete_incidence_thinned_union_fails_area_spread(monkeypatch):
    # the q = 16 union keeps one cell row in four: its area falls about
    # fourfold while q = 8 keeps its own, so the spread passes 2
    def thinned_at_16(j0, bits, per_band):
        if len(per_band) == 16 ** 2:
            bits[(j0 + np.arange(len(bits))) % 4 != 0] = False
        return per_band

    doctored_circles(monkeypatch, thinned_at_16)
    rep = sc.run_scenario("discrete-incidence", {"n": 512, "qs": [8, 16]})
    v = verdict(rep, "area-spread")
    assert v.measured == pytest.approx(4.0, rel=0.1) and not v.passed


def test_discrete_incidence_builds_no_cover_grid(monkeypatch):
    # the union walk gives the per-band totals, so no deposit walk builds
    # cover counts; one usable CPU runs the kernels here, where the wrappers
    # see them
    monkeypatch.setattr(ra, "_usable_cpus", lambda: 1)
    real = ra._block_cells
    walks = []

    def recorded(grid, count, spans, j0, j1, bits, *deposit):
        if deposit:
            raise AssertionError("discrete-incidence walked a deposit")
        walks.append((count, j0, j1))
        return real(grid, count, spans, j0, j1, bits)

    def no_deposit(*args):
        raise AssertionError("discrete-incidence walked a deposit")

    monkeypatch.setattr(ra, "_block_cells", recorded)
    monkeypatch.setattr(ra, "deposit", no_deposit)
    sc.run_scenario("discrete-incidence", {"n": 256, "qs": [8, 16]})
    # one union walk per q, each over all 256 rows in one block
    assert walks == [(8 ** 2, 0, 256), (16 ** 2, 0, 256)]


def test_discrete_incidence_one_center_fails_area_floor(monkeypatch):
    # the q^2 lattice points stacked on one center, so not separated: the
    # union is one annulus of area 4 pi rho, 0.311 at q = 16 (rho = 16^(-4/3))
    monkeypatch.setattr(fr, "separated_lattice",
                        lambda q, seed=0: fr.PointSet([[q / 2.0, q / 2.0]], [1.0]))
    rep = sc.run_scenario("discrete-incidence", {"n": 512, "qs": [8, 16]})
    v = verdict(rep, "area-floor")
    assert v.measured == pytest.approx(4 * math.pi * 16 ** (-4 / 3), rel=0.05) and not v.passed


def test_discrete_incidence_rejects_bad_s():
    with pytest.raises(ArgumentError):
        sc.run_scenario("discrete-incidence", {"qs": [8], "s": 2.5})
    with pytest.raises(ArgumentError):
        sc.run_scenario("discrete-incidence", {"qs": [], "s": 1.5})


# ---------------------------------------------------------------------------
# intersection hypothesis
# ---------------------------------------------------------------------------

def test_intersection_diffeo_ratios_bounded():
    rep = quick("intersection-hypothesis")
    v = verdict(rep, "intersection-bound")
    assert v.passed
    assert v.measured < 50.0


def test_intersection_degenerate_family_inflates():
    rep = quick("intersection-hypothesis")
    v = verdict(rep, "degenerate-growth")
    assert v.passed
    # identical surfaces: ratio scales like (delta + sep)/delta, so one
    # halving at sep=1 gives 2*(1 + 0.02)/(1 + 0.04) = 1.9615
    growth = dict(rep.series["paraboloid-growth"])
    assert growth[1.0] == pytest.approx(1.9615, abs=0.07)


def test_intersection_zero_separation_reported_not_judged():
    rep = quick("intersection-hypothesis")
    assert 0.0 in dict(rep.series["diffeo-ratio-d0.04"])
    assert 0.0 not in dict(rep.series["paraboloid-growth"])
    # degenerate pair: intersection equals one band, so the ratio collapses
    # to measure/delta and stays nearly flat across the halving
    r0 = dict(rep.series["paraboloid-ratio-d0.04"])[0.0]
    r1 = dict(rep.series["paraboloid-ratio-d0.02"])[0.0]
    assert r1 / r0 == pytest.approx(1.0, abs=0.05)


def test_intersection_transversal_paraboloids_fail_degenerate_growth(monkeypatch):
    # the second paraboloid moved sideways by sep at the same level is a
    # distinct surface, transversal to the first: the intersection scales like
    # delta^2/sep, so the ratio like (delta + sep)/sep and one halving gives
    # (0.02 + 0.25)/(0.04 + 0.25) = 0.931, far below the growth floor
    real = ra.fan_out
    hits = []

    def sideways(fn, calls):
        moved = []
        for fam, delta, box, samples, seed in calls:
            (spec, xa, ta), (_, xb, _) = fam
            if spec.kind == "translated-paraboloid":
                fam = ((spec, xa, ta), (spec, (xb[2], 0.0, 0.0), 1.0))
            moved.append((fam, delta, box, samples, seed))
        results = real(fn, moved)
        hits.extend(mc.hits for (fam, *_), mc in zip(moved, results)
                    if fam[0][0].kind == "translated-paraboloid")
        return results

    monkeypatch.setattr(ra, "fan_out", sideways)
    rep = sc.run_scenario("intersection-hypothesis",
                          {"samples": 400_000, "separations": [0.25]})
    # decided, not withheld: every paraboloid cell has enough hits
    assert len(hits) == 2 and min(hits) >= ra.MC_MIN_HITS
    assert "inconclusive" not in [v.name for v in rep.verdicts]
    v = verdict(rep, "degenerate-growth")
    assert v.measured == pytest.approx(0.931, abs=0.1) and not v.passed


def test_intersection_coincident_spheres_fail_intersection_bound(monkeypatch):
    # the second warped sphere moved onto the first: the two bands coincide,
    # so the intersection is a whole band slab and the ratio far exceeds 50
    real = ra.fan_out

    def coincident(fn, calls):
        moved = []
        for fam, delta, box, samples, seed in calls:
            (spec, xa, ta), _ = fam
            if spec.kind == "diffeo-distance":
                fam = ((spec, xa, ta), (spec, xa, ta))
            moved.append((fam, delta, box, samples, seed))
        return real(fn, moved)

    monkeypatch.setattr(ra, "fan_out", coincident)
    rep = sc.run_scenario("intersection-hypothesis",
                          {"samples": 200_000, "separations": [1.0]})
    assert "inconclusive" not in [v.name for v in rep.verdicts]
    v = verdict(rep, "intersection-bound")
    assert v.measured > 2 * v.threshold and not v.passed


def test_intersection_repeated_separations_keep_their_volumes():
    # a separation given twice gets two seeds, so two volumes; each row of
    # paraboloid-growth divides one separation's ratios at the two deltas
    rep = sc.run_scenario("intersection-hypothesis",
                          {"separations": [0.25, 0.25], "samples": 200_000})
    coarse = [r for _, r in rep.series["paraboloid-ratio-d0.04"]]
    fine = [r for _, r in rep.series["paraboloid-ratio-d0.02"]]
    assert coarse[0] != coarse[1]
    growth = rep.series["paraboloid-growth"]
    assert growth == [(0.25, f / c) for c, f in zip(coarse, fine)]
    assert verdict(rep, "degenerate-growth").measured == min(v for _, v in growth)


def test_intersection_low_confidence_withholds_verdicts():
    rep = sc.run_scenario("intersection-hypothesis",
                          {"samples": 2000, "separations": [0.0, 1.0]})
    # both decisions are withheld; one failing verdict counts the weak cells
    assert [v.name for v in rep.verdicts] == ["inconclusive"]
    assert not rep.verdicts[0].passed
    assert rep.verdicts[0].measured == rep.params["low_confidence_cells"] > 0
    assert not rep.all_passed()


def test_intersection_validates_inputs():
    with pytest.raises(ArgumentError):
        sc.run_scenario("intersection-hypothesis",
                        {"deltas": [0.005], "separations": [1.0], "samples": 1000})
    with pytest.raises(ArgumentError):
        sc.run_scenario("intersection-hypothesis",
                        {"deltas": [0.04], "separations": [0.1], "samples": 1000})


def test_intersection_rejects_empty_sample_counts(monkeypatch):
    def no_volume(fn, calls):
        raise AssertionError("a volume was submitted")
    monkeypatch.setattr(ra, "fan_out", no_volume)
    for samples in (0, -5):
        with pytest.raises(ArgumentError, match="samples"):
            sc.run_scenario("intersection-hypothesis", {"samples": samples})


def test_intersection_volumes_run_on_forked_workers(monkeypatch, tmp_path):
    # every phase evaluation logs the process it ran in
    log = tmp_path / "pids"
    real = ra.eval_phase_batch

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(ra, "eval_phase_batch", logged)
    reports, pids = [], []
    for workers in (1, 2):
        monkeypatch.setattr(ra, "_usable_cpus", lambda n=workers: n)
        log.write_text("")
        reports.append(sc.run_scenario("intersection-hypothesis", {"samples": 20_000}, seed=2))
        pids.append(set(log.read_text().split()))
    one, two = reports
    assert one.params["mc_samples"] == 16 * 20_000
    assert 0 < one.params["mc_hits"] < one.params["mc_samples"]
    assert pids[0] == {str(os.getpid())}
    assert pids[1] and str(os.getpid()) not in pids[1]
    assert dataclasses.replace(two, wall_time=one.wall_time) == one
    assert_no_child()


def test_intersection_deterministic_per_seed():
    a = sc.run_scenario("intersection-hypothesis",
                        {"samples": 120_000, "separations": [1.0]}, seed=3)
    b = sc.run_scenario("intersection-hypothesis",
                        {"samples": 120_000, "separations": [1.0]}, seed=3)
    assert a.series == b.series


# ---------------------------------------------------------------------------
# interior failure
# ---------------------------------------------------------------------------

def test_interior_failure_area_positive():
    rep = quick("interior-failure")
    v = verdict(rep, "area-floor")
    assert v.passed
    assert v.measured == pytest.approx(2.90, abs=0.02)


def test_interior_failure_runs_shrink_with_depth():
    rep = quick("interior-failure")
    assert verdict(rep, "run-monotone").passed


def test_interior_failure_run_bound_fails_by_translate_chaining():
    # each slice is two translates of the center set; as the slice height
    # sweeps, one translate's intervals bridge the other's gaps and runs
    # chain at a coarser scale than the per-depth bound assumes
    rep = quick("interior-failure")
    v = verdict(rep, "run-bound")
    assert not v.passed
    assert v.measured > v.threshold


def test_interior_failure_depth2_bound_bookkeeping():
    rep = sc.run_scenario("interior-failure",
                          {"depths": [2], "deltas": [0.04], "n": 512, "probe_n": 2048})
    assert fr.fat_cantor(2).max_interval_length() == 0.15625
    h = 3.1 / 2048
    assert dict(rep.series["run-bound"])[2] == pytest.approx(0.3125 + 4 * h, rel=1e-12)


def test_interior_failure_rows_beyond_radius_are_empty():
    fam = ra.CircleFamily(fr.fat_cantor(3), 0.0, 1.0)
    ys = np.array([1.2, -1.2, 1.0 + 0.0101, -1.0 - 0.0101, 1.0, 0.0])
    shape, rows, lo, hi = fam.spans(ys, 0.01)
    # one shape per interval, with two spans on the row y = 0 and one on the
    # row y = 1, which misses the circle's hole
    assert len(fam) == len(fr.fat_cantor(3).intervals) == 8
    assert np.bincount(shape).tolist() == [3] * len(fam)
    # only the rows with |y| <= 1 + delta carry spans
    assert sorted(set(rows.tolist())) == [4, 5]
    assert np.all(lo <= hi)


def test_interior_failure_rejects_small_box():
    with pytest.raises(ArgumentError, match="box"):
        sc.run_scenario("interior-failure", {
            "depths": [3], "deltas": [0.04], "n": 64, "box": (-1.0, -1.0, 2.0, 1.0)})


def test_interior_failure_one_point_center_set_fails_area_floor(monkeypatch):
    # a center set of measure zero: every depth's family is one unit circle,
    # whose band has area 4 pi d, 0.126 at d = 0.01
    monkeypatch.setattr(fr, "fat_cantor", one_point)
    rep = sc.run_scenario("interior-failure", {"n": 512, "probe_n": 2048, "depths": [3, 4]})
    v = verdict(rep, "area-floor")
    assert v.measured == pytest.approx(4 * math.pi * 0.01, rel=0.05) and not v.passed


# ---------------------------------------------------------------------------
# kakeya compression
# ---------------------------------------------------------------------------

def test_kakeya_base_triangle_area():
    rep = quick("kakeya-compression")
    assert dict(rep.series["union-area"])[0] == pytest.approx(0.5, abs=0.01)


def test_kakeya_compression_verdicts():
    rep = quick("kakeya-compression")
    assert verdict(rep, "area-monotone").passed
    v = verdict(rep, "stage-compression")
    assert v.passed
    assert v.measured <= 0.35


def test_kakeya_directions_double_per_stage():
    rep = quick("kakeya-compression")
    assert dict(rep.series["directions"]) == {s: 2.0 ** s for s in range(6)}
    assert verdict(rep, "direction-coverage").measured == 1.0


def test_kakeya_rejects_deep_stages():
    for stages in ([7], [-1, 2]):
        with pytest.raises(ArgumentError):
            sc.run_scenario("kakeya-compression", {"stages": stages, "n": 64})


def test_kakeya_unslid_tree_fails_stage_compression(monkeypatch):
    # with no slide every stage's union is the base triangle
    monkeypatch.setattr(fr, "perron_overlap", lambda level: 0.0)
    rep = sc.run_scenario("kakeya-compression", {"n": 256})
    v = verdict(rep, "stage-compression")
    assert v.measured == pytest.approx(1.0) and not v.passed


def test_kakeya_moved_apex_fails_direction_coverage(monkeypatch):
    tris = fr.perron_tree(3).triangles.copy()
    tris[2, 2, 0] += 5.0            # wedge 2 no longer covers its directions
    monkeypatch.setattr(fr, "perron_tree", lambda stage: fr.TriangleSet(tris))
    # the grid must hold the moved apex (x about 5.33), or the box check refuses it
    rep = sc.run_scenario("kakeya-compression",
                          {"n": 256, "stages": [3], "box": (-2.0, -1.0, 6.0, 1.5)})
    v = verdict(rep, "direction-coverage")
    assert v.measured == 0.0 and not v.passed


# ---------------------------------------------------------------------------
# bourgain compression
# ---------------------------------------------------------------------------

def test_bourgain_seeded_sweep_stays_on_surface():
    rep = quick("bourgain-compression")
    v = verdict(rep, "hypersurface-identity")
    assert v.passed
    assert v.measured <= 1e-12
    assert rep.series["max-residual"][0][0] == 10_000


def test_bourgain_rejects_malformed_params():
    with pytest.raises(ArgumentError, match="positive"):
        sc.run_scenario("bourgain-compression", {"samples": 0})


def test_bourgain_wrong_coefficient_fails_identity(monkeypatch):
    def off_surface(y1, y2, t):
        x, y, z = bourgain_curve(y1, y2, t)
        return x - 0.01 * t * t * y1, y, z      # t^2 y1 coefficient 1.01

    monkeypatch.setattr(sc.phase, "bourgain_curve", off_surface)
    rep = sc.run_scenario("bourgain-compression", {"samples": 100})
    assert not verdict(rep, "hypersurface-identity").passed


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------

def test_transversality_line_matches_cosine():
    rep = quick("transversality")
    assert verdict(rep, "jacobian-matches-cosine").measured <= 1e-3
    assert verdict(rep, "transversal-floor").measured >= 0.49


def test_transversality_arc_matches_cosine_too():
    # moving-frame offset: curvature cancels in the determinant, so the
    # arc obeys the same |cos u| law as the straight line
    rep = sc.run_scenario("transversality", {"curve": "arc"})
    assert verdict(rep, "jacobian-matches-cosine").passed
    assert verdict(rep, "transversal-floor").measured >= 0.49


def test_transversality_degenerate_and_clean_angles():
    rep = quick("transversality")
    rows = dict(rep.series["jacobian-min-by-u"])
    u = np.linspace(0.0, math.pi / 2, 100)
    assert rows[u[0]] == pytest.approx(1.0, abs=1e-6)
    assert rows[u[-1]] <= 1e-3
    assert rows[u[66]] == pytest.approx(0.5, abs=1e-3)  # u = pi/3 exactly


def test_transversality_perturbed_offset_map_fails_cosine(monkeypatch):
    def stretched(curve, ts, us):
        g, tan, nor = sc._frame(curve, ts)
        return g + np.cos(us)[..., None] * tan + 1.01 * np.sin(us)[..., None] * nor

    monkeypatch.setattr(sc, "_offset_map", stretched)
    rep = sc.run_scenario("transversality", {"samples": 16})
    v = verdict(rep, "jacobian-matches-cosine")
    assert v.measured == pytest.approx(0.01, rel=1e-3) and not v.passed


def test_transversality_shrunk_offset_fails_transversal_floor(monkeypatch):
    # an offset of radius 0.9 scales the Jacobian to 0.9 |cos u|, which is
    # 0.45 at u = pi/3, below the 0.49 floor
    def shrunk(curve, ts, us):
        g, tan, nor = sc._frame(curve, ts)
        return g + 0.9 * (np.cos(us)[..., None] * tan + np.sin(us)[..., None] * nor)

    monkeypatch.setattr(sc, "_offset_map", shrunk)
    rep = sc.run_scenario("transversality", {"samples": 16})
    v = verdict(rep, "transversal-floor")
    assert v.measured == pytest.approx(0.45, abs=1e-6) and not v.passed


def test_transversality_validates_curve_and_grid():
    with pytest.raises(ArgumentError, match="curve"):
        sc.run_scenario("transversality", {"curve": "helix"})
    with pytest.raises(ArgumentError, match="4x4"):
        sc.run_scenario("transversality", {"samples": 3})


@pytest.mark.parametrize("step", [0.0, -1e-6])
def test_transversality_refuses_a_step_that_is_not_positive(step):
    # a zero step divided by zero (NaN Jacobians and two RuntimeWarnings)
    # before any check, and a negative one ran on unnoticed
    with pytest.raises(ArgumentError, match="fd_step must be positive"):
        sc.run_scenario("transversality", {"fd_step": step})
