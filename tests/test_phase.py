import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab import phase as ph
from gmtlab.errors import ArgumentError, EmptyLevelError, SingularityError
from gmtlab.scenarios import _mc_boxes

BOX = ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))


def seeded_pairs(dim, n, seed, min_gap=0.3):
    """Random (x, y) pairs in [-1.5, 1.5]^dim, kept away from coincidence."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = rng.uniform(-1.5, 1.5, dim)
        y = rng.uniform(-1.5, 1.5, dim)
        if np.linalg.norm(x - y) >= min_gap and np.linalg.norm(x) >= min_gap:
            out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_dot_product_unit_vectors():
    spec = ph.PhaseSpec("dot-product", 2)
    assert ph.eval_phase(spec, (1.0, 0.0), (1.0, 0.0)) == 1.0


def test_eval_unit_distance_3_4_5():
    spec = ph.PhaseSpec("unit-distance", 2)
    assert ph.eval_phase(spec, (0.0, 0.0), (3.0, 4.0)) == 5.0


def test_eval_paraboloid_substitution():
    spec = ph.PhaseSpec("translated-paraboloid", 3)
    assert ph.eval_phase(spec, (0, 0, 0), (1, 1, 3)) == pytest.approx(1.0, abs=1e-15)


def test_eval_distance_at_coincidence_is_zero():
    for kind in ("unit-distance", "diffeo-distance"):
        spec = ph.PhaseSpec(kind, 3)
        y = np.array([0.4, -0.2, 0.9])
        x = y if kind == "unit-distance" else ph.diffeo_map(spec, y)
        assert ph.eval_phase(spec, x, y) == pytest.approx(0.0, abs=1e-15)


def test_batch_matches_scalar_eval():
    rng = np.random.default_rng(11)
    for kind in ph.ALL_KINDS:
        dim = 3
        spec = ph.PhaseSpec(kind, dim)
        x = rng.uniform(-1, 1, dim)
        ys = rng.uniform(-1, 1, (20, dim))
        batch = ph.eval_phase_batch(spec, x, ys)
        singles = [ph.eval_phase(spec, x, y) for y in ys]
        assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def _roll_diffeo_map(spec, ys):
    return ys + spec.kappa * np.sin(np.roll(ys, -1, axis=-1))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("rows", [(4099,), (37, 53)])
def test_batch_bit_equal_to_norm_and_roll_formulas(dim, kappa, rows):
    rng = np.random.default_rng(dim * 100 + len(rows))
    ys = rng.uniform(-2.0, 2.0, rows + (dim,))
    x = rng.uniform(-1.0, 1.0, dim)
    diffeo = ph.PhaseSpec("diffeo-distance", dim, {"kappa": kappa})
    diff = ys[..., :-1] - x[:-1]
    expected = [
        (diffeo, np.linalg.norm(_roll_diffeo_map(diffeo, ys) - x, axis=-1)),
        (ph.PhaseSpec("unit-distance", dim), np.linalg.norm(ys - x, axis=-1)),
        (ph.PhaseSpec("translated-paraboloid", dim),
         ys[..., -1] - x[-1] - np.sum(diff * diff, axis=-1)),
    ]
    for spec, want in expected:
        got = ph.eval_phase_batch(spec, x, ys)
        assert got.shape == rows
        assert np.array_equal(got, want), spec.kind
    assert np.array_equal(ph.diffeo_map(diffeo, ys), _roll_diffeo_map(diffeo, ys))
    assert np.array_equal(ph.diffeo_map(diffeo, ys[0]), _roll_diffeo_map(diffeo, ys[0]))


def test_dimension_mismatch_rejected():
    spec = ph.PhaseSpec("dot-product", 3)
    with pytest.raises(ArgumentError):
        ph.eval_phase(spec, (1.0, 0.0), (1.0, 0.0, 0.0))


def test_spec_validation():
    with pytest.raises(ArgumentError):
        ph.PhaseSpec("no-such-kind", 2)
    with pytest.raises(ArgumentError):
        ph.PhaseSpec("dot-product", 1)
    for gone in ("max-norm", "bourgain-curve"):     # no longer phase kinds
        with pytest.raises(ArgumentError):
            ph.PhaseSpec(gone, 3)
    with pytest.raises(ArgumentError):
        ph.PhaseSpec("diffeo-distance", 3, {"kappa": 1.0})


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_dot_product_gradients_closed_form():
    spec = ph.PhaseSpec("dot-product", 3)
    x = np.array([0.3, -0.7, 0.2])
    y = np.array([1.1, 0.4, -0.5])
    gx, gy, mixed = ph.gradients(spec, x, y)
    assert np.array_equal(gx, y)
    assert np.array_equal(gy, x)
    assert np.array_equal(mixed, np.eye(3))


def test_unit_distance_gradients_closed_form():
    spec = ph.PhaseSpec("unit-distance", 2)
    gx, gy, mixed = ph.gradients(spec, (0.0, 0.0), (1.0, 0.0))
    assert np.allclose(gx, (-1.0, 0.0), atol=1e-15)
    assert np.allclose(gy, (1.0, 0.0), atol=1e-15)
    assert np.allclose(mixed, [[0.0, 0.0], [0.0, -1.0]], atol=1e-15)


def test_distance_singularity_raises():
    spec = ph.PhaseSpec("unit-distance", 3)
    with pytest.raises(SingularityError):
        ph.gradients(spec, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3))
    dspec = ph.PhaseSpec("diffeo-distance", 3)
    y = np.array([0.4, -0.1, 0.2])
    with pytest.raises(SingularityError):
        ph.gradients(dspec, ph.diffeo_map(dspec, y), y)


def test_analytic_vs_fd_gradients_all_smooth_kinds():
    # 100 seeded pairs per kind, every component within relative 1e-4; the
    # seed is the kind's index, which unlike hash(kind) is the same every run
    for seed, kind in enumerate(ph.ALL_KINDS):
        dim = 3
        spec = ph.PhaseSpec(kind, dim)
        for i, (x, y) in enumerate(seeded_pairs(dim, 100, seed=seed)):
            gx, gy, mixed = ph.gradients(spec, x, y)
            fgx, fgy, fmixed = ph.gradients_fd(spec, x, y)
            for a, b in ((gx, fgx), (gy, fgy), (mixed, fmixed)):
                scale = max(1e-8, float(np.max(np.abs(a))))
                assert np.max(np.abs(a - b)) <= 1e-4 * scale, (kind, i)


# ---------------------------------------------------------------------------
# rotational curvature
# ---------------------------------------------------------------------------

def test_curvature_dot_product_equals_inner_product():
    spec = ph.PhaseSpec("dot-product", 3)
    for x, y in seeded_pairs(3, 100, seed=5):
        det = ph.rotational_curvature(spec, x, y)
        assert det == pytest.approx(float(x @ y), rel=1e-12, abs=1e-12)
        fd = ph.rotational_curvature_fd(spec, x, y)
        assert fd == pytest.approx(det, rel=1e-4, abs=1e-6)


def test_curvature_unit_distance_magnitude():
    # |det| = r^{-(d-1)}, sign (-1)^d
    spec2 = ph.PhaseSpec("unit-distance", 2)
    assert ph.rotational_curvature(spec2, (0, 0), (1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert ph.rotational_curvature(spec2, (0, 0), (0.5, 0.0)) == pytest.approx(2.0, rel=1e-12)
    spec3 = ph.PhaseSpec("unit-distance", 3)
    assert ph.rotational_curvature(spec3, (0, 0, 0), (1.0, 0, 0)) == pytest.approx(-1.0, rel=1e-12)
    assert ph.rotational_curvature(spec3, (0, 0, 0), (2.0, 0, 0)) == pytest.approx(-0.25, rel=1e-12)
    rng = np.random.default_rng(2)
    for d in (2, 3, 4, 5):
        spec = ph.PhaseSpec("unit-distance", d)
        x = rng.uniform(-1, 1, d)
        y = x + rng.normal(size=d) * 0.7
        r = np.linalg.norm(x - y)
        expect = (-1.0) ** d * r ** (-(d - 1))
        assert ph.rotational_curvature(spec, x, y) == pytest.approx(expect, rel=1e-10)


def test_curvature_paraboloid_constant():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        spec = ph.PhaseSpec("translated-paraboloid", d)
        for _ in range(10):
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            det = ph.rotational_curvature(spec, x, y)
            assert det == pytest.approx(-float(2 ** (d - 1)), rel=1e-12)


def test_curvature_analytic_vs_fd_all_smooth_kinds():
    # abs floor: the 4-point mixed stencil cancels to ~1e-16/(4h^2) per entry,
    # so determinants below ~1e-5 are inside finite-difference noise
    for kind in ph.ALL_KINDS:
        spec = ph.PhaseSpec(kind, 3)
        for x, y in seeded_pairs(3, 100, seed=99):
            det = ph.rotational_curvature(spec, x, y)
            fd = ph.rotational_curvature_fd(spec, x, y)
            assert fd == pytest.approx(det, rel=1e-4, abs=1e-5), kind


def test_curvature_diffeo_kappa_zero_reduces_to_unit_distance():
    dd = ph.PhaseSpec("diffeo-distance", 3, {"kappa": 0.0})
    ud = ph.PhaseSpec("unit-distance", 3)
    for x, y in seeded_pairs(3, 25, seed=13):
        assert ph.rotational_curvature(dd, x, y) == pytest.approx(
            ph.rotational_curvature(ud, x, y), rel=1e-12
        )


def test_unit_distance_rotation_invariance():
    spec = ph.PhaseSpec("unit-distance", 3)
    rng = np.random.default_rng(21)
    x = np.array([0.2, -0.4, 0.1])
    y = np.array([1.0, 0.3, -0.5])
    vals = []
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        vals.append(ph.rotational_curvature(spec, q @ x, q @ y))
    assert max(vals) - min(vals) < 1e-6


def test_nonvanishing_on_unit_level_sets():
    # |det| >= 0.99 on {x.y = 1} and {|x-y| = 1}
    rng = np.random.default_rng(31)
    dot = ph.PhaseSpec("dot-product", 3)
    for _ in range(50):
        x = rng.uniform(0.5, 1.5, 3)
        y = rng.uniform(-1, 1, 3)
        y = y + (1.0 - x @ y) / (x @ x) * x  # project onto the level set
        assert abs(ph.rotational_curvature(dot, x, y)) >= 0.99
    unit = ph.PhaseSpec("unit-distance", 3)
    for _ in range(50):
        x = rng.uniform(-1, 1, 3)
        w = rng.normal(size=3)
        y = x + w / np.linalg.norm(w)
        assert abs(ph.rotational_curvature(unit, x, y)) >= 0.99


# ---------------------------------------------------------------------------
# diffeo helpers
# ---------------------------------------------------------------------------

def test_diffeo_inverse_roundtrip():
    spec = ph.PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.uniform(-2, 2, 3)
        y = ph.diffeo_inverse(spec, z)
        assert np.max(np.abs(ph.diffeo_map(spec, y) - z)) < 1e-12


def test_diffeo_jacobian_nonsingular_on_box():
    spec = ph.PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
    pts = np.random.default_rng(0).uniform(BOX[0], BOX[1], size=(200, 3))
    assert min(abs(np.linalg.det(ph.diffeo_jacobian(spec, p))) for p in pts) > 0.5


def test_diffeo_jacobian_matches_fd():
    spec = ph.PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
    y = np.array([0.7, -0.2, 1.1])
    jac = ph.diffeo_jacobian(spec, y)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = (ph.diffeo_map(spec, y + e) - ph.diffeo_map(spec, y - e)) / (2 * h)
        assert np.allclose(col, jac[:, j], atol=1e-9)


# ---------------------------------------------------------------------------
# float32 screen of the diffeo distance
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), kappa=st.floats(-0.999, 0.999),
       bound=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1))
def test_screened_distance_within_margin(dim, kappa, bound, seed):
    spec = ph.PhaseSpec("diffeo-distance", dim, {"kappa": kappa})
    rng = np.random.default_rng(seed)
    us = rng.random((515, dim))
    us[0], us[1] = 1.0, 0.0                     # corners of the box
    lo, width = np.full(dim, -bound), np.full(dim, 2.0 * bound)
    ys = us * width + lo                        # rng.uniform(-bound, bound) of these draws
    x = rng.uniform(-bound, bound, dim)
    exact = ph.eval_phase_batch(spec, x, ys)
    t = exact[2]                                # a level through one sample
    margin = ph.screen_margin(spec, x, t, bound)
    screened = ph.screened_distance(spec, x, us, lo, width)
    assert np.max(np.abs(screened - exact)) <= margin
    # the screen keeps every row the exact test keeps, at the tightest delta
    # that keeps it: |exact - t| itself
    tight = np.abs(exact - t)
    assert np.all(np.abs(screened - t) <= tight + margin)


def exact_keeps(spec, x, t, delta, us, lo, width):
    """monte_carlo_intersection's exact test of unit rows us, scaled as it scales them."""
    return np.abs(ph.eval_phase_batch(spec, x, us * width + lo) - t) <= delta


def band_edge_rows(spec, x, t, delta, lo, width, seed):
    """Unit rows at both edges of the band |phi(x, y) - t| <= delta.

    Each row starts at a draw the exact test keeps, and one coordinate is
    bisected toward a box face the exact test drops, down to adjacent
    doubles.  Returns the rows with that coordinate at one ulp before the
    last value the exact test keeps, at that value, at the first value it
    drops and one ulp past it, in four blocks; and phi - t at the kept value.
    """
    rng = np.random.default_rng(seed)
    us = rng.random((1 << 16, spec.dim))
    us = us[exact_keeps(spec, x, t, delta, us, lo, width)]
    k = rng.integers(spec.dim, size=len(us))
    b = np.where(rng.random(len(us)) < 0.5, 0.0, np.nextafter(1.0, 0.0))
    faces = us.copy()
    faces[np.arange(len(us)), k] = b
    drops = ~exact_keeps(spec, x, t, delta, faces, lo, width)
    us, k, b = us[drops], k[drops], b[drops]
    rows = np.arange(len(us))
    a = us[rows, k]

    def moved(values):
        out = us.copy()
        out[rows, k] = values
        return out

    while np.any(np.nextafter(a, b) != b):
        mid = 0.5 * (a + b)
        keep = exact_keeps(spec, x, t, delta, moved(mid), lo, width)
        a, b = np.where(keep, mid, a), np.where(keep, b, mid)
    outward = np.where(b > a, np.inf, -np.inf)
    edge = [np.nextafter(a, -outward), a, b, np.nextafter(b, outward)]
    dev = ph.eval_phase_batch(spec, x, moved(a) * width + lo) - t
    return np.concatenate([moved(values) for values in edge]), dev


FAR = np.array([1e5, -1e5, 1e5])
EDGE_BOXES = [(_mc_boxes(sep, 0.04)[0], (0.0, 0.0, 0.0)) for sep in (0.0, 0.25, 0.5, 1.0)]
EDGE_BOXES.append(((FAR - 1.45, FAR + 1.45), FAR))


@pytest.mark.parametrize("kappa", [0.3, 0.95, -0.95])
@pytest.mark.parametrize("box, x", EDGE_BOXES)
def test_screen_keeps_every_row_at_the_band_edges(kappa, box, x):
    # rows within an ulp of t -+ delta are where a margin that missed an
    # error term would drop a row the exact test keeps; the scenario's band A
    # in its boxes, and one far out
    spec = ph.PhaseSpec("diffeo-distance", 3, {"kappa": kappa})
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    width, x, t, delta = hi - lo, np.asarray(x), 1.0, 0.02
    us, dev = band_edge_rows(spec, x, t, delta, lo, width, seed=len(EDGE_BOXES))
    n = len(dev)
    assert np.sum(dev > 0) >= 200 and np.sum(dev < 0) >= 200   # both edges
    assert np.max(np.abs(np.abs(dev) - delta)) <= 1e-9
    kept = exact_keeps(spec, x, t, delta, us, lo, width)
    assert kept[n:2 * n].all() and not kept[2 * n:3 * n].any()
    margin = ph.screen_margin(spec, x, t, float(np.max(np.abs(box))))
    screened = ph.screened_distance(spec, x, us, lo, width).astype(float)
    assert np.all(np.abs(screened[kept] - t) <= delta + margin)


def test_float32_sin_within_assumed_error():
    # SIN32_ERROR is an assumption about the installed numpy's float32 sin:
    # small and large arguments up to SCREEN_MAX_COORD, and the multiples of
    # pi/2 there, where the argument reduction is hardest
    rng = np.random.default_rng(0)
    args = np.concatenate([
        rng.uniform(-4.0, 4.0, 1 << 18),
        rng.uniform(-ph.SCREEN_MAX_COORD, ph.SCREEN_MAX_COORD, 1 << 18),
        np.arange(-(1 << 19), 1 << 19) * (np.pi / 2),
    ]).astype(np.float32)
    assert len(args) >= 10**6
    assert np.max(np.abs(args)) <= ph.SCREEN_MAX_COORD
    err = np.abs(np.sin(args) - np.sin(args.astype(np.float64)))
    assert np.max(err) <= ph.SIN32_ERROR


def test_screen_margin_only_for_diffeo_in_range():
    x, t = (0.0, 0.0, 0.0), 1.0
    diffeo = ph.PhaseSpec("diffeo-distance", 3, {"kappa": 0.3})
    assert 0.0 < ph.screen_margin(diffeo, x, t, 1.45) < 2.8e-6
    assert ph.screen_margin(diffeo, x, t, 2.0 * ph.SCREEN_MAX_COORD) is None
    assert ph.screen_margin(diffeo, x, t, float("nan")) is None
    for kind in ("unit-distance", "translated-paraboloid"):
        assert ph.screen_margin(ph.PhaseSpec(kind, 3), x, t, 1.45) is None


# ---------------------------------------------------------------------------
# level-set sampling
# ---------------------------------------------------------------------------

def test_level_points_unit_circle():
    spec = ph.PhaseSpec("unit-distance", 2)
    pts = ph.level_points(spec, (0.0, 0.0), 1.0, 4, seed=0)
    assert len(pts) == 4
    for p in pts:
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-10


def test_level_points_dot_product_vertical_line():
    spec = ph.PhaseSpec("dot-product", 2)
    pts = ph.level_points(spec, (1.0, 0.0), 1.0, 6, seed=1)
    for p in pts:
        assert p[0] == pytest.approx(1.0, abs=1e-10)


def test_level_points_paraboloid_graph():
    spec = ph.PhaseSpec("translated-paraboloid", 3)
    pts = ph.level_points(spec, (0.0, 0.0, 0.0), 1.0, 8, seed=2)
    for p in pts:
        assert p[2] == pytest.approx(1.0 + p[0] ** 2 + p[1] ** 2, abs=1e-10)


def test_level_points_tolerance_all_kinds():
    xs = {
        "unit-distance": np.zeros(3),
        "dot-product": np.array([1.0, 0.2, -0.3]),
        "translated-paraboloid": np.array([0.1, 0.0, -0.2]),
        "diffeo-distance": np.array([0.2, 0.3, 0.1]),
    }
    assert sorted(xs) == sorted(ph.ALL_KINDS)
    for kind, x in xs.items():
        spec = ph.PhaseSpec(kind, 3)
        t = 0.8
        pts = ph.level_points(spec, x, t, 5, seed=7)
        assert len(pts) >= 1
        for p in pts:
            assert abs(ph.eval_phase(spec, x, p) - t) <= 1e-10, kind


def test_level_points_deterministic_given_seed():
    spec = ph.PhaseSpec("diffeo-distance", 3)
    a = ph.level_points(spec, (0.0, 0.0, 0.0), 1.0, 6, seed=42)
    b = ph.level_points(spec, (0.0, 0.0, 0.0), 1.0, 6, seed=42)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_level_points_empty_level_raises(monkeypatch):
    # a Newton solve that never moves leaves every point off the level
    monkeypatch.setattr(ph, "diffeo_inverse", lambda spec, z: z)
    spec = ph.PhaseSpec("diffeo-distance", 3)
    with pytest.raises(EmptyLevelError):
        ph.level_points(spec, (0.3, 0.2, 0.4), 1.0, 4, seed=0)


def test_level_points_count_validation():
    spec = ph.PhaseSpec("unit-distance", 2)
    with pytest.raises(ArgumentError):
        ph.level_points(spec, (0.0, 0.0), 1.0, 0, seed=0)
    with pytest.raises(ArgumentError):
        ph.level_points(spec, (0.0, 0.0), -1.0, 4, seed=0)


# ---------------------------------------------------------------------------
# frozen-parameter curve family
# ---------------------------------------------------------------------------

def test_bourgain_curve_example_point():
    X, Y, Z = ph.bourgain_curve(1.0, 2.0, 0.5)
    assert (X, Y, Z) == (-1.25, -2.5, 0.5)
    assert X - Y * Z == 0.0


def test_bourgain_curve_identity_seeded():
    rng = np.random.default_rng(17)
    y1 = rng.uniform(-2, 2, 10_000)
    y2 = rng.uniform(-2, 2, 10_000)
    t = rng.uniform(-1, 1, 10_000)
    X, Y, Z = ph.bourgain_curve(y1, y2, t)
    assert np.max(np.abs(X - Y * Z)) <= 1e-12


def test_bourgain_curve_t_zero_degenerates():
    X, Y, Z = ph.bourgain_curve(0.7, 1.3, 0.0)
    assert (X, Y, Z) == (0.0, -1.3, 0.0)
