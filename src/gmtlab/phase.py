"""Two-point phase families and their rotational curvature.

A phase is a scalar function phi(x, y) of two d-dimensional points.  The
families here are the ones the experiment scenarios need: Euclidean distance,
dot product, a translated paraboloid graph, and distance measured after a
smooth warp of the y variable.  All four are smooth away from their
singularities.  The cubic curve family whose curves lie in the surface
X = Y*Z is given by its frozen-parameter curves (bourgain_curve), not as a
phase kind.

Curvature of a family at (x, y) is the determinant of the (d+1) x (d+1)
bordered matrix

    [ 0          grad_x phi ]
    [ -grad_y phi^T   d2phi/dxdy ]

which is nonzero exactly when the level surfaces curve in the way the
positivity scenarios rely on.  Analytic derivative formulas are provided for
every family; an independent central finite-difference path exists so
the two can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, EmptyLevelError, SingularityError

KIND_UNIT_DISTANCE = "unit-distance"
KIND_DOT_PRODUCT = "dot-product"
KIND_PARABOLOID = "translated-paraboloid"
KIND_DIFFEO_DISTANCE = "diffeo-distance"

ALL_KINDS = (
    KIND_UNIT_DISTANCE,
    KIND_DOT_PRODUCT,
    KIND_PARABOLOID,
    KIND_DIFFEO_DISTANCE,
)

FD_STEP = 1e-5          # central-difference step for the independent oracle
LEVEL_TOL = 1e-10       # |phi(x, y) - t| tolerance for level-set points

DEFAULT_KAPPA = 0.3


@dataclass(frozen=True)
class PhaseSpec:
    """A member of the phase catalogue: kind tag, ambient dimension, parameters."""

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ArgumentError(f"unknown phase kind {self.kind!r}")
        if self.dim < 2:
            raise ArgumentError("phase families need dim >= 2")
        if self.kind == KIND_DIFFEO_DISTANCE:
            kappa = self.params.get("kappa", DEFAULT_KAPPA)
            if abs(kappa) >= 1.0:
                raise ArgumentError("diffeo-distance needs |kappa| < 1 to stay invertible")

    @property
    def kappa(self) -> float:
        return float(self.params.get("kappa", DEFAULT_KAPPA))


def _check_pair(spec: PhaseSpec, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise ArgumentError(
            f"point dimension mismatch: kind {spec.kind} has dim {spec.dim}, "
            f"got shapes {x.shape} and {y.shape}"
        )
    return x, y


# ---------------------------------------------------------------------------
# warp used by the diffeo-distance family
# ---------------------------------------------------------------------------

def diffeo_map(spec: PhaseSpec, y):
    """Phi(y) = y + kappa * (sin y_2, sin y_3, ..., sin y_1), vectorized over rows."""
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    phi = np.empty_like(y)
    for i in range(d):
        col = phi[..., i]
        np.sin(y[..., (i + 1) % d], out=col)
        col *= spec.kappa
        col += y[..., i]
    return phi


def diffeo_jacobian(spec: PhaseSpec, y):
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    jac = np.eye(d)
    cos = spec.kappa * np.cos(np.roll(y, -1))
    for i in range(d):
        jac[i, (i + 1) % d] += cos[i]
    return jac


def diffeo_inverse(spec: PhaseSpec, z):
    """Solve Phi(y) = z by Newton iteration.  Converges for |kappa| < 1."""
    z = np.asarray(z, dtype=float)
    y = z.copy()
    for _ in range(60):
        res = diffeo_map(spec, y) - z
        if np.max(np.abs(res)) < 1e-13:
            break
        y = y - np.linalg.solve(diffeo_jacobian(spec, y), res)
    return y


SIN32_ERROR = 2.0 ** -21      # assumed |float32 sin(v) - sin(v)| for float32 v (8 ULP of 1)
SCREEN_MAX_COORD = 2.0 ** 20  # largest |y_i| the float32 screen is used for


def screen_margin(spec: PhaseSpec, x, t: float, bound: float):
    """Bound on |screened_distance - eval_phase_batch| in boxes inside [-bound, bound]^d.

    None means the kind has no screen (only diffeo-distance has one), or
    bound exceeds SCREEN_MAX_COORD, or the margin is not finite.  Write
    e = 2**-24 (float32's unit roundoff), y = lo + u * w for the float64 row
    the exact test sees, and R = bound + |kappa| + max|x_i|.  The bounds are
    to first order in e; the slack at the end covers the rest.

    Coordinates: y' = f32(f32(f32(u) * f32(w)) + f32(lo)), three casts and
    two roundings, is within e * (3|w| + |lo| + |y|) <= 8 * bound * e = E of y,
    as |w| <= 2 * bound and |lo|, |y| <= bound (below float32's normal range
    a cast or a product is off by at most 2**-149 more).
    Sines: sin is 1-Lipschitz, so s'_j = sin32(y'_j) is within
    SIN32_ERROR + E of sin y_j (y'_j passes bound by at most E, which the
    sine assumption's test range is taken to cover).
    Phi' - x: coordinate i is c_i = f32(f32(y'_i - f32(x_i)) + f32(f32(kappa) * s'_j))
    with j = i + 1 mod d.  y'_i brings E, the sine |kappa| * (SIN32_ERROR + E),
    and the casts of x_i and kappa and the three roundings at most
    e * (3|x_i| + 2 * bound + 3|kappa|) <= 3 * R * e.  So each c_i is within
    (1 + |kappa|) * E + |kappa| * SIN32_ERROR + 3 * R * e of (Phi(y) - x)_i,
    and |c| within sqrt(d) times that of |Phi(y) - x|.
    Norm: d squares, d - 1 additions and a sqrt in float32 are off by at
    most (d / 2 + 1) * e * |c| <= (d / 2 + 1) * e * sqrt(d) * R (squares that
    underflow add at most sqrt(d * 2**-149)).
    In all, the screen is off by at most
        sqrt(d) * ((1 + |kappa|) * E + |kappa| * SIN32_ERROR + (d / 2 + 4) * R * e).
    monte_carlo_intersection rounds the band's edges t -+ (delta + margin)
    outward to float32, so its float32 comparison adds nothing.  Rounding in
    the float64 evaluation and its comparison with t and delta, and the
    terms of second order in e, stay below the slack
    d**2 * 2**-40 * (1 + R + |t|).
    """
    if spec.kind != KIND_DIFFEO_DISTANCE or not bound <= SCREEN_MAX_COORD:
        return None
    d, kappa = spec.dim, abs(spec.kappa)
    reach = bound + kappa + float(np.max(np.abs(x)))
    e = 2.0 ** -24
    margin = (np.sqrt(d) * ((1.0 + kappa) * 8.0 * bound * e + kappa * SIN32_ERROR
                            + (d / 2 + 4) * reach * e)
              + d * d * (1.0 + reach + abs(t)) * 2.0 ** -40)
    return margin if np.isfinite(margin) else None


def screened_distance(spec: PhaseSpec, x, us, lo, width) -> np.ndarray:
    """|Phi'(y) - x| in float32 at y = lo + u * width for the (m, d) unit rows us.

    One cast of us to a transposed (d, m) float32 array, which is scaled
    and shifted in float32 and takes one float32 sin; Phi' - x and the
    distance are formed in float32 a contiguous row at a time.
    screen_margin bounds the difference from eval_phase_batch at the float64
    points rng.uniform(lo, lo + width) gives for the same draws.
    """
    f32 = np.float32
    y = np.array(us.T, dtype=f32, order="C")
    y *= np.asarray(width, f32)[:, None]
    y += np.asarray(lo, f32)[:, None]
    s = np.sin(y)
    s *= f32(spec.kappa)
    y -= np.asarray(x, f32)[:, None]
    y[:-1] += s[1:]
    y[-1] += s[0]
    y *= y
    acc = y[0]
    for row in y[1:]:
        acc += row
    return np.sqrt(acc, out=acc)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_phase(spec: PhaseSpec, x, y) -> float:
    x, y = _check_pair(spec, x, y)
    return float(eval_phase_batch(spec, x, y[None, :])[0])


def _squared_distance(ys, x):
    """sum_i (ys[..., i] - x[i])**2, one column at a time, in index order.

    numpy sums fewer than eight terms in index order too, so below dimension 8
    this is np.linalg.norm(ys - x, axis=-1)**2 and np.sum((ys - x)**2, axis=-1)
    bit for bit, without their (rows, d) temporaries.
    """
    acc = ys[..., 0] - x[0]
    acc *= acc
    term = np.empty_like(acc)
    for i in range(1, ys.shape[-1]):
        np.subtract(ys[..., i], x[i], out=term)
        term *= term
        acc += term
    return acc


def eval_phase_batch(spec: PhaseSpec, x, ys) -> np.ndarray:
    """phi(x, y_i) for a batch of y rows.  Used by rasterization and Monte Carlo."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    kind = spec.kind
    if kind == KIND_UNIT_DISTANCE:
        return np.sqrt(_squared_distance(ys, x))
    if kind == KIND_DOT_PRODUCT:
        return ys @ x
    if kind == KIND_PARABOLOID:
        # the whole sum is subtracted at once; square by square rounds differently
        return ys[..., -1] - x[-1] - _squared_distance(ys[..., :-1], x[:-1])
    # KIND_DIFFEO_DISTANCE, the last kind PhaseSpec admits
    return np.sqrt(_squared_distance(diffeo_map(spec, ys), x))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def gradients(spec: PhaseSpec, x, y):
    """Analytic (grad_x phi, grad_y phi, d2 phi/dx dy) with mixed[i, j] = d2/dx_i dy_j."""
    x, y = _check_pair(spec, x, y)
    d = spec.dim
    kind = spec.kind

    if kind == KIND_DOT_PRODUCT:
        return y.copy(), x.copy(), np.eye(d)

    if kind == KIND_UNIT_DISTANCE:
        diff = x - y
        r = np.linalg.norm(diff)
        if r < 1e-12:
            raise SingularityError("unit-distance phase is singular at x == y")
        u = diff / r
        mixed = (np.outer(u, u) - np.eye(d)) / r
        return u, -u, mixed

    if kind == KIND_PARABOLOID:
        w = y[:-1] - x[:-1]
        gx = np.concatenate([2.0 * w, [-1.0]])
        gy = np.concatenate([-2.0 * w, [1.0]])
        mixed = np.zeros((d, d))
        mixed[: d - 1, : d - 1] = 2.0 * np.eye(d - 1)
        return gx, gy, mixed

    # KIND_DIFFEO_DISTANCE, the last kind PhaseSpec admits
    z = diffeo_map(spec, y) - x
    rho = np.linalg.norm(z)
    if rho < 1e-12:
        raise SingularityError("diffeo-distance phase is singular at Phi(y) == x")
    u = z / rho
    dphi = diffeo_jacobian(spec, y)
    gx = -u
    gy = dphi.T @ u
    mixed = (np.outer(u, u @ dphi) - dphi) / rho
    return gx, gy, mixed


def gradients_fd(spec: PhaseSpec, x, y):
    """Central differences of step FD_STEP; independent oracle for the analytic path."""
    x, y = _check_pair(spec, x, y)
    d, h = spec.dim, FD_STEP
    eye = h * np.eye(d)
    gx = np.array([
        (eval_phase(spec, x + eye[i], y) - eval_phase(spec, x - eye[i], y)) / (2 * h)
        for i in range(d)
    ])
    gy = np.array([
        (eval_phase(spec, x, y + eye[j]) - eval_phase(spec, x, y - eye[j])) / (2 * h)
        for j in range(d)
    ])
    mixed = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            mixed[i, j] = (
                eval_phase(spec, x + eye[i], y + eye[j])
                - eval_phase(spec, x + eye[i], y - eye[j])
                - eval_phase(spec, x - eye[i], y + eye[j])
                + eval_phase(spec, x - eye[i], y - eye[j])
            ) / (4 * h * h)
    return gx, gy, mixed


def bordered_matrix(gx, gy, mixed) -> np.ndarray:
    d = len(gx)
    m = np.zeros((d + 1, d + 1))
    m[0, 1:] = gx
    m[1:, 0] = -np.asarray(gy)
    m[1:, 1:] = mixed
    return m


def rotational_curvature(spec: PhaseSpec, x, y) -> float:
    """det of the bordered derivative matrix, from the analytic formulas."""
    gx, gy, mixed = gradients(spec, x, y)
    return float(np.linalg.det(bordered_matrix(gx, gy, mixed)))


def rotational_curvature_fd(spec: PhaseSpec, x, y) -> float:
    """Same determinant built entirely from finite differences."""
    gx, gy, mixed = gradients_fd(spec, x, y)
    return float(np.linalg.det(bordered_matrix(gx, gy, mixed)))


# ---------------------------------------------------------------------------
# level-set sampling
# ---------------------------------------------------------------------------

def level_points(spec: PhaseSpec, x, t: float, count: int, seed: int = 0):
    """Sample points on {y : phi(x, y) = t}, each within LEVEL_TOL of the level.

    Every kind has a closed form: seeded directions from x for the distance
    kinds (through the Newton inverse of the warp for diffeo-distance), and
    seeded offsets along the level hyperplane or graph for dot-product and
    translated-paraboloid.  Points off the level by more than LEVEL_TOL are
    dropped, and an empty result raises.
    """
    x, _ = _check_pair(spec, x, np.zeros(spec.dim))
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    d = spec.dim
    kind = spec.kind
    pts = []

    if kind == KIND_UNIT_DISTANCE or kind == KIND_DIFFEO_DISTANCE:
        if t <= 0:
            raise ArgumentError("distance level must be positive")
        dirs = _directions(rng, d, count)
        for w in dirs:
            target = x + t * w
            y = target if kind == KIND_UNIT_DISTANCE else diffeo_inverse(spec, target)
            pts.append(y)
    elif kind == KIND_DOT_PRODUCT:
        nx = float(x @ x)
        if nx < 1e-12:
            raise SingularityError("dot-product level sets through x = 0 are degenerate")
        base = (t / nx) * x
        tangent = _tangent_basis(x)
        spread = rng.uniform(-1.5, 1.5, size=(count, d - 1))
        for row in spread:
            pts.append(base + tangent @ row)
    elif kind == KIND_PARABOLOID:
        spread = rng.uniform(-1.2, 1.2, size=(count, d - 1))
        for row in spread:
            y = np.empty(d)
            y[:-1] = x[:-1] + row
            y[-1] = x[-1] + float(row @ row) + t
            pts.append(y)

    pts = [p for p in pts if abs(eval_phase(spec, x, p) - t) <= LEVEL_TOL]
    if not pts:
        raise EmptyLevelError(f"no level-{t} points found for {spec.kind} from x={x.tolist()}")
    return [np.asarray(p) for p in pts[:count]]


def _directions(rng, d, count):
    if d == 2:
        # equi-angular fan with a seeded phase offset
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ang = phase + 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    vecs = rng.normal(size=(count, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _tangent_basis(x):
    d = len(x)
    q, _ = np.linalg.qr(np.column_stack([x, np.eye(d)[:, : d - 1]]))
    return q[:, 1:]


# ---------------------------------------------------------------------------
# frozen-parameter curves of the cubic family
# ---------------------------------------------------------------------------

def bourgain_curve(y1, y2, t):
    """Curve points (X, Y, Z) of the cubic family frozen at parameters (y1, y2, t).

    The family satisfies X = Y * Z identically, so every curve lies on that
    quadric surface; the compression scenario checks the residual numerically.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    t = np.asarray(t, dtype=float)
    X = -t * y2 - t * t * y1
    Y = -y2 - t * y1
    Z = t * np.ones_like(Y)
    return X, Y, Z
