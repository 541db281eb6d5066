"""Poincare-ball primitives at arbitrary negative curvature -c.

Points live in the open ball of radius 1/sqrt(c) in C^n.  Real feature
vectors are embedded with zero imaginary parts.  The conformal factor
follows the convention lambda_c(z) = 1/(1 - c*||z||^2), not the more
common 2/(1 - c*||z||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff import Node, record, value

# Points with sqrt(c)*||z|| >= 1 - BOUNDARY_MARGIN are rejected at
# construction; ingestion paths must project first.
BOUNDARY_MARGIN = 1e-9
# The largest sqrt(c)*||z|| that exp0 returns: tanh is clamped there.
TANH_MAX = 1.0 - 2.0 * BOUNDARY_MARGIN


class DimensionMismatch(ValueError):
    """Operands have different dimension or curvature."""


class GeometryError(ValueError):
    """Input violates a geometric precondition."""


@dataclass(frozen=True)
class Curvature:
    """Curvature parameter c > 0; the hyperbolic space has curvature -c."""

    c: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise GeometryError(f"curvature must be positive and finite, got {self.c}")

    @property
    def radius(self) -> float:
        return 1.0 / np.sqrt(self.c)


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A complex vector strictly inside the ball of radius 1/sqrt(c),
    checked as `_interior_rows` checks a matrix row."""

    coords: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise GeometryError("coords must be a vector of dimension >= 1")
        arr = _interior_rows(arr[None], self.curvature)[0].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __neg__(self) -> "BallPoint":
        return _interior_point(-self.coords, self.curvature)


@dataclass(frozen=True)
class TangentVector:
    """A real vector in the tangent space at the origin."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise GeometryError("coords must be a vector of dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("tangent vector must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)


def _unchecked_point(coords: np.ndarray, curvature: Curvature) -> BallPoint:
    """A BallPoint over read-only complex128 coords, without the checks."""
    p = object.__new__(BallPoint)
    object.__setattr__(p, "coords", coords)
    object.__setattr__(p, "curvature", curvature)
    return p


def _interior_point(coords: np.ndarray, curvature: Curvature) -> BallPoint:
    # Results of ball automorphisms are mathematically interior but may land
    # inside the construction margin; validate strict interiority only.
    arr = np.asarray(coords, dtype=np.complex128)
    if np.sqrt(curvature.c) * np.linalg.norm(arr) >= 1.0:
        raise GeometryError("operation produced a point outside the ball")
    arr = arr.copy()
    arr.flags.writeable = False
    return _unchecked_point(arr, curvature)


def check_compatible(a: BallPoint, b: BallPoint) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.curvature != b.curvature:
        raise DimensionMismatch(
            f"curvature mismatch: {a.curvature.c} vs {b.curvature.c}"
        )


def hdot(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product u* v = sum_k conj(u_k) v_k."""
    return complex(np.vdot(u, v))


def conformal_factor(z: BallPoint) -> float:
    """lambda_c(z) = 1/(1 - c*||z||^2); equals 1 at the origin."""
    return 1.0 / (1.0 - z.curvature.c * z.norm**2)


def _check_interior(Z: np.ndarray, curvature: Curvature) -> None:
    """GeometryError unless every row z of the finite matrix Z (real or
    complex) keeps sqrt(c)*||z|| < 1 - BOUNDARY_MARGIN: the one margin
    check, of a `BallPoint` and of every coordinate matrix."""
    r = np.sqrt(curvature.c) * np.sqrt((Z * Z.conj()).real.sum(axis=-1))
    outside = np.flatnonzero(r >= 1.0 - BOUNDARY_MARGIN)
    if outside.size:
        raise GeometryError(
            "point too close to the ball boundary: sqrt(c)*||z|| = "
            f"{r[outside[0]]}"
        )


def _interior_rows(Z, curvature: Curvature) -> np.ndarray:
    """Z as a float64 (or, when complex, complex128) matrix of finite rows
    of dimension >= 1 inside the construction margin; GeometryError
    otherwise.  A `BallPoint` is checked here as a one-row matrix."""
    arr = np.asarray(Z, dtype=np.complex128 if np.iscomplexobj(Z) else np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise GeometryError("coords must be a vector of dimension >= 1")
    if not np.isfinite(arr).all():
        raise GeometryError("coords must be finite")
    _check_interior(arr, curvature)
    return arr


def check_clip(beta, eps) -> None:
    """Parameters of the clip projection: beta > 0 finite, eps in (0, 1)
    and beta*(1 - eps) < 1, so that clipped points stay inside the ball."""
    if not (beta > 0 and np.isfinite(beta)):
        raise GeometryError(f"beta must be positive, got {beta}")
    if not (0.0 < eps < 1.0):
        raise GeometryError(f"eps must lie in (0,1), got {eps}")
    if beta * (1.0 - eps) >= 1.0:
        raise GeometryError(
            f"beta*(1-eps) = {beta * (1.0 - eps)} >= 1 would allow points "
            "on or outside the ball boundary"
        )


def _rescaled(xv, c, huge):
    """xv with each row flagged in huge (its squared norm overflows) times
    the power of two 2^k that brings sqrt(c)*|row| near 2^300, the squared
    norms of the result and k (0 in the other rows, which keep their bits).
    A flagged row lies past the clamp of `_exp0` and outside the shell of
    `_clip`, where both maps see its direction only."""
    _, e_row = np.frexp(np.abs(xv).max(axis=-1, keepdims=True))
    k = np.where(huge, 300 - e_row - np.frexp(c)[1] // 2, 0)
    xv = np.ldexp(xv, k)
    return xv, (xv * xv).sum(axis=-1, keepdims=True), k


def _exp0(x, c):
    """Exponential map at the origin of each vector along the last axis of
    x: tanh(r)/r * x with r = sqrt(c)|x|, by its series below r^2 = 1e-8
    (zero rows included), with tanh(r) clamped at TANH_MAX.  One tape
    node over x and c (arrays or `diff.Node`s); past the clamp its VJP
    takes tanh' = 0."""
    xv, cv = value(x), value(c)
    sq = (xv * xv).sum(axis=-1, keepdims=True)
    y = cv * sq
    # The series, the clamp and the rescaling are formed only when some
    # row needs them; no row with y <= 100 meets the clamp.
    series = y.min(initial=np.inf) < 1e-8
    top = y.max(initial=0.0)
    far = top > 100.0
    k = None
    if top == np.inf:
        xv, sq, k = _rescaled(xv, cv, np.isinf(y))
        y = cv * sq
    r = np.sqrt(np.where(y < 1e-8, 1.0, y) if series else y)
    t = np.tanh(r)
    if far:
        clamped = t > TANH_MAX
        t = np.where(clamped, TANH_MAX, t)
    f = t / r
    if series:
        ys = np.minimum(y, 1e-8)
        f = np.where(y < 1e-8, 1.0 - ys * (1.0 / 3.0) + (ys * ys) * (2.0 / 15.0), f)

    def vjp(g):
        gxv = (g * xv).sum(axis=-1, keepdims=True)
        df = ((1.0 - t * t) - f) / r * (0.5 / r)
        if series:
            df = np.where(y < 1e-8, (4.0 / 15.0) * y - 1.0 / 3.0, df)
        gy = gxv * df
        if far:
            # Past the clamp f = TANH_MAX/r and df = -f/(2y), taken in an
            # order that never squares r.
            gy = np.where(clamped, -(gxv * f) / (2.0 * y), gy)
        gx = gc = None
        if isinstance(x, Node):
            gx = g * f + (2.0 * cv) * gy * xv
            if k is not None:
                gx = np.ldexp(gx, k)
        if isinstance(c, Node):
            gc = (gy * sq).sum()
        return gx, gc

    return record(f * xv, vjp, x, c)


def _clip(x, c, beta, eps):
    """Clip projection of each vector along the last axis of x: beta*x
    inside the shell s = sqrt(c)|x| <= 1 - eps, beta*(1 - eps)/s * x
    outside (|x| is taken as sqrt(|x|^2 + 1e-300), so zero rows are
    inside).  One tape node over x and c (arrays or `diff.Node`s)."""
    xv, cv = value(x), value(c)
    sq = (xv * xv).sum(axis=-1, keepdims=True)
    k = None
    if sq.max(initial=0.0) == np.inf:
        xv, sq, k = _rescaled(xv, cv, np.isinf(sq))
    s = np.sqrt(cv) * np.sqrt(sq + 1e-300)
    inside = s <= 1.0 - eps
    factor = np.where(inside, beta, beta * (1.0 - eps) / s)

    def vjp(g):
        # Outside the shell the image factor*x has derivative
        # factor*(g - c(g.x)x/s^2) along x and -factor(g.x)/(2c) along c.
        h = np.where(inside, 0.0, factor * (g * xv).sum(axis=-1, keepdims=True))
        gx = gc = None
        if isinstance(x, Node):
            gx = g * factor - (h * cv / s) * (xv / s)
            if k is not None:
                gx = np.ldexp(gx, k)
        if isinstance(c, Node):
            gc = -h.sum() / (2.0 * cv)
        return gx, gc

    return record(factor * xv, vjp, x, c)


def exp0(v: TangentVector, curvature: Curvature) -> BallPoint:
    """Exponential map at the origin: v -> tanh(sqrt(c)*||v||) * v/(sqrt(c)*||v||).

    The removable singularity at v = 0 maps to the origin.  The radial
    factor is clamped at TANH_MAX, just inside the construction margin,
    so that arbitrarily large tangent vectors still produce valid points.
    """
    return BallPoint(_exp0(v.coords[None], curvature.c)[0], curvature)


def clip_project(x: np.ndarray, curvature: Curvature, beta: float,
                 eps: float) -> BallPoint:
    """Clipped projection beta * min{1, (1-eps)/(sqrt(c)*||x||)} * x."""
    check_clip(beta, eps)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise GeometryError("input vector must be finite")
    return BallPoint(_clip(x[None], curvature.c, beta, eps)[0], curvature)


def mobius_decompose(a: BallPoint, z: BallPoint):
    """Split z into components parallel/orthogonal to a, with scale s.

    Returns (P, Q, s) where P = (a*z/||a||^2) a (zero if a = 0),
    Q = z - P and s = sqrt(1 - c*||a||^2).  Invariants: P + Q = z,
    P parallel to a, a*Q = 0.
    """
    check_compatible(a, z)
    s = float(np.sqrt(1.0 - a.curvature.c * a.norm**2))
    if a.norm == 0.0:
        P = np.zeros_like(z.coords)
    else:
        P = (hdot(a.coords, z.coords) / a.norm**2) * a.coords
    Q = z.coords - P
    return P, Q, s


def mobius_map(a: BallPoint, z: BallPoint) -> BallPoint:
    """Mobius self-mapping phi_a^c(z) = (a - P - s*Q)/(1 - c*a*z).

    Evaluated through the equivalent form a - c(a*z)a/(1+s) - s*z in the
    numerator, which removes the 0/0 in P at a = 0.
    """
    check_compatible(a, z)
    c = a.curvature.c
    az = hdot(a.coords, z.coords)
    s = np.sqrt(1.0 - c * a.norm**2)
    num = a.coords - (c * az / (1.0 + s)) * a.coords - s * z.coords
    return _interior_point(num / (1.0 - c * az), a.curvature)


def pseudo_distance(z_i: BallPoint, z_j: BallPoint) -> float:
    """Pseudo-hyperbolic distance rho = sqrt(c)*||phi_{z_i}(z_j)|| in [0,1)."""
    check_compatible(z_i, z_j)
    return float(np.sqrt(z_i.curvature.c) * mobius_map(z_i, z_j).norm)


def pseudo_distance_closed_form(z_i: BallPoint, z_j: BallPoint) -> float:
    """rho via sqrt(1 - (1-c||z_i||^2)(1-c||z_j||^2)/|1-c z_i*z_j|^2)."""
    check_compatible(z_i, z_j)
    c = z_i.curvature.c
    num = (1.0 - c * z_i.norm**2) * (1.0 - c * z_j.norm**2)
    den = abs(1.0 - c * hdot(z_i.coords, z_j.coords)) ** 2
    return float(np.sqrt(max(1.0 - num / den, 0.0)))


def geodesic_distance(z_i: BallPoint, z_j: BallPoint) -> float:
    """Geodesic distance d = (2/sqrt(c)) * artanh(rho)."""
    rho = pseudo_distance(z_i, z_j)
    return float(2.0 / np.sqrt(z_i.curvature.c) * np.arctanh(rho))
