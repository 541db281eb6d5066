"""Poincare-ball primitives at arbitrary negative curvature -c.

Points live in the open ball of radius 1/sqrt(c) in C^n.  Real feature
vectors are embedded with zero imaginary parts.  The conformal factor
follows the convention lambda_c(z) = 1/(1 - c*||z||^2), not the more
common 2/(1 - c*||z||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Points with sqrt(c)*||z|| >= 1 - BOUNDARY_MARGIN are rejected at
# construction; ingestion paths must project first.
BOUNDARY_MARGIN = 1e-9


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
    """A complex vector strictly inside the ball of radius 1/sqrt(c)."""

    coords: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise GeometryError("coords must be a vector of dimension >= 1")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise GeometryError("coords must be finite")
        if np.sqrt(self.curvature.c) * np.linalg.norm(arr) >= 1.0 - BOUNDARY_MARGIN:
            raise GeometryError(
                "point too close to the ball boundary: sqrt(c)*||z|| = "
                f"{np.sqrt(self.curvature.c) * np.linalg.norm(arr)}"
            )
        arr = arr.copy()
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


def _interior_point(coords: np.ndarray, curvature: Curvature) -> BallPoint:
    # Results of ball automorphisms are mathematically interior but may land
    # inside the construction margin; validate strict interiority only.
    arr = np.asarray(coords, dtype=np.complex128)
    if np.sqrt(curvature.c) * np.linalg.norm(arr) >= 1.0:
        raise GeometryError("operation produced a point outside the ball")
    p = object.__new__(BallPoint)
    arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(p, "coords", arr)
    object.__setattr__(p, "curvature", curvature)
    return p


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


def _row_norms(X: np.ndarray) -> np.ndarray:
    """||x|| of each row of a real matrix, one `dot` per row: the
    reduction `np.linalg.norm` applies to a single vector, so the bits
    match it (a reduction over axis 1 sums in another order)."""
    return np.sqrt([row.dot(row) for row in X])


def _checked_rows(X, message: str) -> np.ndarray:
    """X as a float64 matrix of finite rows of dimension >= 1."""
    arr = np.asarray(X, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise GeometryError(message)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise GeometryError("coords must be a vector of dimension >= 1")
    return np.ascontiguousarray(arr)


def _ball_points(Y: np.ndarray, curvature: Curvature) -> list[BallPoint]:
    """BallPoints over the rows of a finite real matrix, checked against
    the boundary margin as `BallPoint` checks each point; the rows share
    one read-only complex array."""
    Z = Y.astype(np.complex128)
    # np.linalg.norm of a complex row: real and imaginary dots, summed.
    r = np.sqrt(curvature.c) * np.sqrt(
        [a.dot(a) + b.dot(b) for a, b in zip(Z.real, Z.imag)])
    outside = np.flatnonzero(r >= 1.0 - BOUNDARY_MARGIN)
    if outside.size:
        raise GeometryError(
            "point too close to the ball boundary: sqrt(c)*||z|| = "
            f"{r[outside[0]]}"
        )
    Z.flags.writeable = False
    points = []
    for row in Z:
        p = object.__new__(BallPoint)
        object.__setattr__(p, "coords", row)
        object.__setattr__(p, "curvature", curvature)
        points.append(p)
    return points


def exp0_rows(V, curvature: Curvature) -> list[BallPoint]:
    """`exp0` of each row of an n x dim real matrix, in one pass.

    Each point is bit-identical to `exp0(TangentVector(row), curvature)`.
    """
    X = _checked_rows(V, "tangent vector must be finite")
    x = np.sqrt(curvature.c) * _row_norms(X)
    t = np.minimum(np.tanh(x), 1.0 - 2.0 * BOUNDARY_MARGIN)
    # Rows with x < 1e-150 are mapped unscaled.
    scale = np.divide(t, x, out=np.ones_like(x), where=x >= 1e-150)
    return _ball_points(scale[:, np.newaxis] * X, curvature)


def exp0(v: TangentVector, curvature: Curvature) -> BallPoint:
    """Exponential map at the origin: v -> tanh(sqrt(c)*||v||) * v/(sqrt(c)*||v||).

    The removable singularity at v = 0 maps to the origin.  The radial
    factor is clamped just inside the construction margin so that
    arbitrarily large tangent vectors still produce valid points.
    """
    return exp0_rows(v.coords[np.newaxis], curvature)[0]


def clip_project_rows(
    X, curvature: Curvature, beta: float, eps: float
) -> list[BallPoint]:
    """`clip_project` of each row of an n x dim real matrix, in one pass.

    Each point is bit-identical to `clip_project(row, curvature, beta, eps)`.
    """
    if not (beta > 0 and np.isfinite(beta)):
        raise GeometryError(f"beta must be positive, got {beta}")
    if not (0.0 < eps < 1.0):
        raise GeometryError(f"eps must lie in (0,1), got {eps}")
    if beta * (1.0 - eps) >= 1.0:
        raise GeometryError(
            f"beta*(1-eps) = {beta * (1.0 - eps)} >= 1 would allow points "
            "on or outside the ball boundary"
        )
    X = _checked_rows(X, "input vector must be finite")
    nrm = _row_norms(X)
    # Rows whose norm is 0 (it underflows for tiny entries) map unscaled.
    ratio = np.divide(1.0 - eps, np.sqrt(curvature.c) * nrm,
                      out=np.ones_like(nrm), where=nrm != 0.0)
    factor = np.where(nrm == 0.0, 1.0, beta * np.minimum(1.0, ratio))
    return _ball_points(factor[:, np.newaxis] * X, curvature)


def clip_project(
    x: np.ndarray, curvature: Curvature, beta: float, eps: float
) -> BallPoint:
    """Clipped projection beta * min{1, (1-eps)/(sqrt(c)*||x||)} * x."""
    return clip_project_rows(
        np.asarray(x, dtype=np.float64)[np.newaxis], curvature, beta, eps
    )[0]


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
