"""Curvature-aware Drury-Arveson and de Branges-Rovnyak kernels.

The multiplier b is a convex combination of symmetrized Mobius
self-mappings with learnable poles; it keeps the induced kernel positive
definite for any number of poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BallPoint,
    Curvature,
    GeometryError,
    _interior_point,
    check_compatible,
)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.asarray(logits, dtype=np.float64)
    shifted = shifted - shifted.max()
    e = np.exp(shifted)
    return e / e.sum()


@dataclass(frozen=True)
class MultiplierParams:
    """Learnable poles in the ball plus weight logits mapped to the simplex."""

    poles: tuple
    weight_logits: np.ndarray

    def __post_init__(self):
        poles = tuple(self.poles)
        if len(poles) < 1:
            raise ValueError("at least one pole is required")
        for p in poles[1:]:
            check_compatible(poles[0], p)
        logits = np.asarray(self.weight_logits, dtype=np.float64)
        if logits.shape != (len(poles),):
            raise ValueError(
                f"expected {len(poles)} weight logits, got shape {logits.shape}"
            )
        if not np.all(np.isfinite(logits)):
            raise ValueError("weight logits must be finite")
        logits = logits.copy()
        logits.flags.writeable = False
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "weight_logits", logits)

    @property
    def m(self) -> int:
        return len(self.poles)

    @property
    def dim(self) -> int:
        return self.poles[0].dim

    @property
    def curvature(self) -> Curvature:
        return self.poles[0].curvature

    @property
    def weights(self) -> np.ndarray:
        """Softmax view of the logits: strictly positive, sums to one."""
        return softmax(self.weight_logits)

    def check_point(self, z: BallPoint) -> None:
        check_compatible(self.poles[0], z)


def _multiplier_rows(params: MultiplierParams, Z: np.ndarray, c: float):
    # Row k of the result is b(Z[k]).  Each pole a contributes
    # s*[c(a*z)a/(1+s) - z]/(1 - (c a*z)^2), which is smooth at a = 0 (where
    # it reduces to -z); the weighted sum over poles is one matrix product.
    A = np.stack([a.coords for a in params.poles])
    s = np.sqrt(1.0 - c * np.array([a.norm for a in params.poles]) ** 2)[:, None]
    caz = c * (A.conj() @ Z.T)
    coef = params.weights[:, None] * s / (1.0 - caz * caz)
    B = (coef * caz / (1.0 + s)).T @ A - coef.sum(axis=0)[:, None] * Z
    if np.any(np.sqrt(c) * np.linalg.norm(B, axis=1) >= 1.0):
        raise GeometryError("operation produced a point outside the ball")
    return B


def _kernel_matrix(params: MultiplierParams | None, points: list[BallPoint]):
    """K[i, j] = (1 - c b(z_i)* b(z_j)) / (1 - c z_i* z_j) over a point set.

    With params None the numerator is 1 (the Drury-Arveson kernel).
    """
    for p in points[1:]:
        check_compatible(points[0], p)
    c = points[0].curvature.c
    Z = np.stack([p.coords for p in points])
    den = 1.0 - c * (Z.conj() @ Z.T)
    if params is None:
        return 1.0 / den
    params.check_point(points[0])
    B = _multiplier_rows(params, Z, c)
    return (1.0 - c * (B.conj() @ B.T)) / den


def _distance_sq(K: np.ndarray) -> np.ndarray:
    """Squared RKHS distances d2[i, j] = K[i, i] + K[j, j] - 2 Re K[i, j].

    The diagonal is read from K itself, so d2[i, i] is exactly 0; tiny
    negative rounding residues are clamped to zero.
    """
    diag = K.diagonal().real
    d2 = diag[:, None] + diag[None, :] - 2.0 * K.real
    worst = d2.min()
    if worst < -1e-12:
        raise ArithmeticError(f"squared distance {worst} below rounding tolerance")
    return np.maximum(d2, 0.0)


def da_kernel(z_i: BallPoint, z_j: BallPoint) -> complex:
    """Drury-Arveson kernel 1/(1 - c * z_i* z_j)."""
    return complex(_kernel_matrix(None, [z_i, z_j])[0, 1])


def multiplier_b(params: MultiplierParams, z: BallPoint) -> BallPoint:
    """b(z) = 1/2 sum_i w_i (phi_{a_i}(z) + phi_{-a_i}(z)), in closed form.

    The output is a convex combination of ball points, hence strictly
    inside the ball; b(0) = 0 and b(-z) = -b(z).
    """
    params.check_point(z)
    b = _multiplier_rows(params, z.coords[None, :], z.curvature.c)[0]
    return _interior_point(b, z.curvature)


def dbr_kernel(params: MultiplierParams, z_i: BallPoint, z_j: BallPoint) -> complex:
    """Curvature-aware de Branges-Rovnyak kernel.

    k_c^b(z_i, z_j) = (1 - c * b(z_i)* b(z_j)) / (1 - c * z_i* z_j).
    Diagonal values are real and strictly positive.
    """
    return complex(_kernel_matrix(params, [z_i, z_j])[0, 1])


def rkhs_distance_sq(
    params: MultiplierParams, z_i: BallPoint, z_j: BallPoint
) -> float:
    """Squared RKHS distance between representers.

    ||k^_{z_i} - k^_{z_j}||^2 = k(z_i,z_i) + k(z_j,z_j) - 2 Re k(z_i,z_j),
    with tiny negative rounding residues clamped to zero.
    """
    return float(_distance_sq(_kernel_matrix(params, [z_i, z_j]))[0, 1])


def pointwise_contraction_check(params: MultiplierParams, z: BallPoint) -> bool:
    """Pointwise necessary condition sqrt(c)*||b(z)|| < 1 for the multiplier bound."""
    b = multiplier_b(params, z)
    return bool(np.sqrt(z.curvature.c) * b.norm < 1.0)
