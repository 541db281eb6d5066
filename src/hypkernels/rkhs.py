"""Curvature-aware Drury-Arveson and de Branges-Rovnyak kernels.

The multiplier b is a convex combination of symmetrized Mobius
self-mappings with learnable poles; it keeps the induced kernel positive
definite for any number of poles.  `MultiplierParams(poles, weight_logits,
curvature)` holds the poles in their one representation, the rows of a
read-only m x dim matrix (real or complex), checked once when it is
built; the layers below take that matrix as one operand.

b(Z), the de Branges-Rovnyak matrix, the Gram distance and softmax are
defined once, here, for the pointwise functions, `kernels` and training
(`learning`).  Each records one `diff` tape node with a real-only
closed-form VJP; the forwards of the first three also run on complex
points.  The de Branges-Rovnyak matrix comes in two shapes with one
layout downstream, the cross matrix (see `_dbr`): an episode's rows
against its columns, bordered by closed-form self-kernels (training and
evaluation), and the Hermitian Gram matrix of `gram`, the pointwise
kernels and `checks`, which `_bordered` borders by its own diagonal.
The Hermitian form runs on plain arrays only and records no node.

Points run as the rows of one checked coordinate matrix.  A public
function that takes `BallPoint`s (`da_kernel`, `dbr_kernel`, ...) turns
them into that matrix once, by `_stacked`; `_rows` and the layers take
matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff import Node, record, value
from .geometry import (
    BallPoint,
    Curvature,
    DimensionMismatch,
    GeometryError,
    _interior_point,
    _interior_rows,
    check_compatible,
)


def softmax(logits):
    """exp(logits) normalised onto the simplex; arrays and tape nodes alike.
    One tape node over the logits; its VJP is y * (g - sum(g * y))."""
    x = value(logits)
    e = np.exp(x - x.max())
    y = e / e.sum()
    return record(y, lambda g: (y * (g - (g * y).sum()),), logits)


@dataclass(frozen=True)
class MultiplierParams:
    """Learnable poles in the ball plus weight logits mapped to the simplex.

    The poles are the rows of one read-only m x dim matrix, real or
    complex, checked once as `BallPoint` checks a point (finite, inside
    the construction margin of the curvature)."""

    poles: np.ndarray
    weight_logits: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        poles = _interior_rows(self.poles, self.curvature).copy()
        if len(poles) < 1:
            raise ValueError("at least one pole is required")
        logits = np.array(self.weight_logits, dtype=np.float64)
        if logits.shape != (len(poles),):
            raise ValueError(f"expected {len(poles)} weight logits, got shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("weight logits must be finite")
        poles.flags.writeable = logits.flags.writeable = False
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "weight_logits", logits)

    @property
    def m(self) -> int:
        return self.poles.shape[0]

    @property
    def dim(self) -> int:
        return self.poles.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Softmax view of the logits: strictly positive, sums to one."""
        return softmax(self.weight_logits)


def _multiplier(Z, P, w, c):
    """b(z) for every row z of Z (... x n x dim), all poles in one matrix product.

    b(z) = sum_j w_j s_j (lead_j a_j - z) / (1 - (c<a_j,z>)^2) over the
    poles a_j (the rows of P) with s_j = sqrt(1 - c|a_j|^2) and
    lead_j = c<a_j,z>/(1 + s_j); it is smooth at a_j = 0, where the term
    is -z.  One tape node over Z, P, the weights w and c.
    """
    cv, Pv, wv, Zv = value(c), value(P), value(w), value(Z)
    ZP = Zv @ Pv.conj().mT
    caz = cv * ZP
    pp = (Pv * Pv.conj()).real.sum(axis=-1)
    s = np.sqrt(1.0 - cv * pp)
    den = 1.0 - caz * caz
    coef = wv * s / den
    lead = caz / (1.0 + s)
    M = coef * lead
    coef_sum = coef.sum(axis=-1, keepdims=True)

    def vjp(g):
        gM = g @ Pv.mT
        gcoef = gM * lead - (g * Zv).sum(axis=-1, keepdims=True)
        glead = gM * coef
        gcaz = glead / (1.0 + s) + gcoef * coef * (2.0 * caz) / den
        # s_j enters lead and coef; q_j = 1 - c|a_j|^2 = s_j^2.
        gq = (gcoef * wv / den - glead * lead / (1.0 + s)).sum(axis=-2) * (0.5 / s)
        gZ = gP = gw = gc = None
        if isinstance(Z, Node):
            gZ = (cv * gcaz) @ Pv - coef_sum * g
        if isinstance(P, Node):
            gP = M.mT @ g + (cv * gcaz).mT @ Zv - (2.0 * cv) * gq[..., None] * Pv
        if isinstance(w, Node):
            gw = (gcoef * s / den).sum(axis=-2)
        if isinstance(c, Node):
            gc = (gcaz * ZP).sum() - (gq * pp).sum()
        return gZ, gP, gw, gc

    return record(M @ Pv - coef_sum * Zv, vjp, Z, P, w, c)


def _dbr(c, Z, B=None, n=None, ZZ=None):
    """De Branges-Rovnyak kernel K_ij = (1 - c<b_i,b_j>)/(1 - c<z_i,z_j>)
    over the rows z of Z and b = b(z) of B; 1/(1 - c<z_i,z_j>)
    (Drury-Arveson) without a multiplier.

    Without n: the Hermitian Gram matrix over all rows, for `gram`, the
    pointwise kernels and `checks`; plain arrays, complex or real.

    With n: the cross matrix of the first n rows (the episode's rows)
    against the remaining m (its columns), on real points, as one tape
    node over c, Z and B.  It is the n x m block K(rows, cols) bordered
    by the self-kernels k(z, z) = (1 - c|b|^2)/(1 - c|z|^2), each from its
    own point in closed form: an (n+1) x (m+1) array whose last column
    holds the rows' self-kernels, whose last row holds the columns' and
    whose corner is 1.  A point with 1 - c|z|^2 <= 0 (rounded onto or
    past the ball boundary) has no kernel: its row or column, border
    included, is nan, as is an entry whose denominator is <= 0.  The
    caller may pass ZZ, the `_cross_products` of Z, formed once for many
    steps over the same points.
    """
    cv, Zv, Bv = value(c), value(Z), value(B)
    if n is None:
        # Unnamed products let numpy reuse their buffers (n x n each).
        den = 1.0 - cv * (Zv.conj() @ Zv.mT)
        return 1.0 / den if B is None else (1.0 - cv * (Bv.conj() @ Bv.mT)) / den
    PZ = _cross_products(Zv, n) if ZZ is None else ZZ
    den = 1.0 - cv * PZ
    PB = None if B is None else _cross_products(Bv, n)
    X = 1.0 / den if B is None else (1.0 - cv * PB) / den
    if den.min() <= 0.0:
        off = den <= 0.0
        X = np.where(off | off[..., :, -1:] | off[..., -1:, :], np.nan, X)

    def vjp(g):
        gden = -g * X / den
        gnum = None if B is None else g / den
        gc = None
        if isinstance(c, Node):   # one sum over both halves, end to end, as one array
            gc = -(gden * PZ if B is None else np.concatenate([gden * PZ, gnum * PB])).sum()
        # The cotangents of Z and B, where on the tape, under their
        # products, scaled by d(1 - c P)/dP = -c.
        return (gc, *(_cross_products_vjp(-cv * gP, V, n) if isinstance(x, Node) else None
                      for x, V, gP in ((Z, Zv, gden), (B, Bv, gnum))))

    return record(X, vjp, c, Z, B)


def _cross_products(V, n):
    """The inner products of the rows of V (... x (n + m) x dim, real)
    that the cross `_dbr` reads: the first n rows against the other m,
    bordered by the |v|^2 of each row (last column) and column (last
    row), 0 in the corner; ... x (n + 1) x (m + 1)."""
    P = np.zeros(V.shape[:-2] + (n + 1, V.shape[-2] - n + 1))
    P[..., :-1, :-1] = V[..., :n, :] @ V[..., n:, :].mT
    # |v|^2 as a product with ones: numpy sums a short last axis slowly.
    sq = ((V * V) @ np.ones((V.shape[-1], 1)))[..., 0]
    P[..., :-1, -1] = sq[..., :n]
    P[..., -1, :-1] = sq[..., n:]
    return P


def _cross_products_vjp(gP, V, n):
    """The cotangent of V under `_cross_products(V, n)`, from that of P."""
    block = gP[..., :-1, :-1]
    gV = np.empty(V.shape)
    gV[..., :n, :] = block @ V[..., n:, :] + 2.0 * gP[..., :-1, -1:] * V[..., :n, :]
    gV[..., n:, :] = block.mT @ V[..., :n, :] + 2.0 * gP[..., -1:, :-1].mT * V[..., n:, :]
    return gV


def _bordered(K):
    """The cross matrix of a Hermitian Gram matrix K (rows and columns
    the same points): K bordered by its own diagonal, the layout that
    `_dbr` gives with n."""
    size = K.shape[-1]
    X = np.ones(K.shape[:-2] + (size + 1, size + 1), dtype=K.dtype)
    X[..., :-1, :-1] = K
    diag = np.arange(size)
    X[..., :-1, -1] = X[..., -1, :-1] = K[..., diag, diag]
    return X


def _gram_distance(X, strict=False):
    """Kernel-induced squared distance max(0, k_ii + k_jj - 2 Re K_ij) of a
    cross matrix X (see `_dbr`): its n x m block against its border.  A
    nan stays nan.  With strict (the Hermitian Gram of `gram` and the
    pointwise distance), a value below -1e-12 raises ArithmeticError;
    otherwise negative rounding residues clamp silently.  One tape node
    over X."""
    Xv = value(X)
    raw = Xv[..., :-1, -1:].real + Xv[..., -1:, :-1].real - 2.0 * Xv[..., :-1, :-1].real
    if strict and raw.min() < -1e-12:
        raise ArithmeticError(f"squared distance {raw.min()} below rounding tolerance")
    dist = np.maximum(raw, 0.0)

    def vjp(h):
        h = np.where(dist > 0.0, h, 0.0)
        gX = np.zeros(Xv.shape)
        gX[..., :-1, :-1] = -2.0 * h
        gX[..., :-1, -1] = h.sum(axis=-1)
        gX[..., -1, :-1] = h.sum(axis=-2)
        return (gX,)

    return record(dist, vjp, X)


def _as_real(*arrays):
    """The arrays (None passes through) as float64 when none of them has a
    nonzero imaginary part, as complex128 otherwise: the kernel path runs
    in real arithmetic on real points and poles."""
    if any(a is not None and np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return tuple(None if a is None else a.astype(np.complex128, copy=False)
                     for a in arrays)
    return tuple(None if a is None else np.ascontiguousarray(a.real, dtype=np.float64)
                 for a in arrays)


def _stacked(points: list[BallPoint]) -> tuple[np.ndarray, Curvature]:
    """The coordinates of compatible BallPoints as the rows of one
    complex128 matrix, with their curvature: the form in which a point
    list enters the package.  The rows are not checked again; each
    `BallPoint` was checked as it was built."""
    for p in points[1:]:
        check_compatible(points[0], p)
    return np.stack([p.coords for p in points]), points[0].curvature


def _rows(params: MultiplierParams | None, Z: np.ndarray, curvature: Curvature):
    """The operands (c, Z, B = b(Z) or None) of `_dbr` over the rows of a
    checked coordinate matrix Z at the given curvature: the output of
    `geometry._interior_rows` or of `_stacked`.  The rows must match the
    params' dimension and curvature.

    Z and B are float64 when neither the points nor the poles have a
    nonzero imaginary part, and complex128 otherwise (see `_as_real`).
    GeometryError when a row of B leaves the ball.
    """
    c = curvature.c
    if params is None:
        return c, _as_real(Z)[0], None
    if Z.shape[1] != params.dim:
        raise DimensionMismatch(f"dimension mismatch: {params.dim} vs {Z.shape[1]}")
    if curvature != params.curvature:
        raise DimensionMismatch(
            f"curvature mismatch: {params.curvature.c} vs {curvature.c}")
    Z, P = _as_real(Z, params.poles)
    B = _multiplier(Z, P, params.weights, c)
    if np.any(np.sqrt(c) * np.linalg.norm(B, axis=-1) >= 1.0):
        raise GeometryError("operation produced a point outside the ball")
    return c, Z, B


def da_kernel(z_i: BallPoint, z_j: BallPoint) -> complex:
    """Drury-Arveson kernel 1/(1 - c * z_i* z_j)."""
    return complex(_dbr(*_rows(None, *_stacked([z_i, z_j])))[0, 1])


def multiplier_b(params: MultiplierParams, z: BallPoint) -> BallPoint:
    """b(z) = 1/2 sum_i w_i (phi_{a_i}(z) + phi_{-a_i}(z)), in closed form.

    The output is a convex combination of ball points, hence strictly
    inside the ball; b(0) = 0 and b(-z) = -b(z).
    """
    _, _, B = _rows(params, *_stacked([z]))
    return _interior_point(B[0], z.curvature)


def dbr_kernel(params: MultiplierParams, z_i: BallPoint, z_j: BallPoint) -> complex:
    """Curvature-aware de Branges-Rovnyak kernel.

    k_c^b(z_i, z_j) = (1 - c * b(z_i)* b(z_j)) / (1 - c * z_i* z_j).
    Diagonal values are real and strictly positive.
    """
    return complex(_dbr(*_rows(params, *_stacked([z_i, z_j])))[0, 1])


def rkhs_distance_sq(
    params: MultiplierParams, z_i: BallPoint, z_j: BallPoint
) -> float:
    """Squared RKHS distance between representers.

    ||k^_{z_i} - k^_{z_j}||^2 = k(z_i,z_i) + k(z_j,z_j) - 2 Re k(z_i,z_j),
    with tiny negative rounding residues clamped to zero.
    """
    K = _bordered(_dbr(*_rows(params, *_stacked([z_i, z_j]))))
    return float(_gram_distance(K, strict=True)[0, 1])


def pointwise_contraction_check(params: MultiplierParams, z: BallPoint) -> bool:
    """Pointwise necessary condition sqrt(c)*||b(z)|| < 1 for the multiplier
    bound; False when b(z) leaves the ball, which `multiplier_b` refuses."""
    try:
        b = multiplier_b(params, z)
    except GeometryError:
        return False
    return bool(np.sqrt(z.curvature.c) * b.norm < 1.0)
